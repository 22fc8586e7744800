"""Tests for the real-run stage (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss.mean import MeanLoss
from repro.core.realrun import real_run
from repro.engine.cube import CubeCells, align_cell_key
from repro.engine.groupby import group_rows

ATTRS = ("passenger_count", "payment_type")
THETA = 0.05


@pytest.fixture()
def pipeline(rides_tiny):
    rng = np.random.default_rng(0)
    gs = draw_global_sample(rides_tiny, rng)
    loss = MeanLoss("fare_amount")
    dry = dry_run(rides_tiny, ATTRS, loss, THETA, gs)
    real = real_run(rides_tiny, dry, loss, seed=1)
    return rides_tiny, loss, dry, real


class TestMaterialization:
    def test_one_entry_per_iceberg_cell(self, pipeline):
        _, __, dry, real = pipeline
        assert {c.key for c in real.cells} == set(dry.iceberg_stats)

    def test_raw_indices_match_cell_population(self, pipeline):
        table, _, __, real = pipeline
        cube = CubeCells(table, ATTRS)
        for cell in real.cells:
            expected = set(cube.cell_indices(cell.key).tolist())
            assert set(cell.raw_indices.tolist()) == expected

    def test_sample_indices_subset_of_raw(self, pipeline):
        _, __, ___, real = pipeline
        for cell in real.cells:
            assert set(cell.sample_indices.tolist()) <= set(cell.raw_indices.tolist())

    def test_every_local_sample_meets_threshold(self, pipeline):
        table, loss, _, real = pipeline
        values = loss.extract(table)
        for cell in real.cells:
            raw = values[cell.raw_indices]
            sample = values[cell.sample_indices]
            assert loss.loss(raw, sample) <= THETA

    def test_sampler_diagnostics_recorded(self, pipeline):
        _, __, ___, real = pipeline
        for cell in real.cells:
            assert cell.sampling.size == len(cell.sample_indices)
            assert cell.sampling.achieved_loss <= THETA


class TestStrategySelection:
    def test_non_iceberg_cuboids_skipped(self, pipeline):
        _, __, dry, real = pipeline
        empty = sum(1 for cells in dry.iceberg_cells_by_cuboid.values() if not cells)
        assert real.skipped_cuboids == empty

    @pytest.mark.parametrize("strategy", ["join-prune", "full-groupby"])
    def test_forced_strategies_agree(self, rides_tiny, strategy):
        """Either of Algorithm 2's two retrievals, run by hand, finds the
        very rows ``real_run`` derives from the base cells."""
        _assert_same_arrays_as_default(rides_tiny, ATTRS, THETA, REFERENCES[strategy])


def _groupby_reference(table, dry):
    """Algorithm 2's full-GroupBy retrieval: per iceberg cuboid, group
    the raw table by the cuboid's attributes and keep the iceberg keys —
    ``(key, rows)`` in the dry run's cell order."""
    reference = []
    for gset, iceberg_keys in dry.iceberg_cells_by_cuboid.items():
        groups = group_rows(table, gset)
        rows = {
            align_cell_key(gset, groups.decode_key(g), dry.attrs): groups.group_indices[g]
            for g in range(groups.num_groups)
        }
        reference.extend((key, rows[key]) for key in iceberg_keys)
    return reference


def _join_prune_reference(table, dry):
    """Algorithm 2's semi-join retrieval: per iceberg cuboid, keep only
    the raw rows whose projected key is an iceberg key, group those
    rows and map the groups back to raw-row indices."""
    reference = []
    for gset, iceberg_keys in dry.iceberg_cells_by_cuboid.items():
        if not iceberg_keys:
            continue  # nothing to join against: the cuboid is skipped
        wanted = {}
        for key in iceberg_keys:
            lookup = dict(zip(dry.attrs, key))
            wanted[tuple(lookup[a] for a in gset)] = key
        columns = [table.column(a).to_list() for a in gset]
        row_keys = list(zip(*columns)) if gset else [()] * table.num_rows
        kept = np.asarray([i for i, k in enumerate(row_keys) if k in wanted], dtype=np.int64)
        groups = group_rows(table.take(kept), gset)
        rows = {
            wanted[groups.decode_key(g)]: kept[groups.group_indices[g]]
            for g in range(groups.num_groups)
        }
        reference.extend((key, rows[key]) for key in iceberg_keys)
    return reference


REFERENCES = {"full-groupby": _groupby_reference, "join-prune": _join_prune_reference}


def _assert_same_arrays_as_default(table, attrs, theta, retrieve=_groupby_reference):
    """Deriving cuboid rows from base cells (what ``real_run`` does) must
    hand the greedy the *same arrays* as ``retrieve``, a by-hand
    retrieval of Algorithm 2 (by default a GroupBy of the raw table per
    cuboid): same rows in the same (ascending) order, cells in the same
    order. ``theta`` may be a function of ``(table, loss, global
    sample)``."""
    gs = draw_global_sample(table, np.random.default_rng(0))
    loss = MeanLoss("fare_amount")
    if callable(theta):
        theta = theta(table, loss, gs)
    dry = dry_run(table, attrs, loss, theta, gs)
    real = real_run(table, dry, loss, seed=1)
    reference = retrieve(table, dry)
    assert real.cells
    assert [c.key for c in real.cells] == [key for key, _ in reference]
    for cell, (_, rows) in zip(real.cells, reference):
        assert np.all(np.diff(cell.raw_indices) > 0)
        assert cell.raw_indices.dtype == rows.dtype
        assert np.array_equal(cell.raw_indices, rows)
    return dry


def _half_the_whole_table_loss(table, loss, gs):
    """A θ below the whole table's loss, so the () cuboid is iceberg."""
    return loss.loss(loss.extract(table), loss.extract(gs.table)) / 2


FIVE_ATTRS = ("vendor_name", "pickup_weekday") + ATTRS + ("rate_code",)


class TestRetrievalPathsAgree:
    def test_one_attribute_cube(self, rides_tiny):
        _assert_same_arrays_as_default(rides_tiny, ("payment_type",), THETA)

    def test_five_attribute_cube(self, rides_small):
        _assert_same_arrays_as_default(rides_small, FIVE_ATTRS, THETA)

    def test_all_cuboid(self, rides_small):
        dry = _assert_same_arrays_as_default(rides_small, ATTRS, _half_the_whole_table_loss)
        assert (None, None) in dry.iceberg_stats


def test_plain_build_groups_the_raw_table_twice(rides_small, monkeypatch):
    """Work count, no wall clock: a five-attribute build runs a GroupBy
    over all N rows once in the dry run and once in the real run — not
    once more per iceberg cuboid."""
    from repro.core import dryrun, realrun
    from repro.core.tabula import Tabula, TabulaConfig
    from repro.engine import groupby

    full_table_groupings = []

    def counting(table, keys):
        if table.num_rows == rides_small.num_rows:
            full_table_groupings.append(tuple(keys))
        return groupby.group_rows(table, keys)

    monkeypatch.setattr(dryrun, "group_rows", counting)
    monkeypatch.setattr(realrun, "group_rows", counting)
    tabula = Tabula(
        rides_small,
        TabulaConfig(cubed_attrs=FIVE_ATTRS, threshold=THETA, loss=MeanLoss("fare_amount")),
    )
    report = tabula.initialize()
    assert report.num_iceberg_cuboids > 2
    assert full_table_groupings == [FIVE_ATTRS, FIVE_ATTRS]


class TestAllCuboid:
    def test_whole_table_cell_when_all_is_iceberg(self, rides_small):
        """Force the () cuboid to be iceberg by setting θ below its loss.

        Needs a table larger than the Serfling size so the global sample
        is a proper subset (otherwise the All-cell loss is ~0).
        """
        rng = np.random.default_rng(0)
        gs = draw_global_sample(rides_small, rng)
        loss = MeanLoss("fare_amount")
        values = loss.extract(rides_small)
        all_loss = loss.loss(values, loss.extract(gs.table))
        assert all_loss > 0
        theta = all_loss / 2
        dry = dry_run(rides_small, ATTRS, loss, theta, gs)
        all_key = (None, None)
        assert all_key in dry.iceberg_stats
        real = real_run(rides_small, dry, loss, seed=1)
        entry = next(c for c in real.cells if c.key == all_key)
        assert len(entry.raw_indices) == rides_small.num_rows
