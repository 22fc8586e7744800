"""Tests for the real-run stage (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss.mean import MeanLoss
from repro.core.realrun import real_run
from repro.engine.cube import CubeCells

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
    def test_decisions_recorded_per_iceberg_cuboid(self, pipeline):
        _, __, dry, real = pipeline
        expected = {g for g, cells in dry.iceberg_cells_by_cuboid.items() if cells}
        assert set(real.decisions) == expected

    def test_non_iceberg_cuboids_skipped(self, pipeline):
        _, __, dry, real = pipeline
        empty = sum(1 for cells in dry.iceberg_cells_by_cuboid.values() if not cells)
        assert real.skipped_cuboids == empty

    @pytest.mark.parametrize("strategy", ["join-prune", "full-groupby"])
    def test_forced_strategies_agree(self, rides_tiny, strategy):
        """Both retrieval paths must materialize identical cell data."""
        _assert_same_arrays_as_default(rides_tiny, ATTRS, THETA, [strategy])

    def test_unknown_strategy_rejected(self, pipeline):
        table, loss, dry, _ = pipeline
        with pytest.raises(ValueError, match="unknown retrieval strategy"):
            real_run(table, dry, loss, seed=1, force_strategy="hash-join")


def _assert_same_arrays_as_default(table, attrs, theta, strategies):
    """Deriving cuboid rows from base cells (the default) must hand the
    greedy the *same arrays* as Algorithm 2's retrievals: same rows in
    the same (ascending) order, cells in the same order. ``theta`` may
    be a function of ``(table, loss, global sample)``."""
    gs = draw_global_sample(table, np.random.default_rng(0))
    loss = MeanLoss("fare_amount")
    if callable(theta):
        theta = theta(table, loss, gs)
    dry = dry_run(table, attrs, loss, theta, gs)
    default = real_run(table, dry, loss, seed=1, skip_sampling=True)
    assert default.cells
    for cell in default.cells:
        assert np.all(np.diff(cell.raw_indices) > 0)
    for strategy in strategies:
        forced = real_run(
            table, dry, loss, seed=1, skip_sampling=True, force_strategy=strategy
        )
        assert [c.key for c in forced.cells] == [c.key for c in default.cells]
        for mine, theirs in zip(default.cells, forced.cells):
            assert mine.raw_indices.dtype == theirs.raw_indices.dtype
            assert np.array_equal(mine.raw_indices, theirs.raw_indices)
        assert forced.decisions == default.decisions
    return dry


def _half_the_whole_table_loss(table, loss, gs):
    """A θ below the whole table's loss, so the () cuboid is iceberg."""
    return loss.loss(loss.extract(table), loss.extract(gs.table)) / 2


FIVE_ATTRS = ("vendor_name", "pickup_weekday") + ATTRS + ("rate_code",)


class TestRetrievalPathsAgree:
    STRATEGIES = ("join-prune", "full-groupby", "cost-model")

    def test_one_attribute_cube(self, rides_tiny):
        _assert_same_arrays_as_default(rides_tiny, ("payment_type",), THETA, self.STRATEGIES)

    def test_five_attribute_cube(self, rides_small):
        _assert_same_arrays_as_default(rides_small, FIVE_ATTRS, THETA, self.STRATEGIES)

    def test_all_cuboid(self, rides_small):
        dry = _assert_same_arrays_as_default(
            rides_small, ATTRS, _half_the_whole_table_loss, self.STRATEGIES
        )
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
