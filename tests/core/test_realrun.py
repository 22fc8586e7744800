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
        rng = np.random.default_rng(0)
        gs = draw_global_sample(rides_tiny, rng)
        loss = MeanLoss("fare_amount")
        dry = dry_run(rides_tiny, ATTRS, loss, THETA, gs)
        forced = real_run(
            rides_tiny, dry, loss, seed=1, force_strategy=strategy
        )
        default = real_run(rides_tiny, dry, loss, seed=1)
        by_key_forced = {c.key: set(c.raw_indices.tolist()) for c in forced.cells}
        by_key_default = {c.key: set(c.raw_indices.tolist()) for c in default.cells}
        assert by_key_forced == by_key_default


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
