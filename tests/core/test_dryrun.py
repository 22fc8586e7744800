"""Tests for the dry-run stage (Section III-B1).

Ground truth comes from materializing the *whole* cube with
:class:`CubeCells` and evaluating the loss directly per cell — the
expensive path the dry run exists to avoid. The derived cuboids must
agree exactly.
"""

import math

import numpy as np
import pytest

from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss.heatmap import HeatmapLoss
from repro.core.loss.mean import MeanLoss
from repro.engine.cube import CubeCells, grouping_sets


ATTRS = ("passenger_count", "payment_type")


@pytest.fixture()
def setup(rides_tiny):
    rng = np.random.default_rng(0)
    gs = draw_global_sample(rides_tiny, rng)
    loss = MeanLoss("fare_amount")
    return rides_tiny, gs, loss


class TestAgainstGroundTruth:
    @pytest.mark.parametrize("theta", [0.02, 0.05, 0.15])
    def test_iceberg_cells_match_direct_evaluation(self, setup, theta):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, theta, gs)
        cube = CubeCells(table, ATTRS)
        values = loss.extract(table)
        sample_values = loss.extract(gs.table)
        expected = {
            key
            for key in cube
            if loss.loss(values[cube.cell_indices(key)], sample_values) > theta
        }
        assert set(dry.iceberg_stats) == expected

    def test_cell_losses_match_direct(self, setup):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, 0.05, gs)
        cube = CubeCells(table, ATTRS)
        values = loss.extract(table)
        sample_values = loss.extract(gs.table)
        for key, derived_loss in dry.cell_losses.items():
            direct = loss.loss(values[cube.cell_indices(key)], sample_values)
            assert derived_loss == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_known_cells_cover_whole_cube(self, setup):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, 0.05, gs)
        cube = CubeCells(table, ATTRS)
        assert dry.known_cells == frozenset(iter(cube))

    def test_heatmap_loss_derivation_matches(self, rides_tiny):
        rng = np.random.default_rng(1)
        gs = draw_global_sample(rides_tiny, rng)
        loss = HeatmapLoss("pickup_x", "pickup_y")
        theta = 0.002
        dry = dry_run(rides_tiny, ATTRS, loss, theta, gs)
        cube = CubeCells(rides_tiny, ATTRS)
        values = loss.extract(rides_tiny)
        sample_values = loss.extract(gs.table)
        expected = {
            key
            for key in cube
            if loss.loss(values[cube.cell_indices(key)], sample_values) > theta
        }
        assert set(dry.iceberg_stats) == expected


class TestOutputs:
    def test_lattice_counts(self, setup):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, 0.05, gs)
        for gset in grouping_sets(ATTRS):
            node = dry.lattice.node(gset)
            assert node.total_cells == dry.cell_counts[gset]
            assert node.iceberg_cells == len(dry.iceberg_cells_by_cuboid[gset])

    def test_per_cuboid_tables_partition_iceberg_cells(self, setup):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, 0.05, gs)
        combined = [c for cells in dry.iceberg_cells_by_cuboid.values() for c in cells]
        assert sorted(map(str, combined)) == sorted(map(str, dry.iceberg_cells))

    def test_single_raw_pass(self, setup, monkeypatch):
        """One GroupBy of the raw table (the base cuboid); every other
        cuboid is derived from it."""
        from repro.core import dryrun
        from repro.engine import groupby

        table, gs, loss = setup
        raw_groupings = []

        def counting(chunk, keys):
            raw_groupings.append((chunk.num_rows, tuple(keys)))
            return groupby.group_rows(chunk, keys)

        monkeypatch.setattr(dryrun, "group_rows", counting)
        dry_run(table, ATTRS, loss, 0.05, gs)
        assert raw_groupings == [(table.num_rows, ATTRS)]

    def test_lower_threshold_more_icebergs(self, setup):
        table, gs, loss = setup
        strict = dry_run(table, ATTRS, loss, 0.01, gs)
        relaxed = dry_run(table, ATTRS, loss, 0.20, gs)
        assert strict.num_iceberg_cells >= relaxed.num_iceberg_cells

    def test_infinite_threshold_no_icebergs(self, setup):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, math.inf, gs)
        assert dry.num_iceberg_cells == 0

    def test_stats_preserved_for_iceberg_cells_only(self, setup):
        table, gs, loss = setup
        dry = dry_run(table, ATTRS, loss, 0.05, gs)
        for key, stats in dry.iceberg_stats.items():
            assert dry.cell_losses[key] > 0.05
            assert len(stats) == 2  # (count, sum) for the mean loss


class TestAdditiveFastPath:
    """The vectorized (additive-stats) derivation must equal the generic
    merge loop exactly."""

    def test_fast_path_matches_generic(self, setup):
        table, gs, loss = setup
        assert loss.additive_stats
        fast = dry_run(table, ATTRS, loss, 0.05, gs)

        class GenericPathLoss(type(loss)):
            additive_stats = False

        generic_loss = GenericPathLoss("fare_amount")
        generic = dry_run(table, ATTRS, generic_loss, 0.05, gs)
        assert set(fast.iceberg_stats) == set(generic.iceberg_stats)
        for cell, value in fast.cell_losses.items():
            assert value == pytest.approx(generic.cell_losses[cell], rel=1e-9, abs=1e-12)

    def test_heatmap_fast_path_matches_generic(self, rides_tiny):
        from repro.core.loss.heatmap import HeatmapLoss

        rng = np.random.default_rng(2)
        gs = draw_global_sample(rides_tiny, rng)
        loss = HeatmapLoss("pickup_x", "pickup_y")

        class GenericHeatmap(HeatmapLoss):
            additive_stats = False

        fast = dry_run(rides_tiny, ATTRS, loss, 0.002, gs)
        generic = dry_run(rides_tiny, ATTRS, GenericHeatmap("pickup_x", "pickup_y"), 0.002, gs)
        assert set(fast.iceberg_stats) == set(generic.iceberg_stats)
