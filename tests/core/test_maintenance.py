"""Tests for incremental cube maintenance (append while preserving θ)."""

import numpy as np
import pytest

from repro.core.loss import HeatmapLoss, HistogramLoss, MeanLoss
from repro.core.maintenance import append_rows
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.cube import CubeCells
from repro.engine.table import Table
from repro.errors import CubeNotInitializedError, LossFunctionError, TabulaError
from tests.conftest import with_non_finite

ATTRS = ("passenger_count", "payment_type")
THETA = 0.05


def build(table, loss=None, theta=THETA):
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=ATTRS, threshold=theta, loss=loss or MeanLoss("fare_amount")
        ),
    )
    tabula.initialize()
    return tabula


def check_guarantee(tabula):
    """Assert the θ bound on EVERY cell of the (grown) cube."""
    loss = tabula.config.loss
    cube = CubeCells(tabula.table, ATTRS)
    values = loss.extract(tabula.table)
    for key in cube:
        query = {a: v for a, v in zip(ATTRS, key) if v is not None}
        result = tabula.query(query)
        realized = loss.loss(values[cube.cell_indices(key)], loss.extract(result.sample))
        assert realized <= tabula.config.threshold + 1e-12, key


class TestAppend:
    def test_guarantee_after_append(self, rides_small):
        tabula = build(rides_small)
        delta = generate_nyctaxi(num_rows=800, seed=99)
        report = append_rows(tabula, delta)
        assert tabula.table.num_rows == rides_small.num_rows + 800
        assert report.appended_rows == 800
        check_guarantee(tabula)

    def test_guarantee_after_skewed_append(self, rides_small):
        """Append rows that deliberately shift one population's mean so
        existing certificates break and must be repaired."""
        tabula = build(rides_small)
        n = 400
        skew = Table.from_pydict(
            {
                name: (
                    ["1"] * n if name == "passenger_count"
                    else ["cash"] * n if name == "payment_type"
                    else [rides_small.column(name).value_at(0)] * n
                    if rides_small.column(name).dictionary is not None
                    else [999.0] * n  # extreme fares
                )
                for name in rides_small.column_names
            }
        )
        report = append_rows(tabula, skew)
        assert report.promoted_cells + report.repaired_cells > 0
        check_guarantee(tabula)

    def test_repeated_appends(self, rides_tiny):
        tabula = build(rides_tiny)
        for seed in (1, 2, 3):
            append_rows(tabula, generate_nyctaxi(num_rows=200, seed=seed), seed=seed)
        assert tabula.table.num_rows == rides_tiny.num_rows + 600
        check_guarantee(tabula)

    def test_new_cells_become_known(self, rides_tiny):
        tabula = build(rides_tiny)
        # A payment label absent from the base data.
        n = 50
        novel = Table.from_pydict(
            {
                name: (
                    ["6"] * n if name == "passenger_count"
                    else ["no_charge"] * n if name == "payment_type"
                    else [rides_tiny.column(name).value_at(0)] * n
                    if rides_tiny.column(name).dictionary is not None
                    else [10.0] * n
                )
                for name in rides_tiny.column_names
            }
        )
        before = tabula.query({"passenger_count": "6", "payment_type": "no_charge"})
        report = append_rows(tabula, novel)
        after = tabula.query({"passenger_count": "6", "payment_type": "no_charge"})
        assert report.new_cells >= (1 if before.source == "empty" else 0)
        assert after.source in ("local", "global")
        check_guarantee(tabula)

    def test_histogram_loss_maintenance(self, rides_tiny):
        tabula = build(rides_tiny, loss=HistogramLoss("fare_amount"), theta=0.05)
        append_rows(tabula, generate_nyctaxi(num_rows=300, seed=5))
        loss = tabula.config.loss
        cube = CubeCells(tabula.table, ATTRS)
        values = loss.extract(tabula.table)
        for key in cube:
            query = {a: v for a, v in zip(ATTRS, key) if v is not None}
            result = tabula.query(query)
            assert loss.loss(
                values[cube.cell_indices(key)], loss.extract(result.sample)
            ) <= 0.05 + 1e-12

    def test_demotion_garbage_collects_orphans(self, rides_small):
        """Appending data that pulls a cell's mean toward the global mean
        can demote it; orphaned samples must not leak."""
        tabula = build(rides_small)
        store = tabula.store
        before_samples = store.num_samples
        delta = generate_nyctaxi(num_rows=3000, seed=7)
        report = append_rows(tabula, delta)
        if report.demoted_cells:
            assert store.num_samples <= before_samples + report.promoted_cells + report.repaired_cells
        check_guarantee(tabula)


class TestReportAccounting:
    def test_counts_are_consistent(self, rides_small):
        tabula = build(rides_small)
        report = append_rows(tabula, generate_nyctaxi(num_rows=500, seed=3))
        touched = (
            report.promoted_cells
            + report.repaired_cells
            + report.retained_cells
            + report.demoted_cells
        )
        assert touched <= report.affected_cells
        assert report.seconds >= 0


class TestErrors:
    def test_uninitialized_rejected(self, rides_tiny):
        tabula = Tabula(
            rides_tiny,
            TabulaConfig(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")),
        )
        with pytest.raises(CubeNotInitializedError):
            append_rows(tabula, rides_tiny.head(5))

    def test_schema_mismatch_rejected(self, rides_tiny):
        tabula = build(rides_tiny)
        with pytest.raises(TabulaError, match="schema"):
            append_rows(tabula, Table.from_pydict({"x": [1.0]}))

    @pytest.mark.parametrize(
        "loss,theta", [(MeanLoss("fare_amount"), THETA), (HistogramLoss("fare_amount"), 0.05)],
        ids=["mean", "histogram"],
    )
    def test_non_finite_delta_rejected_untouched(self, rides_small, loss, theta):
        """50 NaN fares used to append cleanly: the cube kept answering
        CERTIFIED while ``actual_loss`` of the grown table was NaN."""
        tabula = build(rides_small, loss=loss, theta=theta)
        digest = tabula.store.content_digest()
        delta = with_non_finite(generate_nyctaxi(num_rows=200, seed=4), "fare_amount", range(50))
        with pytest.raises(LossFunctionError, match="'fare_amount' has 50 non-finite"):
            append_rows(tabula, delta)
        assert tabula.table.num_rows == rides_small.num_rows
        assert tabula.store.content_digest() == digest
        assert tabula.query({}).guarantee is GuaranteeStatus.CERTIFIED
        assert tabula.actual_loss({}) <= theta


class TestRestored:
    @pytest.mark.parametrize(
        "loss,theta",
        [(MeanLoss("fare_amount"), THETA), (HeatmapLoss("pickup_x", "pickup_y"), 0.003)],
        ids=["mean", "heatmap"],
    )
    def test_restored_cube_appends_like_the_built_one(self, rides_small, tmp_path, loss, theta):
        """A loaded cube is the saved cube: the same batches grow both
        into the same cube (its dry run is derived on the first append)."""
        from repro.core.persistence import load_cube, save_cube

        built = Tabula(
            rides_small, TabulaConfig(cubed_attrs=ATTRS, threshold=theta, loss=loss, seed=7)
        )
        built.initialize()
        path = tmp_path / "cube.json"
        save_cube(built, path)
        restored = load_cube(path, rides_small)
        resampled = 0
        for i in range(3):
            delta = generate_nyctaxi(num_rows=300, seed=100 + i)
            report = append_rows(built, delta, seed=i)
            assert append_rows(restored, delta, seed=i).affected_cells == report.affected_cells
            resampled += report.promoted_cells + report.repaired_cells
        assert resampled > 0, "no batch drew a sample"
        assert restored.store.content_digest() == built.store.content_digest()
        check_guarantee(restored)
