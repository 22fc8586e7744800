"""Tests for the Tabula middleware facade — including the paper's central
100 %-confidence guarantee, checked over *every* cell of the cube."""

import numpy as np
import pytest

from repro.core.loss.heatmap import HeatmapLoss
from repro.core.loss.mean import MeanLoss
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.engine.cube import CubeCells
from repro.engine.expressions import Comparison, Equals
from repro.errors import (
    CubeNotInitializedError,
    InvalidQueryError,
    LossFunctionError,
    UnknownColumnError,
)
from tests.conftest import with_non_finite

ATTRS = ("passenger_count", "payment_type")


def make_tabula(table, theta=0.05, loss=None, **kwargs):
    config = TabulaConfig(
        cubed_attrs=ATTRS,
        threshold=theta,
        loss=loss or MeanLoss("fare_amount"),
        **kwargs,
    )
    return Tabula(table, config)


class TestLifecycle:
    def test_query_before_initialize_raises(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        with pytest.raises(CubeNotInitializedError):
            tabula.query({"payment_type": "cash"})

    def test_bad_target_attr_fails_fast(self, rides_tiny):
        with pytest.raises(UnknownColumnError):
            make_tabula(rides_tiny, loss=MeanLoss("no_such_column"))

    def test_bad_cubed_attr_fails_fast(self, rides_tiny):
        config = TabulaConfig(
            cubed_attrs=("nope",), threshold=0.1, loss=MeanLoss("fare_amount")
        )
        with pytest.raises(UnknownColumnError):
            Tabula(rides_tiny, config)

    @pytest.mark.parametrize("theta", [float("nan"), 0.0, -0.1], ids=["nan", "zero", "negative"])
    def test_config_rejects_non_positive_threshold(self, theta):
        """A NaN θ makes every ``loss > θ`` false: no cell would be
        iceberg and every answer would come back CERTIFIED."""
        with pytest.raises(ValueError, match="threshold"):
            TabulaConfig(cubed_attrs=ATTRS, threshold=theta, loss=MeanLoss("fare_amount"))

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "workers2"])
    @pytest.mark.parametrize(
        "loss_factory,attr",
        [
            (lambda: MeanLoss("fare_amount"), "fare_amount"),
            (lambda: HeatmapLoss("pickup_x", "pickup_y"), "pickup_x"),
        ],
        ids=["mean", "heatmap"],
    )
    def test_non_finite_target_refuses_to_build(self, rides_small, loss_factory, attr, workers):
        """A NaN loss compares false against θ: before the check, a NaN
        fare built a cube that answered CERTIFIED, and a NaN coordinate
        leaked scipy's ``ValueError`` out of the heat-map dry run."""
        table = with_non_finite(rides_small, attr, [7, 1500, 2999])
        tabula = make_tabula(table, loss=loss_factory())
        with pytest.raises(LossFunctionError, match=rf"{attr}.*non-finite"):
            tabula.initialize(workers=workers)

    def test_report_counts_consistent(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        report = tabula.initialize()
        assert report.num_iceberg_cells == report.num_local_samples
        assert report.num_representatives <= report.num_local_samples
        assert report.num_iceberg_cells <= report.num_cells
        assert report.global_sample_size == tabula.store.global_sample.size

    def test_total_time_covers_stages(self, rides_tiny):
        report = make_tabula(rides_tiny).initialize()
        stages = (
            report.dry_run_seconds + report.real_run_seconds + report.selection_seconds
        )
        assert report.total_seconds >= stages * 0.5  # sanity, not strict


class TestGuarantee:
    """loss(raw answer, returned sample) <= θ for EVERY cube cell."""

    @pytest.mark.parametrize("theta", [0.03, 0.10])
    def test_mean_loss_every_cell(self, rides_tiny, theta):
        loss = MeanLoss("fare_amount")
        tabula = make_tabula(rides_tiny, theta=theta, loss=loss)
        tabula.initialize()
        cube = CubeCells(rides_tiny, ATTRS)
        values = loss.extract(rides_tiny)
        for key in cube:
            query = {
                attr: value for attr, value in zip(ATTRS, key) if value is not None
            }
            result = tabula.query(query)
            assert result.guarantee is GuaranteeStatus.CERTIFIED, key
            raw = values[cube.cell_indices(key)]
            sample = loss.extract(result.sample)
            assert loss.loss(raw, sample) <= theta + 1e-12, key

    def test_heatmap_loss_every_cell(self, rides_tiny):
        loss = HeatmapLoss("pickup_x", "pickup_y")
        theta = 0.01
        tabula = make_tabula(rides_tiny, theta=theta, loss=loss)
        tabula.initialize()
        cube = CubeCells(rides_tiny, ATTRS)
        values = loss.extract(rides_tiny)
        for key in cube:
            query = {
                attr: value for attr, value in zip(ATTRS, key) if value is not None
            }
            result = tabula.query(query)
            raw = values[cube.cell_indices(key)]
            assert loss.loss(raw, loss.extract(result.sample)) <= theta + 1e-12

    def test_tabula_star_guarantee_too(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        tabula = make_tabula(rides_tiny, theta=0.05, loss=loss, sample_selection=False)
        tabula.initialize()
        cube = CubeCells(rides_tiny, ATTRS)
        values = loss.extract(rides_tiny)
        for key in cube:
            query = {a: v for a, v in zip(ATTRS, key) if v is not None}
            result = tabula.query(query)
            assert loss.loss(values[cube.cell_indices(key)], loss.extract(result.sample)) <= 0.05 + 1e-12


class TestQueryRouting:
    def test_sources_valid(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        result = tabula.query({"payment_type": "cash"})
        assert result.source in ("local", "global")

    def test_unknown_cell_is_empty(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        result = tabula.query({"payment_type": "zelle"})
        assert result.source == "empty"
        assert result.sample.num_rows == 0

    def test_none_query_is_all_cell(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        result = tabula.query(None)
        assert result.cell == (None, None)

    def test_predicate_query(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        result = tabula.query(Equals("payment_type", "cash") & Equals("passenger_count", "1"))
        assert result.cell == ("1", "cash")

    def test_non_equality_predicate_rejected(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        with pytest.raises(InvalidQueryError):
            tabula.query(Comparison("passenger_count", ">", "1"))

    def test_non_cubed_attribute_rejected(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        with pytest.raises(InvalidQueryError, match="non-cubed"):
            tabula.query({"vendor_name": "CMT"})

    def test_raw_answer_matches_population(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        raw = tabula.raw_answer({"payment_type": "cash"})
        assert all(v == "cash" for v in raw.column("payment_type").to_list())

    def test_actual_loss_within_threshold(self, rides_tiny):
        tabula = make_tabula(rides_tiny, theta=0.05)
        tabula.initialize()
        assert tabula.actual_loss({"payment_type": "cash"}) <= 0.05


class TestTabulaStarComparison:
    def test_selection_reduces_or_equals_sample_count(self, rides_small):
        base = make_tabula(rides_small, theta=0.03)
        base.initialize()
        star = make_tabula(rides_small, theta=0.03, sample_selection=False)
        star.initialize()
        assert base.report.num_representatives <= star.report.num_representatives
        assert (
            base.memory_breakdown().sample_table_bytes
            <= star.memory_breakdown().sample_table_bytes
        )

    def test_deterministic_given_seed(self, rides_tiny):
        a = make_tabula(rides_tiny, seed=7)
        b = make_tabula(rides_tiny, seed=7)
        ra, rb = a.initialize(), b.initialize()
        assert ra.num_iceberg_cells == rb.num_iceberg_cells
        assert ra.num_representatives == rb.num_representatives


class TestExplain:
    def test_local_cell_explanation(self, rides_small):
        tabula = make_tabula(rides_small, theta=0.03)
        tabula.initialize()
        # Find a materialized cell via the report.
        cells = [c.key for c in tabula.real_run_result.cells]
        assert cells, "expected iceberg cells at this threshold"
        query = {a: v for a, v in zip(ATTRS, cells[0]) if v is not None}
        info = tabula.explain(query)
        assert info["source"] == "local"
        assert info["sample_id"] is not None
        assert info["certified_loss"] > info["threshold"]
        assert info["answer_rows"] >= 1

    def test_global_cell_explanation(self, rides_small):
        tabula = make_tabula(rides_small, theta=10.0)  # nothing is iceberg
        tabula.initialize()
        info = tabula.explain({"payment_type": "cash"})
        assert info["source"] == "global"
        assert info["sample_id"] is None
        assert info["certified_loss"] <= info["threshold"]

    def test_empty_cell_explanation(self, rides_tiny):
        tabula = make_tabula(rides_tiny)
        tabula.initialize()
        info = tabula.explain({"payment_type": "zelle"})
        assert info["source"] == "empty"
        assert info["answer_rows"] == 0
        assert info["certified_loss"] is None

    def test_explain_matches_query(self, rides_small):
        tabula = make_tabula(rides_small, theta=0.05)
        tabula.initialize()
        for query in ({"payment_type": "cash"}, {"passenger_count": "3"}, None):
            info = tabula.explain(query)
            result = tabula.query(query)
            assert info["source"] == result.source
            assert info["answer_rows"] == result.sample.num_rows
