"""Cross-module integration tests reproducing the paper's claims in miniature."""

import numpy as np
import pytest

from repro.baselines import POIsam, SampleFirst, SampleOnTheFly, TabulaApproach
from repro.baselines.base import select_population
from repro.bench.runner import run_workload
from repro.core.loss import HeatmapLoss, HistogramLoss, MeanLoss, RegressionLoss
from repro.data import generate_nyctaxi, generate_workload
from repro.viz.heatmap import heatmap_difference

ATTRS = ("passenger_count", "payment_type", "rate_code")


@pytest.fixture(scope="module")
def rides():
    return generate_nyctaxi(num_rows=6000, seed=21)


@pytest.fixture(scope="module")
def workload(rides):
    return generate_workload(rides, ATTRS, num_queries=15, seed=7)


class TestGuaranteeAcrossLossFunctions:
    """Tabula's θ bound holds for every built-in loss on a real workload."""

    @pytest.mark.parametrize(
        "loss_factory,theta",
        [
            (lambda: MeanLoss("fare_amount"), 0.08),
            (lambda: HistogramLoss("fare_amount"), 0.05),
            (lambda: HeatmapLoss("pickup_x", "pickup_y"), 0.01),
            (lambda: RegressionLoss("fare_amount", "tip_amount"), 2.0),
        ],
        ids=["mean", "histogram", "heatmap", "regression"],
    )
    def test_workload_never_exceeds_threshold(self, rides, workload, loss_factory, theta):
        loss = loss_factory()
        ap = TabulaApproach(rides, loss, theta, ATTRS, seed=0)
        metrics = run_workload(ap, rides, list(workload), loss)
        assert metrics.actual_loss.maximum <= theta + 1e-9


class TestPaperShapes:
    """Qualitative comparisons the evaluation section reports."""

    def test_tabula_data_system_time_beats_online_approaches(self, rides, workload):
        loss = MeanLoss("fare_amount")
        tabula = TabulaApproach(rides, loss, 0.08, ATTRS, seed=0)
        samfly = SampleOnTheFly(rides, loss, 0.08, seed=0)
        t = run_workload(tabula, rides, list(workload), loss, measure_loss=False)
        s = run_workload(samfly, rides, list(workload), loss, measure_loss=False)
        # Paper: 10-20x. Allow a loose factor for CI noise.
        assert t.data_system.mean * 3 < s.data_system.mean

    def test_sample_first_worst_accuracy(self, rides, workload):
        loss = MeanLoss("fare_amount")
        samfirst = SampleFirst(rides, loss, 0.08, fraction=0.01, seed=0)
        tabula = TabulaApproach(rides, loss, 0.08, ATTRS, seed=0)
        f = run_workload(samfirst, rides, list(workload), loss)
        t = run_workload(tabula, rides, list(workload), loss)
        assert f.actual_loss.mean > t.actual_loss.mean

    def test_tabula_star_memory_not_smaller(self, rides):
        loss = HistogramLoss("fare_amount")
        tabula = TabulaApproach(rides, loss, 0.02, ATTRS, seed=0)
        star = TabulaApproach(rides, loss, 0.02, ATTRS, sample_selection=False, seed=0)
        assert tabula.initialize().memory_bytes <= star.initialize().memory_bytes

    def test_poisam_pays_for_its_presample_in_accuracy(self, rides, workload):
        """POIsam samples a random pre-sample, not the population: it keeps
        no hard bound and lands above SamFly's loss (Figure 11b). The time
        it buys is a figure (benchmarks/bench_fig14_mean.py), not an
        assertion — at test scale the two differ by scheduler noise."""
        loss = MeanLoss("fare_amount")
        poisam = POIsam(rides, loss, 0.08, seed=0)
        samfly = SampleOnTheFly(rides, loss, 0.08, seed=0)
        p = run_workload(poisam, rides, list(workload), loss)
        s = run_workload(samfly, rides, list(workload), loss)
        assert s.actual_loss.maximum <= 0.08 + 1e-9
        assert p.actual_loss.mean > s.actual_loss.mean


class TestFigure2Story:
    def test_global_random_sample_misses_airport_hotspot(self, rides):
        """The SampleFirst heat map misses the airport cluster that
        Tabula's loss-aware local sample preserves (Figure 2)."""
        loss = HeatmapLoss("pickup_x", "pickup_y")
        query = {"rate_code": "jfk"}
        raw = select_population(rides, query)
        raw_pts = loss.extract(raw)

        samfirst = SampleFirst(rides, loss, 0.005, fraction=0.002, seed=0)
        first_answer = samfirst.answer(query)
        first_pts = loss.extract(first_answer.sample)

        tabula = TabulaApproach(rides, loss, 0.005, ATTRS, seed=0)
        tabula_answer = tabula.answer(query)
        tabula_pts = loss.extract(tabula_answer.sample)

        diff_first = heatmap_difference(raw_pts, first_pts)
        diff_tabula = heatmap_difference(raw_pts, tabula_pts)
        assert diff_tabula < diff_first
