"""Tests for the representation join / SamGraph (Section IV)."""

import numpy as np
import pytest

from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss.base import LossFunction
from repro.core.loss.combined import CombinedLoss
from repro.core.loss.distance import AvgMinDistanceLoss
from repro.core.loss.heatmap import HeatmapLoss
from repro.core.loss.histogram import HistogramLoss
from repro.core.loss.mean import MeanLoss
from repro.core.loss.regression import RegressionLoss
from repro.core.loss.stddev import StdDevLoss
from repro.core.realrun import real_run
from repro.core import samgraph
from repro.core.samgraph import build_samgraph

ATTRS = ("passenger_count", "payment_type")
#: (EXACT_BUDGET, MISS_STREAK_CUTOFF) per budgeted-walk variant.
BUDGETS = {"budget-cut": (3, 8), "miss-streak": (5, 2)}


def build_pipeline(table, loss, theta, seed=0, attrs=ATTRS):
    gs = draw_global_sample(table, np.random.default_rng(seed))
    dry = dry_run(table, attrs, loss, theta, gs)
    real = real_run(table, dry, loss, seed=seed + 1)
    return dry, real


#: case -> (loss factory, θ, whether its bounds are exact) for the
#: join's bound tests, built over one more attribute than ATTRS so most
#: cases have dozens of iceberg cells.
JOIN_ATTRS = ATTRS + ("rate_code",)
JOIN_LOSSES = {
    "mean": (lambda: MeanLoss("fare_amount"), 0.05, True),
    "stddev": (lambda: StdDevLoss("fare_amount"), 0.08, True),
    "regression": (lambda: RegressionLoss("fare_amount", "tip_amount"), 0.05, True),
    "histogram": (lambda: HistogramLoss("fare_amount"), 0.02, False),
    "heatmap": (lambda: HeatmapLoss("pickup_x", "pickup_y"), 0.003, False),
    "manhattan": (
        lambda: AvgMinDistanceLoss(("pickup_x", "pickup_y"), metric="manhattan"),
        0.004,
        False,
    ),
    "combined-max": (
        lambda: CombinedLoss(
            [(0.05, MeanLoss("fare_amount")), (0.04, HeatmapLoss("pickup_x", "pickup_y"))]
        ),
        1.0,
        False,
    ),
    "combined-sum": (
        lambda: CombinedLoss(
            [(1.0, MeanLoss("fare_amount")), (1.0, StdDevLoss("fare_amount"))],
            mode="sum",
        ),
        0.08,
        True,
    ),
}


@pytest.fixture(scope="module")
def join_pipeline(rides_small):
    """case -> (loss, θ, real run) over rides_small, each built once."""
    built = {}

    def get(case):
        if case not in built:
            factory, theta, _ = JOIN_LOSSES[case]
            loss = factory()
            _, real = build_pipeline(rides_small, loss, theta, attrs=JOIN_ATTRS)
            built[case] = (loss, theta, real)
        return built[case]

    return get


class TestEdgeSemantics:
    @pytest.mark.parametrize(
        "loss_factory,theta",
        [
            (lambda: MeanLoss("fare_amount"), 0.05),
            (lambda: HistogramLoss("fare_amount"), 0.02),
        ],
        ids=["mean", "histogram"],
    )
    def test_every_edge_satisfies_representation_condition(
        self, rides_small, loss_factory, theta
    ):
        loss = loss_factory()
        dry, real = build_pipeline(rides_small, loss, theta)
        if not real.cells:
            pytest.skip("no iceberg cells at this threshold")
        graph = build_samgraph(rides_small, real.cells, loss, theta)
        values = loss.extract(rides_small)
        for v in range(graph.num_vertices):
            sam_v = values[real.cells[v].sample_indices]
            for u in graph.out_edges[v]:
                raw_u = values[real.cells[u].raw_indices]
                assert loss.loss(raw_u, sam_v) <= theta + 1e-12

    def test_no_false_negatives_for_exact_losses(self, rides_small):
        """For the mean loss the shortcut is exact, so the graph must
        contain *every* valid representation edge."""
        loss = MeanLoss("fare_amount")
        theta = 0.05
        dry, real = build_pipeline(rides_small, loss, theta)
        if len(real.cells) < 2:
            pytest.skip("not enough iceberg cells")
        graph = build_samgraph(rides_small, real.cells, loss, theta)
        values = loss.extract(rides_small)
        for v in range(len(real.cells)):
            sam_v = values[real.cells[v].sample_indices]
            for u in range(len(real.cells)):
                if u == v:
                    continue
                raw_u = values[real.cells[u].raw_indices]
                if loss.loss(raw_u, sam_v) <= theta:
                    assert graph.has_edge(v, u)

    def test_pruned_join_never_adds_invalid_edges(self, rides_small):
        """The distance-loss lower bound may *skip* pairs, never admit
        bad ones; verify against the exhaustive graph."""
        loss = HistogramLoss("fare_amount")
        theta = 0.02
        dry, real = build_pipeline(rides_small, loss, theta)
        if len(real.cells) < 2:
            pytest.skip("not enough iceberg cells")
        graph = build_samgraph(rides_small, real.cells, loss, theta)
        values = loss.extract(rides_small)
        for v in range(graph.num_vertices):
            sam_v = values[real.cells[v].sample_indices]
            for u in graph.out_edges[v]:
                raw_u = values[real.cells[u].raw_indices]
                assert loss.loss(raw_u, sam_v) <= theta + 1e-12


class TestDiagnostics:
    def test_shortcut_used_for_mean_loss(self, rides_small):
        loss = MeanLoss("fare_amount")
        dry, real = build_pipeline(rides_small, loss, 0.05)
        if len(real.cells) < 2:
            pytest.skip("not enough iceberg cells")
        graph = build_samgraph(rides_small, real.cells, loss, 0.05)
        assert graph.shortcut_pairs > 0
        assert graph.exact_checks == 0

    def test_num_edges(self, rides_small):
        loss = MeanLoss("fare_amount")
        dry, real = build_pipeline(rides_small, loss, 0.05)
        graph = build_samgraph(rides_small, real.cells, loss, 0.05)
        assert graph.num_edges == sum(len(e) for e in graph.out_edges)


class TestBatchHooks:
    """The batched join must decide pairs exactly as brute force does."""

    @pytest.mark.parametrize(
        "variant", ["exhaustive", "budget-cut", "miss-streak", "bruteforce"]
    )
    @pytest.mark.parametrize(
        "loss_factory,theta",
        [
            (lambda: HeatmapLoss("pickup_x", "pickup_y"), 0.003),
            (lambda: HistogramLoss("fare_amount"), 0.02),
        ],
        ids=["heatmap", "histogram"],
    )
    def test_batched_exact_checks_equal_per_pair_loop(
        self, rides_small, monkeypatch, loss_factory, theta, variant
    ):
        """A source sample's exact checks are one ``losses`` call; the
        walk must consume them exactly as it consumed per-pair
        ``loss`` calls — same checks counted, same edges, same order."""
        loss = loss_factory()
        _, real = build_pipeline(rides_small, loss, theta)
        cells = real.cells
        assert len(cells) >= 2
        if variant in BUDGETS:
            # The budgeted walk (and its budget-cut batch) at a size a
            # unit test affords: every graph counts as large, the cells
            # repeat so walks have candidates to cut, and one of the two
            # cutoffs is small enough to end every walk.
            budget, streak = BUDGETS[variant]
            monkeypatch.setattr(samgraph, "EXHAUSTIVE_MAX_CELLS", 0)
            monkeypatch.setattr(samgraph, "EXACT_BUDGET", budget)
            monkeypatch.setattr(samgraph, "MISS_STREAK_CUTOFF", streak)
            cells = cells * 4
        accelerated = variant != "bruteforce"
        batched = build_samgraph(
            rides_small, cells, loss, theta, use_accelerators=accelerated
        )
        monkeypatch.setattr(AvgMinDistanceLoss, "losses", LossFunction.losses)
        looped = build_samgraph(
            rides_small, cells, loss, theta, use_accelerators=accelerated
        )
        assert batched.exact_checks == looped.exact_checks > 0
        assert len(batched.out_edges) == len(looped.out_edges)
        for mine, theirs in zip(batched.out_edges, looped.out_edges):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("case", sorted(JOIN_LOSSES))
    def test_accelerated_graph_equals_bruteforce(self, rides_small, join_pipeline, case):
        """Below EXHAUSTIVE_MAX_CELLS the bounds only decide pairs sooner:
        the edge set is the brute-force join's."""
        loss, theta, real = join_pipeline(case)
        cells = real.cells[:60]
        assert len(cells) >= 2
        fast = build_samgraph(rides_small, cells, loss, theta)
        brute = build_samgraph(rides_small, cells, loss, theta, use_accelerators=False)
        assert [sorted(e) for e in fast.out_edges] == [sorted(e) for e in brute.out_edges]


class TestBounds:
    @pytest.mark.parametrize("case", sorted(JOIN_LOSSES))
    def test_bounds_bracket_exact_loss(self, rides_small, join_pipeline, case):
        """lower <= loss <= upper for every pair; equal bounds are exact;
        an empty sample is infinitely far from every cell."""
        loss, _, real = join_pipeline(case)
        cells = real.cells[:40]
        values = loss.extract(rides_small)
        raws = [values[c.raw_indices] for c in cells]
        samples = [values[c.sample_indices] for c in cells]
        prepared = loss.representation_prepare(
            [c.stats for c in cells],
            raws,
            samples,
            [c.sampling.achieved_loss for c in cells],
        )
        assert prepared is not None
        for sam_v in samples:
            lower, upper = loss.representation_bounds(prepared, sam_v)
            if JOIN_LOSSES[case][2]:
                assert np.array_equal(lower, upper)
            for u, raw_u in enumerate(raws):
                actual = loss.loss(raw_u, sam_v)
                assert lower[u] - 1e-12 <= actual <= upper[u] + 1e-12
                if lower[u] == upper[u]:
                    assert actual == pytest.approx(lower[u], rel=1e-9)
        empty = loss.representation_bounds(prepared, samples[0][:0])
        for bound in empty:
            assert np.all(bound == np.inf)
