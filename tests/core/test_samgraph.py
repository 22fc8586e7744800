"""Tests for the representation join / SamGraph (Section IV)."""

import numpy as np
import pytest

from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss.histogram import HistogramLoss
from repro.core.loss.mean import MeanLoss
from repro.core.realrun import real_run
from repro.core.samgraph import build_samgraph

ATTRS = ("passenger_count", "payment_type")


def build_pipeline(table, loss, theta, seed=0):
    gs = draw_global_sample(table, np.random.default_rng(seed))
    dry = dry_run(table, ATTRS, loss, theta, gs)
    real = real_run(table, dry, loss, seed=seed + 1)
    return dry, real


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
    """The vectorized join hooks must agree with the scalar ones."""

    def test_mean_shortcut_batch_matches_scalar(self, rides_small):
        loss = MeanLoss("fare_amount")
        dry, real = build_pipeline(rides_small, loss, 0.05)
        cells = real.cells[:40]
        values = loss.extract(rides_small)
        stats_list = [c.stats for c in cells]
        aux = [loss.cell_aux(values[c.raw_indices]) for c in cells]
        prepared = loss.representation_prepare(stats_list, aux)
        sam = values[cells[0].sample_indices]
        batch = loss.representation_shortcut_batch(prepared, sam)
        assert batch is not None
        for u in range(len(cells)):
            scalar = loss.representation_shortcut(stats_list[u], aux[u], sam)
            assert batch[u] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_distance_bound_batch_matches_scalar(self, rides_small):
        loss = HistogramLoss("fare_amount")
        dry, real = build_pipeline(rides_small, loss, 0.02)
        cells = real.cells[:40]
        values = loss.extract(rides_small)
        stats_list = [c.stats for c in cells]
        aux = [loss.cell_aux(values[c.raw_indices]) for c in cells]
        prepared = loss.representation_prepare(stats_list, aux)
        sam = values[cells[0].sample_indices]
        batch = loss.representation_lower_bound_batch(prepared, sam)
        assert batch is not None
        for u in range(len(cells)):
            scalar = loss.representation_lower_bound(stats_list[u], aux[u], sam)
            assert batch[u] == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_accelerated_graph_equals_bruteforce_for_mean(self, rides_small):
        loss = MeanLoss("fare_amount")
        dry, real = build_pipeline(rides_small, loss, 0.05)
        cells = real.cells[:60]
        fast = build_samgraph(rides_small, cells, loss, 0.05)
        brute = build_samgraph(rides_small, cells, loss, 0.05, use_accelerators=False)
        assert [sorted(e) for e in fast.out_edges] == [sorted(e) for e in brute.out_edges]
