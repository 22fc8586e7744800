"""Ablation — Algorithm 2's per-cuboid retrieval vs deriving from base cells.

Algorithm 2 retrieves each iceberg cuboid's rows from the raw table,
choosing per cuboid between a full GroupBy and a semi-join prune
(Inequation 1). The real run no longer does either by default: it
groups the raw table once into base cells and derives every cuboid's
rows from them. This bench times the default against the cost model's
choice and against forcing one retrieval for *every* cuboid — what the
model buys over a fixed strategy, and what is left of that once
retrieval is derived.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.metrics import format_seconds
from repro.bench.reporting import print_table
from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss import HistogramLoss
from repro.core.realrun import real_run
from repro.data.nyctaxi import CUBE_ATTRIBUTES

ATTRS = CUBE_ATTRIBUTES[:4]
THETA = 0.01


def test_ablation_cost_model(benchmark, small_rides):
    loss = HistogramLoss("fare_amount")
    global_sample = draw_global_sample(small_rides, np.random.default_rng(0))
    dry = dry_run(small_rides, ATTRS, loss, THETA, global_sample)

    def timed(strategy):
        # skip_sampling isolates the retrieval cost (GroupBy vs semi-join
        # prune) that Inequation 1 actually models; Algorithm-1 sampling
        # would otherwise dominate and mask the difference.
        started = time.perf_counter()
        result = real_run(
            small_rides, dry, loss, seed=1,
            force_strategy=strategy, skip_sampling=True,
        )
        return time.perf_counter() - started, result

    def run():
        derived_seconds, derived = timed(None)
        model_seconds, model = timed("cost-model")
        join_seconds, join = timed("join-prune")
        group_seconds, group = timed("full-groupby")
        # All four materialize the same iceberg cells from the same rows.
        for other in (model, join, group):
            assert [c.key for c in other.cells] == [c.key for c in derived.cells]
            assert all(
                np.array_equal(a.raw_indices, b.raw_indices)
                for a, b in zip(derived.cells, other.cells)
            )
        return derived_seconds, model_seconds, join_seconds, group_seconds, model

    derived_seconds, model_seconds, join_seconds, group_seconds, model = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    decisions = [d.strategy for d in model.decisions.values()]
    print_table(
        "Ablation: cost-model strategy choice (histogram loss, θ = $0.01)",
        ["strategy", "real-run time", "cuboids via join-prune", "cuboids via full-groupby"],
        [
            ["derived from base cells (default)", format_seconds(derived_seconds), "-", "-"],
            ["cost model", format_seconds(model_seconds),
             str(decisions.count("join-prune")), str(decisions.count("full-groupby"))],
            ["force join-prune", format_seconds(join_seconds), str(len(decisions)), "0"],
            ["force full-groupby", format_seconds(group_seconds), "0", str(len(decisions))],
        ],
    )
    assert model_seconds <= max(join_seconds, group_seconds) * 1.5
    assert derived_seconds <= max(join_seconds, group_seconds) * 1.5
