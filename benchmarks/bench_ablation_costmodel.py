"""Ablation — Algorithm 2's cost model vs forcing either retrieval path.

For each iceberg cuboid the real run chooses between a full GroupBy and
a semi-join prune (Inequation 1). Forcing one path for *every* cuboid
shows what the model buys: never worse than the worse of the two fixed
strategies, usually tracking the better one.
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
        model_seconds, model = timed(None)
        join_seconds, join = timed("join-prune")
        group_seconds, group = timed("full-groupby")
        # All three materialize the same iceberg cells.
        keys = {c.key for c in model.cells}
        assert {c.key for c in join.cells} == keys
        assert {c.key for c in group.cells} == keys
        return model_seconds, join_seconds, group_seconds, model

    model_seconds, join_seconds, group_seconds, model = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    decisions = [d.strategy for d in model.decisions.values()]
    print_table(
        "Ablation: cost-model strategy choice (histogram loss, θ = $0.01)",
        ["strategy", "real-run time", "cuboids via join-prune", "cuboids via full-groupby"],
        [
            ["cost model", format_seconds(model_seconds),
             str(decisions.count("join-prune")), str(decisions.count("full-groupby"))],
            ["force join-prune", format_seconds(join_seconds), str(len(decisions)), "0"],
            ["force full-groupby", format_seconds(group_seconds), "0", str(len(decisions))],
        ],
    )
    assert model_seconds <= max(join_seconds, group_seconds) * 1.5
