"""Ablation — sample selection and the representation-join accelerators.

Two questions:
1. What does representative sample selection (Section IV) buy?
   Tabula vs Tabula* sample-table sizes (the Figure 9 gap, isolated).
2. What do the similarity-join accelerators (each loss's
   ``representation_bounds``: triangle-inequality bounds here) buy in
   the SamGraph build? The paper notes any similarity join works; below
   ``EXHAUSTIVE_MAX_CELLS`` ours must produce the brute-force graph.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.metrics import format_bytes, format_seconds
from repro.bench.reporting import print_table
from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss import HistogramLoss
from repro.core.realrun import real_run
from repro.core.samgraph import build_samgraph
from repro.core.selection import select_representatives
from repro.data.nyctaxi import CUBE_ATTRIBUTES

ATTRS = CUBE_ATTRIBUTES[:4]
THETA = 0.01


def test_ablation_sample_selection_and_join(benchmark, small_rides):
    loss = HistogramLoss("fare_amount")
    global_sample = draw_global_sample(small_rides, np.random.default_rng(0))
    dry = dry_run(small_rides, ATTRS, loss, THETA, global_sample)
    real = real_run(small_rides, dry, loss, seed=1)
    # Cap the pairwise-join input so the brute-force arm stays tractable.
    cells = real.cells[:150]

    def run():
        started = time.perf_counter()
        fast = build_samgraph(small_rides, cells, loss, THETA)
        fast_seconds = time.perf_counter() - started
        started = time.perf_counter()
        brute = build_samgraph(
            small_rides, cells, loss, THETA, use_accelerators=False
        )
        brute_seconds = time.perf_counter() - started
        return fast, fast_seconds, brute, brute_seconds

    fast, fast_seconds, brute, brute_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Correctness: below EXHAUSTIVE_MAX_CELLS the bounds only decide
    # pairs sooner, so the accelerated graph is the brute-force graph.
    for v in range(fast.num_vertices):
        assert set(fast.out_edges[v]) == set(brute.out_edges[v])

    selection_fast = select_representatives(fast)
    selection_brute = select_representatives(brute)
    values = loss.extract(small_rides)
    all_sample_bytes = sum(
        values[c.sample_indices].nbytes for c in cells
    )
    fast_bytes = sum(
        values[cells[r].sample_indices].nbytes
        for r in selection_fast.representatives
    )
    print_table(
        "Ablation: representation join accelerators + sample selection",
        ["variant", "join time", "edges", "representatives", "sample bytes"],
        [
            ["accelerated join", format_seconds(fast_seconds), str(fast.num_edges),
             str(selection_fast.num_representatives), format_bytes(fast_bytes)],
            ["brute-force join", format_seconds(brute_seconds), str(brute.num_edges),
             str(selection_brute.num_representatives), "-"],
            ["no selection (Tabula*)", "-", "-", str(len(cells)),
             format_bytes(all_sample_bytes)],
        ],
    )
    assert selection_fast.num_representatives <= len(cells)
