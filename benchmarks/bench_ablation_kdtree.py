"""Ablation — nearest-neighbor kernel: k-d tree vs distance matrix.

``pairwise_min_distance`` underlies the whole distance-loss family
(dry-run statistics, representation join, actual-loss measurement).
Large instances route through a k-d tree; this bench quantifies the
crossover and verifies that both paths return bit-equal distances.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.loss.base as loss_base
from repro.bench.metrics import format_seconds
from repro.bench.reporting import print_table
from repro.core.loss.base import pairwise_min_distance


@pytest.mark.skipif(loss_base._KDTree is None, reason="scipy not available")
def test_ablation_distance_kernel(benchmark):
    rng = np.random.default_rng(0)
    cases = [(1_000, 500), (10_000, 1_000), (30_000, 1_060)]

    def run():
        rows = []
        for n_raw, n_sample in cases:
            raw = rng.random((n_raw, 2))
            sample = rng.random((n_sample, 2))
            started = time.perf_counter()
            tree = pairwise_min_distance(raw, sample)
            tree_seconds = time.perf_counter() - started
            saved = loss_base._KDTREE_MIN_ELEMENTS
            loss_base._KDTREE_MIN_ELEMENTS = 10**18  # force the matrix path
            try:
                started = time.perf_counter()
                matrix = pairwise_min_distance(raw, sample)
                matrix_seconds = time.perf_counter() - started
            finally:
                loss_base._KDTREE_MIN_ELEMENTS = saved
            # Bit-equal, not just close: the distance losses' batch forms
            # rely on a row getting the same distance on either path.
            assert np.array_equal(tree, matrix)
            rows.append((n_raw, n_sample, tree_seconds, matrix_seconds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: k-d tree vs distance-matrix nearest-neighbor kernel",
        ["raw points", "sample points", "k-d tree", "matrix", "speedup"],
        [
            [str(n), str(m), format_seconds(t), format_seconds(mx), f"{mx / t:.1f}x"]
            for n, m, t, mx in rows
        ],
    )
    # The tree must win decisively at benchmark scale.
    big = rows[-1]
    assert big[3] / big[2] > 5
