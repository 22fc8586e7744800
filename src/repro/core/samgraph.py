"""The sample representation graph — SamGraph (Definitions 5 & 6).

Vertices are the local samples materialized by the real run; a directed
edge v → u means sample v can *represent* cell u, i.e.
``loss(cell_u.raw, sam_v) <= θ``. Building the graph is an inner join
of the cube table with itself under that condition (Section IV); the
paper notes that any similarity-join accelerator applies and that a
non-exhaustive SamGraph never violates the bounded-error guarantee —
it only persists more samples than strictly necessary.

This implementation accelerates the join with per-loss hooks:
statistics shortcuts answer the mean/regression condition exactly
without raw data, and a triangle-inequality lower bound prunes most
distance-loss pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.loss.base import LossFunction
from repro.core.realrun import IcebergCellEntry
from repro.engine.table import Table

#: Above 800 cells a source sample's *exact* checks (distance losses,
#: where only a lower bound is available) stop after this many
#: evaluations; candidates are tried in ascending-bound order, so the
#: most promising representation edges are found first.
EXACT_BUDGET = 64
#: ...or after this many consecutive failures — bound-ordered candidates
#: rarely succeed after a streak of misses.
MISS_STREAK_CUTOFF = 8


@dataclass
class SamGraph:
    """Adjacency-list representation; vertex i is ``cells[i]``'s sample."""

    num_vertices: int
    #: out_edges[v] = cells representable by sample v (excluding v itself),
    #: an ``int64`` array in discovery order.
    out_edges: List[np.ndarray]
    #: join diagnostics: pairs checked exactly vs pruned/shortcut.
    exact_checks: int
    pruned_pairs: int
    shortcut_pairs: int
    seconds: float

    def out_degree(self, v: int) -> int:
        return len(self.out_edges[v])

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.out_edges)

    def has_edge(self, v: int, u: int) -> bool:
        return bool((self.out_edges[v] == u).any())


def build_samgraph(
    table: Table,
    cells: Sequence[IcebergCellEntry],
    loss: LossFunction,
    threshold: float,
    use_accelerators: bool = True,
) -> SamGraph:
    """Run the representation join over all iceberg cells.

    Up to 800 cells every pair is decided. Above that, a source
    sample's exact checks stop at :data:`EXACT_BUDGET` evaluations or
    :data:`MISS_STREAK_CUTOFF` misses in a row, so the graph may miss
    edges — never admit a wrong one.

    Args:
        table: the raw table (cells hold row indices into it).
        cells: the real run's materialized iceberg cells.
        loss: the bound loss function.
        threshold: θ.
        use_accelerators: disable the statistics shortcut and the
            lower-bound prune to force the brute-force join — the
            exhaustive reference the accelerated graph is tested against
            (and the similarity-join ablation benchmark times).

    Returns:
        The directed :class:`SamGraph` (self-edges omitted; every sample
        trivially represents its own cell).
    """
    started = time.perf_counter()
    n = len(cells)
    # Small graphs run the join exhaustively: the memory consolidation
    # of Section IV needs a near-complete SamGraph to bite (a sparse
    # graph leaves most cells as their own representative), and at a few
    # hundred cells the k-d-tree-accelerated exact checks are affordable.
    # Large graphs keep EXACT_BUDGET / MISS_STREAK_CUTOFF — the paper
    # explicitly allows a non-exhaustive join (it costs footprint, never
    # correctness).
    budgeted = n > 800
    values = loss.extract(table)
    sample_values = [values[c.sample_indices] for c in cells]
    raw_values = [values[c.raw_indices] for c in cells]
    aux = [loss.cell_aux(raw_values[u]) for u in range(n)]
    stats_list = [c.stats for c in cells]
    prepared = (
        loss.representation_prepare(stats_list, aux) if use_accelerators else None
    )
    accept_prepared = (
        loss.representation_accept_prepare(
            sample_values, [c.sampling.achieved_loss for c in cells]
        )
        if use_accelerators
        else None
    )

    out_edges: List[np.ndarray] = []
    exact = pruned = shortcut = 0
    for v in range(n):
        sam_v = sample_values[v]
        edges: List[int] = []
        # Vectorized fast paths first: an exact batch answer settles the
        # whole column; a batch lower bound leaves only the survivors
        # for the exact check, tried in ascending-bound order under the
        # exact-check budget.
        candidates = None
        bounded_order = False
        if use_accelerators and prepared is not None:
            quick = loss.representation_shortcut_batch(prepared, sam_v)
            if quick is not None:
                shortcut += n - 1
                hits = np.nonzero(np.asarray(quick) <= threshold)[0]
                out_edges.append(hits[hits != v].astype(np.int64, copy=False))
                continue
            bounds = loss.representation_lower_bound_batch(prepared, sam_v)
            if bounds is not None:
                bounds = np.asarray(bounds)
                survivors = np.nonzero(bounds <= threshold)[0]
                pruned += n - 1 - max(len(survivors) - 1, 0)
                # Sound accepts first: an upper bound <= θ proves the edge
                # without an exact check.
                if accept_prepared is not None:
                    uppers = loss.representation_upper_bound_batch(
                        accept_prepared, sam_v
                    )
                else:
                    uppers = None
                if uppers is not None:
                    uppers = np.asarray(uppers)
                    accepted = [
                        int(u) for u in survivors
                        if u != v and uppers[u] <= threshold
                    ]
                    edges.extend(accepted)
                    shortcut += len(accepted)
                    undecided = survivors[
                        (uppers[survivors] > threshold) & (survivors != v)
                    ]
                else:
                    undecided = survivors
                undecided = undecided[np.argsort(bounds[undecided], kind="stable")]
                candidates = [int(u) for u in undecided if u != v]
                bounded_order = True
        if candidates is None:
            candidates = [u for u in range(n) if u != v]
        exact_done = 0
        miss_streak = 0
        for u in candidates:
            if use_accelerators and prepared is None:
                quick = loss.representation_shortcut(cells[u].stats, aux[u], sam_v)
                if quick is not None:
                    shortcut += 1
                    if quick <= threshold:
                        edges.append(u)
                    continue
                bound = loss.representation_lower_bound(cells[u].stats, aux[u], sam_v)
                if bound > threshold:
                    pruned += 1
                    continue
            if bounded_order and budgeted and (
                exact_done >= EXACT_BUDGET or miss_streak >= MISS_STREAK_CUTOFF
            ):
                break
            exact += 1
            exact_done += 1
            if loss.loss(raw_values[u], sam_v) <= threshold:
                edges.append(u)
                miss_streak = 0
            else:
                miss_streak += 1
        out_edges.append(np.asarray(edges, dtype=np.int64))
    return SamGraph(
        num_vertices=n,
        out_edges=out_edges,
        exact_checks=exact,
        pruned_pairs=pruned,
        shortcut_pairs=shortcut,
        seconds=time.perf_counter() - started,
    )
