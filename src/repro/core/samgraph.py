"""The sample representation graph — SamGraph (Definitions 5 & 6).

Vertices are the local samples materialized by the real run; a directed
edge v → u means sample v can *represent* cell u, i.e.
``loss(cell_u.raw, sam_v) <= θ``. Building the graph is an inner join
of the cube table with itself under that condition (Section IV); the
paper notes that any similarity-join accelerator applies and that a
non-exhaustive SamGraph never violates the bounded-error guarantee —
it only persists more samples than strictly necessary.

This implementation accelerates the join with one per-loss question,
:meth:`~repro.core.loss.base.LossFunction.representation_bounds`: per-cell
``(lower, upper)`` bounds on the loss against one source sample. A lower
bound above θ prunes the pair, an upper bound at most θ proves the edge
(the mean, std-dev and regression losses answer exactly, so nothing is
left), and the pairs in between — every pair, for a loss without bounds
— are one :meth:`~repro.core.loss.base.LossFunction.losses` call, which
the distance losses answer with a single nearest-sample query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.loss.base import LossFunction
from repro.core.realrun import IcebergCellEntry
from repro.engine.table import Table

#: Up to this many cells the join decides every pair.
EXHAUSTIVE_MAX_CELLS = 800
#: Above it, the exact checks a source sample's bounds leave undecided
#: stop after this many evaluations; candidates are tried in
#: ascending-lower-bound order, so the most promising representation
#: edges are found first.
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
    #: join diagnostics: pairs checked exactly, pairs whose lower bound
    #: exceeds θ, and pairs whose upper bound proves the edge.
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

    Up to :data:`EXHAUSTIVE_MAX_CELLS` cells every pair is decided.
    Above that, for a loss with bounds, a source sample's exact checks
    stop at :data:`EXACT_BUDGET` evaluations or :data:`MISS_STREAK_CUTOFF`
    misses in a row, so the graph may miss edges — never admit a wrong
    one.

    Args:
        table: the raw table (cells hold row indices into it).
        cells: the real run's materialized iceberg cells.
        loss: the bound loss function.
        threshold: θ.
        use_accelerators: ignore the loss's bounds and check every pair
            exactly — the brute-force join the accelerated graph is
            tested against (and the similarity-join ablation benchmark
            times).

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
    budgeted = n > EXHAUSTIVE_MAX_CELLS
    values = loss.extract(table)
    sample_values = [values[c.sample_indices] for c in cells]
    raw_values = [values[c.raw_indices] for c in cells]
    prepared = (
        loss.representation_prepare(
            [c.stats for c in cells],
            raw_values,
            sample_values,
            [c.sampling.achieved_loss for c in cells],
        )
        if use_accelerators
        else None
    )

    vertices = np.arange(n, dtype=np.int64)
    out_edges: List[np.ndarray] = []
    exact = pruned = shortcut = 0
    for v in range(n):
        sam_v = sample_values[v]
        bounds = None if prepared is None else loss.representation_bounds(prepared, sam_v)
        if bounds is None:
            # No bounds: every other cell is checked exactly, in vertex
            # order, with no budget cut.
            accepted = vertices[:0]
            undecided = vertices[vertices != v]
        else:
            lower, upper = bounds
            survivors = np.nonzero(lower <= threshold)[0]
            survivors = survivors[survivors != v]
            pruned += n - 1 - len(survivors)
            if upper is lower:
                accepted, undecided = survivors, survivors[:0]
            else:
                proved = upper[survivors] <= threshold
                accepted, undecided = survivors[proved], survivors[~proved]
            shortcut += len(accepted)
        if len(undecided) == 0:
            out_edges.append(accepted)
            continue
        walk_cut = budgeted and bounds is not None
        if bounds is not None:
            # The most promising candidates first, so a budgeted walk
            # spends its exact checks where edges are likeliest.
            undecided = undecided[np.argsort(lower[undecided], kind="stable")]
            if walk_cut:
                undecided = undecided[:EXACT_BUDGET]
        hits = loss.losses([raw_values[u] for u in undecided], sam_v) <= threshold
        walked = _walk_length(hits) if walk_cut else len(hits)
        exact += walked
        out_edges.append(np.concatenate([accepted, undecided[:walked][hits[:walked]]]))
    return SamGraph(
        num_vertices=n,
        out_edges=out_edges,
        exact_checks=exact,
        pruned_pairs=pruned,
        shortcut_pairs=shortcut,
        seconds=time.perf_counter() - started,
    )


def _walk_length(hits: np.ndarray) -> int:
    """How many bound-ordered exact checks a budgeted walk consumes.

    The walk stops before the next check once :data:`MISS_STREAK_CUTOFF`
    checks in a row have failed.
    """
    streak = 0
    for i, hit in enumerate(hits):
        if streak >= MISS_STREAK_CUTOFF:
            return i
        streak = 0 if hit else streak + 1
    return len(hits)
