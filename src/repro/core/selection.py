"""Representative sample selection — Algorithm 3 (RepSamSel).

Selecting a minimum set of samples such that every unpersisted sample's
cell is represented by a persisted one is NP-hard (reduction from
Minimum Dominating Set, Lemma IV.1); Tabula uses the greedy heuristic:
repeatedly pick the sample with the highest out-degree among the
remaining ones, then drop every sample it represents.

Mirrors the paper's pseudocode: edges are grouped by head, heads sorted
by descending out-degree into a ``LinkedHashMap`` (a Python dict keeps
the required insertion order), and the loop pops the top entry, adds it
to the representative set D and removes all of its tails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.samgraph import SamGraph


@dataclass
class SelectionResult:
    """Outcome of representative sample selection.

    Attributes:
        representatives: vertex ids persisted, in selection order.
        assignment: for every vertex, the representative that answers
            its cell's queries (a representative maps to itself).
        seconds: wall-clock time of the selection pass.
    """

    representatives: List[int]
    assignment: Dict[int, int]
    seconds: float

    @property
    def num_representatives(self) -> int:
        return len(self.representatives)


def select_representatives(graph: SamGraph) -> SelectionResult:
    """Run Algorithm 3 on a SamGraph.

    Every vertex ends up assigned: either it is selected into D, or it
    was removed as the tail of a selected head — in which case that
    head's sample represents its cell (Definition 7, condition 1).
    Assignment is first-covering (deterministic); the paper breaks the
    tie randomly.
    """
    started = time.perf_counter()
    n = graph.num_vertices
    if n == 0:
        return SelectionResult([], {}, time.perf_counter() - started)
    # Heads in descending out-degree order (ties toward the smaller
    # vertex id) — the LinkedHashMap insertion order of the pseudocode.
    # Vertices with zero out-edges still participate: they must be able
    # to represent at least themselves.
    out_degrees = np.fromiter(
        (graph.out_degree(v) for v in range(n)), dtype=np.int64, count=n
    )
    order = np.lexsort((np.arange(n), -out_degrees))
    # Array-based sweep replacing the dict-of-lists pop loop: ``removed``
    # models membership of the LinkedHashMap, ``assigned`` the
    # ``setdefault`` first-covering rule. Per head, tails are masked and
    # assigned in bulk instead of a Python loop per edge.
    removed = np.zeros(n, dtype=bool)
    assigned_to = np.full(n, -1, dtype=np.int64)
    representatives: List[int] = []
    for head in order:
        if removed[head]:
            continue
        head = int(head)
        removed[head] = True
        representatives.append(head)
        if assigned_to[head] < 0:
            assigned_to[head] = head
        tails = graph.out_edges[head]
        if len(tails):
            unassigned = tails[assigned_to[tails] < 0]
            assigned_to[unassigned] = head
            removed[tails] = True
    assignment: Dict[int, int] = {v: int(assigned_to[v]) for v in range(n)}
    return SelectionResult(
        representatives=representatives,
        assignment=assignment,
        seconds=time.perf_counter() - started,
    )


def is_dominating(graph: SamGraph, representatives: Sequence[int]) -> bool:
    """Check Definition 7's condition 1 — used by the property tests."""
    chosen = set(representatives)
    for v in range(graph.num_vertices):
        if v in chosen:
            continue
        if not any(graph.has_edge(r, v) for r in chosen):
            return False
    return True
