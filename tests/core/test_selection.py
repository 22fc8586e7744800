"""Unit + property tests for Algorithm 3 (representative sample selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samgraph import SamGraph
from repro.core.selection import is_dominating, select_representatives


def graph_of(out_edges):
    return SamGraph(
        num_vertices=len(out_edges),
        out_edges=[np.asarray(list(e), dtype=np.int64) for e in out_edges],
        exact_checks=0,
        pruned_pairs=0,
        shortcut_pairs=0,
        seconds=0.0,
    )


class TestPaperExample:
    def test_figure7_selection_order(self):
        """Figure 7: Sample2 represents {1,3,6,7}, Sample8 {3,7},
        Sample5 {6}, Sample4 {}; greedy picks 2, then 8, 5, 4 (static
        out-degree order), and 1/3/6/7 are dropped."""
        # Vertices 0..7 = samples 1..8.
        edges = {
            1: [0, 2, 5, 6],  # sample2 -> 1,3,6,7
            7: [2, 6],        # sample8 -> 3,7
            4: [5],           # sample5 -> 6
            3: [],            # sample4
            0: [], 2: [], 5: [], 6: [],
        }
        graph = graph_of([edges[v] for v in range(8)])
        result = select_representatives(graph)
        assert result.representatives == [1, 7, 4, 3]
        # All vertices assigned; tails map to their covering head.
        assert result.assignment[0] == 1
        assert result.assignment[2] == 1
        assert result.assignment[3] == 3

    def test_assignment_respects_edges(self):
        graph = graph_of([[1, 2], [], []])
        result = select_representatives(graph)
        for v, rep in result.assignment.items():
            assert rep == v or graph.has_edge(rep, v)


class TestBasicShapes:
    def test_empty_graph(self):
        result = select_representatives(graph_of([]))
        assert result.representatives == []
        assert result.assignment == {}

    def test_isolated_vertices_all_selected(self):
        result = select_representatives(graph_of([[], [], []]))
        assert sorted(result.representatives) == [0, 1, 2]

    def test_star_graph_selects_center(self):
        graph = graph_of([[1, 2, 3], [], [], []])
        result = select_representatives(graph)
        assert result.representatives == [0]
        assert result.num_representatives == 1

    def test_chain_is_covered(self):
        # 0 -> 1, 1 -> 2: picking 0 covers 1; 2 remains and is picked.
        graph = graph_of([[1], [2], []])
        result = select_representatives(graph)
        assert set(result.assignment) == {0, 1, 2}
        assert is_dominating(graph, result.representatives)

    def test_every_vertex_assigned_exactly_once(self):
        graph = graph_of([[1], [0], [0, 1]])
        result = select_representatives(graph)
        assert set(result.assignment.keys()) == {0, 1, 2}


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    density=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_property_output_is_dominating_set(n, seed, density):
    """Definition 7 condition 1 on random directed graphs."""
    rng = np.random.default_rng(seed)
    out_edges = [
        [u for u in range(n) if u != v and rng.random() < density] for v in range(n)
    ]
    graph = graph_of(out_edges)
    result = select_representatives(graph)
    assert is_dominating(graph, result.representatives)
    # Every vertex has an assignment consistent with the graph.
    for v in range(n):
        rep = result.assignment[v]
        assert rep == v or graph.has_edge(rep, v)
    # Representatives are unique.
    assert len(set(result.representatives)) == len(result.representatives)


@given(n=st.integers(min_value=2, max_value=10))
@settings(max_examples=20, deadline=None)
def test_property_complete_graph_selects_one(n):
    out_edges = [[u for u in range(n) if u != v] for v in range(n)]
    result = select_representatives(graph_of(out_edges))
    assert result.num_representatives == 1
