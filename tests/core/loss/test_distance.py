"""Unit + property tests for the average-min-distance losses (Function 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss.base import _KDTREE_MIN_ELEMENTS, LossFunction, pairwise_min_distance
from repro.core.loss.distance import AvgMinDistanceLoss
from repro.core.loss.heatmap import HeatmapLoss
from repro.core.loss.histogram import HistogramLoss
from repro.engine.table import Table
from repro.errors import LossFunctionError

points_1d = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=25
)


def points_2d(min_size=1, max_size=25):
    return st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        min_size=min_size,
        max_size=max_size,
    ).map(np.asarray)


class TestPairwiseMinDistance:
    def test_euclidean(self):
        raw = np.asarray([[0.0, 0.0], [3.0, 4.0]])
        sample = np.asarray([[0.0, 0.0]])
        assert pairwise_min_distance(raw, sample).tolist() == [0.0, 5.0]

    def test_manhattan(self):
        raw = np.asarray([[3.0, 4.0]])
        sample = np.asarray([[0.0, 0.0]])
        assert pairwise_min_distance(raw, sample, "manhattan").tolist() == [7.0]

    def test_nearest_of_several(self):
        raw = np.asarray([[0.0, 0.0]])
        sample = np.asarray([[10.0, 0.0], [1.0, 0.0]])
        assert pairwise_min_distance(raw, sample).tolist() == [1.0]

    def test_empty_sample_infinite(self):
        raw = np.asarray([[0.0, 0.0]])
        assert pairwise_min_distance(raw, np.empty((0, 2))).tolist() == [math.inf]

    def test_1d_inputs_reshaped(self):
        assert pairwise_min_distance(np.asarray([1.0, 5.0]), np.asarray([2.0])).tolist() == [1.0, 3.0]

    def test_unknown_metric(self):
        with pytest.raises(LossFunctionError):
            pairwise_min_distance(np.asarray([[0.0, 0.0]]), np.asarray([[1.0, 1.0]]), "cosine")


class TestDirect:
    def test_zero_when_sample_covers_raw(self):
        loss = HeatmapLoss("x", "y")
        pts = np.asarray([[0.1, 0.2], [0.5, 0.9]])
        assert loss.loss(pts, pts) == 0.0

    def test_average_of_min_distances(self):
        loss = HistogramLoss("v")
        raw = np.asarray([0.0, 2.0, 4.0])
        sample = np.asarray([0.0])
        assert loss.loss(raw, sample) == pytest.approx(2.0)

    def test_empty_sample(self):
        loss = HistogramLoss("v")
        assert loss.loss(np.asarray([1.0]), np.asarray([])) == math.inf

    def test_empty_raw(self):
        loss = HistogramLoss("v")
        assert loss.loss(np.asarray([]), np.asarray([])) == 0.0

    def test_monotone_in_sample_growth(self):
        """Adding sample points never increases the loss (submodularity base)."""
        loss = HeatmapLoss("x", "y")
        rng = np.random.default_rng(3)
        raw = rng.random((30, 2))
        small = raw[:2]
        bigger = raw[:6]
        assert loss.loss(raw, bigger) <= loss.loss(raw, small)


class TestAlgebraic:
    @given(raw=points_2d(), sample=points_2d())
    @settings(max_examples=30, deadline=None)
    def test_stats_reconstruct_direct(self, raw, sample):
        loss = HeatmapLoss("x", "y")
        direct = loss.loss(raw, sample)
        via = loss.loss_from_stats(loss.stats(raw, sample), loss.prepare_sample(sample))
        assert via == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @given(a=points_2d(), b=points_2d(), sample=points_2d())
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_concat(self, a, b, sample):
        loss = HeatmapLoss("x", "y")
        merged = loss.merge_stats(loss.stats(a, sample), loss.stats(b, sample))
        expected = loss.stats(np.concatenate([a, b]), sample)
        assert merged == pytest.approx(expected)


class TestGreedy:
    def test_dmin_updates_on_add(self):
        loss = HistogramLoss("v")
        raw = np.asarray([0.0, 10.0])
        state = loss.greedy_state(raw)
        assert state.current_loss() == math.inf
        state.add(0)
        assert state.current_loss() == pytest.approx(5.0)
        state.add(1)
        assert state.current_loss() == 0.0

    def test_losses_if_added_matches_direct_eval(self):
        loss = HeatmapLoss("x", "y")
        rng = np.random.default_rng(0)
        raw = rng.random((20, 2))
        state = loss.greedy_state(raw)
        state.add(3)
        for candidate in (0, 7, 15):
            hypothetical = state.loss_if_added(candidate)
            direct = loss.loss(raw, raw[[3, candidate]])
            assert hypothetical == pytest.approx(direct)

    def test_chunked_batch_matches_unchunked(self, monkeypatch):
        import repro.core.loss.distance as distance_mod

        loss = HeatmapLoss("x", "y")
        rng = np.random.default_rng(1)
        raw = rng.random((50, 2))
        state = loss.greedy_state(raw)
        state.add(0)
        full = state.losses_if_added(np.arange(50))
        monkeypatch.setattr(distance_mod, "_CHUNK_ELEMENTS", 100)
        state_chunked = loss.greedy_state(raw)
        state_chunked.add(0)
        chunked = state_chunked.losses_if_added(np.arange(50))
        np.testing.assert_allclose(full, chunked)


BATCH_LOSSES = {
    "heatmap": lambda: HeatmapLoss("x", "y"),
    "histogram": lambda: HistogramLoss("v"),
    "manhattan": lambda: AvgMinDistanceLoss(("x", "y"), metric="manhattan"),
}


def _points(loss, n, rng):
    return rng.random((n,) if loss.target_arity == 1 else (n, loss.target_arity))


class TestBatchForms:
    """``group_stats`` / ``losses`` answer with one nearest-sample query
    and must equal the base class's scalar loops *bit for bit*: the dry
    run's cell statistics and the SamGraph's edges (hence every cube
    digest) are built from them."""

    SAMPLE_ROWS = 1_000
    #: empty, single-row, matrix-sized (30 × 1 000 < 50 000) and
    #: tree-sized (200 × 1 000 ≥ 50 000) groups in one chunk.
    SIZES = (0, 1, 30, 200, 1_769)

    def _case(self, loss, sample_rows):
        rng = np.random.default_rng(sample_rows)
        values = _points(loss, sum(self.SIZES), rng)
        sample = _points(loss, sample_rows, rng)
        cuts = np.cumsum(self.SIZES)[:-1]
        groups = [np.sort(g) for g in np.split(rng.permutation(len(values)), cuts)]
        return values, sample, groups

    def test_sizes_straddle_the_tree_cutoff(self):
        assert 30 * self.SAMPLE_ROWS < _KDTREE_MIN_ELEMENTS <= 200 * self.SAMPLE_ROWS

    @pytest.mark.parametrize("sample_rows", [0, SAMPLE_ROWS], ids=["empty-sample", "sample"])
    @pytest.mark.parametrize("name", sorted(BATCH_LOSSES))
    def test_group_stats_equal_scalar_loop(self, name, sample_rows):
        loss = BATCH_LOSSES[name]()
        values, sample, groups = self._case(loss, sample_rows)
        batch = loss.group_stats(values, sample, groups)
        assert batch == LossFunction.group_stats(loss, values, sample, groups)
        assert batch[0] == (0.0, 0.0)

    @pytest.mark.parametrize("sample_rows", [0, SAMPLE_ROWS], ids=["empty-sample", "sample"])
    @pytest.mark.parametrize("name", sorted(BATCH_LOSSES))
    def test_losses_equal_scalar_loop(self, name, sample_rows):
        loss = BATCH_LOSSES[name]()
        values, sample, groups = self._case(loss, sample_rows)
        raws = [values[g] for g in groups]
        batch = loss.losses(raws, sample)
        assert np.array_equal(batch, LossFunction.losses(loss, raws, sample))
        assert batch[0] == 0.0
        assert loss.losses([], sample).shape == (0,)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_tree_equals_matrix(self, monkeypatch, dims, metric):
        """What the batch forms' bit identity rests on: a row measured
        by the k-d tree (in a big batch) and by the distance matrix (in
        a small scalar call) gets the same nearest distance."""
        import repro.core.loss.base as loss_base

        rng = np.random.default_rng(dims)
        raw = rng.random(3_000) if dims == 1 else rng.random((3_000, dims))
        sample = rng.random(500) if dims == 1 else rng.random((500, dims))
        tree = pairwise_min_distance(raw, sample, metric)
        monkeypatch.setattr(loss_base, "_KDTREE_MIN_ELEMENTS", 10**18)
        matrix = pairwise_min_distance(raw, sample, metric)
        assert np.array_equal(tree, matrix)


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_extract_names_attribute_and_count(self, value):
        table = Table.from_pydict({"x": [0.1, value, value], "y": [0.2, 0.3, 0.4]})
        with pytest.raises(LossFunctionError, match="'x' has 2 non-finite"):
            HeatmapLoss("x", "y").extract(table)


class TestRepresentationBound:
    @given(raw=points_2d(min_size=2), sample=points_2d())
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_is_sound(self, raw, sample):
        """The triangle-inequality bound never exceeds the true loss."""
        loss = HeatmapLoss("x", "y")
        prepared = loss.representation_prepare([()], [raw], [raw], None)
        lower, upper = loss.representation_bounds(prepared, sample)
        assert lower[0] <= loss.loss(raw, sample) + 1e-9
        assert upper[0] == math.inf  # no achieved losses, no bank

    @given(raw=points_2d(min_size=2), sample=points_2d(), own=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_upper_bound_is_sound(self, raw, sample, own):
        """The own-sample bound never falls below the true loss."""
        loss = HeatmapLoss("x", "y")
        own_sample = raw[:own]
        achieved = loss.loss(raw, own_sample)
        prepared = loss.representation_prepare([()], [raw], [own_sample], [achieved])
        _, upper = loss.representation_bounds(prepared, sample)
        assert upper[0] >= loss.loss(raw, sample) - 1e-9

    def test_bound_infinite_for_empty_sample(self):
        loss = HeatmapLoss("x", "y")
        pts = np.asarray([[0.5, 0.5]])
        prepared = loss.representation_prepare([()], [pts], [pts], [0.0])
        lower, upper = loss.representation_bounds(prepared, np.empty((0, 2)))
        assert lower.tolist() == upper.tolist() == [math.inf]

    def test_manhattan_aux_spread(self):
        loss = AvgMinDistanceLoss(("x", "y"), metric="manhattan")
        pts = np.asarray([[0.0, 0.0], [2.0, 2.0]])
        prepared = loss.representation_prepare([()], [pts], [pts], None)
        # centroid (1, 1), manhattan spread 2; the sample is 4 away from it
        lower, _ = loss.representation_bounds(prepared, np.asarray([[5.0, 1.0]]))
        assert lower[0] == pytest.approx(4.0 - 2.0)
