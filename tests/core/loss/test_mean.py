"""Unit + property tests for the statistical-mean loss (Function 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss.mean import MeanLoss
from repro.engine.table import Table

values = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=40
)


@pytest.fixture()
def loss():
    return MeanLoss("fare")


class TestDirect:
    def test_identical_sample_zero_loss(self, loss):
        data = np.asarray([1.0, 2.0, 3.0])
        assert loss.loss(data, data) == 0.0

    def test_relative_error(self, loss):
        raw = np.asarray([10.0, 10.0])
        sample = np.asarray([9.0])
        assert loss.loss(raw, sample) == pytest.approx(0.1)

    def test_empty_sample_infinite(self, loss):
        assert loss.loss(np.asarray([1.0]), np.asarray([])) == math.inf

    def test_empty_raw_zero(self, loss):
        assert loss.loss(np.asarray([]), np.asarray([])) == 0.0

    def test_zero_raw_mean_zero_sample_mean(self, loss):
        assert loss.loss(np.asarray([-1.0, 1.0]), np.asarray([-2.0, 2.0])) == 0.0

    def test_zero_raw_mean_nonzero_sample_mean(self, loss):
        assert loss.loss(np.asarray([-1.0, 1.0]), np.asarray([5.0])) == math.inf

    def test_loss_tables_extracts_attr(self, loss):
        raw = Table.from_pydict({"fare": [10.0, 20.0]})
        sample = Table.from_pydict({"fare": [15.0]})
        assert loss.loss_tables(raw, sample) == pytest.approx(0.0)


class TestAlgebraic:
    @given(raw=values, sample=values)
    @settings(max_examples=40, deadline=None)
    def test_stats_reconstruct_direct_loss(self, raw, sample):
        loss = MeanLoss("x")
        raw_arr = np.asarray(raw)
        sam_arr = np.asarray(sample)
        direct = loss.loss(raw_arr, sam_arr)
        via_stats = loss.loss_from_stats(
            loss.stats(raw_arr, sam_arr), loss.prepare_sample(sam_arr)
        )
        if math.isinf(direct):
            assert math.isinf(via_stats)
        else:
            assert via_stats == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @given(a=values, b=values, sample=values)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_concat(self, a, b, sample):
        loss = MeanLoss("x")
        sam = np.asarray(sample)
        merged = loss.merge_stats(
            loss.stats(np.asarray(a), sam), loss.stats(np.asarray(b), sam)
        )
        expected = loss.stats(np.concatenate([a, b]), sam)
        assert merged == pytest.approx(expected)

    def test_empty_stats_is_merge_identity(self):
        loss = MeanLoss("x")
        sam = np.asarray([1.0])
        stats = loss.stats(np.asarray([2.0, 4.0]), sam)
        assert loss.merge_stats(stats, loss.empty_stats()) == pytest.approx(stats)


class TestGreedy:
    def test_state_tracks_committed_sample(self):
        loss = MeanLoss("x")
        raw = np.asarray([1.0, 5.0, 9.0])
        state = loss.greedy_state(raw)
        assert state.current_loss() == math.inf
        state.add(1)  # value 5.0 == raw mean
        assert state.current_loss() == pytest.approx(0.0)

    def test_losses_if_added_vectorized_matches_scalar(self):
        loss = MeanLoss("x")
        raw = np.asarray([2.0, 4.0, 6.0, 8.0])
        state = loss.greedy_state(raw)
        state.add(0)
        batch = state.losses_if_added(np.asarray([1, 2, 3]))
        for j, i in enumerate([1, 2, 3]):
            assert batch[j] == pytest.approx(state.loss_if_added(i))

    def test_losses_if_added_is_hypothetical(self):
        loss = MeanLoss("x")
        raw = np.asarray([2.0, 4.0])
        state = loss.greedy_state(raw)
        before = state.current_loss()
        state.losses_if_added(np.asarray([0, 1]))
        assert state.current_loss() == before


class TestRepresentationShortcut:
    def test_exact_from_stats(self):
        loss = MeanLoss("x")
        cell = np.asarray([10.0, 20.0, 30.0])
        sample = np.asarray([19.0, 21.0])
        stats = loss.stats(cell, sample)
        prepared = loss.representation_prepare([stats], [cell], [sample], None)
        lower, upper = loss.representation_bounds(prepared, sample)
        assert upper is lower
        assert lower[0] == pytest.approx(loss.loss(cell, sample))
