"""Unit + property tests for the regression-angle loss (Function 3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss.regression import (
    RegressionLoss,
    regression_angle,
    regression_slope,
)


def xy_points(min_size=1, max_size=25):
    return st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=min_size,
        max_size=max_size,
    ).map(np.asarray)


class TestSlopeFormula:
    def test_perfect_line(self):
        x = np.asarray([0.0, 1.0, 2.0])
        y = 3.0 * x + 1.0
        slope = regression_slope(
            3.0, x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
        )
        assert slope == pytest.approx(3.0)

    def test_matches_numpy_polyfit(self):
        rng = np.random.default_rng(0)
        x = rng.random(50)
        y = 2.0 * x + rng.normal(0, 0.1, 50)
        slope = regression_slope(
            50.0, x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
        )
        expected = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(expected, rel=1e-9)

    def test_degenerate_single_point(self):
        assert regression_slope(1.0, 1.0, 2.0, 2.0, 1.0) == 0.0

    def test_degenerate_zero_x_variance(self):
        # All x equal: denominator 0.
        assert regression_slope(3.0, 6.0, 9.0, 18.0, 12.0) == 0.0

    def test_angle_conversion(self):
        assert regression_angle(2.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
            math.degrees(math.atan(regression_slope(2.0, 1.0, 1.0, 1.0, 1.0)))
        )


class TestDirect:
    @pytest.fixture()
    def loss(self):
        return RegressionLoss("fare", "tip")

    def test_identical_zero(self, loss):
        pts = np.asarray([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        assert loss.loss(pts, pts) == 0.0

    def test_angle_difference(self, loss):
        x = np.linspace(0, 1, 10)
        raw = np.column_stack([x, x])          # 45 degrees
        sample = np.column_stack([x, 0 * x])   # 0 degrees
        assert loss.loss(raw, sample) == pytest.approx(45.0)

    def test_empty_sample_infinite(self, loss):
        raw = np.asarray([[1.0, 1.0]])
        assert loss.loss(raw, np.empty((0, 2))) == math.inf

    def test_empty_raw_zero(self, loss):
        assert loss.loss(np.empty((0, 2)), np.empty((0, 2))) == 0.0


class TestAlgebraic:
    @given(raw=xy_points(), sample=xy_points())
    @settings(max_examples=40, deadline=None)
    def test_stats_reconstruct_direct(self, raw, sample):
        loss = RegressionLoss("x", "y")
        direct = loss.loss(raw, sample)
        via = loss.loss_from_stats(loss.stats(raw, sample), loss.prepare_sample(sample))
        if math.isinf(direct):
            assert math.isinf(via)
        else:
            assert via == pytest.approx(direct, rel=1e-6, abs=1e-9)

    @given(a=xy_points(), b=xy_points())
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_concat(self, a, b):
        loss = RegressionLoss("x", "y")
        sample = np.asarray([[1.0, 1.0]])
        merged = loss.merge_stats(loss.stats(a, sample), loss.stats(b, sample))
        expected = loss.stats(np.concatenate([a, b]), sample)
        assert merged == pytest.approx(expected, rel=1e-9)


class TestGreedy:
    def test_incremental_matches_direct(self):
        loss = RegressionLoss("x", "y")
        rng = np.random.default_rng(2)
        raw = rng.random((15, 2))
        state = loss.greedy_state(raw)
        state.add(0)
        state.add(5)
        for candidate in (1, 9, 14):
            hypothetical = state.loss_if_added(candidate)
            direct = loss.loss(raw, raw[[0, 5, candidate]])
            assert hypothetical == pytest.approx(direct, abs=1e-9)

    def test_empty_sample_infinite(self):
        loss = RegressionLoss("x", "y")
        state = loss.greedy_state(np.asarray([[1.0, 2.0]]))
        assert state.current_loss() == math.inf

    def test_batch_matches_scalar(self):
        loss = RegressionLoss("x", "y")
        rng = np.random.default_rng(4)
        raw = rng.random((10, 2))
        state = loss.greedy_state(raw)
        state.add(2)
        batch = state.losses_if_added(np.arange(10))
        for i in range(10):
            assert batch[i] == pytest.approx(state.loss_if_added(i), abs=1e-9)

    def test_rejects_bad_shape(self):
        loss = RegressionLoss("x", "y")
        with pytest.raises(ValueError):
            loss.greedy_state(np.asarray([[1.0, 2.0, 3.0]]))


class TestRepresentationShortcut:
    def test_exact_from_stats(self):
        loss = RegressionLoss("x", "y")
        rng = np.random.default_rng(1)
        cell = rng.random((20, 2))
        sample = rng.random((5, 2))
        stats = loss.stats(cell, sample)
        prepared = loss.representation_prepare([stats], [cell], [sample], None)
        lower, upper = loss.representation_bounds(prepared, sample)
        assert upper is lower
        assert lower[0] == pytest.approx(loss.loss(cell, sample), abs=1e-9)
