"""Tests for the standard-deviation loss (extension)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss.stddev import StdDevLoss
from repro.core.sampling import greedy_sample

values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=40
)


class TestDirect:
    def test_identical_zero(self):
        loss = StdDevLoss("v")
        data = np.asarray([1.0, 5.0, 9.0])
        assert loss.loss(data, data) == 0.0

    def test_relative_error(self):
        loss = StdDevLoss("v")
        raw = np.asarray([0.0, 10.0])      # std = 5
        sample = np.asarray([0.0, 8.0])    # std = 4
        assert loss.loss(raw, sample) == pytest.approx(0.2)

    def test_empty_sample_infinite(self):
        loss = StdDevLoss("v")
        assert loss.loss(np.asarray([1.0]), np.empty(0)) == math.inf

    def test_constant_raw_zero_std(self):
        loss = StdDevLoss("v")
        raw = np.asarray([3.0, 3.0])
        assert loss.loss(raw, np.asarray([3.0])) == 0.0
        assert loss.loss(raw, np.asarray([1.0, 9.0])) == math.inf


class TestAlgebraic:
    @given(raw=values, sample=values)
    @settings(max_examples=30, deadline=None)
    def test_stats_reconstruct_direct(self, raw, sample):
        loss = StdDevLoss("v")
        raw_arr, sam_arr = np.asarray(raw), np.asarray(sample)
        direct = loss.loss(raw_arr, sam_arr)
        via = loss.loss_from_stats(
            loss.stats(raw_arr, sam_arr), loss.prepare_sample(sam_arr)
        )
        if math.isinf(direct):
            assert math.isinf(via)
        else:
            assert via == pytest.approx(direct, rel=1e-6, abs=1e-9)

    @given(a=values, b=values)
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_concat(self, a, b):
        loss = StdDevLoss("v")
        sam = np.asarray([1.0])
        merged = loss.merge_stats(loss.stats(np.asarray(a), sam), loss.stats(np.asarray(b), sam))
        expected = loss.stats(np.concatenate([a, b]), sam)
        assert merged == pytest.approx(expected)


class TestGreedy:
    def test_sampler_meets_threshold(self):
        loss = StdDevLoss("v")
        rng = np.random.default_rng(0)
        data = rng.normal(10, 3, 200)
        result = greedy_sample(loss, data, threshold=0.05)
        assert loss.loss(data, data[result.indices]) <= 0.05

    def test_batch_matches_scalar(self):
        loss = StdDevLoss("v")
        rng = np.random.default_rng(1)
        data = rng.random(30) * 10
        state = loss.greedy_state(data)
        state.add(0)
        state.add(7)
        batch = state.losses_if_added(np.arange(30))
        for i in (1, 5, 20):
            assert batch[i] == pytest.approx(state.loss_if_added(i))

    def test_registry_binding(self):
        from repro.core.loss.registry import LossRegistry

        loss = LossRegistry().bind("stddev_loss", ("fare",))
        assert isinstance(loss, StdDevLoss)


class TestRepresentationShortcut:
    def test_exact(self):
        loss = StdDevLoss("v")
        rng = np.random.default_rng(2)
        cell = rng.random(50) * 10
        sample = cell[:7]
        stats = loss.stats(cell, sample)
        prepared = loss.representation_prepare([stats], [cell], [sample], None)
        lower, upper = loss.representation_bounds(prepared, sample)
        assert upper is lower
        assert lower[0] == pytest.approx(loss.loss(cell, sample))
