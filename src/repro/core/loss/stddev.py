"""Standard-deviation accuracy loss (extension).

``BEGIN ABS((STD_DEV(Raw) - STD_DEV(Sam)) / STD_DEV(Raw)) END``

STD_DEV is one of the algebraic aggregates the paper explicitly allows
in loss bodies; this built-in gives it a first-class, vectorized greedy
evaluator (the compiled path would work too, just slower). Useful for
dashboards whose visual is a spread/volatility indicator.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.loss.base import GreedyLossState, LossFunction


def _std_from_sums(n: float, total: float, total_sq: float) -> float:
    if n <= 0:
        return math.nan
    variance = total_sq / n - (total / n) ** 2
    return math.sqrt(max(variance, 0.0))


def _relative_std_error(raw_std: float, sam_std: float) -> float:
    if raw_std == 0.0:
        return 0.0 if sam_std == 0.0 else math.inf
    return abs((raw_std - sam_std) / raw_std)


class StdDevLoss(LossFunction):
    """Relative error between raw and sample population standard deviation."""

    name = "stddev_loss"
    additive_stats = True
    target_arity = 1

    def __init__(self, attr: str):
        self.target_attrs = (attr,)

    # -- direct ---------------------------------------------------------
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        # Delegates to the sufficient-statistics path so the direct and
        # algebraic evaluations agree bit-for-bit: two-pass np.std and
        # the one-pass Σx² formula round differently on constant data
        # (cancellation noise near std = 0 flips the relative error
        # between 0, 1 and inf).
        if len(raw) == 0:
            return 0.0
        if len(sample) == 0:
            return math.inf
        return self.loss_from_stats(
            self.stats(raw, sample), self.prepare_sample(sample)
        )

    # -- algebraic --------------------------------------------------------
    def prepare_sample(self, sample: np.ndarray) -> Tuple[float, float, float]:
        return (
            float(len(sample)),
            float(np.sum(sample)),
            float(np.sum(np.square(sample))),
        )

    def stats(self, raw: np.ndarray, sample: np.ndarray) -> Tuple[float, float, float]:
        return (
            float(len(raw)),
            float(np.sum(raw)),
            float(np.sum(np.square(raw))),
        )

    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        return tuple(a + b for a, b in zip(left, right))

    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        if stats[0] == 0:
            return 0.0
        if sample_summary[0] == 0:
            return math.inf
        return _relative_std_error(
            _std_from_sums(*stats), _std_from_sums(*sample_summary)
        )

    # -- greedy -----------------------------------------------------------
    def greedy_state(self, raw: np.ndarray) -> "StdDevGreedyState":
        return StdDevGreedyState(np.asarray(raw, dtype=float))

    # -- representation join ------------------------------------------------
    def representation_prepare(self, stats, raws, samples, achieved):
        """The std-dev loss is exactly computable from the three sums."""
        counts = np.asarray([s[0] for s in stats])
        stds = np.asarray(
            [_std_from_sums(*s) if s[0] > 0 else 0.0 for s in stats]
        )
        return (counts, stds)

    def representation_bounds(self, prepared, sample: np.ndarray):
        counts, stds = prepared
        if len(sample) == 0:
            losses = np.full(len(counts), math.inf)
            return losses, losses
        sam_std = float(np.std(sample))
        with np.errstate(invalid="ignore", divide="ignore"):
            losses = np.abs((stds - sam_std) / stds)
        losses = np.where(counts == 0, 0.0, losses)
        losses = np.where(
            (stds == 0.0) & (counts > 0),
            np.where(sam_std == 0.0, 0.0, math.inf),
            losses,
        )
        return losses, losses


class StdDevGreedyState(GreedyLossState):
    """O(1)-per-candidate evaluator via running (n, Σx, Σx²)."""

    def __init__(self, raw: np.ndarray):
        self._values = raw
        self._raw_std = float(np.std(raw)) if len(raw) else 0.0
        self._n = 0.0
        self._sum = 0.0
        self._sum_sq = 0.0

    def current_loss(self) -> float:
        if len(self._values) == 0:
            return 0.0
        if self._n == 0:
            return math.inf
        return _relative_std_error(self._raw_std, _std_from_sums(self._n, self._sum, self._sum_sq))

    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        x = self._values[candidates]
        n = self._n + 1.0
        total = self._sum + x
        total_sq = self._sum_sq + x * x
        variance = np.maximum(total_sq / n - (total / n) ** 2, 0.0)
        stds = np.sqrt(variance)
        if self._raw_std == 0.0:
            return np.where(stds == 0.0, 0.0, np.inf)
        return np.abs((self._raw_std - stds) / self._raw_std)

    def add(self, index: int) -> None:
        x = float(self._values[index])
        self._n += 1.0
        self._sum += x
        self._sum_sq += x * x
