"""Function 1 — statistical-mean relative error.

``BEGIN ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END``

With θ = 10 % Tabula guarantees every returned sample's mean is within
10 % relative error of the raw population's mean (100 % confidence).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.loss.base import GreedyLossState, LossFunction


def _relative_mean_error(raw_mean: float, sam_mean: float) -> float:
    """|raw - sam| / |raw| with the zero-mean edge case pinned down."""
    if raw_mean == 0.0:
        return 0.0 if sam_mean == 0.0 else math.inf
    return abs((raw_mean - sam_mean) / raw_mean)


class MeanLoss(LossFunction):
    """Relative error between the raw and sample statistical means."""

    name = "mean_loss"
    additive_stats = True
    target_arity = 1

    def __init__(self, attr: str):
        self.target_attrs = (attr,)

    # -- direct ---------------------------------------------------------
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        if len(raw) == 0:
            return 0.0
        if len(sample) == 0:
            return math.inf
        return _relative_mean_error(float(np.mean(raw)), float(np.mean(sample)))

    # -- algebraic --------------------------------------------------------
    def prepare_sample(self, sample: np.ndarray) -> Tuple[float, float]:
        return (float(len(sample)), float(np.sum(sample)))

    def stats(self, raw: np.ndarray, sample: np.ndarray) -> Tuple[float, float]:
        return (float(len(raw)), float(np.sum(raw)))

    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        return (left[0] + right[0], left[1] + right[1])

    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        raw_n, raw_sum = stats
        sam_n, sam_sum = sample_summary
        if raw_n == 0:
            return 0.0
        if sam_n == 0:
            return math.inf
        return _relative_mean_error(raw_sum / raw_n, sam_sum / sam_n)

    # -- greedy -----------------------------------------------------------
    def greedy_state(self, raw: np.ndarray) -> "MeanGreedyState":
        return MeanGreedyState(np.asarray(raw, dtype=float))

    # -- representation join ------------------------------------------------
    def representation_prepare(self, stats, raws, samples, achieved):
        """The mean loss is exactly computable from (count, sum) stats."""
        counts = np.asarray([s[0] for s in stats])
        sums = np.asarray([s[1] for s in stats])
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        return (counts, means)

    def representation_bounds(self, prepared, sample: np.ndarray):
        counts, means = prepared
        if len(sample) == 0:
            losses = np.full(len(counts), math.inf)
            return losses, losses
        sam_mean = float(np.mean(sample))
        with np.errstate(invalid="ignore", divide="ignore"):
            losses = np.abs((means - sam_mean) / means)
        losses = np.where(counts == 0, 0.0, losses)
        losses = np.where(
            (means == 0.0) & (counts > 0),
            np.where(sam_mean == 0.0, 0.0, math.inf),
            losses,
        )
        return losses, losses


class MeanGreedyState(GreedyLossState):
    """O(1)-per-candidate incremental evaluator for the mean loss."""

    def __init__(self, raw: np.ndarray):
        self._values = raw
        self._raw_mean = float(np.mean(raw)) if len(raw) else 0.0
        self._sum = 0.0
        self._count = 0

    def current_loss(self) -> float:
        if len(self._values) == 0:
            return 0.0
        if self._count == 0:
            return math.inf
        return _relative_mean_error(self._raw_mean, self._sum / self._count)

    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        new_means = (self._sum + self._values[candidates]) / (self._count + 1)
        if self._raw_mean == 0.0:
            return np.where(new_means == 0.0, 0.0, np.inf)
        return np.abs((self._raw_mean - new_means) / self._raw_mean)

    def add(self, index: int) -> None:
        self._sum += float(self._values[index])
        self._count += 1
