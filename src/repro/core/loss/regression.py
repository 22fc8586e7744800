"""Function 3 — linear-regression angle difference.

``BEGIN ABS(angle(Raw) - angle(Sam)) END``

Given n tuples with 2-D attributes (x_i, y_i), the slope is the
least-squares estimator of the paper:

    slope = (n·Σ(x·y) − Σx·Σy) / (n·Σx² − (Σx)²)

converted to an angle in degrees. In the running example x is the fare
amount and y the tip amount. Degenerate populations (fewer than two
points, or zero x-variance, where the least-squares slope is undefined)
are assigned angle 0° — a documented substitution; the paper leaves the
case unspecified.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.loss.base import GreedyLossState, LossFunction


def regression_slope(n: float, sx: float, sy: float, sxy: float, sxx: float) -> float:
    """Least-squares slope from sufficient statistics; 0.0 when degenerate."""
    denominator = n * sxx - sx * sx
    if n < 2 or abs(denominator) < 1e-12:
        return 0.0
    return (n * sxy - sx * sy) / denominator


def regression_angle(n: float, sx: float, sy: float, sxy: float, sxx: float) -> float:
    """Slope converted to degrees in (-90, 90)."""
    return math.degrees(math.atan(regression_slope(n, sx, sy, sxy, sxx)))


def _sufficient(values: np.ndarray) -> Tuple[float, float, float, float, float]:
    """(n, Σx, Σy, Σxy, Σx²) of an ``(n, 2)`` value array."""
    if len(values) == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    x = values[:, 0]
    y = values[:, 1]
    return (
        float(len(values)),
        float(np.sum(x)),
        float(np.sum(y)),
        float(np.sum(x * y)),
        float(np.sum(x * x)),
    )


class RegressionLoss(LossFunction):
    """Absolute angle difference between raw and sample regression lines."""

    name = "regression_loss"
    additive_stats = True
    target_arity = 2

    def __init__(self, x_attr: str, y_attr: str):
        self.target_attrs = (x_attr, y_attr)

    # -- direct -----------------------------------------------------------
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        if len(raw) == 0:
            return 0.0
        if len(sample) == 0:
            return math.inf
        return abs(regression_angle(*_sufficient(raw)) - regression_angle(*_sufficient(sample)))

    # -- algebraic ----------------------------------------------------------
    def prepare_sample(self, sample: np.ndarray) -> tuple:
        if len(sample) == 0:
            return (math.nan,)
        return (regression_angle(*_sufficient(sample)),)

    def stats(self, raw: np.ndarray, sample: np.ndarray) -> tuple:
        return _sufficient(raw)

    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        return tuple(a + b for a, b in zip(left, right))

    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        if stats[0] == 0:
            return 0.0
        sample_angle = sample_summary[0]
        if math.isnan(sample_angle):
            return math.inf
        return abs(regression_angle(*stats) - sample_angle)

    # -- greedy -----------------------------------------------------------
    def greedy_state(self, raw: np.ndarray) -> "RegressionGreedyState":
        return RegressionGreedyState(np.asarray(raw, dtype=float))

    # -- representation join ------------------------------------------------
    def representation_prepare(self, stats, raws, samples, achieved):
        """The angle loss is exactly computable from the five sums."""
        counts = np.asarray([s[0] for s in stats])
        angles = np.asarray([regression_angle(*s) for s in stats])
        return (counts, angles)

    def representation_bounds(self, prepared, sample: np.ndarray):
        counts, angles = prepared
        if len(sample) == 0:
            losses = np.full(len(counts), math.inf)
            return losses, losses
        sam_angle = regression_angle(*_sufficient(sample))
        losses = np.where(counts == 0, 0.0, np.abs(angles - sam_angle))
        return losses, losses


class RegressionGreedyState(GreedyLossState):
    """O(1)-per-candidate incremental evaluator for the regression loss."""

    def __init__(self, raw: np.ndarray):
        if raw.ndim != 2 or (len(raw) and raw.shape[1] != 2):
            raise ValueError("regression loss expects (n, 2) values")
        self._x = raw[:, 0] if len(raw) else np.empty(0)
        self._y = raw[:, 1] if len(raw) else np.empty(0)
        self._raw_angle = regression_angle(*_sufficient(raw))
        self._raw_empty = len(raw) == 0
        self._n = 0.0
        self._sx = 0.0
        self._sy = 0.0
        self._sxy = 0.0
        self._sxx = 0.0

    def current_loss(self) -> float:
        if self._raw_empty:
            return 0.0
        if self._n == 0:
            return math.inf
        angle = regression_angle(self._n, self._sx, self._sy, self._sxy, self._sxx)
        return abs(self._raw_angle - angle)

    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates)
        if self._raw_empty:
            return np.zeros(len(candidates))
        x = self._x[candidates]
        y = self._y[candidates]
        n = self._n + 1.0
        sx = self._sx + x
        sy = self._sy + y
        sxy = self._sxy + x * y
        sxx = self._sxx + x * x
        denominator = n * sxx - sx * sx
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.where(
                (n < 2) | (np.abs(denominator) < 1e-12),
                0.0,
                (n * sxy - sx * sy) / np.where(denominator == 0, 1.0, denominator),
            )
        angles = np.degrees(np.arctan(slopes))
        return np.abs(self._raw_angle - angles)

    def add(self, index: int) -> None:
        x = float(self._x[index])
        y = float(self._y[index])
        self._n += 1.0
        self._sx += x
        self._sy += y
        self._sxy += x * y
        self._sxx += x * x
