"""Shared average-minimum-distance loss machinery (Function 2).

``BEGIN (1/|Raw|) * SUM_x_in_Raw MIN_s_in_Sam losspair(x, s) END``

Used in two instantiations: the 2-D geospatial heat-map loss and the
1-D histogram loss. The per-tuple minimum distance to a *fixed* sample
is a plain per-row derived value, so its SUM is distributive — which is
what lets the dry run treat this visually-motivated loss as algebraic.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.loss.base import (
    GreedyLossState,
    LossFunction,
    as_points,
    pairwise_min_distance,
)

#: Cap on candidate-batch element count per chunk when building the
#: candidate-distance matrix (keeps peak memory bounded).
_CHUNK_ELEMENTS = 4_000_000


class AvgMinDistanceLoss(LossFunction):
    """Average distance from each raw tuple to its nearest sample tuple."""

    name = "avg_min_distance"
    additive_stats = True
    # amd(∪B_i, ∪S_i) = Σ|B_i|·amd_i'(B_i, ∪S) / Σ|B_i| where every
    # per-cell term only improves when more sample points are available,
    # so the union answer stays within θ (see Tabula.query IN support).
    union_safe = True

    def __init__(self, attrs: Tuple[str, ...], metric: str = "euclidean"):
        self.target_attrs = tuple(attrs)
        self.target_arity = len(self.target_attrs)
        self.metric = metric

    # -- direct -----------------------------------------------------------
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        if len(raw) == 0:
            return 0.0
        if len(sample) == 0:
            return math.inf
        return float(np.mean(pairwise_min_distance(raw, sample, self.metric)))

    # -- algebraic ----------------------------------------------------------
    def prepare_sample(self, sample: np.ndarray) -> tuple:
        return (float(len(sample)),)

    def stats(self, raw: np.ndarray, sample: np.ndarray) -> Tuple[float, float]:
        if len(raw) == 0:
            return (0.0, 0.0)
        if len(sample) == 0:
            return (float(len(raw)), math.inf)
        dmin = pairwise_min_distance(raw, sample, self.metric)
        return (float(len(raw)), float(np.sum(dmin)))

    # -- batch forms ----------------------------------------------------------
    # A row's nearest-sample distance does not depend on which other rows
    # share the query, so one ``pairwise_min_distance`` call (one k-d
    # tree over the sample) serves every group. Each group then reduces
    # the same values in the same order with the same ``np.sum`` /
    # ``np.mean`` as the scalar form, which keeps the results bit-equal
    # (``np.add.reduceat`` would not: its summation order differs).

    def group_stats(self, values, sample, groups):
        if len(sample) == 0:
            return super().group_stats(values, sample, groups)
        dmin = pairwise_min_distance(values, sample, self.metric)
        return [(float(len(idx)), float(np.sum(dmin[idx]))) for idx in groups]

    def losses(self, raws, sample):
        if len(sample) == 0 or not raws:
            return super().losses(raws, sample)
        dmin = pairwise_min_distance(np.concatenate(raws), sample, self.metric)
        out = np.empty(len(raws))
        stop = 0
        for i, raw in enumerate(raws):
            start, stop = stop, stop + len(raw)
            out[i] = float(np.mean(dmin[start:stop])) if stop > start else 0.0
        return out

    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        return (left[0] + right[0], left[1] + right[1])

    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        count, dist_sum = stats
        if count == 0:
            return 0.0
        if sample_summary[0] == 0:
            return math.inf
        return dist_sum / count

    # -- greedy ---------------------------------------------------------------
    def greedy_state(self, raw: np.ndarray) -> "AvgMinDistanceGreedyState":
        return AvgMinDistanceGreedyState(raw, self.metric)

    def candidate_pool_filter(self, raw: np.ndarray):
        """Duplicate points contribute identical coverage: keep one each.

        A sample of the distinct points can reach loss 0, so the filter
        never makes θ unreachable.
        """
        pts = as_points(raw)
        _, first = np.unique(pts, axis=0, return_index=True)
        if len(first) == len(pts):
            return None
        return np.sort(first)

    # -- representation join ------------------------------------------------
    def representation_prepare(self, stats, raws, samples, achieved):
        """Each cell's centroid and spread; with ``achieved``, a point bank.

        The spread is the mean distance of the cell's points to its
        centroid. The bank concatenates every cell's own local sample,
        tagged with its cell, for the upper bound; it needs each local
        sample's achieved loss, so it is built only when ``achieved`` is
        known.
        """
        centroids = np.zeros((len(raws), max(self.target_arity, 1)))
        spreads = np.zeros(len(raws))
        for j, raw in enumerate(raws):
            pts = as_points(raw)
            if len(pts) == 0:
                continue
            centroids[j] = pts.mean(axis=0)
            diff = pts - centroids[j]
            if self.metric == "euclidean":
                spreads[j] = float(np.mean(np.sqrt(np.sum(diff * diff, axis=1))))
            else:
                spreads[j] = float(np.mean(np.sum(np.abs(diff), axis=1)))
        bank = None
        if achieved is not None and samples:
            points = [as_points(sample) for sample in samples]
            sizes = [len(p) for p in points]
            segments = np.repeat(np.arange(len(points)), sizes)
            # A cell with an empty own sample gets an infinite upper bound.
            base = np.where(np.asarray(sizes) > 0, np.asarray(achieved, dtype=float), math.inf)
            bank = (np.vstack(points), segments, base)
        return (centroids, spreads, bank)

    def representation_bounds(self, prepared, sample: np.ndarray):
        """Triangle-inequality bounds on ``amd(B, S)`` for every cell ``B``.

        Lower: ``amd(B, S) >= d(centroid_B, S) - spread_B``. For every x
        in B and s in S, ``d(x, s) >= d(c, s) - d(x, c)``; taking the min
        over s and averaging over x gives the bound.

        Upper (with a bank): for x in B with nearest own-sample point
        p_x, ``min_s d(x, s) <= d(x, p_x) + min_s d(p_x, s)``; averaging
        gives ``amd(B, S) <= amd(B, samB) + max_p min_s d(p, S)``. A cell
        with an empty own sample, or no bank at all, gets ``inf``.
        """
        centroids, spreads, bank = prepared
        n_cells = len(spreads)
        if len(sample) == 0:
            return np.full(n_cells, math.inf), np.full(n_cells, math.inf)
        dmin = pairwise_min_distance(centroids, sample, self.metric)
        lower = np.maximum(0.0, dmin - spreads)
        if bank is None:
            return lower, np.full(n_cells, math.inf)
        points, segments, base = bank
        worst = np.zeros(n_cells)
        np.maximum.at(worst, segments, pairwise_min_distance(points, sample, self.metric))
        return lower, base + worst


class AvgMinDistanceGreedyState(GreedyLossState):
    """Maintains per-raw-point nearest-sample distances (``d_min``).

    Adding sample point *s* turns the loss into
    ``mean(min(d_min, dist(raw, s)))`` — one vectorized pass per
    candidate, the ``O(k·N)`` greedy round of the paper, and the reason
    lazy-forward pays off.
    """

    def __init__(self, raw: np.ndarray, metric: str):
        self._points = as_points(raw)
        self._metric = metric
        self._n = len(self._points)
        self._dmin = np.full(self._n, np.inf)

    def current_loss(self) -> float:
        if self._n == 0:
            return 0.0
        return float(np.mean(self._dmin))

    def _distances_to(self, candidates: np.ndarray) -> np.ndarray:
        """Distance matrix ``(n_raw, n_candidates)`` to candidate points."""
        cand_pts = self._points[candidates]
        diff = self._points[:, None, :] - cand_pts[None, :, :]
        if self._metric == "euclidean":
            return np.sqrt(np.sum(diff * diff, axis=2))
        return np.sum(np.abs(diff), axis=2)

    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates)
        if self._n == 0:
            return np.zeros(len(candidates))
        out = np.empty(len(candidates))
        step = max(1, _CHUNK_ELEMENTS // max(self._n, 1))
        for start in range(0, len(candidates), step):
            chunk = candidates[start:start + step]
            dists = self._distances_to(chunk)
            improved = np.minimum(self._dmin[:, None], dists)
            out[start:start + len(chunk)] = improved.mean(axis=0)
        return out

    def add(self, index: int) -> None:
        if self._n == 0:
            return
        dists = self._distances_to(np.asarray([index]))[:, 0]
        np.minimum(self._dmin, dists, out=self._dmin)
