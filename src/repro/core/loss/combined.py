"""Combining multiple accuracy losses into one (extension).

A dashboard typically shows several visuals at once (Figure 1 has
three). Rather than building one cube per visual, a
:class:`CombinedLoss` lets a single cube bound several losses
simultaneously:

- ``mode="max"`` — ``loss = max_i(loss_i / θ_i)`` scaled so the cube's
  threshold is 1.0: every component is then individually bounded by its
  own θ_i (the useful guarantee);
- ``mode="sum"`` — ``loss = Σ_i w_i · loss_i``, a soft trade-off.

Each component keeps its own target attributes; the combined target is
their concatenation (duplicates included, so slicing stays positional).
The combination is algebraic whenever every component is: statistics
and sample summaries are just tuples of the components'.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.loss.base import GreedyLossState, LossFunction
from repro.errors import LossFunctionError


class CombinedLoss(LossFunction):
    """Bound several loss functions with one sampling cube."""

    name = "combined_loss"

    def __init__(
        self,
        components: Sequence[Tuple[float, LossFunction]],
        mode: str = "max",
    ):
        """
        Args:
            components: ``(scale, loss)`` pairs. For ``mode="max"`` the
                scale is the component's own threshold θ_i; for
                ``mode="sum"`` it is the component's weight w_i.
            mode: ``"max"`` or ``"sum"``.
        """
        if not components:
            raise LossFunctionError("combined loss needs at least one component")
        if mode not in ("max", "sum"):
            raise LossFunctionError(f"unknown combination mode: {mode!r}")
        for scale, _ in components:
            if scale <= 0:
                raise LossFunctionError("component scales must be positive")
        self.components = [(float(scale), loss) for scale, loss in components]
        self.mode = mode
        self.target_attrs = tuple(
            attr for _, loss in self.components for attr in loss.target_attrs
        )
        self.target_arity = len(self.target_attrs)
        self._slices: List[slice] = []
        start = 0
        for _, loss in self.components:
            self._slices.append(slice(start, start + loss.target_arity))
            start += loss.target_arity

    # ------------------------------------------------------------------
    def _component_values(self, values: np.ndarray, j: int) -> np.ndarray:
        loss = self.components[j][1]
        if values.ndim == 1:
            return values
        sliced = values[:, self._slices[j]]
        return sliced[:, 0] if loss.target_arity == 1 else sliced

    def _combine(self, losses: Sequence[float]) -> float:
        if self.mode == "max":
            return max(
                loss / scale for (scale, _), loss in zip(self.components, losses)
            )
        return sum(
            scale * loss for (scale, _), loss in zip(self.components, losses)
        )

    def _combine_arrays(self, losses: Sequence[np.ndarray]) -> np.ndarray:
        if self.mode == "max":
            scaled = [arr / scale for (scale, _), arr in zip(self.components, losses)]
            return np.maximum.reduce(scaled)
        scaled = [scale * arr for (scale, _), arr in zip(self.components, losses)]
        return np.add.reduce(scaled)

    # -- direct -----------------------------------------------------------
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        parts = [
            loss.loss(self._component_values(raw, j), self._component_values(sample, j))
            for j, (_, loss) in enumerate(self.components)
        ]
        return self._combine(parts)

    # -- algebraic ----------------------------------------------------------
    def prepare_sample(self, sample: np.ndarray) -> tuple:
        return tuple(
            loss.prepare_sample(self._component_values(sample, j))
            for j, (_, loss) in enumerate(self.components)
        )

    def stats(self, raw: np.ndarray, sample: np.ndarray) -> tuple:
        return tuple(
            loss.stats(
                self._component_values(raw, j), self._component_values(sample, j)
            )
            for j, (_, loss) in enumerate(self.components)
        )

    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        return tuple(
            loss.merge_stats(l, r)
            for (_, loss), l, r in zip(self.components, left, right)
        )

    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        parts = [
            loss.loss_from_stats(s, summary)
            for (_, loss), s, summary in zip(self.components, stats, sample_summary)
        ]
        return self._combine(parts)

    # -- greedy -----------------------------------------------------------
    def greedy_state(self, raw: np.ndarray) -> "CombinedGreedyState":
        return CombinedGreedyState(self, raw)

    # -- representation join ------------------------------------------------
    def representation_prepare(self, stats, raws, samples, achieved):
        """Every component's prepared bounds (``None`` if none has any).

        A component's own achieved loss is unknown (the local samples
        were drawn for the combined loss), so components prepare with
        ``achieved=None``.
        """
        prepared = [
            loss.representation_prepare(
                [s[j] for s in stats],
                [self._component_values(raw, j) for raw in raws],
                [self._component_values(sample, j) for sample in samples],
                None,
            )
            for j, (_, loss) in enumerate(self.components)
        ]
        if all(p is None for p in prepared):
            return None
        return (len(raws), prepared)

    def representation_bounds(self, prepared, sample: np.ndarray):
        n_cells, parts = prepared
        lowers, uppers = [], []
        for j, (_, loss) in enumerate(self.components):
            bounds = None
            if parts[j] is not None:
                bounds = loss.representation_bounds(
                    parts[j], self._component_values(sample, j)
                )
            if bounds is None:
                bounds = (np.full(n_cells, -np.inf), np.full(n_cells, np.inf))
            lowers.append(bounds[0])
            uppers.append(bounds[1])
        upper = self._combine_arrays(uppers)
        if self.mode == "max":
            return self._combine_arrays(lowers), upper
        # Component losses are >= 0, so each contributes at least
        # w_i * max(l_i, 0) to the sum.
        return self._combine_arrays([np.maximum(b, 0.0) for b in lowers]), upper


class CombinedGreedyState(GreedyLossState):
    """Drives every component's incremental state in lock step."""

    def __init__(self, combined: CombinedLoss, raw: np.ndarray):
        self._combined = combined
        self._states = [
            loss.greedy_state(combined._component_values(raw, j))
            for j, (_, loss) in enumerate(combined.components)
        ]
        self._empty = len(raw) == 0

    def current_loss(self) -> float:
        if self._empty:
            return 0.0
        return self._combined._combine([s.current_loss() for s in self._states])

    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates)
        if self._empty:
            return np.zeros(len(candidates))
        parts = [s.losses_if_added(candidates) for s in self._states]
        return self._combined._combine_arrays(parts)

    def add(self, index: int) -> None:
        for state in self._states:
            state.add(index)
