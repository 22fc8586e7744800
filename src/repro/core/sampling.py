"""Accuracy-loss-aware sampling — Algorithm 1 of the paper.

Greedy selection: start from an empty sample (loss = ∞); each round add
the tuple whose addition minimizes ``loss(T, t + tp)``; stop as soon as
``loss(T, t) <= θ``. The produced sample satisfies the threshold with
100 % confidence but is not guaranteed minimal.

Two execution strategies:

- **naive** — evaluate every remaining candidate each round
  (``O(k·N)`` per round, the complexity the paper quotes);
- **lazy-forward** — the CELF-style acceleration the paper borrows from
  POIsam: keep candidates in a priority queue ordered by their *stale*
  hypothetical loss; re-evaluate lazily and select once a fresh value
  beats the best stale bound. For submodular losses (the
  average-min-distance family) this selects exactly the greedy choice
  with far fewer evaluations; for the others the θ-guarantee still
  holds because termination only checks the *committed* sample's loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.core.loss.base import LossFunction
from repro.errors import SamplingError


@dataclass(frozen=True)
class SamplingResult:
    """Outcome of one greedy sampling run.

    Attributes:
        indices: raw-row indices selected, in selection order.
        achieved_loss: committed-sample loss at termination (≤ θ).
        rounds: greedy rounds executed (== sample size).
        evaluations: candidate loss evaluations performed — the metric
            the lazy-forward ablation compares.
    """

    indices: np.ndarray
    achieved_loss: float
    rounds: int
    evaluations: int

    @property
    def size(self) -> int:
        return len(self.indices)


def greedy_sample(
    loss: LossFunction,
    values: np.ndarray,
    threshold: float,
    lazy: bool = True,
    max_size: Optional[int] = None,
    candidates: Optional[np.ndarray] = None,
) -> SamplingResult:
    """Draw a sample of ``values`` with ``loss(values, sample) <= threshold``.

    Args:
        loss: the accuracy loss function (provides the incremental state).
        values: target-attribute values of the population, shape ``(n,)``
            or ``(n, d)``.
        threshold: the user's accuracy loss threshold θ.
        lazy: use the lazy-forward strategy (default) or naive greedy.
        max_size: optional hard cap; raises :class:`SamplingError` if the
            threshold is not met within the cap.
        candidates: optional subset of row indices the sampler may pick
            from. The loss is always measured against the *full*
            population, so the θ-guarantee is unaffected; a pool that is
            too sparse merely risks a :class:`SamplingError`.

    Returns:
        A :class:`SamplingResult`; ``indices`` index into ``values``.

    Raises:
        SamplingError: if the threshold is unreachable from the allowed
            candidates (or even the full population, possible only for
            pathological user-defined losses), or the ``max_size`` cap
            is hit first.
    """
    n = len(values)
    if n == 0:
        return SamplingResult(np.empty(0, dtype=np.int64), 0.0, 0, 0)
    if lazy:
        return _lazy_greedy(loss, values, threshold, max_size, candidates)
    return _naive_greedy(loss, values, threshold, max_size, candidates)


def sample_with_pool(
    loss: LossFunction,
    values: np.ndarray,
    threshold: float,
    rng: Union[np.random.Generator, Callable[[], np.random.Generator]],
    pool_size: Optional[int] = 2000,
    lazy: bool = True,
) -> SamplingResult:
    """Greedy sampling restricted to a random candidate pool, with fallback.

    Large cells make every greedy round pay O(cell size); restricting the
    candidate pool to ``pool_size`` random tuples keeps rounds cheap
    while the loss is still measured against the full cell (so θ still
    holds with 100 % confidence). In the rare case the pool cannot reach
    θ, the sampler transparently retries with all tuples as candidates.

    ``rng`` is a generator or a zero-argument factory for one; a factory
    is only called when a pool is actually drawn, so the cube build's
    per-cell generators cost nothing on the (vast majority of) cells
    that fit in the pool.
    """

    def draw(population: int) -> np.ndarray:
        generator = rng() if callable(rng) else rng
        return generator.choice(population, size=pool_size, replace=False)

    n = len(values)
    if n <= 4:
        # Tiny cells (the bulk of a many-attribute cube) are cheaper to
        # materialize whole than to run greedy machinery over: the full
        # population is its own zero-loss sample. Fall through to greedy
        # only if a pathological user-defined loss rejects even that.
        achieved = loss.loss(values, values)
        if achieved <= threshold:
            return SamplingResult(np.arange(n, dtype=np.int64), achieved, n, 1)
    distinct = loss.candidate_pool_filter(values)
    if distinct is None:
        if pool_size is None or n <= pool_size:
            return greedy_sample(loss, values, threshold, lazy=lazy)
        pool = np.sort(draw(n)).astype(np.int64)
    else:
        if pool_size is not None and len(distinct) > pool_size:
            pool = np.sort(distinct[draw(len(distinct))]).astype(np.int64)
        else:
            pool = np.asarray(distinct, dtype=np.int64)
    try:
        return greedy_sample(loss, values, threshold, lazy=lazy, candidates=pool)
    except SamplingError:
        return greedy_sample(loss, values, threshold, lazy=lazy)


def _naive_greedy(
    loss: LossFunction,
    values: np.ndarray,
    threshold: float,
    max_size: Optional[int],
    candidates: Optional[np.ndarray] = None,
) -> SamplingResult:
    state = loss.greedy_state(values)
    n = len(values)
    pool = (
        np.arange(n, dtype=np.int64)
        if candidates is None
        else np.asarray(candidates, dtype=np.int64)
    )
    # Alive-mask bookkeeping instead of np.delete: deleting reallocates
    # the whole remaining array every round (O(k·N) copies overall).
    alive = np.ones(len(pool), dtype=bool)
    chosen: list = []
    evaluations = 0
    current = state.current_loss()
    while current > threshold:
        remaining = pool[alive]
        if len(remaining) == 0 or (max_size is not None and len(chosen) >= max_size):
            raise SamplingError(
                f"greedy sampling exhausted candidates at loss {current:.6g} > θ={threshold:.6g}"
            )
        candidate_losses = state.losses_if_added(remaining)
        evaluations += len(remaining)
        best = int(np.argmin(candidate_losses))
        index = int(remaining[best])
        state.add(index)
        chosen.append(index)
        alive[np.nonzero(alive)[0][best]] = False
        current = state.current_loss()
    return SamplingResult(np.asarray(chosen, dtype=np.int64), current, len(chosen), evaluations)


def _lazy_greedy(
    loss: LossFunction,
    values: np.ndarray,
    threshold: float,
    max_size: Optional[int],
    candidates: Optional[np.ndarray] = None,
) -> SamplingResult:
    state = loss.greedy_state(values)
    n = len(values)
    current = state.current_loss()
    if current <= threshold:
        return SamplingResult(np.empty(0, dtype=np.int64), current, 0, 0)
    # Candidates are ranked by *marginal gain* (loss reduction), which
    # for submodular losses only shrinks as the sample grows — so a
    # stale gain is an upper bound and the classic CELF test applies.
    # Absolute losses would not work: they shift with the current loss
    # every round and stale entries would become incomparable.
    #
    # Bookkeeping is array-based rather than a Python heap: stale gains
    # live in one float vector alongside an alive mask, and each round
    # ranks candidates with a single ``np.lexsort`` — the pure-python
    # heap push/pop loop was the dominant cost of sampling small cells.
    pool = (
        np.arange(n, dtype=np.int64)
        if candidates is None
        else np.asarray(candidates, dtype=np.int64)
    )
    # Seed with one batch evaluation against the empty sample, then
    # select the first tuple outright: it is the exact greedy choice.
    # Ties break toward the smaller row index.
    initial = state.losses_if_added(pool)
    evaluations = len(pool)
    first_pos = int(np.lexsort((pool, initial))[0])
    first = int(pool[first_pos])
    state.add(first)
    chosen = [first]
    current = state.current_loss()
    # Seed true marginal gains with one more batch pass against the
    # one-tuple sample. (Gains vs the *empty* sample are all infinite —
    # they carry no upper-bound information.) From here on, stale gains
    # only overestimate for submodular losses, which is what CELF needs.
    alive = np.ones(len(pool), dtype=bool)
    alive[first_pos] = False
    stale_gains = np.full(len(pool), -np.inf)
    rest = np.nonzero(alive)[0]
    if len(rest):
        seeded = state.losses_if_added(pool[rest])
        evaluations += len(rest)
        stale_gains[rest] = current - seeded
    # Re-evaluate stale entries in small batches: a vectorized
    # losses_if_added over B candidates costs barely more than one
    # scalar call for the distance losses, and near-tied gains (dense
    # 1-D data) otherwise force many refreshes per selection.
    refresh_batch = 32
    while current > threshold:
        positions = np.nonzero(alive)[0]
        if len(positions) == 0 or (max_size is not None and len(chosen) >= max_size):
            raise SamplingError(
                f"greedy sampling exhausted candidates at loss {current:.6g} > θ={threshold:.6g}"
            )
        # Top candidates by (stale gain desc, row index asc) — the same
        # total order the CELF priority queue maintained.
        ranked = positions[np.lexsort((pool[positions], -stale_gains[positions]))]
        batch_positions = ranked[:refresh_batch]
        fresh_losses = state.losses_if_added(pool[batch_positions])
        evaluations += len(batch_positions)
        fresh_gains = current - fresh_losses
        stale_gains[batch_positions] = fresh_gains
        best = int(np.argmax(fresh_gains))
        next_bound = (
            float(stale_gains[ranked[refresh_batch]])
            if len(ranked) > refresh_batch
            else -np.inf
        )
        if fresh_gains[best] >= next_bound - 1e-12:
            best_pos = int(batch_positions[best])
            state.add(int(pool[best_pos]))
            alive[best_pos] = False
            chosen.append(int(pool[best_pos]))
            current = float(fresh_losses[best])
    return SamplingResult(np.asarray(chosen, dtype=np.int64), current, len(chosen), evaluations)
