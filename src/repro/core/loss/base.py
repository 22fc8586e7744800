"""The loss-function contract Tabula builds on.

Three views of the same quantity ``loss(Raw, Sam)``:

1. **Direct** — :meth:`LossFunction.loss` evaluates on materialized
   value arrays; this is the semantic ground truth.
2. **Algebraic** — :meth:`LossFunction.stats` /
   :meth:`LossFunction.merge_stats` / :meth:`LossFunction.loss_from_stats`
   express the loss through distributive sufficient statistics *with
   respect to a fixed sample*. The dry run computes ``stats`` once per
   base-cuboid cell against the global sample and merges upward, so
   every cube cell's loss is obtained from a single raw-table pass.
   The invariant (asserted by property tests) is::

       loss(raw, sam) == loss_from_stats(stats(raw, sam), prepare_sample(sam))

   and ``stats`` over a concatenation equals ``merge_stats`` of the
   parts.
3. **Greedy** — :meth:`LossFunction.greedy_state` returns an incremental
   evaluator used by the Algorithm 1 sampler: "what would the loss be if
   tuple *i* joined the sample?", answerable without re-scanning.

Loss values compare against the user threshold θ; ``math.inf`` is the
loss of an empty sample (matching Algorithm 1's initialisation).
"""

from __future__ import annotations

import abc
import math
from typing import Tuple

import numpy as np

from repro.engine.table import Table
from repro.errors import LossFunctionError


class GreedyLossState(abc.ABC):
    """Incremental loss evaluator over a fixed raw dataset.

    The sampler owns candidate bookkeeping; the state only answers loss
    queries and accepts committed additions. Indices refer to rows of
    the raw value array the state was built from.
    """

    @abc.abstractmethod
    def current_loss(self) -> float:
        """Loss of the current (possibly empty) sample."""

    @abc.abstractmethod
    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        """Loss after hypothetically adding each candidate index alone."""

    @abc.abstractmethod
    def add(self, index: int) -> None:
        """Commit raw row ``index`` into the sample."""

    def loss_if_added(self, index: int) -> float:
        """Scalar convenience wrapper over :meth:`losses_if_added`."""
        return float(self.losses_if_added(np.asarray([index]))[0])


class LossFunction(abc.ABC):
    """A user-defined accuracy loss function (Section II)."""

    #: Registry / display name.
    name: str = "loss"
    #: Number of target-attribute columns the loss consumes (1 or 2).
    target_arity: int = 1
    #: Target attribute names, set at construction.
    target_attrs: Tuple[str, ...] = ()
    #: Whether :meth:`merge_stats` is plain componentwise addition over a
    #: flat tuple of floats. When true, the dry run derives cuboids with
    #: vectorized ``np.add.at`` accumulation instead of a Python merge
    #: loop — a large win for many-attribute cubes. All built-in losses
    #: are additive; compiled/combined losses keep the generic path.
    additive_stats: bool = False
    #: Whether a union of θ-bounded per-cell samples is itself θ-bounded
    #: for the union of the cells. True for the average-min-distance
    #: family (the union's loss is a population-weighted mean of per-cell
    #: losses, hence <= max <= θ); false in general (a union of means is
    #: not bounded by the per-cell mean errors).
    union_safe: bool = False

    # ------------------------------------------------------------------
    # Value extraction
    # ------------------------------------------------------------------
    def extract(self, table: Table) -> np.ndarray:
        """Pull the target-attribute values out of ``table``.

        Returns a float array of shape ``(n,)`` for 1-D losses or
        ``(n, 2)`` for spatial/regression losses.
        """
        if len(self.target_attrs) != self.target_arity:
            raise LossFunctionError(
                f"{self.name}: expected {self.target_arity} target attribute(s), "
                f"got {self.target_attrs!r}"
            )
        for attr in self.target_attrs:
            if table.column(attr).dictionary is not None:
                raise LossFunctionError(
                    f"{self.name}: target attribute {attr!r} is categorical; "
                    "losses measure numeric/spatial values (computing on "
                    "dictionary codes would be silently meaningless)"
                )
        # asarray instead of astype: float64 columns (the common case)
        # pass through as views — no copy per extract call, which matters
        # when a build worker reads the table it inherited from the
        # coordinator.
        columns = [np.asarray(table.column(a).data, dtype=float) for a in self.target_attrs]
        if self.target_arity == 1:
            return columns[0]
        return np.column_stack(columns)

    # ------------------------------------------------------------------
    # Direct evaluation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        """The accuracy loss of using ``sample`` in place of ``raw``."""

    def loss_tables(self, raw: Table, sample: Table) -> float:
        """Convenience: evaluate on tables rather than value arrays."""
        return self.loss(self.extract(raw), self.extract(sample))

    # ------------------------------------------------------------------
    # Algebraic decomposition (dry-run support)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare_sample(self, sample: np.ndarray) -> tuple:
        """Pre-digest the fixed sample (e.g. its mean or its angle)."""

    @abc.abstractmethod
    def stats(self, raw: np.ndarray, sample: np.ndarray) -> tuple:
        """Distributive sufficient statistics of ``raw`` w.r.t. ``sample``."""

    @abc.abstractmethod
    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        """Combine statistics of two disjoint raw partitions."""

    @abc.abstractmethod
    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        """Reconstruct the loss from merged statistics."""

    def empty_stats(self) -> tuple:
        """Statistics of an empty raw partition (identity for merge)."""
        return self.stats(self._empty_values(), self._empty_values())

    def _empty_values(self) -> np.ndarray:
        shape = (0,) if self.target_arity == 1 else (0, self.target_arity)
        return np.empty(shape, dtype=float)

    # ------------------------------------------------------------------
    # Greedy sampling support (Algorithm 1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def greedy_state(self, raw: np.ndarray) -> GreedyLossState:
        """An incremental evaluator over ``raw`` for the greedy sampler."""

    def candidate_pool_filter(self, raw: np.ndarray):
        """Optional candidate dedup for the greedy sampler.

        Returns indices of a subset of ``raw`` that is sufficient to
        reach any achievable loss (or ``None`` for "use everything").
        Interchangeable candidates (exact duplicates under the loss)
        are the pathological case for lazy-forward — their gains tie
        forever — so losses that can identify them should.
        """
        return None

    # ------------------------------------------------------------------
    # Representation-join acceleration (Section IV)
    # ------------------------------------------------------------------
    # The SamGraph join checks ``loss(cellB.raw, samA) <= θ`` for many
    # (cell, sample) pairs. The paper notes any similarity-join
    # accelerator may be used and that a non-exhaustive SamGraph stays
    # correct. These hooks let a loss either answer the check exactly
    # from cached statistics (mean, regression) or prune pairs via a
    # cheap lower bound (the distance losses); the defaults fall back to
    # the exact evaluation.

    def cell_aux(self, raw: np.ndarray) -> tuple:
        """Cheap per-cell auxiliaries cached for the representation join."""
        return ()

    def representation_shortcut(
        self, stats: tuple, aux: tuple, sample: np.ndarray
    ) -> float:
        """Exact ``loss(cell, sample)`` from statistics, or ``None``."""
        return None

    def representation_lower_bound(
        self, stats: tuple, aux: tuple, sample: np.ndarray
    ) -> float:
        """A lower bound on ``loss(cell, sample)``; ``-inf`` = no bound."""
        return -math.inf

    # Batch (vectorized) variants: the SamGraph join asks the same
    # question for every cell against each sample, so losses that can
    # answer column-wise avoid a Python-level pair loop entirely.

    def representation_prepare(self, stats_list, aux_list):
        """Pre-digest all cells' stats/aux for the batch hooks (or None)."""
        return None

    def representation_shortcut_batch(
        self, prepared, sample: np.ndarray
    ):
        """Exact per-cell losses vs ``sample`` as an array, or ``None``."""
        return None

    def representation_lower_bound_batch(
        self, prepared, sample: np.ndarray
    ):
        """Per-cell lower bounds vs ``sample`` as an array, or ``None``."""
        return None

    def representation_accept_prepare(self, cell_samples, achieved_losses):
        """Pre-digest cells' own local samples for upper-bound accepts.

        Args:
            cell_samples: each cell's materialized local-sample values.
            achieved_losses: each local sample's achieved loss.

        Returns an object for :meth:`representation_upper_bound_batch`,
        or ``None`` when the loss has no sound upper bound.
        """
        return None

    def representation_upper_bound_batch(self, prepared, sample: np.ndarray):
        """Per-cell *upper* bounds on ``loss(cell, sample)`` (or None).

        An upper bound ≤ θ proves the representation edge without
        touching raw data — the sound-accept counterpart of the
        lower-bound prune.
        """
        return None

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        attrs = ", ".join(self.target_attrs)
        return f"{type(self).__name__}({attrs})"


def as_points(values: np.ndarray) -> np.ndarray:
    """Normalize a value array to 2-D shape ``(n, d)`` for distance math."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    return arr


try:  # scipy accelerates nearest-neighbor queries; plain numpy suffices.
    from scipy.spatial import cKDTree as _KDTree
except ImportError:  # pragma: no cover - scipy is normally available
    _KDTree = None

#: Below this problem size the brute-force matrix beats tree construction.
_KDTREE_MIN_ELEMENTS = 50_000


def pairwise_min_distance(
    raw: np.ndarray, sample: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """For every raw point, its distance to the nearest sample point.

    ``metric`` is ``euclidean`` or ``manhattan`` — the two ``losspair``
    instantiations the paper names. Returns ``inf`` everywhere when the
    sample is empty. Large instances use a k-d tree (O(n log m));
    small ones a vectorized distance matrix.
    """
    if metric not in ("euclidean", "manhattan"):
        raise LossFunctionError(f"unsupported distance metric: {metric!r}")
    raw_pts = as_points(raw)
    sam_pts = as_points(sample)
    if len(sam_pts) == 0:
        return np.full(len(raw_pts), np.inf)
    if len(raw_pts) == 0:
        return np.empty(0, dtype=float)
    if _KDTree is not None and len(raw_pts) * len(sam_pts) >= _KDTREE_MIN_ELEMENTS:
        tree = _KDTree(sam_pts)
        distances, _ = tree.query(raw_pts, k=1, p=2 if metric == "euclidean" else 1)
        return np.asarray(distances, dtype=float)
    diff = raw_pts[:, None, :] - sam_pts[None, :, :]
    if metric == "euclidean":
        dists = np.sqrt(np.sum(diff * diff, axis=2))
    else:
        dists = np.sum(np.abs(diff), axis=2)
    return dists.min(axis=1)
