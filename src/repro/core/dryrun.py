"""Dry-run stage: iceberg-cell lookup (Section III-B1).

The straightforward initializer would run ``2**n − 1`` full-table
GroupBys. Because the *loss* function is algebraic, the dry run instead:

1. scans the raw table **once** to build the base cuboid (GroupBy over
   all cubed attributes), computing each base cell's distributive loss
   statistics against the global sample — one batch
   :meth:`~repro.core.loss.base.LossFunction.group_stats` call per
   partition, not one loss-kernel call per base cell;
2. derives every other cuboid by merging base-cell statistics upward
   through the lattice — no further raw-data access;
3. marks each cell whose ``loss(cell data, Sam_global) > θ`` as an
   *iceberg cell* and emits the per-cuboid iceberg-cell tables
   (Table I) plus the annotated lattice (Figure 5a).

The SAMPLING() measure itself is holistic (Lemma III.1), which is why
local samples are deferred to the real run and only drawn for iceberg
cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.global_sample import GlobalSample
from repro.core.lattice import CuboidLattice, LatticeNode
from repro.core.loss.base import LossFunction
from repro.engine.cube import CellKey, align_cell_key, grouping_sets
from repro.engine.groupby import group_keys, group_rows
from repro.engine.table import Table
from repro.resilience.faults import fault_point, register_fault_point

FP_DRYRUN_DONE = register_fault_point(
    "init.dryrun.done", "dry run derived every cuboid, result not yet returned"
)

#: One partition's base-cell accumulators: ``[(base key, loss stats)]``.
PartitionStats = List[Tuple[Tuple, tuple]]
#: ``(table, attrs, loss, sample_values, tasks) -> (results, execution)``.
PartitionMap = Callable[..., Tuple[Sequence[PartitionStats], Optional[object]]]


@dataclass
class DryRunResult:
    """Everything the real run and the benchmarks need from stage 1."""

    attrs: Tuple[str, ...]
    threshold: float
    lattice: CuboidLattice
    #: iceberg cells only: cell key -> merged loss statistics.
    iceberg_stats: Dict[CellKey, tuple]
    #: per-cuboid iceberg cell keys (the Table I b/c/d artifacts).
    iceberg_cells_by_cuboid: Dict[Tuple[str, ...], List[CellKey]]
    #: per-cuboid total cell counts.
    cell_counts: Dict[Tuple[str, ...], int]
    #: every existing (non-empty) cell of the whole cube.
    known_cells: frozenset
    #: per-cell loss value (all cells), for diagnostics and tests.
    cell_losses: Dict[CellKey, float]
    #: per-cell merged loss statistics (all cells) — kept so incremental
    #: maintenance can fold in deltas without re-reading the raw table.
    cell_stats: Dict[CellKey, tuple] = field(default_factory=dict)
    #: wall-clock seconds spent in the dry run.
    seconds: float = 0.0
    #: what the partition map reported about how it ran
    #: (:class:`repro.core.parallel.PoolExecution` for a ``workers=``
    #: build); ``None`` for the default in-process map.
    execution: Optional[object] = None

    @property
    def iceberg_cells(self) -> List[CellKey]:
        """The combined iceberg-cell table (Table Ia)."""
        return list(self.iceberg_stats)

    @property
    def num_iceberg_cells(self) -> int:
        return len(self.iceberg_stats)


@dataclass
class CuboidDerivation:
    """Output of :func:`derive_cuboids` — every per-cell artifact of the
    upward merge, before lattice assembly."""

    iceberg_stats: Dict[CellKey, tuple]
    iceberg_by_cuboid: Dict[Tuple[str, ...], List[CellKey]]
    cell_counts: Dict[Tuple[str, ...], int]
    cell_losses: Dict[CellKey, float]
    cell_stats: Dict[CellKey, tuple]
    known: set


def derive_cuboids(
    attrs: Tuple[str, ...],
    base_keys: List[Tuple],
    base_stats: List[tuple],
    key_columns: Sequence[np.ndarray],
    loss: LossFunction,
    threshold: float,
    sample_summary: tuple,
) -> CuboidDerivation:
    """Derive every cuboid from base-cell statistics (no raw-data access).

    ``key_columns`` holds, per attribute, the base cells' physical key
    codes; it only steers the grouping of the additive fast path
    (cuboid cells come out in ascending code order) — the *order* of
    ``base_keys`` fixes merge order and therefore must itself be
    deterministic for reproducible builds.
    """
    iceberg_stats: Dict[CellKey, tuple] = {}
    iceberg_by_cuboid: Dict[Tuple[str, ...], List[CellKey]] = {}
    cell_counts: Dict[Tuple[str, ...], int] = {}
    cell_losses: Dict[CellKey, float] = {}
    all_cell_stats: Dict[CellKey, tuple] = {}
    known: set = set()

    positions = {attr: i for i, attr in enumerate(attrs)}
    # Fast path: additive statistics accumulate with np.add.at instead of
    # a Python merge loop — the difference between seconds and minutes on
    # many-attribute cubes.
    additive = loss.additive_stats and len(base_keys) > 0
    if additive:
        stats_matrix = np.asarray(base_stats, dtype=float)
    for gset in grouping_sets(attrs):
        # Derive this cuboid by merging base-cell statistics upward.
        projector = [positions[a] for a in gset]
        merged: Dict[Tuple, tuple] = {}
        if additive:
            if projector:
                first, inverse = group_keys([key_columns[p] for p in projector])
                sums = np.zeros((len(first), stats_matrix.shape[1]))
                np.add.at(sums, inverse, stats_matrix)
                for g in range(len(first)):
                    representative = base_keys[first[g]]
                    projected = tuple(representative[p] for p in projector)
                    merged[projected] = tuple(sums[g])
            else:
                merged[()] = tuple(stats_matrix.sum(axis=0))
        else:
            for key, stats in zip(base_keys, base_stats):
                projected = tuple(key[p] for p in projector)
                if projected in merged:
                    merged[projected] = loss.merge_stats(merged[projected], stats)
                else:
                    merged[projected] = stats
        cell_counts[gset] = len(merged)
        cuboid_icebergs: List[CellKey] = []
        for projected, stats in merged.items():
            cell = align_cell_key(gset, projected, attrs)
            known.add(cell)
            all_cell_stats[cell] = stats
            cell_loss = loss.loss_from_stats(stats, sample_summary)
            cell_losses[cell] = cell_loss
            if cell_loss > threshold:
                iceberg_stats[cell] = stats
                cuboid_icebergs.append(cell)
        iceberg_by_cuboid[gset] = cuboid_icebergs
    return CuboidDerivation(
        iceberg_stats=iceberg_stats,
        iceberg_by_cuboid=iceberg_by_cuboid,
        cell_counts=cell_counts,
        cell_losses=cell_losses,
        cell_stats=all_cell_stats,
        known=known,
    )


def partition_bounds(num_rows: int, partitions: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal row ranges covering ``[0, num_rows)``.

    Deterministic in ``(num_rows, partitions)`` alone. When
    ``partitions > num_rows`` the tail ranges are empty — legal: an
    empty partition contributes the merge identity (no accumulators)
    and is filtered out before the map so no worker receives one.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    if num_rows < 0:
        raise ValueError(f"num_rows must be >= 0, got {num_rows}")
    base, remainder = divmod(num_rows, partitions)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(partitions):
        hi = lo + base + (1 if i < remainder else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def partition_stats(
    table: Table,
    attrs: Tuple[str, ...],
    loss: LossFunction,
    sample_values: np.ndarray,
    bounds: Tuple[int, int],
) -> PartitionStats:
    """One partition's mergeable accumulators: ``[(base key, stats)]``.

    The partition is a zero-copy ``slice`` view of the table (in a
    pool worker, the one it inherited) — no rows are materialized. Its
    base cells' statistics come from one :meth:`LossFunction.group_stats`
    call for the whole partition, so a loss with a batch kernel (the
    distance losses: one nearest-sample query) runs it once per
    partition, not once per base cell.
    """
    chunk = table.slice(*bounds)
    values = loss.extract(chunk)
    groups = group_rows(chunk, attrs)
    stats = loss.group_stats(values, sample_values, groups.group_indices)
    return [(groups.decode_key(g), s) for g, s in enumerate(stats)]


def merge_partition_stats(
    loss: LossFunction, partition_results: Sequence[PartitionStats]
) -> Dict[Tuple, tuple]:
    """Fold per-partition base-cell accumulators together, in grid order.

    Empty partitions (no pairs) are the merge identity. The returned
    mapping's insertion order is first-appearance order across the grid;
    :func:`dry_run` re-sorts it by physical key codes.

    Additive losses take a vectorized path: all accumulator rows are
    stacked and folded per key with ``np.add.at``, which is unbuffered
    and applies updates in row order — the summation order is exactly
    the grid-order Python fold's, so the result stays deterministic and
    independent of whatever executed the map.
    """
    if loss.additive_stats:
        keys: List[Tuple] = []
        index_of: Dict[Tuple, int] = {}
        ids: List[int] = []
        rows: List[tuple] = []
        for pairs in partition_results:
            for key, stats in pairs:
                gid = index_of.get(key)
                if gid is None:
                    gid = len(keys)
                    index_of[key] = gid
                    keys.append(key)
                ids.append(gid)
                rows.append(stats)
        if not keys:
            return {}
        matrix = np.asarray(rows, dtype=float)
        sums = np.zeros((len(keys), matrix.shape[1]))
        np.add.at(sums, np.asarray(ids, dtype=np.intp), matrix)
        return {key: tuple(sums[g]) for g, key in enumerate(keys)}
    merged: Dict[Tuple, tuple] = {}
    for pairs in partition_results:
        for key, stats in pairs:
            previous = merged.get(key)
            merged[key] = stats if previous is None else loss.merge_stats(previous, stats)
    return merged


def _map_inline(table, attrs, loss, sample_values, tasks):
    return [partition_stats(table, attrs, loss, sample_values, b) for b in tasks], None


def dry_run(
    table: Table,
    attrs: Sequence[str],
    loss: LossFunction,
    threshold: float,
    global_sample: GlobalSample,
    partitions: int = 1,
    map_partitions: PartitionMap = _map_inline,
) -> DryRunResult:
    """Identify every iceberg cell with a single raw-table pass.

    The table is cut into ``partitions`` contiguous row ranges
    (:func:`partition_bounds`); each contributes its base cells'
    sufficient statistics (:func:`partition_stats`), which are folded
    together **in grid order**, put in canonical base-cell order
    (physical key codes — the order of a full-table GroupBy) and merged
    upward through the lattice by :func:`derive_cuboids`. The result is
    a function of ``(table, attrs, loss, threshold, global_sample,
    partitions)`` only. One partition — the default — is the paper's
    single base-cuboid GroupBy; a larger grid exists so
    ``map_partitions`` can spread the pass over a worker pool
    (:func:`repro.core.parallel.parallel_dry_run`), and may differ from
    it in the last ulp of a float sum (reassociation), never in more.

    ``map_partitions(table, attrs, loss, sample_values, tasks)`` returns
    ``(per-task partition_stats in task order, execution record)``; the
    default maps in-process and records nothing.
    """
    started = time.perf_counter()
    attrs = tuple(attrs)
    table.schema.require(attrs)

    sample_values = loss.extract(global_sample.table)
    sample_summary = loss.prepare_sample(sample_values)

    # Empty partitions are the merge identity; never hand one out.
    tasks = [b for b in partition_bounds(table.num_rows, partitions) if b[1] > b[0]]
    partition_results, execution = map_partitions(table, attrs, loss, sample_values, tasks)
    merged = merge_partition_stats(loss, partition_results)

    # Canonical base order, whatever the grid: ascending physical key
    # codes. Base keys are distinct, so each is the first of its group.
    keys = list(merged)
    key_columns = [
        np.asarray([column.encode(key[j]) for key in keys])
        for j, column in enumerate(map(table.column, attrs))
    ]
    order = group_keys(key_columns)[0] if attrs else np.arange(len(keys))
    base_keys: List[Tuple] = [keys[i] for i in order]

    derived = derive_cuboids(
        attrs,
        base_keys,
        [merged[k] for k in base_keys],
        [column[order] for column in key_columns],
        loss,
        threshold,
        sample_summary,
    )
    nodes = {
        gset: LatticeNode(
            grouping_set=gset,
            total_cells=derived.cell_counts[gset],
            iceberg_cells=len(derived.iceberg_by_cuboid[gset]),
        )
        for gset in grouping_sets(attrs)
    }
    fault_point(FP_DRYRUN_DONE)
    return DryRunResult(
        attrs=attrs,
        threshold=threshold,
        lattice=CuboidLattice(attrs, nodes),
        iceberg_stats=derived.iceberg_stats,
        iceberg_cells_by_cuboid=derived.iceberg_by_cuboid,
        cell_counts=derived.cell_counts,
        known_cells=frozenset(derived.known),
        cell_losses=derived.cell_losses,
        cell_stats=derived.cell_stats,
        seconds=time.perf_counter() - started,
        execution=execution,
    )
