"""Real-run stage: sampling cube construction (Algorithm 2).

Armed with the dry run's per-cuboid iceberg-cell tables, the real run
visits only iceberg cuboids; non-iceberg cuboids are skipped outright.
It reads the raw table the way the dry run does — **once**: one GroupBy
over all cubed attributes puts every row in its base cell, and each
iceberg cuboid's cells are then *derived* from the base cells (row
membership is distributive, like the loss statistics): base cell →
cuboid cell on the small base key matrix, then one linear pass hands
every iceberg cell its rows in ascending order.

Algorithm 2 instead retrieves per iceberg cuboid, its cost model
(Inequation 1) choosing between

1. a full GroupBy over the raw table, checking the iceberg condition
   per cell; or
2. an equi-join of the raw table with the cuboid's iceberg-cell table
   (a semi-join prune), then a GroupBy over the much smaller retrieved
   data — the winner when the cuboid has only a few iceberg cells.

The model is still evaluated and its decision recorded per cuboid, but
it decides nothing on the default path; the two retrievals run only
under ``force_strategy=`` (the cost-model ablation bench), and all
three hand back identical row arrays.

Either way, the stage then draws a local sample (Algorithm 1) for every
iceberg cell. The cube table it emits still carries each cell's raw-row
indices because the sample-selection join (Section IV) needs the raw
data; normalization drops them afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import costmodel
from repro.core.dryrun import DryRunResult
from repro.core.loss.base import LossFunction
from repro.core.sampling import SamplingResult, sample_with_pool
from repro.engine.cube import CellKey, align_cell_key
from repro.engine.groupby import Groups, group_keys, group_rows, split_by_group
from repro.engine.table import Table
from repro.resilience.checkpoint import rng_for_cell
from repro.resilience.faults import fault_point, register_fault_point

FP_CELL_START = register_fault_point(
    "init.realrun.cell_start",
    "before sampling: ahead of every cell when the real run samples "
    "in-process, once ahead of the whole fan-out when a worker pool does",
)
FP_CELL_SAMPLED = register_fault_point(
    "init.realrun.cell_sampled", "cell sampled, before the on_cell hook runs"
)

#: A cell still to be sampled: ``(slot in cell order, key, raw-row indices)``.
PendingCell = Tuple[int, CellKey, np.ndarray]
#: ``(pending, values, draw) -> ((slot, SamplingResult) in any order, execution)``.
Sampler = Callable[..., Tuple[Iterable[Tuple[int, SamplingResult]], Optional[object]]]
#: What ``skip_sampling`` records for a cell (ablation use only).
_NOT_SAMPLED = SamplingResult(np.empty(0, dtype=np.int64), np.inf, 0, 0)


@dataclass
class IcebergCellEntry:
    """One materialized iceberg cell before normalization (Figure 6)."""

    key: CellKey
    #: raw-table row indices of the cell's population ("Cell raw data").
    raw_indices: np.ndarray
    #: raw-table row indices of the local sample.
    sample_indices: np.ndarray
    #: the dry run's merged loss statistics for this cell.
    stats: tuple
    #: sampler diagnostics (size, achieved loss, evaluations).
    sampling: SamplingResult


@dataclass
class RealRunResult:
    """Stage-2 output: materialized iceberg cells plus diagnostics."""

    cells: List[IcebergCellEntry]
    decisions: Dict[Tuple[str, ...], costmodel.CostDecision]
    skipped_cuboids: int
    seconds: float
    #: what the sampler reported about how it ran
    #: (:class:`repro.core.parallel.PoolExecution` for a ``workers=``
    #: build); ``None`` for the default in-process sampler, and when no
    #: cell was left to sample.
    execution: Optional[object] = None

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def total_sample_tuples(self) -> int:
        return sum(len(c.sample_indices) for c in self.cells)


def sample_cell(
    loss: LossFunction,
    cell_values: np.ndarray,
    threshold: float,
    seed: int,
    key: CellKey,
    pool_size: Optional[int] = 2000,
    lazy: bool = True,
) -> SamplingResult:
    """Algorithm 1 on one cell, with the cell's own ``(seed, key)`` RNG.

    The only way the build (in-process or on a pool worker) and
    ``load_cube(on_corruption="repair")`` draw a local sample, so a
    cell's sample is a function of ``(its rows, config)`` — not of visit
    order, of which worker ran it, or of where a killed build resumed.
    The generator is only constructed if a candidate pool is drawn.
    """
    return sample_with_pool(
        loss,
        cell_values,
        threshold,
        lambda: rng_for_cell(seed, key),
        pool_size=pool_size,
        lazy=lazy,
    )


def _sample_inline(pending: Sequence[PendingCell], values: np.ndarray, draw):
    """The default sampler: one cell at a time, in cell order."""

    def results():
        for slot, key, idx in pending:
            fault_point(FP_CELL_START)
            yield slot, draw(cell_values=values[idx], key=key)

    return results(), None


def real_run(
    table: Table,
    dry: DryRunResult,
    loss: LossFunction,
    seed: int,
    lazy: bool = True,
    pool_size: Optional[int] = 2000,
    force_strategy: Optional[str] = None,
    skip_sampling: bool = False,
    completed: Optional[Mapping[CellKey, "object"]] = None,
    on_cell: Optional[Callable[["IcebergCellEntry"], None]] = None,
    sampler: Sampler = _sample_inline,
) -> RealRunResult:
    """Materialize local samples for every iceberg cell.

    The raw table is grouped into base cells once; one walk over the
    iceberg cuboids then derives every cell's rows from them and fixes
    the canonical cell order; the cells no checkpoint already holds are
    handed to ``sampler``, and each result becomes an entry here —
    whoever did the sampling.

    Args:
        table: the raw table.
        dry: dry-run output (iceberg cells, counts, lattice).
        loss: the bound accuracy loss function.
        seed: every cell is sampled from its own
            ``rng_for_cell(seed, cell)`` stream (:func:`sample_cell`).
        lazy: lazy-forward vs naive greedy sampling.
        pool_size: candidate-pool cap passed to the sampler.
        force_strategy: retrieve each cuboid's rows from the raw table
            the way Algorithm 2 does instead of deriving them from base
            cells — always by ``"join-prune"``, always by
            ``"full-groupby"``, or by whichever Inequation 1 picks
            (``"cost-model"``). Same rows, only slower; used by the
            cost-model ablation bench.
        skip_sampling: only retrieve each iceberg cell's raw rows, do
            not draw samples — isolates the retrieval cost the cost
            model reasons about (ablation use only).
        completed: checkpointed cells (objects with ``sample_indices``,
            ``achieved_loss``, ``rounds``, ``evaluations``); their
            recorded samples are adopted instead of re-drawn, which is
            how a killed build resumes without redoing finished work.
        on_cell: called after each *newly sampled* cell (checkpoint
            recording hook); not called for adopted ``completed`` cells.
        sampler: ``sampler(pending, values, draw)`` returns
            ``(results, execution)`` — ``results`` yields one
            ``(slot, SamplingResult)`` per :data:`PendingCell`, in any
            order, each obtained as ``draw(cell_values=values[idx],
            key=key)``; ``execution`` is stored on the result. The
            default samples in-process;
            :func:`repro.core.parallel.parallel_real_run` passes a
            worker pool. Not called when nothing is pending.

    Fault points: ``init.realrun.cell_sampled`` fires here once per
    newly sampled cell, just before ``on_cell``. ``init.realrun.cell_start``
    belongs to the sampler: the in-process one fires it before every
    cell, a pool fires it once, before the fan-out.
    """
    started = time.perf_counter()
    values = loss.extract(table)
    n = table.num_rows
    cells: List[Optional[IcebergCellEntry]] = []
    pending: List[PendingCell] = []
    decisions: Dict[Tuple[str, ...], costmodel.CostDecision] = {}
    skipped = 0
    if force_strategy not in (None, "cost-model", "join-prune", "full-groupby"):
        raise ValueError(f"unknown retrieval strategy {force_strategy!r}")
    if force_strategy is None:
        base = group_rows(table, dry.attrs)
        base_keys = [base.decode_key(g) for g in range(base.num_groups)]

    for gset, iceberg_keys in dry.iceberg_cells_by_cuboid.items():
        if not iceberg_keys:
            skipped += 1
            continue
        decision = costmodel.evaluate(n, len(iceberg_keys), dry.cell_counts[gset])
        decisions[gset] = decision
        if force_strategy is None:
            cell_rows = _derived_cell_rows(base, base_keys, gset, iceberg_keys)
        else:
            use_join = (
                decision.use_join_prune
                if force_strategy == "cost-model"
                else force_strategy == "join-prune"
            )
            cell_rows = _cuboid_cell_rows(table, gset, dry.attrs, iceberg_keys, use_join)
        for key in iceberg_keys:
            idx = cell_rows.get(key)
            if idx is None:  # pragma: no cover - dry run and real run agree
                continue
            record = completed.get(key) if completed else None
            if skip_sampling:
                cells.append(_entry(key, idx, dry, _NOT_SAMPLED))
            elif record is not None:
                cells.append(_adopt_checkpointed(key, idx, dry, record))
            else:
                pending.append((len(cells), key, idx))
                cells.append(None)

    execution = None
    if pending:
        draw = partial(
            sample_cell,
            loss,
            threshold=dry.threshold,
            seed=seed,
            pool_size=pool_size,
            lazy=lazy,
        )
        results, execution = sampler(pending, values, draw)
        cell_of = {slot: (key, idx) for slot, key, idx in pending}
        for slot, sampling in results:
            entry = _entry(*cell_of[slot], dry, sampling)
            fault_point(FP_CELL_SAMPLED)
            if on_cell is not None:
                on_cell(entry)
            cells[slot] = entry
    return RealRunResult(
        cells=[c for c in cells if c is not None],
        decisions=decisions,
        skipped_cuboids=skipped,
        seconds=time.perf_counter() - started,
        execution=execution,
    )


def _entry(
    key: CellKey, idx: np.ndarray, dry: DryRunResult, sampling: SamplingResult
) -> IcebergCellEntry:
    return IcebergCellEntry(
        key=key,
        raw_indices=idx,
        sample_indices=idx[sampling.indices],
        stats=dry.iceberg_stats[key],
        sampling=sampling,
    )


def _derived_cell_rows(
    base: Groups,
    base_keys: Sequence[Tuple],
    gset: Tuple[str, ...],
    iceberg_keys: Sequence[CellKey],
) -> Dict[CellKey, np.ndarray]:
    """Raw-row indices per iceberg cell of one cuboid, from the base cells.

    ``base`` is the raw table grouped by all cubed attributes and
    ``base_keys`` its groups' logical keys. Each base cell falls in
    exactly one cell of the cuboid, so a row's cuboid cell is a look-up
    through its base cell — no key of the raw table is read again. Rows
    come back ascending inside each cell, exactly as a GroupBy of the
    raw table by ``gset`` lists them.
    """
    attrs = base.keys
    if not gset:
        # The "All" cuboid: its single cell is the whole table.
        return {align_cell_key((), (), attrs): np.arange(base.table.num_rows, dtype=np.int64)}
    projector = [attrs.index(a) for a in gset]
    first, cell_of_base = group_keys([base.key_codes[:, p] for p in projector])
    # Slot of each cuboid cell among the iceberg cells; every other cell
    # goes to one trailing slot that is dropped.
    slot_of = {tuple(key[p] for p in projector): slot for slot, key in enumerate(iceberg_keys)}
    dropped = len(iceberg_keys)
    slots = np.fromiter(
        (slot_of.get(tuple(base_keys[b][p] for p in projector), dropped) for b in first),
        dtype=np.int64,
        count=len(first),
    )
    rows = split_by_group(slots[cell_of_base][base.row_groups], dropped + 1)
    return dict(zip(iceberg_keys, rows))


def _cuboid_cell_rows(
    table: Table,
    gset: Tuple[str, ...],
    all_attrs: Tuple[str, ...],
    iceberg_keys: Sequence[CellKey],
    use_join_prune: bool,
) -> Dict[CellKey, np.ndarray]:
    """Raw-row indices per iceberg cell of one cuboid.

    ``use_join_prune`` selects between Algorithm 2's two retrieval
    paths. Both return indices into the *original* table.
    """
    wanted = {_project_key(key, gset, all_attrs) for key in iceberg_keys}
    if not gset:
        # The "All" cuboid: its single cell is the whole table.
        key = align_cell_key((), (), all_attrs)
        return {key: np.arange(table.num_rows, dtype=np.int64)}
    if use_join_prune:
        # Semi-join: keep only rows falling in some iceberg cell, then
        # group the retrieved rows.
        restrict = _semi_join_mask(table, gset, wanted)
        base_indices = np.nonzero(restrict)[0]
        pruned = table.take(base_indices)
        groups = group_rows(pruned, gset)
        out: Dict[CellKey, np.ndarray] = {}
        for g in range(groups.num_groups):
            projected = groups.decode_key(g)
            if projected in wanted:
                key = align_cell_key(gset, projected, all_attrs)
                out[key] = base_indices[groups.group_indices[g]]
        return out
    groups = group_rows(table, gset)
    out = {}
    for g in range(groups.num_groups):
        projected = groups.decode_key(g)
        if projected in wanted:
            key = align_cell_key(gset, projected, all_attrs)
            out[key] = groups.group_indices[g]
    return out


def _adopt_checkpointed(key: CellKey, idx: np.ndarray, dry: DryRunResult, record) -> IcebergCellEntry:
    """Rebuild a cell entry from its checkpoint record (sample order kept)."""
    position_of = {int(raw): pos for pos, raw in enumerate(idx)}
    positions = np.asarray(
        [position_of[int(r)] for r in record.sample_indices], dtype=np.int64
    )
    return _entry(
        key,
        idx,
        dry,
        SamplingResult(
            indices=positions,
            achieved_loss=record.achieved_loss,
            rounds=record.rounds,
            evaluations=record.evaluations,
        ),
    )


def _project_key(key: CellKey, gset: Tuple[str, ...], all_attrs: Tuple[str, ...]) -> Tuple:
    lookup = dict(zip(all_attrs, key))
    return tuple(lookup[a] for a in gset)


def _semi_join_mask(table: Table, gset: Tuple[str, ...], wanted: set) -> np.ndarray:
    """Boolean mask of rows whose ``gset`` key is in ``wanted``.

    Implemented per-column: a row survives only if each of its key
    values appears in *some* wanted key at that position, then the
    composite check confirms exact membership. The per-column prefilter
    keeps the expensive tuple materialization off most rows.
    """
    n = table.num_rows
    mask = np.ones(n, dtype=bool)
    for j, attr in enumerate(gset):
        col = table.column(attr)
        wanted_values = {key[j] for key in wanted}
        encoded = [col.encode(v) for v in wanted_values]
        mask &= np.isin(col.data, np.asarray(encoded))
    candidates = np.nonzero(mask)[0]
    if len(gset) > 1 and len(candidates):
        columns = [table.column(a) for a in gset]
        decoded = []
        for col in columns:
            sliced = col.data[candidates]
            if col.dictionary is not None:
                decoded.append([col.dictionary[int(c)] for c in sliced])
            else:
                decoded.append([v.item() for v in sliced])
        keep = np.fromiter(
            (key in wanted for key in zip(*decoded)), dtype=bool, count=len(candidates)
        )
        mask = np.zeros(n, dtype=bool)
        mask[candidates[keep]] = True
    return mask
