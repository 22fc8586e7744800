"""Parallel cube-construction engine.

Cube initialization is the dominant cost of the whole middleware: a dry
run over the raw table (Algorithms 1–3's single-pass iceberg lookup)
followed by greedy sampling of every iceberg cell. Both stages
decompose cleanly:

- **Dry run** — the loss functions are algebraic by construction (the
  PR-1 analyzer proves decomposability for compiled losses; built-ins
  declare it), so the raw table is cut into a *fixed partition grid*
  and each partition contributes mergeable sufficient-statistic
  accumulators: per base cell, ``stats(partition ∩ cell, Sam_global)``.
  The coordinator folds partitions together **in grid order** with
  ``merge_stats`` and derives the full lattice from the merged base
  cuboid exactly like the serial dry run.
- **Real run** — per-iceberg-cell greedy sampling fans out in chunks of
  cells. Every cell is sampled with its own seeded generator
  (:func:`repro.resilience.checkpoint.rng_for_cell`), so the drawn
  sample depends only on ``(seed, cell)`` — never on which worker or
  chunk ran it or in what order tasks completed.

**Zero-copy fan-out.** When a pool is actually used, the large payloads
travel through one :mod:`multiprocessing.shared_memory` segment
(:mod:`repro.engine.shm`) instead of the pool's pickle channel: the dry
run shares the raw table once (workers carve partitions out of it with
zero-copy ``Table.slice`` views), and the real run shares the loss
value vector plus a single concatenated row-index buffer — each
sampling task is reduced to ``(slot, key, offset, length)``. Per-cell
index arrays total roughly :math:`2^{n-1}` times the table size across
cuboids, so shipping them by offset rather than by value is what makes
``workers=N`` faster than serial at bench scale.

**Determinism contract.** The partition grid depends only on the table
size and the ``partitions`` setting — *not* on ``workers`` — and
partition accumulators are merged in grid order (the vectorized
additive merge applies ``np.add.at``, which accumulates unbuffered and
in order); sampling randomness is per-cell. Consequently a build with
``workers=4`` is bit-identical to a build with ``workers=1``: same
iceberg cells, same sample tuples, same representative assignment,
byte-identical persisted cube. (The equivalence-test suite asserts
exactly this, including under a mid-build kill/resume.)

Zero-row partitions (possible when ``partitions`` exceeds the table
size) contribute no accumulators, which is the merge identity — they
are never shipped to a worker, and the regression tests pin that down.

Worker processes are plain ``multiprocessing`` pools, preferring the
``fork`` start method. Where a pool cannot be used (or the loss proves
unpicklable — e.g. a closure-bearing compiled loss under ``spawn``),
the engine degrades to in-process execution of the *same* partitioned
code path, so results never change — only the speedup does. Every
fan-out reports a :class:`PoolExecution` describing what actually ran;
silent degradation is a bug the benchmarks now catch.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import time
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import costmodel
from repro.core.dryrun import (
    DryRunResult,
    derive_cuboids,
    result_from_derivation,
)
from repro.core.global_sample import GlobalSample
from repro.core.loss.base import LossFunction
from repro.core.realrun import (
    FP_CELL_SAMPLED,
    FP_CELL_START,
    IcebergCellEntry,
    RealRunResult,
    _adopt_checkpointed,
    _cuboid_cell_rows,
)
from repro.core.sampling import SamplingResult, sample_with_pool
from repro.engine.cube import CellKey
from repro.engine.shm import (
    ArrayPackDescriptor,
    TableDescriptor,
    attach_arrays,
    attach_table,
    share_arrays,
    share_table,
)
from repro.engine.table import Table
from repro.resilience.checkpoint import rng_for_cell
from repro.resilience.faults import fault_point

_LOG = logging.getLogger("repro.core.parallel")

#: Default number of dry-run partitions. Fixed (not derived from the
#: worker count) so the merge order — and therefore every floating-point
#: accumulator — is identical whatever parallelism executes the build.
DEFAULT_PARTITIONS = 16

#: Sampling-task chunks handed to each worker. More than one chunk per
#: worker evens out skew (cells vary wildly in size); too many puts the
#: per-dispatch IPC cost back on the critical path.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class PoolExecution:
    """What one fan-out actually did — the audit trail for benchmarks.

    ``fallback_kind`` distinguishes a *planned* inline run (one worker
    requested, or nothing to fan out — not a degradation) from an
    *error* fallback (a pool was wanted but unusable), which tier-1
    treats as a failed parallel run.
    """

    requested_workers: int
    effective_workers: int
    #: ``"pool"`` or ``"inline"``.
    mode: str
    #: ``""`` (no fallback), ``"planned"``, or ``"error"``.
    fallback_kind: str
    fallback_reason: str
    used_shared_memory: bool
    #: units handed to the pool (dry-run partitions / sampling chunks).
    num_tasks: int
    #: underlying work items (cells) when tasks are chunks.
    num_items: int = 0
    #: bytes placed in shared memory for this fan-out.
    shared_bytes: int = 0

    @property
    def degraded(self) -> bool:
        """True when parallelism was requested but lost to an error."""
        return self.fallback_kind == "error"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def check_workers(workers: int) -> int:
    """Validate a worker count (used by the engine and the CLI)."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


def partition_bounds(num_rows: int, partitions: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal row ranges covering ``[0, num_rows)``.

    Deterministic in ``(num_rows, partitions)`` alone. When
    ``partitions > num_rows`` the tail ranges are empty — legal: an
    empty partition contributes the merge identity (no accumulators)
    and is filtered out before fan-out so no worker receives one.
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


def task_chunks(
    num_tasks: int, workers: int, chunks_per_worker: int = CHUNKS_PER_WORKER
) -> List[Tuple[int, int]]:
    """Contiguous task-index chunks for pool fan-out.

    Covers ``[0, num_tasks)`` with non-empty, non-overlapping ranges —
    every worker that receives a chunk receives real work, whatever the
    ``workers``/``num_tasks`` ratio. Roughly ``chunks_per_worker``
    chunks per worker bound scheduling skew while amortizing the
    per-dispatch IPC cost over many cells.
    """
    if num_tasks <= 0:
        return []
    target = min(num_tasks, max(1, workers) * max(1, chunks_per_worker))
    return [b for b in partition_bounds(num_tasks, target) if b[1] > b[0]]


# ---------------------------------------------------------------------------
# Worker-side state.
#
# Workers are primed by a pool initializer writing module globals. Large
# payloads arrive as shared-memory descriptors and are attached as
# zero-copy views; the inline path passes the objects themselves through
# the same initializer, so pool and inline execution run identical code.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _release_worker_state(stage: str) -> None:
    """Drop one stage's state (coordinator-side after an inline run)."""
    _WORKER_STATE.pop(stage, None)
    segment = _WORKER_STATE.pop(stage + "_segment", None)
    if segment is not None:
        segment.close()


def _init_dryrun_worker(table_ref, attrs, loss, sample_values, untrack=True) -> None:
    if isinstance(table_ref, TableDescriptor):
        table, segment = attach_table(table_ref, untrack=untrack)
        _WORKER_STATE["dryrun_segment"] = segment
    else:
        table = table_ref
    _WORKER_STATE["dryrun"] = (table, attrs, loss, sample_values)


def _dryrun_partition(bounds: Tuple[int, int]):
    """One partition's mergeable accumulators: ``[(base key, stats)]``.

    The partition is a zero-copy ``slice`` view of the (possibly
    shared-memory) table — no rows are materialized.
    """
    table, attrs, loss, sample_values = _WORKER_STATE["dryrun"]
    lo, hi = bounds
    if hi <= lo:
        return []
    from repro.engine.groupby import group_rows

    chunk = table.slice(lo, hi)
    values = loss.extract(chunk)
    groups = group_rows(chunk, attrs)
    return [
        (groups.decode_key(g), loss.stats(values[groups.group_indices[g]], sample_values))
        for g in range(groups.num_groups)
    ]


def _init_sampling_worker(arrays_ref, loss, threshold, seed, lazy, pool_size, untrack=True) -> None:
    if isinstance(arrays_ref, ArrayPackDescriptor):
        arrays, segment = attach_arrays(arrays_ref, untrack=untrack)
        _WORKER_STATE["sampling_segment"] = segment
    else:
        arrays = arrays_ref
    _WORKER_STATE["sampling"] = (
        arrays["values"],
        arrays["idx"],
        loss,
        threshold,
        seed,
        lazy,
        pool_size,
    )


def _sample_chunk(chunk):
    """Greedy-sample a chunk of iceberg cells, each with its own RNG.

    ``chunk`` is a list of ``(slot, key, offset, length)``; the row
    indices live at ``idx_all[offset:offset + length]`` in the shared
    index buffer. Returns small ``(slot, SamplingResult)`` pairs — the
    coordinator owns the raw index arrays and rebuilds full entries.
    """
    values, idx_all, loss, threshold, seed, lazy, pool_size = _WORKER_STATE["sampling"]
    out = []
    for slot, key, offset, length in chunk:
        idx = idx_all[offset : offset + length]
        result = sample_with_pool(
            loss,
            values[idx],
            threshold,
            rng_for_cell(seed, key),
            pool_size=pool_size,
            lazy=lazy,
        )
        out.append((slot, result))
    return out


# ---------------------------------------------------------------------------
# Pool plumbing
# ---------------------------------------------------------------------------


def _preferred_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_untrack_flag(ctx) -> bool:
    # Fork children share the parent's resource-tracker process; telling
    # it to forget the segment would strip the coordinator's own
    # registration (and two children would race the shared registry).
    # Spawn children run their own tracker and must untrack, or their
    # exit destroys the segment out from under everyone else.
    return ctx.get_start_method() != "fork"


def _map_with_pool(
    workers: int,
    initializer: Callable,
    initargs: tuple,
    func: Callable,
    tasks: Sequence,
    ordered: bool,
    used_shared_memory: bool = False,
) -> Tuple[list, PoolExecution]:
    """Run ``func`` over ``tasks`` on a worker pool, or inline.

    Falls back to in-process execution — same code, same results — when
    a pool is pointless (one effective worker) or unusable (pickling
    failure under a non-fork start method). Inline results preserve
    task order, which is fine for both call sites: the dry run requires
    grid order, the sampler re-orders by slot anyway.

    Returns ``(results, PoolExecution)``; the execution record is how
    callers (and ultimately the benchmarks) find out whether requested
    parallelism actually happened.
    """
    num_tasks = len(tasks)
    effective = max(1, min(workers, num_tasks))
    if effective <= 1:
        initializer(*initargs)
        execution = PoolExecution(
            requested_workers=workers,
            effective_workers=1,
            mode="inline",
            fallback_kind="planned" if workers > 1 else "",
            fallback_reason=(
                "" if workers <= 1 else f"only {num_tasks} task(s) to fan out"
            ),
            used_shared_memory=used_shared_memory,
            num_tasks=num_tasks,
            num_items=num_tasks,
        )
        return [func(t) for t in tasks], execution
    ctx = _preferred_context()
    try:
        with ctx.Pool(effective, initializer=initializer, initargs=initargs) as pool:
            if ordered:
                results = pool.map(func, tasks)
            else:
                results = list(pool.imap_unordered(func, tasks))
        return results, PoolExecution(
            requested_workers=workers,
            effective_workers=effective,
            mode="pool",
            fallback_kind="",
            fallback_reason="",
            used_shared_memory=used_shared_memory,
            num_tasks=num_tasks,
            num_items=num_tasks,
        )
    except (pickle.PicklingError, TypeError, AttributeError, OSError, ImportError) as exc:
        # Unpicklable loss under spawn, fd exhaustion, restricted
        # environments: degrade to the identical in-process path — but
        # never silently: the execution record marks the run degraded,
        # and tier-1 asserts that a healthy build's record is not.
        reason = f"{type(exc).__name__}: {exc}"
        _LOG.warning(
            "parallel engine fell back to in-process execution "
            "(requested workers=%d): %s",
            workers,
            reason,
        )
        warnings.warn(
            f"parallel engine fell back to in-process execution: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )
        initializer(*initargs)
        results = [func(t) for t in tasks]
        return results, PoolExecution(
            requested_workers=workers,
            effective_workers=1,
            mode="inline",
            fallback_kind="error",
            fallback_reason=reason,
            used_shared_memory=used_shared_memory,
            num_tasks=num_tasks,
            num_items=num_tasks,
        )


# ---------------------------------------------------------------------------
# Stage 1: partition-parallel dry run
# ---------------------------------------------------------------------------


def merge_partition_stats(
    loss: LossFunction,
    partition_results: Sequence[Sequence[Tuple[Tuple, tuple]]],
) -> Dict[Tuple, tuple]:
    """Fold per-partition base-cell accumulators together, in grid order.

    Empty partitions (no pairs) are the merge identity. The returned
    mapping's insertion order is first-appearance order across the grid;
    callers needing the serial dry run's canonical order re-sort by
    physical key codes.

    Additive losses take a vectorized path: all accumulator rows are
    stacked and folded per key with ``np.add.at``, which is unbuffered
    and applies updates in row order — the summation order is exactly
    the grid-order Python fold's, so the result stays deterministic and
    worker-count-invariant.
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


def parallel_dry_run(
    table: Table,
    attrs: Sequence[str],
    loss: LossFunction,
    threshold: float,
    global_sample: GlobalSample,
    workers: int = 1,
    partitions: int = DEFAULT_PARTITIONS,
) -> DryRunResult:
    """Partition-parallel iceberg-cell lookup.

    Produces a :class:`DryRunResult` whose content is a function of
    ``(table, attrs, loss, threshold, global_sample, partitions)`` only:
    the worker count changes wall-clock, never bytes. When a pool is
    used, the raw table is placed in shared memory once and workers
    slice their partitions out of it without copying.
    """
    started = time.perf_counter()
    attrs = tuple(attrs)
    table.schema.require(attrs)
    check_workers(workers)

    sample_values = loss.extract(global_sample.table)
    sample_summary = loss.prepare_sample(sample_values)

    bounds = partition_bounds(table.num_rows, partitions)
    # Empty partitions are the merge identity; never ship one to a worker.
    tasks = [b for b in bounds if b[1] > b[0]]
    effective = max(1, min(workers, len(tasks)))
    bundle = None
    initargs = (table, attrs, loss, sample_values, True)
    if effective > 1:
        ctx = _preferred_context()
        bundle = share_table(table)
        initargs = (bundle.descriptor, attrs, loss, sample_values, _worker_untrack_flag(ctx))
    try:
        partition_results, execution = _map_with_pool(
            workers=workers,
            initializer=_init_dryrun_worker,
            initargs=initargs,
            func=_dryrun_partition,
            tasks=tasks,
            ordered=True,  # merge order must follow the grid
            used_shared_memory=bundle is not None,
        )
    finally:
        _release_worker_state("dryrun")
        if bundle is not None:
            bundle.close()
            bundle.unlink()
    if bundle is not None:
        execution = replace(execution, shared_bytes=bundle.nbytes)
    merged = merge_partition_stats(loss, partition_results)

    # Canonical base order: sort by physical key codes, matching the
    # serial dry run's full-table GroupBy (np.unique over code rows).
    columns = [table.column(a) for a in attrs]

    def codes_of(key: Tuple) -> Tuple[int, ...]:
        return tuple(int(col.encode(v)) for col, v in zip(columns, key))

    ordered_keys = sorted(merged, key=codes_of)
    base_keys: List[Tuple] = list(ordered_keys)
    base_stats: List[tuple] = [merged[k] for k in ordered_keys]
    key_codes = (
        np.asarray([codes_of(k) for k in ordered_keys], dtype=np.int64)
        if ordered_keys
        else np.empty((0, len(attrs)), dtype=np.int64)
    )

    derived = derive_cuboids(
        attrs, base_keys, base_stats, key_codes, loss, threshold, sample_summary
    )
    return result_from_derivation(
        attrs,
        threshold,
        derived,
        time.perf_counter() - started,
        execution=execution,
    )


# ---------------------------------------------------------------------------
# Stage 2: chunked per-cell fan-out sampling
# ---------------------------------------------------------------------------


def parallel_real_run(
    table: Table,
    dry: DryRunResult,
    loss: LossFunction,
    seed: int,
    workers: int = 1,
    lazy: bool = True,
    pool_size: Optional[int] = 2000,
    completed: Optional[Mapping[CellKey, object]] = None,
    on_cell: Optional[Callable[[IcebergCellEntry], None]] = None,
) -> RealRunResult:
    """Materialize every iceberg cell's sample across a worker pool.

    Cell retrieval (the cost-model-guided GroupBy / semi-join of
    Algorithm 2) stays on the coordinator — it is cheap relative to
    greedy sampling and its output fixes the canonical cell order. The
    sampling fans out in chunks of cells; the loss value vector and one
    concatenated row-index buffer ride in shared memory, so a task
    pickles down to ``(slot, key, offset, length)``. Results slot back
    into the canonical order, so completion order is irrelevant.

    ``completed`` and ``on_cell`` carry the PR-3 checkpoint protocol:
    adopted cells are never re-sampled, and each freshly sampled cell is
    journaled from the coordinator as its result arrives — a killed
    parallel build resumes exactly like a serial one, whatever the
    chunking was.
    """
    started = time.perf_counter()
    check_workers(workers)
    values = loss.extract(table)
    n = table.num_rows

    entries: List[Optional[IcebergCellEntry]] = []
    tasks: List[Tuple[int, CellKey, np.ndarray]] = []
    decisions: Dict[Tuple[str, ...], costmodel.CostDecision] = {}
    skipped = 0
    for gset, iceberg_keys in dry.iceberg_cells_by_cuboid.items():
        if not iceberg_keys:
            skipped += 1
            continue
        decision = costmodel.evaluate(n, len(iceberg_keys), dry.cell_counts[gset])
        decisions[gset] = decision
        cell_rows = _cuboid_cell_rows(
            table, gset, dry.attrs, iceberg_keys, decision.use_join_prune
        )
        for key in iceberg_keys:
            idx = cell_rows.get(key)
            if idx is None:  # pragma: no cover - dry run and real run agree
                continue
            slot = len(entries)
            record = completed.get(key) if completed else None
            if record is not None:
                entries.append(_adopt_checkpointed(key, idx, dry, record))
            else:
                entries.append(None)
                tasks.append((slot, key, idx))

    execution: Optional[PoolExecution] = None
    if tasks:
        fault_point(FP_CELL_START)
        # One flat index buffer; each task addresses its rows by offset.
        lengths = [len(idx) for _, _, idx in tasks]
        offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        idx_all = (
            np.concatenate([idx for _, _, idx in tasks])
            if tasks
            else np.empty(0, dtype=np.int64)
        ).astype(np.int64, copy=False)
        specs = [
            (slot, key, int(offsets[i]), int(lengths[i]))
            for i, (slot, key, _) in enumerate(tasks)
        ]
        effective = max(1, min(workers, len(specs)))
        chunk_list = [specs[lo:hi] for lo, hi in task_chunks(len(specs), effective)]

        bundle = None
        payload = {"values": values, "idx": idx_all}
        initargs = (payload, loss, dry.threshold, seed, lazy, pool_size, True)
        if effective > 1:
            ctx = _preferred_context()
            bundle = share_arrays(payload)
            initargs = (
                bundle.descriptor,
                loss,
                dry.threshold,
                seed,
                lazy,
                pool_size,
                _worker_untrack_flag(ctx),
            )
        try:
            chunk_results, execution = _map_with_pool(
                workers=workers,
                initializer=_init_sampling_worker,
                initargs=initargs,
                func=_sample_chunk,
                tasks=chunk_list,
                ordered=False,  # checkpoint as results arrive; slots restore order
                used_shared_memory=bundle is not None,
            )
        finally:
            _release_worker_state("sampling")
            if bundle is not None:
                bundle.close()
                bundle.unlink()
        execution = replace(
            execution,
            num_items=len(specs),
            shared_bytes=bundle.nbytes if bundle is not None else 0,
        )

        task_of = {slot: (key, idx) for slot, key, idx in tasks}
        for chunk_result in chunk_results:
            for slot, sampling in chunk_result:
                key, idx = task_of[slot]
                entry = IcebergCellEntry(
                    key=key,
                    raw_indices=idx,
                    sample_indices=idx[sampling.indices],
                    stats=dry.iceberg_stats[key],
                    sampling=SamplingResult(
                        indices=sampling.indices,
                        achieved_loss=sampling.achieved_loss,
                        rounds=sampling.rounds,
                        evaluations=sampling.evaluations,
                    ),
                )
                fault_point(FP_CELL_SAMPLED)
                if on_cell is not None:
                    on_cell(entry)
                entries[slot] = entry

    cells = [e for e in entries if e is not None]
    return RealRunResult(
        cells=cells,
        decisions=decisions,
        skipped_cuboids=skipped,
        seconds=time.perf_counter() - started,
        execution=execution,
    )
