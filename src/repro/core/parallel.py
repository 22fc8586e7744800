"""The worker-pool executor for cube construction.

The build pipeline lives in :mod:`repro.core.dryrun` and
:mod:`repro.core.realrun`; each stage takes the piece of itself that
decomposes as an argument — the dry run a *partition map*, the real run
a *sampler*. This module is the ``multiprocessing`` implementation of
those two hooks, and nothing else: :func:`parallel_dry_run` and
:func:`parallel_real_run` bind a pool into the stage functions, which
is all ``Tabula.initialize(workers=N)`` does differently from a plain
build.

- **Dry run** — the loss functions are algebraic by construction (the
  PR-1 analyzer proves decomposability for compiled losses; built-ins
  declare it), so ``dry_run`` cuts the raw table into a *fixed partition
  grid* (:data:`DEFAULT_PARTITIONS`, whatever the worker count) and the
  pool computes each partition's mergeable accumulators. ``dry_run``
  folds them together in grid order and derives the lattice.
- **Real run** — ``real_run`` retrieves every cell on the coordinator
  and hands the still-unsampled ones over; they fan out in chunks of
  cells. Each cell is sampled by :func:`repro.core.realrun.sample_cell`
  from its own ``(seed, cell)`` stream, so the drawn sample never
  depends on which worker or chunk ran it or in what order tasks
  completed.

**Zero-copy fan-out.** When a pool is actually used, the large payloads
travel through one :mod:`multiprocessing.shared_memory` segment
(:mod:`repro.engine.shm`) instead of the pool's pickle channel: the dry
run shares the raw table once (workers carve partitions out of it with
zero-copy ``Table.slice`` views), and the real run shares the loss
value vector plus a single concatenated row-index buffer — each
sampling task is reduced to ``(slot, key, offset, length)``.

**What is measured.** ``workers=2`` is *slower* than a plain build at
every size recorded on the 2-core reference box (2.31 vs 1.92 s at 50 k
rows, ≈ 6.0 vs 4.6 s at 100 k; ``core.parallel.pool_seconds`` 1.83 s,
13.9 MB through shm): the pool fans out sampling, which is ≈ 6 % of a
build, while cell retrieval (≈ 77 %) stays on the coordinator. Whether
this module pays or goes is ROADMAP item 3; deleting it (and
:mod:`repro.engine.shm`) leaves the stage functions untouched.

**Determinism contract.** Same ``(table, config)`` ⇒ same cube for any
``workers >= 1``, byte-identical on disk, including under a mid-build
kill/resume with a different worker count (the equivalence suite
asserts exactly this). Against a plain build the RNG streams are the
same too; the only difference is the dry run's grid (1 partition vs 16),
which may reassociate a float sum in the last ulp.

Worker processes are plain ``multiprocessing`` pools, preferring the
``fork`` start method. Where a pool cannot be used (or the loss proves
unpicklable — e.g. a closure-bearing compiled loss under ``spawn``),
the executor degrades to in-process execution of the *same* task
functions, so results never change. Every fan-out reports a
:class:`PoolExecution` describing what actually ran; silent degradation
is a bug the benchmarks catch.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import warnings
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.dryrun import DryRunResult, dry_run, partition_bounds, partition_stats
from repro.core.global_sample import GlobalSample
from repro.core.loss.base import LossFunction
from repro.core.realrun import FP_CELL_START, PendingCell, RealRunResult, real_run
from repro.engine.shm import (
    ArrayPackDescriptor,
    TableDescriptor,
    attach_arrays,
    attach_table,
    share_arrays,
    share_table,
)
from repro.engine.table import Table
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
    """Validate a worker count (``Tabula.initialize`` and both entry points here)."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


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
# The task functions only unpack that state around the stage modules'
# own per-partition / per-cell functions.
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
    return partition_stats(*_WORKER_STATE["dryrun"], bounds)


def _init_sampling_worker(arrays_ref, draw, untrack=True) -> None:
    if isinstance(arrays_ref, ArrayPackDescriptor):
        arrays, segment = attach_arrays(arrays_ref, untrack=untrack)
        _WORKER_STATE["sampling_segment"] = segment
    else:
        arrays = arrays_ref
    _WORKER_STATE["sampling"] = (arrays["values"], arrays["idx"], draw)


def _sample_chunk(chunk):
    """Sample a chunk of iceberg cells.

    ``chunk`` is a list of ``(slot, key, offset, length)``; the row
    indices live at ``idx_all[offset:offset + length]`` in the shared
    index buffer. Returns small ``(slot, SamplingResult)`` pairs — the
    coordinator owns the raw index arrays and builds the entries.
    """
    values, idx_all, draw = _WORKER_STATE["sampling"]
    return [
        (slot, draw(cell_values=values[idx_all[offset : offset + length]], key=key))
        for slot, key, offset, length in chunk
    ]


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
# The two hooks, and the stage functions with a pool bound in
# ---------------------------------------------------------------------------


def _map_partitions(workers: int, table, attrs, loss, sample_values, tasks):
    """:data:`repro.core.dryrun.PartitionMap` over a pool: the raw table
    goes into shared memory once and workers slice it without copying."""
    bundle = None
    initargs = (table, attrs, loss, sample_values, True)
    if min(workers, len(tasks)) > 1:
        bundle = share_table(table)
        initargs = (
            bundle.descriptor,
            attrs,
            loss,
            sample_values,
            _worker_untrack_flag(_preferred_context()),
        )
    try:
        results, execution = _map_with_pool(
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
    return results, execution


def _sample_on_pool(workers: int, pending: Sequence[PendingCell], values, draw):
    """:data:`repro.core.realrun.Sampler` over a pool, in chunks of cells.

    The loss value vector and one concatenated row-index buffer ride in
    shared memory, so a task pickles down to ``(slot, key, offset,
    length)``. Results come back in completion order; ``real_run`` slots
    them into the canonical one.
    """
    fault_point(FP_CELL_START)
    lengths = [len(idx) for _, _, idx in pending]
    offsets = np.zeros(len(pending) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    idx_all = np.concatenate([idx for _, _, idx in pending]).astype(np.int64, copy=False)
    specs = [
        (slot, key, int(offsets[i]), lengths[i])
        for i, (slot, key, _) in enumerate(pending)
    ]
    effective = min(workers, len(specs))
    chunk_list = [specs[lo:hi] for lo, hi in task_chunks(len(specs), effective)]

    bundle = None
    payload = {"values": values, "idx": idx_all}
    initargs = (payload, draw, True)
    if effective > 1:
        bundle = share_arrays(payload)
        initargs = (bundle.descriptor, draw, _worker_untrack_flag(_preferred_context()))
    try:
        chunk_results, execution = _map_with_pool(
            workers=workers,
            initializer=_init_sampling_worker,
            initargs=initargs,
            func=_sample_chunk,
            tasks=chunk_list,
            ordered=False,  # slots restore order
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
    return chain.from_iterable(chunk_results), execution


def parallel_dry_run(
    table: Table,
    attrs: Sequence[str],
    loss: LossFunction,
    threshold: float,
    global_sample: GlobalSample,
    workers: int = 1,
    partitions: int = DEFAULT_PARTITIONS,
) -> DryRunResult:
    """:func:`repro.core.dryrun.dry_run` over the fixed grid, mapped on
    ``workers`` processes — which change wall-clock, never bytes."""
    return dry_run(
        table,
        attrs,
        loss,
        threshold,
        global_sample,
        partitions=partitions,
        map_partitions=partial(_map_partitions, check_workers(workers)),
    )


def parallel_real_run(
    table: Table,
    dry: DryRunResult,
    loss: LossFunction,
    seed: int,
    workers: int = 1,
    **options,
) -> RealRunResult:
    """:func:`repro.core.realrun.real_run` (same ``options``) with the
    unsampled cells fanned out to ``workers`` processes."""
    return real_run(
        table,
        dry,
        loss,
        seed,
        sampler=partial(_sample_on_pool, check_workers(workers)),
        **options,
    )
