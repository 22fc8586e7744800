"""Crash-safe streaming ingest: bounded queue → WAL → background apply.

The pipeline turns the synchronous ``append_rows`` batch call into a
continuously fed, continuously served system with explicit robustness
semantics:

- **bounded admission, typed backpressure** — ``submit(rows)`` either
  accepts into a bounded in-memory queue or returns a typed
  ``BACKPRESSURE`` outcome carrying a retry-after hint. There is no
  unbounded buffer and no silent drop: every offered batch is accounted
  as accepted, backpressured, or rejected-closed;
- **group-commit durability** — a writer thread drains the queue into
  the CRC-framed ingest WAL with one fsync per micro-batch group, then
  publishes the ``durable_seq`` watermark. Durability is acknowledged
  per batch (``submit`` can wait on it), and many concurrent submitters
  share a single disk sync;
- **background maintenance** — a maintainer thread applies durable
  batches through the journaled ``append_rows`` plan/apply protocol
  (exactly-once by content-hashed batch id) and publishes
  ``applied_seq``. When it lags, queries keep serving the pre-append
  state — staleness is *visible* (``durable_seq - applied_seq``), never
  silent — and the bounded queue eventually pushes back on writers;
- **kill -9 anywhere** — every stage carries a registered fault point
  (enqueue → WAL write → WAL durable → apply start → apply done),
  and :func:`recover_ingest` replays the WAL through the
  journal's committed-batch ledger so recovery is exactly-once whether
  the crash hit before, during, or after an apply.

Client-stable seeds: the ``seed`` passed to ``submit`` (default: the
assigned sequence number) is the batch's idempotency key — a client
that re-submits the same rows with the same seed after a crash lands on
the same batch id and is deduplicated, while intentional duplicate
data needs a fresh seed.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from collections import deque

from repro.core.maintenance import append_rows, batch_id_for
from repro.core.tabula import Tabula
from repro.engine.table import Table
from repro.errors import TabulaError
from repro.ingest.wal import IngestWAL, WalBatch
from repro.resilience.faults import fault_point, register_fault_point
from repro.resilience.journal import MaintenanceJournal
from repro.sanitizer import create_lock, guarded_by

FP_ACCEPT = register_fault_point(
    "ingest.accept",
    "batch accepted into the bounded queue, nothing durable yet "
    "(a crash here loses only unacknowledged rows)",
)
FP_APPLY_START = register_fault_point(
    "ingest.apply.start",
    "durable batch dequeued by the maintainer, maintenance apply not started",
)
FP_APPLY_DONE = register_fault_point(
    "ingest.apply.done",
    "batch applied and journal-committed, applied watermark not yet published",
)


class IngestOutcome(enum.Enum):
    """How ``submit`` disposed of one offered batch.

    - ``ACCEPTED`` — queued (and, when ``wait_durable`` held, fsynced);
    - ``BACKPRESSURE`` — the bounded queue is full; retry after the
      hinted delay. The rows were *not* buffered anywhere;
    - ``CLOSED`` — the ingestor is closed or its pipeline has failed;
      nothing was queued.
    """

    ACCEPTED = "accepted"
    BACKPRESSURE = "backpressure"
    CLOSED = "closed"


@dataclass(frozen=True)
class SubmitResult:
    """Typed disposal of one ``submit`` call — never a silent drop."""

    outcome: IngestOutcome
    seq: int = 0
    durable: bool = False
    retry_after_seconds: float = 0.0
    queued_rows: int = 0
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.outcome is IngestOutcome.ACCEPTED


@dataclass(frozen=True)
class IngestConfig:
    """Pipeline sizing and pacing knobs.

    Attributes:
        max_queued_rows: bound on accepted-but-not-yet-applied rows;
            beyond it ``submit`` returns ``BACKPRESSURE``. This is the
            lever that makes a lagging maintainer *visible* to writers
            instead of an unbounded buffer.
        max_queued_batches: companion bound on batch count (guards
            against floods of tiny batches).
        flush_interval_seconds: writer-thread poll when idle; the group
            commit window. Submissions arriving within one window share
            one fsync.
        retry_after_seconds: hint carried by ``BACKPRESSURE`` results.
    """

    max_queued_rows: int = 8192
    max_queued_batches: int = 64
    flush_interval_seconds: float = 0.02
    retry_after_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.max_queued_rows < 1:
            raise ValueError(f"max_queued_rows must be >= 1, got {self.max_queued_rows}")
        if self.max_queued_batches < 1:
            raise ValueError(
                f"max_queued_batches must be >= 1, got {self.max_queued_batches}"
            )


@dataclass(frozen=True)
class IngestRecovery:
    """What :func:`recover_ingest` replayed after a restart."""

    replayed_plans: int      # journaled-but-uncommitted plans finished
    reapplied_batches: int   # durable WAL batches applied fresh
    skipped_batches: int     # WAL records already applied, or repeating a batch id
    durable_seq: int
    dropped_wal_lines: int   # torn tail truncated from the WAL


def recover_ingest(
    tabula: Tabula,
    wal_path: Union[str, Path],
    journal_path: Union[str, Path],
) -> IngestRecovery:
    """Replay the ingest WAL after a crash — exactly-once per batch.

    ``tabula`` may be restored to *any* point along the pipeline's
    deterministic state sequence: the pre-ingest base (the common
    restart path — the cube file that predates the WAL, as
    :func:`~repro.core.persistence.open_cube` loads it), a mid-stream
    snapshot, or an in-memory instance that
    survived with a half-applied batch. Recovery locates the restored
    state on the batch-boundary ladder anchored by the WAL's recorded
    base row count, then walks the WAL in seq order:

    - effects already in the state **and** committed → skip (the batch
      is done);
    - delta concatenated but store possibly partial (a crash mid-apply
      on a surviving instance) → converge from the journaled plan's
      post-states and commit it;
    - effects absent → re-apply. A batch the ledger already marks
      committed (the ledger outlived a snapshot that predates it) is
      re-applied from its journaled plan payload — identical post-states,
      no randomness — while a batch that never reached the journal goes
      through the normal journaled ``append_rows``.

    The content-hashed batch id ties all three cases together: no batch
    is lost, none is applied twice. A record whose batch id already
    appeared earlier in the walk — a client retry that the live
    maintainer deduplicated, but that the WAL logged again — counts as
    skipped and does not move the boundary: the ladder has one rung per
    distinct batch.

    Raises:
        JournalCorruptionError: interior damage (TAB509) in either log;
            nothing is replayed past it.
        TabulaError: the restored state does not lie on this WAL's
            batch-boundary ladder (wrong cube for these logs).
    """
    from repro.core.maintenance import _plan_from_payload, apply_plan, plan_append

    journal = MaintenanceJournal(journal_path)
    wal = IngestWAL(wal_path)
    wal.check_readable()
    journal.check_readable()
    result = wal.read_batches()
    payloads = journal.plan_payloads()
    distinct: Dict[str, WalBatch] = {}
    for batch in result.batches:
        distinct.setdefault(batch_id_for(batch.seed, batch.rows), batch)
    base_rows = result.base_rows
    if base_rows is None:
        base_rows = tabula.table.num_rows - sum(
            b.rows.num_rows for b in distinct.values()
        )
        if base_rows < 0:
            base_rows = tabula.table.num_rows
    replayed = reapplied = 0
    skipped = len(result.batches) - len(distinct)
    with tabula.write_lock:
        expected = base_rows
        for batch_id, batch in distinct.items():
            boundary_after = expected + batch.rows.num_rows
            rows_now = tabula.table.num_rows
            committed = journal.is_committed(batch_id)
            payload = payloads.get(batch_id)
            if rows_now >= boundary_after:
                if committed:
                    skipped += 1
                elif payload is not None:
                    # Delta already concatenated, store possibly
                    # partial: converge from the journaled post-states.
                    apply_plan(tabula, _plan_from_payload(payload))
                    journal.commit(batch_id)
                    replayed += 1
                else:
                    skipped += 1
            else:
                if rows_now != expected:
                    raise TabulaError(
                        f"restored table has {rows_now} rows but ingest batch "
                        f"seq {batch.seq} expects the boundary {expected}; the "
                        "cube does not belong to this WAL/journal pair"
                    )
                if payload is not None:
                    # Journaled plan (committed or not) beats fresh
                    # planning: identical post-states, no randomness.
                    apply_plan(tabula, _plan_from_payload(payload))
                    if not committed:
                        journal.commit(batch_id)
                    reapplied += 1
                elif committed:
                    # Commit marker without a payload cannot happen via
                    # the pipeline (plans are logged before commit), but
                    # re-derive deterministically rather than lose rows.
                    plan = plan_append(tabula, batch.rows, seed=batch.seed)
                    apply_plan(tabula, plan)
                    reapplied += 1
                else:
                    append_rows(
                        tabula, batch.rows, seed=batch.seed, journal=journal
                    )
                    reapplied += 1
            expected = boundary_after
    return IngestRecovery(
        replayed_plans=replayed,
        reapplied_batches=reapplied,
        skipped_batches=skipped,
        durable_seq=result.max_seq,
        dropped_wal_lines=result.dropped_lines,
    )


class StreamIngestor:
    """Continuously accept rows; durably log, then apply in background.

    Usage::

        ingestor = StreamIngestor(tabula, wal_path, journal_path)
        with ingestor:
            result = ingestor.submit(rows)
            if result.outcome is IngestOutcome.BACKPRESSURE:
                ...retry after result.retry_after_seconds...
        # close() drains: queued batches are fsynced and applied.

    After a crash, call :func:`recover_ingest` on a fresh ``Tabula``
    before constructing the new ingestor over the same paths — the
    constructor resumes sequence numbering from the WAL's durable tail.
    """

    def __init__(
        self,
        tabula: Tabula,
        wal_path: Union[str, Path],
        journal_path: Union[str, Path],
        config: Optional[IngestConfig] = None,
        start: bool = True,
    ) -> None:
        self.config = config or IngestConfig()
        self.tabula = tabula
        self.wal = IngestWAL(wal_path)
        self.journal = MaintenanceJournal(journal_path)
        resume_seq = 0
        if Path(wal_path).exists():
            resume_seq = self.wal.read_batches().max_seq
        else:
            # Anchor recovery: record the pre-ingest base row count so a
            # restart can locate any restored snapshot on the
            # batch-boundary ladder.
            self.wal.write_open(tabula.table.num_rows)
        self._state_lock = create_lock("ingest._state_lock")
        self._pending: Deque[WalBatch] = deque()  # guard: _state_lock
        self._applying: Deque[WalBatch] = deque()  # guard: _state_lock
        self._submitted_seq = resume_seq  # guard: _state_lock
        self._durable_seq = resume_seq  # guard: _state_lock
        self._applied_seq = resume_seq  # guard: _state_lock
        self._queued_rows = 0  # guard: _state_lock
        self._counters: Dict[str, int] = {  # guard: _state_lock
            "offered": 0,
            "accepted": 0,
            "accepted_rows": 0,
            "backpressured": 0,
            "rejected_closed": 0,
            "applied_batches": 0,
            "applied_rows": 0,
            "deduplicated_batches": 0,
            "fsyncs": 0,
        }
        self._closed = False  # guard: _state_lock
        self._failure = ""  # guard: _state_lock
        self._wake_writer = threading.Event()
        self._wake_maintainer = threading.Event()
        self._writer: Optional[threading.Thread] = None
        self._maintainer: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def submit(
        self,
        rows: Table,
        seed: Optional[int] = None,
        wait_durable: bool = True,
        timeout: Optional[float] = 5.0,
    ) -> SubmitResult:
        """Offer one batch of rows to the pipeline — typed, never silent.

        ``seed`` is the batch's idempotency key (defaults to the
        assigned sequence number): a client retrying the same rows with
        the same seed after a crash is deduplicated by the maintenance
        journal's committed-batch ledger. With ``wait_durable`` the call
        returns only once the batch is fsynced in the WAL (sharing the
        writer's group commit); on timeout the batch stays queued and
        the result reports ``durable=False``.
        """
        if rows.num_rows == 0:
            return SubmitResult(IngestOutcome.ACCEPTED, seq=0, detail="empty batch")
        if rows.schema.names != self.tabula.table.schema.names:
            raise TabulaError(
                f"ingested rows schema {rows.schema.names} does not match "
                f"the table schema {self.tabula.table.schema.names}"
            )
        # The apply would refuse a non-finite target value anyway; refuse
        # it here, before the batch can reach the WAL and be replayed.
        self.tabula.config.loss.extract(rows)
        with self._state_lock:
            self._counters["offered"] += 1
            if self._closed or self._failure:
                self._counters["rejected_closed"] += 1
                detail = self._failure or "ingestor is closed"
                return SubmitResult(IngestOutcome.CLOSED, detail=detail)
            over_rows = self._queued_rows + rows.num_rows > self.config.max_queued_rows
            over_batches = (
                len(self._pending) + len(self._applying) + 1
                > self.config.max_queued_batches
            )
            if over_rows or over_batches:
                self._counters["backpressured"] += 1
                return SubmitResult(
                    IngestOutcome.BACKPRESSURE,
                    retry_after_seconds=self.config.retry_after_seconds,
                    queued_rows=self._queued_rows,
                    detail=(
                        f"ingest queue full ({self._queued_rows} rows queued, "
                        f"bound {self.config.max_queued_rows}); retry after "
                        f"{self.config.retry_after_seconds}s"
                    ),
                )
            self._submitted_seq += 1
            seq = self._submitted_seq
            batch = WalBatch(seq=seq, seed=seq if seed is None else seed, rows=rows)
            self._pending.append(batch)
            self._queued_rows += rows.num_rows
            self._counters["accepted"] += 1
            self._counters["accepted_rows"] += rows.num_rows
            queued_rows = self._queued_rows
        fault_point(FP_ACCEPT)
        self._wake_writer.set()
        durable = False
        if wait_durable:
            durable = self.wait_durable(seq, timeout=timeout)
        return SubmitResult(
            IngestOutcome.ACCEPTED, seq=seq, durable=durable, queued_rows=queued_rows
        )

    def wait_durable(self, seq: int, timeout: Optional[float] = 5.0) -> bool:
        """Block until batch ``seq`` is fsynced in the WAL (or timeout)."""
        return self._wait(lambda: self._durable_reached(seq), timeout)

    def wait_applied(
        self, seq: Optional[int] = None, timeout: Optional[float] = 5.0
    ) -> bool:
        """Block until ``applied_seq`` catches ``seq`` (default: durable)."""
        return self._wait(lambda: self._applied_reached(seq), timeout)

    @guarded_by("_state_lock")
    def _durable_reached(self, seq: int) -> bool:
        return self._durable_seq >= seq

    @guarded_by("_state_lock")
    def _applied_reached(self, seq: Optional[int]) -> bool:
        target = self._durable_seq if seq is None else seq
        return self._applied_seq >= target and not self._pending

    def _wait(self, predicate, timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._state_lock:
                done = predicate()
                failed = bool(self._failure)
            if done:
                return True
            if failed:
                return False
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.002)

    # ------------------------------------------------------------------
    # Background pipeline
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the writer and maintainer threads (idempotent)."""
        if self._writer is None:
            self._writer = threading.Thread(
                target=self._writer_loop, name="ingest-writer", daemon=True
            )
            self._writer.start()
        if self._maintainer is None:
            self._maintainer = threading.Thread(
                target=self._maintainer_loop, name="ingest-maintainer", daemon=True
            )
            self._maintainer.start()

    def _writer_loop(self) -> None:
        try:
            while True:
                self._wake_writer.wait(timeout=self.config.flush_interval_seconds)
                self._wake_writer.clear()
                with self._state_lock:
                    group = list(self._pending)
                    closed = self._closed
                if group:
                    # One fsync for the whole group — outside the lock,
                    # so submitters keep getting typed answers while the
                    # disk syncs.
                    self.wal.append_batches(group)
                    with self._state_lock:
                        for _ in group:
                            self._pending.popleft()
                        self._applying.extend(group)
                        self._durable_seq = group[-1].seq
                        self._counters["fsyncs"] += 1
                    self._wake_maintainer.set()
                elif closed:
                    return
        except BaseException as exc:  # InjectedCrash = simulated kill -9
            self._note_failure("writer", exc)

    def _maintainer_loop(self) -> None:
        try:
            while True:
                self._wake_maintainer.wait(timeout=self.config.flush_interval_seconds)
                with self._state_lock:
                    batch = self._applying[0] if self._applying else None
                    stop = (self._closed and not self._pending) or bool(self._failure)
                if batch is None:
                    self._wake_maintainer.clear()
                    if stop:
                        return
                    continue
                fault_point(FP_APPLY_START)
                # Exactly-once: a batch whose content-hashed id is
                # already in the committed ledger (client retry after a
                # crash-and-recover) is acknowledged without re-applying.
                deduplicated = self.journal.is_committed(
                    batch_id_for(batch.seed, batch.rows)
                )
                if not deduplicated:
                    append_rows(
                        self.tabula, batch.rows, seed=batch.seed, journal=self.journal
                    )
                fault_point(FP_APPLY_DONE)
                with self._state_lock:
                    self._applying.popleft()
                    self._applied_seq = batch.seq
                    self._queued_rows -= batch.rows.num_rows
                    self._counters["applied_batches"] += 1
                    self._counters["applied_rows"] += batch.rows.num_rows
                    if deduplicated:
                        self._counters["deduplicated_batches"] += 1
        except BaseException as exc:
            self._note_failure("maintainer", exc)

    def _note_failure(self, stage: str, exc: BaseException) -> None:
        # A simulated (or real) death of a pipeline thread: record the
        # typed cause and stop accepting work. This is *not* recovery —
        # the process must restart and replay via recover_ingest.
        with self._state_lock:
            self._failure = f"{stage} thread died: {type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    def watermarks(self) -> Dict[str, int]:
        """The pipeline's progress triple plus derived lag/queue gauges."""
        with self._state_lock:
            return {
                "submitted_seq": self._submitted_seq,
                "durable_seq": self._durable_seq,
                "applied_seq": self._applied_seq,
                "lag_batches": self._durable_seq - self._applied_seq,
                "queued_batches": len(self._pending) + len(self._applying),
                "queued_rows": self._queued_rows,
            }

    def staleness_batches(self) -> int:
        """Durable-but-unapplied batches right now (0 = fully fresh)."""
        with self._state_lock:
            return (self._durable_seq - self._applied_seq) + len(self._pending)

    def stats(self) -> Dict[str, object]:
        """Counters + watermarks for ``/stats`` and the ingest bench."""
        with self._state_lock:
            counters = dict(self._counters)
            failure = self._failure
            closed = self._closed
        stats: Dict[str, object] = {
            "counters": counters,
            "watermarks": self.watermarks(),
            "closed": closed,
            "failure": failure,
            "queue_bound_rows": self.config.max_queued_rows,
            "queue_bound_batches": self.config.max_queued_batches,
            "writer_alive": self._writer.is_alive() if self._writer else False,
            "maintainer_alive": (
                self._maintainer.is_alive() if self._maintainer else False
            ),
        }
        return stats

    @property
    def healthy(self) -> bool:
        with self._state_lock:
            failed = bool(self._failure)
            closed = self._closed
        return not failed and not closed

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting; optionally drain queued batches to applied."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.wait_applied(timeout=timeout)
        self._wake_writer.set()
        self._wake_maintainer.set()
        for thread in (self._writer, self._maintainer):
            if thread is not None:
                thread.join(timeout=timeout)

    def __enter__(self) -> "StreamIngestor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
