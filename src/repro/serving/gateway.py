"""Concurrent dashboard-serving gateway around a :class:`Tabula` cube.

The paper's value proposition is answering ``SELECT sample FROM cube``
in milliseconds for *many concurrent users*. This module turns the
in-process middleware into a serving layer with explicit robustness
semantics:

- **admission control + load shedding** — each request runs on its
  caller's own thread. At most ``workers`` execute at once (a bounded
  semaphore) and at most ``queue_depth`` more may wait for a slot;
  past that, new requests are fast-rejected with a typed ``SHED``
  outcome instead of queueing unboundedly (overload degrades
  throughput, never memory);
- **deadlines** — each request carries a budget that bounds how long
  its caller waits for an execution slot and then propagates into
  ``Tabula.query``, whose own checks skip a degraded cell's rebind
  scan once the budget is spent. A request that has started executing
  is not abandoned at the deadline: it finishes on its caller's
  thread, bounded by those checks;
- **hot reload** — the cube is held as an immutable generation-stamped
  snapshot; ``reload()`` reads and audits a new cube file once
  (``load_cube``) and atomically swaps the snapshot only on success, so
  a corrupt file rolls back with the old cube still serving. In-flight
  requests keep the generation they pinned at dispatch. A gateway with
  an ingest pipeline attached refuses to reload.

Every response carries the core :class:`GuaranteeStatus` plus a
:class:`ServingOutcome` so dashboards can render partial results
honestly.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Union

from repro.core import spatial
from repro.core.tabula import GuaranteeStatus, QueryResult, Tabula
from repro.engine.table import Table
from repro.errors import DeadlineExceeded, TabulaError
from repro.resilience.deadline import Deadline
from repro.resilience.faults import fault_point, register_fault_point
from repro.sanitizer import create_lock

WhereClause = Mapping[str, object]

FP_EXECUTE = register_fault_point(
    "serve.request.execute",
    "request holds an execution slot, query not started "
    "(SlowIO here stalls the slot → admission saturation)",
)
FP_RELOAD_SWAP = register_fault_point(
    "serve.reload.swap",
    "replacement cube verified and loaded, snapshot not yet swapped",
)


class ServingOutcome(enum.Enum):
    """How the gateway disposed of one request.

    - ``OK`` — certified answer;
    - ``DEGRADED`` — honest answer without the θ-certificate
      (``DOWNGRADED``/``VOID`` guarantee);
    - ``SHED`` — fast-rejected at admission: every slot was busy and
      ``queue_depth`` callers were already waiting;
    - ``DEADLINE_EXCEEDED`` — the budget expired before an answer;
    - ``CIRCUIT_OPEN`` — (sharded tier only) answered from a replica or
      the router's global sample because the owning shard's breaker is
      open (:class:`~repro.serving.router.ShardRouter`).
    """

    OK = "ok"
    DEGRADED = "degraded"
    SHED = "shed"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    CIRCUIT_OPEN = "circuit_open"


@dataclass(frozen=True)
class ServingConfig:
    """Gateway sizing and robustness knobs.

    Attributes:
        workers: requests executing at once (each on its caller's thread).
        queue_depth: callers allowed to wait for an execution slot;
            past that, requests shed.
        default_deadline_seconds: budget applied to requests that do not
            carry their own (``None`` = unlimited).
        stats_window: ring-buffer size for latency percentiles.
        min_service_seconds: artificial per-request service-time floor.
            Zero in production; overload benchmarks and tests raise it
            to create deterministic admission pressure.
    """

    workers: int = 4
    queue_depth: int = 32
    default_deadline_seconds: Optional[float] = None
    stats_window: int = 1024
    min_service_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")


@dataclass(frozen=True)
class CubeSnapshot:
    """One immutable generation of the served cube."""

    generation: int
    tabula: Tabula
    path: Optional[str] = None


@dataclass
class ServingResponse:
    """One request's disposal: the answer (if any) plus both statuses."""

    outcome: ServingOutcome
    guarantee: GuaranteeStatus
    source: str
    sample: Optional[Table]
    cell: object
    generation: int
    elapsed_seconds: float
    detail: str = ""
    spatial_filtered: bool = False
    #: Durable-but-unapplied ingest batches at answer time (0 = fully
    #: fresh, or no ingest pipeline attached). A lagging maintainer
    #: keeps serving the pre-append snapshot; this makes the staleness
    #: visible per response instead of silent.
    staleness_batches: int = 0

    @property
    def answered(self) -> bool:
        """Whether ``sample`` carries a usable (possibly degraded) answer."""
        return self.sample is not None and self.outcome in (
            ServingOutcome.OK,
            ServingOutcome.DEGRADED,
            ServingOutcome.CIRCUIT_OPEN,
        )


@dataclass(frozen=True)
class ReloadResult:
    """Outcome of one :meth:`ServingGateway.reload` attempt."""

    ok: bool
    generation: int
    path: str
    error: str = ""


class ServingGateway:
    """Query gateway with admission control, deadlines and reload.

    Usage::

        gateway = ServingGateway.from_cube_file("cube.json", raw_table)
        with gateway:
            response = gateway.query({"payment_type": "cash"},
                                     deadline_seconds=0.05)

    Every request runs on the thread that calls :meth:`query`; the
    gateway owns no threads. ``close()`` (or the context manager) stops
    admitting requests. A gateway constructed from a cube *file*
    supports :meth:`reload`.
    """

    def __init__(
        self,
        tabula: Tabula,
        config: Optional[ServingConfig] = None,
        cube_path: Union[str, Path, None] = None,
        registry: Optional[Any] = None,
        transform: Optional[Callable[[Tabula], Tabula]] = None,
    ) -> None:
        self.config = config or ServingConfig()
        self._registry = registry
        # Applied to every (re)loaded cube before it starts serving —
        # the sharded tier slices the store to this worker's cells here
        # (see repro.serving.placement.shard_transform), and hot reload
        # re-applies it so a swapped-in cube is re-sliced too.
        self._transform = transform
        if transform is not None:
            tabula = transform(tabula)
        # Swapped atomically under the reload lock; readers pin a
        # reference without locking (immutable snapshot generations).
        self._snapshot = CubeSnapshot(  # guard-writes: _reload_lock
            generation=1,
            tabula=tabula,
            path=str(cube_path) if cube_path is not None else None,
        )
        self._slots = threading.BoundedSemaphore(self.config.workers)
        self._stats_lock = create_lock("gateway._stats_lock")
        self._counters: Dict[str, int] = {o.value: 0 for o in ServingOutcome}  # guard: _stats_lock
        self._errors = 0  # guard: _stats_lock
        # Callers executing or waiting for one of the ``workers`` slots.
        self._admitted = 0  # guard: _stats_lock
        self._requests_total = 0  # guard: _stats_lock
        self._latencies: Deque[float] = deque(maxlen=self.config.stats_window)  # guard: _stats_lock
        self._reloads = {"attempted": 0, "succeeded": 0, "failed": 0}  # guard: _stats_lock
        self._last_reload_error = ""  # guard: _stats_lock
        self._reload_lock = create_lock("gateway._reload_lock")
        # Bound once at setup (attach_ingestor) before serving starts;
        # read-only afterwards, so responses can stamp ingest staleness
        # without any lock.
        self.ingestor: Optional[Any] = None
        self._closed = False

    @classmethod
    def from_cube_file(
        cls,
        path: Union[str, Path],
        table: Table,
        registry: Optional[Any] = None,
        config: Optional[ServingConfig] = None,
        transform: Optional[Callable[[Tabula], Tabula]] = None,
    ) -> "ServingGateway":
        """Boot a gateway from a persisted cube (restart recovery path)."""
        from repro.core.persistence import load_cube

        tabula = load_cube(path, table, registry=registry)
        return cls(
            tabula, config=config, cube_path=path, registry=registry, transform=transform
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def query(
        self,
        where: WhereClause,
        deadline_seconds: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        geometry: Optional[spatial.GeometrySpec] = None,
    ) -> ServingResponse:
        """One dashboard request: a batch of one through :meth:`query_many`."""
        return self.query_many([where], deadline_seconds, deadline, geometry)[0]

    def query_many(
        self,
        wheres: Iterable[WhereClause],
        deadline_seconds: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        geometry: Optional[spatial.GeometrySpec] = None,
    ) -> List[ServingResponse]:
        """Admit, execute and disposition a batch of requests as one unit.

        The batch runs on the caller's thread through
        :meth:`Tabula.query_many` under one execution slot and one
        snapshot pin. The deadline covers the batch as a whole.
        Admission is all-or-nothing: when ``workers`` callers execute
        and ``queue_depth`` more wait, every item is shed (per-item
        admission would reorder outcomes).

        A full gateway sheds immediately, and a caller waits for a slot
        no longer than its deadline. Once the batch holds a slot it is
        not abandoned: the deadline is checked before any work and
        inside ``Tabula.query``, which skips a degraded cell's rebind
        scan once the budget is spent.

        ``geometry`` is one viewport shared by the whole batch, parsed
        *before* admission, so a malformed viewport raises TAB701
        without occupying a slot or polluting the error counters —
        it is a client mistake, not a serving failure.

        Returns one :class:`ServingResponse` per input, in order.
        Counters treat the batch as ``len(wheres)`` requests.

        Raises:
            TabulaError: the gateway is closed, or a request itself is
                invalid (``InvalidQueryError`` from the query path).
        """
        if self._closed:
            raise TabulaError("serving gateway is closed")
        geom = spatial.parse_geometry(geometry) if geometry is not None else None
        wheres = list(wheres)
        if not wheres:
            return []
        started = time.perf_counter()
        if deadline is None:
            seconds = (
                deadline_seconds
                if deadline_seconds is not None
                else self.config.default_deadline_seconds
            )
            if seconds is not None:
                deadline = Deadline.after(seconds)
        capacity = self.config.workers + self.config.queue_depth
        with self._stats_lock:
            admitted = self._admitted < capacity
            if admitted:
                self._admitted += 1
        if not admitted:
            detail = (
                f"admission full ({self.config.workers} executing, "
                f"{self.config.queue_depth} waiting); batch of {len(wheres)} shed"
            )
            return self._disposed(ServingOutcome.SHED, started, detail, len(wheres))
        try:
            timeout = deadline.remaining() if deadline is not None else None
            if not self._slots.acquire(timeout=timeout):
                detail = "deadline expired while waiting for an execution slot"
                return self._disposed(
                    ServingOutcome.DEADLINE_EXCEEDED, started, detail, len(wheres)
                )
            try:
                snapshot = self._snapshot  # pin a generation for this request
                fault_point(FP_EXECUTE)
                if self.config.min_service_seconds:
                    time.sleep(self.config.min_service_seconds)
                if deadline is not None:
                    deadline.check("before executing")
                results = snapshot.tabula.query_many(wheres, deadline=deadline, geometry=geom)
            finally:
                self._slots.release()
        except DeadlineExceeded as exc:
            return self._disposed(
                ServingOutcome.DEADLINE_EXCEEDED, started, str(exc), len(wheres)
            )
        except Exception:
            with self._stats_lock:
                self._errors += 1
                self._requests_total += len(wheres)
            raise
        finally:
            with self._stats_lock:
                self._admitted -= 1
        return [self._answered(result, snapshot.generation, started) for result in results]

    def _answered(
        self, result: QueryResult, generation: int, started: float
    ) -> ServingResponse:
        outcome = (
            ServingOutcome.OK
            if result.guarantee is GuaranteeStatus.CERTIFIED
            else ServingOutcome.DEGRADED
        )
        elapsed = time.perf_counter() - started
        # Stamped before taking the stats lock: staleness_batches()
        # takes the ingestor's own state lock and must not nest inside
        # _stats_lock.
        staleness = (
            self.ingestor.staleness_batches() if self.ingestor is not None else 0
        )
        with self._stats_lock:
            self._counters[outcome.value] += 1
            self._requests_total += 1
            self._latencies.append(elapsed)
        return ServingResponse(
            outcome=outcome,
            guarantee=result.guarantee,
            source=result.source,
            sample=result.sample,
            cell=result.cell,
            generation=generation,
            elapsed_seconds=elapsed,
            detail=result.detail,
            spatial_filtered=result.spatial_filtered,
            staleness_batches=staleness,
        )

    def _disposed(
        self, outcome: ServingOutcome, started: float, detail: str, count: int
    ) -> List[ServingResponse]:
        """Disposition ``count`` unanswered requests as one atomic unit.

        The whole batch is counted under a single stats-lock
        acquisition: a concurrent ``stats()`` reader sees either none
        or all of a shed batch, never a torn prefix — per-item
        increments let a reader observe ``shed`` counts that no
        admission decision ever produced, which breaks the serving
        bench's accounting gate.
        """
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._counters[outcome.value] += count
            self._requests_total += count
        generation = self._snapshot.generation
        return [
            ServingResponse(
                outcome=outcome,
                guarantee=GuaranteeStatus.VOID,
                source="",
                sample=None,
                cell=None,
                generation=generation,
                elapsed_seconds=elapsed,
                detail=detail,
            )
            for _ in range(count)
        ]

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload(self, path: Union[str, Path, None] = None) -> ReloadResult:
        """Atomically swap in a (verified) replacement cube file.

        The replacement is read, audited and fully loaded *before* the
        swap (one ``load_cube``); any corruption or load failure rolls
        back — the previous snapshot keeps serving and the attempt is
        recorded in :meth:`stats`. In-flight requests finish on the
        generation they pinned.

        Refused (``ok=False``) while an ingest pipeline is attached: the
        pipeline keeps applying to the instance it was built on, and a
        file that predates its batches would pair an old store with the
        grown table.
        """
        from repro.core.persistence import load_cube

        with self._reload_lock:
            target = str(path) if path is not None else self._snapshot.path
            if target is None:
                raise TabulaError(
                    "this gateway was not built from a cube file; pass an "
                    "explicit path to reload from"
                )
            with self._stats_lock:
                self._reloads["attempted"] += 1
            if self.ingestor is not None:
                return self._reload_failed(
                    target,
                    f"refused: ingest pipeline {type(self.ingestor).__name__} is "
                    "attached and applies to the served instance; restart the "
                    "server to serve another cube file",
                )
            try:
                tabula = load_cube(target, self._snapshot.tabula.table, registry=self._registry)
                if self._transform is not None:
                    tabula = self._transform(tabula)
            except TabulaError as exc:
                return self._reload_failed(target, f"load failed: {exc}")
            fault_point(FP_RELOAD_SWAP)
            new = CubeSnapshot(
                generation=self._snapshot.generation + 1,
                tabula=tabula,
                path=target,
            )
            self._snapshot = new  # atomic reference swap; readers pin
            with self._stats_lock:
                self._reloads["succeeded"] += 1
                self._last_reload_error = ""
            return ReloadResult(ok=True, generation=new.generation, path=target)

    def _reload_failed(self, target: str, error: str) -> ReloadResult:
        with self._stats_lock:
            self._reloads["failed"] += 1
            self._last_reload_error = error
        return ReloadResult(
            ok=False,
            generation=self._snapshot.generation,
            path=target,
            error=f"reload rolled back, generation "
            f"{self._snapshot.generation} still serving: {error}",
        )

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def attach_ingestor(self, ingestor: Any) -> None:
        """Bind an ingest pipeline: a :class:`~repro.ingest.stream.StreamIngestor`,
        or a shard worker's :class:`~repro.serving.shard_worker.WorkerIngest`.

        Once attached, every answered response is stamped with the
        pipeline's current ``staleness_batches``, :meth:`stats` grows
        an ``ingest`` block (watermarks + counters) and :meth:`reload`
        refuses. Attach during setup, before traffic — the reference is
        read without a lock on the hot path.
        """
        self.ingestor = ingestor

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._snapshot.generation

    @property
    def tabula(self) -> Tabula:
        """The currently served snapshot's middleware instance."""
        return self._snapshot.tabula

    @property
    def healthy(self) -> bool:
        """Liveness: the process accepts work (even if it must shed)."""
        return not self._closed

    @property
    def ready(self) -> bool:
        """Readiness: the gateway is open and a cube snapshot is loaded."""
        return not self._closed and self._snapshot is not None

    def stats(self) -> Dict[str, object]:
        """Counters for the ``/stats`` endpoint and the serving bench."""
        with self._stats_lock:
            latencies = sorted(self._latencies)
            counters = dict(self._counters)
            waiting = max(0, self._admitted - self.config.workers)
            stats: Dict[str, object] = {
                "requests_total": self._requests_total,
                "outcomes": counters,
                "errors": self._errors,
                "reloads": dict(self._reloads),
                "last_reload_error": self._last_reload_error,
            }
        stats.update(
            {
                "generation": self._snapshot.generation,
                "queue_depth": self.config.queue_depth,
                "queued_now": waiting,
                "workers": self.config.workers,
                "latency_seconds": _percentiles(latencies),
            }
        )
        if self.ingestor is not None:
            # Outside _stats_lock: the ingestor takes its own state lock.
            stats["ingest"] = self.ingestor.stats()
        return stats

    def close(self) -> None:
        """Stop admitting requests; those already admitted finish."""
        self._closed = True

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    if not latencies:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def at(q: float) -> float:
        index = min(len(latencies) - 1, int(round(q * (len(latencies) - 1))))
        return latencies[index]

    return {
        "count": len(latencies),
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "max": latencies[-1],
    }
