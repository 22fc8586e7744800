"""Health-checked shard router: retry, failover, degrade — never 500.

The router is the dashboard-facing face of the sharded tier.  It speaks
the same surface as :class:`~repro.serving.gateway.ServingGateway`
(``query`` / ``query_many`` / ``stats`` / ``reload`` / ``healthy`` /
``ready`` / ``close``), so :func:`repro.serving.http.make_server` binds
to either, and disposes every request down a strict ladder:

1. **Owner shard** — placement-hashed worker RPC, gated by a per-shard
   :class:`~repro.serving.breaker.CircuitBreaker`, with jittered-backoff
   retries on connection errors (reads are idempotent).
2. **Failover replicas** — the next UP shards in the cell's
   deterministic ring order.  A replica does not hold the cell's local
   sample, so its answer is the replicated global sample, honestly
   labelled ``DOWNGRADED`` by the shard-sliced store itself.
3. **Local fallback** — the router's own zero-shard cube slice (global
   sample only).  This rung cannot be down; it is why a worker kill
   yields DOWNGRADED answers, not 500s.

The monotone-degradation invariant is structural: rung 2 and 3 stores
*cannot* produce a CERTIFIED answer for a foreign iceberg cell (the
slice degraded those cells at load), so a dead shard's cells can only
move down the ladder, never silently re-certify.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core import spatial
from repro.core.tabula import GuaranteeStatus, Tabula
from repro.errors import DeadlineExceeded, TabulaError
from repro.resilience.deadline import Deadline
from repro.resilience.faults import fault_point, register_fault_point
from repro.sanitizer import create_lock
from repro.serving import wire
from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.serving.gateway import ReloadResult, ServingOutcome, ServingResponse
from repro.serving.placement import Placement, shard_transform
from repro.serving.supervisor import ShardSupervisor

__all__ = ["FP_CONNECT", "RouterConfig", "ShardRouter"]

FP_CONNECT = register_fault_point(
    "router.shard.connect",
    "before the router dials a shard worker "
    "(IOFault here simulates a network partition to that shard)",
)

WhereClause = Mapping[str, object]

#: Reply-shaped reasons a shard rung yields nothing.
_REASON_BREAKER = "breaker_open"
_REASON_UNREACHABLE = "unreachable"
_REASON_DEADLINE = "deadline"


@dataclass(frozen=True)
class RouterConfig:
    """Routing policy: retries, failover, per-shard breakers."""

    #: extra attempts per shard on connection errors (reads are idempotent).
    retries: int = 1
    retry_backoff_seconds: float = 0.05
    #: jitter fraction on the retry backoff (de-synchronizes retriers).
    retry_jitter: float = 0.5
    #: how many replica shards to try after the owner (ring order).
    failover_attempts: int = 1
    #: per-RPC socket timeout when the request carries no deadline.
    rpc_timeout_seconds: float = 2.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: truncate sample payloads to this many rows on the wire (None = all).
    wire_row_limit: Optional[int] = None
    #: connections kept pooled per shard.
    pool_size: int = 4
    seed: int = 0


class ShardRouter:
    """Routes dashboard queries across supervised shard workers."""

    def __init__(
        self,
        supervisor: ShardSupervisor,
        placement: Placement,
        fallback: Tabula,
        config: Optional[RouterConfig] = None,
        cube_path: Union[str, Path, None] = None,
        registry: Optional[Any] = None,
        own_supervisor: bool = True,
    ) -> None:
        """
        Args:
            fallback: the router's local cube, already passed through
                ``shard_transform(placement, None)`` — owns no cells, so
                every iceberg cell answers DOWNGRADED from the global
                sample.  This rung cannot fail while the process lives.
            own_supervisor: stop the supervisor on :meth:`close`.
        """
        self.supervisor = supervisor
        self.placement = placement
        self.config = config or RouterConfig()
        self._fallback = fallback  # guard-writes: _reload_lock
        self._cube_path = str(cube_path) if cube_path is not None else None
        self._registry = registry
        self._own_supervisor = own_supervisor
        self._breakers: Dict[int, CircuitBreaker] = {
            shard: CircuitBreaker(self.config.breaker)
            for shard in range(placement.num_shards)
        }
        self._pool_lock = create_lock("router._pool_lock")
        self._pools: Dict[int, List[socket.socket]] = {  # guard: _pool_lock
            shard: [] for shard in range(placement.num_shards)
        }
        self._stats_lock = create_lock("router._stats_lock")
        self._counters: Dict[str, int] = {o.value: 0 for o in ServingOutcome}  # guard: _stats_lock
        self._requests_total = 0  # guard: _stats_lock
        self._rpc_counters = {  # guard: _stats_lock
            "attempts": 0,
            "retries": 0,
            "failovers": 0,
            "fallback_local": 0,
            "errors": 0,
        }
        self._reload_lock = create_lock("router._reload_lock")
        self._generation = 1  # guard-writes: _reload_lock
        self._rng = random.Random(self.config.seed)
        self._closed = False

    # ------------------------------------------------------------------
    # Gateway-shaped surface
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self._closed

    @property
    def ready(self) -> bool:
        # The local fallback rung always answers, so a booted router is
        # ready even while workers restart (answers are just DOWNGRADED).
        return not self._closed

    @property
    def generation(self) -> int:
        return self._generation

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._pool_lock:
            pooled = [conn for pool in self._pools.values() for conn in pool]
            for pool in self._pools.values():
                pool.clear()
        for conn in pooled:
            _close_quietly(conn)
        if self._own_supervisor:
            self.supervisor.stop()

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
        """Route a batch: group by shard ladder, one RPC per group and rung.

        Items whose cells share an owner and failover replicas travel
        together down the owner → replica → local ladder
        (:meth:`_route_group`), so one dead shard degrades only its own
        group, never the whole batch. ``geometry`` is one viewport
        shared by every item.

        Raises only for caller bugs (closed router, invalid query or
        malformed geometry — mapped to HTTP 400 upstream; both are
        checked for the whole batch *before* any RPC).  Worker death,
        partitions and open breakers all come back as typed responses;
        there is no failure mode that surfaces as an unhandled exception
        / HTTP 500 while the local fallback rung exists.
        """
        if self._closed:
            raise TabulaError("shard router is closed")
        geom = spatial.parse_geometry(geometry) if geometry is not None else None
        batch = [dict(w) for w in wheres]
        if not batch:
            return []
        started = time.perf_counter()
        if deadline is None and deadline_seconds is not None:
            deadline = Deadline.after(deadline_seconds)
        rungs = 1 + max(0, self.config.failover_attempts)
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for index, where in enumerate(batch):
            cell = self._fallback.cell_for(where)  # raises InvalidQueryError → 400
            ladder = tuple(self.placement.fallback_order(cell)[:rungs])
            groups.setdefault(ladder, []).append(index)
        results: Dict[int, ServingResponse] = {}
        for ladder, indices in groups.items():
            responses = self._route_group(ladder, [batch[i] for i in indices], geom, deadline)
            results.update(zip(indices, responses))
        return [self._finish(results[index], started) for index in range(len(batch))]

    def _route_group(
        self,
        ladder: Tuple[int, ...],
        wheres: List[Dict[str, Any]],
        geometry: Optional[spatial.Geometry],
        deadline: Optional[Deadline],
    ) -> List[ServingResponse]:
        """The routing ladder for items sharing ``ladder`` (owner first).

        Owner shard, then its ring-order replicas, then the router's own
        slice; the first rung that answers the whole group wins.
        """
        payload: Dict[str, Any] = {
            "op": "query",
            "wheres": [_plain_where(w) for w in wheres],
            "row_limit": self.config.wire_row_limit,
        }
        if geometry is not None:
            payload["geometry"] = geometry.to_dict()
        notes: List[str] = []
        owner_reason = ""
        for rung, shard in enumerate(ladder):
            if rung:
                if deadline is not None and deadline.expired:
                    break
                self._count_rpc("failovers")
            reply, reason = self._call_shard(shard, payload, deadline=deadline)
            if rung == 0:
                owner_reason = reason
            responses = self._responses_from_reply(reply, shard, len(wheres), notes)
            if responses is not None:
                for response in responses:
                    response.detail = _join_detail(response.detail, notes)
                return responses
        return [
            self._local_answer(where, deadline, notes, owner_reason, geometry=geometry)
            for where in wheres
        ]

    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            counters = dict(self._counters)
            total = self._requests_total
            rpc = dict(self._rpc_counters)
        return {
            "requests_total": total,
            "outcomes": counters,
            "errors": 0,
            "rpc": rpc,
            "num_shards": self.placement.num_shards,
            "generation": self._generation,
            "shards": self.shard_health(),
        }

    def shard_health(self) -> Dict[str, Dict[str, Any]]:
        """Supervisor view merged with the router's per-shard breakers."""
        merged: Dict[str, Dict[str, Any]] = {}
        for shard, document in self.supervisor.health().items():
            document["router_breaker"] = self._breakers[shard].snapshot()
            merged[str(shard)] = document
        return merged

    def shard_stats(self, timeout: float = 2.0) -> Dict[str, Any]:
        """Per-worker gateway stats via RPC (bench per-shard accounting)."""
        collected: Dict[str, Any] = {}
        for shard in range(self.placement.num_shards):
            reply, reason = self._call_shard(
                shard, {"op": "stats"}, deadline=Deadline.after(timeout)
            )
            if reply is not None and reply.get("ok"):
                collected[str(shard)] = reply.get("stats")
            else:
                collected[str(shard)] = {"unavailable": reason or _REASON_UNREACHABLE}
        return collected

    def ingest_watermarks(self, timeout: float = 2.0) -> Dict[str, Any]:
        """Ingest watermark fan-in across ingest-enabled workers.

        Each worker runs its own pipeline with an independent sequence
        space, so the fleet view is the per-shard watermark dicts plus
        the *worst* staleness — the number a dashboard should render as
        "how far behind is the freshest possible answer". Unreachable
        shards and shards without an ingest pipeline are reported as
        such, never silently dropped. Not folded into :meth:`stats`
        (which must stay RPC-free on the request path) — callers that
        want fleet freshness ask for it explicitly.
        """
        shards: Dict[str, Any] = {}
        worst = 0
        enabled = 0
        for shard, stats in self.shard_stats(timeout=timeout).items():
            ingest = stats.get("ingest") if isinstance(stats, dict) else None
            if not isinstance(ingest, dict):
                reason = (
                    stats.get("unavailable", "no ingest pipeline")
                    if isinstance(stats, dict)
                    else "unavailable"
                )
                shards[shard] = {"enabled": False, "detail": reason}
                continue
            enabled += 1
            marks = dict(ingest.get("watermarks", {}))
            staleness = int(marks.get("lag_batches", 0))
            shards[shard] = {
                "enabled": True,
                "watermarks": marks,
                "failure": ingest.get("failure", ""),
            }
            worst = max(worst, staleness)
        return {
            "shards": shards,
            "ingest_enabled_shards": enabled,
            "max_staleness_batches": worst,
        }

    def reload(self, path: Union[str, Path, None] = None) -> ReloadResult:
        """Fan a hot reload out to every UP worker, then re-slice locally.

        Per-worker failures are collected, not raised: a worker that is
        down reloads anyway when the supervisor restarts it (workers
        load the cube file fresh on spawn). A worker that answers and
        refuses keeps serving its current cube (an ingest-enabled worker
        always refuses), so the router keeps its fallback and generation
        too rather than drift from it.
        """
        from repro.core.persistence import PersistenceError, load_cube

        target = str(path) if path is not None else self._cube_path
        if target is None:
            raise TabulaError(
                "this router was not built from a cube file; pass an "
                "explicit path to reload from"
            )
        errors: List[str] = []
        refused = False
        for shard in self.supervisor.up_shards():
            reply, reason = self._call_shard(shard, {"op": "reload", "path": target})
            if reply is None:
                errors.append(f"shard {shard}: {reason or _REASON_UNREACHABLE}")
            elif not reply.get("ok"):
                refused = True
                errors.append(f"shard {shard}: {reply.get('error')}")
        if not refused:
            try:
                tabula = load_cube(target, self._fallback.table, registry=self._registry)
                sliced = shard_transform(self.placement, None)(tabula)
            except (PersistenceError, TabulaError) as exc:
                errors.append(f"router fallback: {exc}")
            else:
                with self._reload_lock:
                    self._fallback = sliced
                    self._generation += 1
        return ReloadResult(
            ok=not errors,
            generation=self._generation,
            path=target,
            error="; ".join(errors),
        )

    # ------------------------------------------------------------------
    # Shard RPC with breaker / retry
    # ------------------------------------------------------------------
    def _call_shard(
        self,
        shard: int,
        payload: Mapping[str, Any],
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """One shard's reply, or ``(None, reason)`` when it cannot answer.

        Every ``allow()`` grant is resolved with exactly one
        ``record_success``/``record_failure`` (the half-open probe slot
        must never leak), and retries re-consult the breaker.
        """
        breaker = self._breakers[shard]
        attempts = 1 + max(0, self.config.retries)
        last_reason = _REASON_UNREACHABLE
        for attempt in range(attempts):
            if deadline is not None and deadline.expired:
                return None, _REASON_DEADLINE
            if not breaker.allow():
                return None, _REASON_BREAKER
            self._count_rpc("attempts")
            try:
                reply = self._rpc_once(shard, payload, deadline=deadline)
            except (OSError, ValueError) as exc:
                breaker.record_failure()
                self._count_rpc("errors")
                last_reason = f"{_REASON_UNREACHABLE}: {type(exc).__name__}: {exc}"
                if attempt + 1 < attempts:
                    self._count_rpc("retries")
                    self._sleep_backoff(attempt, deadline)
                continue
            breaker.record_success()
            return reply, ""
        return None, last_reason

    def _sleep_backoff(self, attempt: int, deadline: Optional[Deadline]) -> None:
        delay = self.config.retry_backoff_seconds * (2.0 ** attempt)
        delay *= 1.0 + self.config.retry_jitter * self._rng.random()
        if deadline is not None:
            delay = min(delay, max(0.0, deadline.remaining() - 0.001))
        if delay > 0:
            time.sleep(delay)

    def _rpc_once(
        self,
        shard: int,
        payload: Mapping[str, Any],
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, Any]:
        timeout = self._rpc_timeout(deadline)
        conn = self._checkout(shard)
        if conn is None:
            conn = self._connect(shard, timeout)
        message = dict(payload)
        if deadline is not None:
            # Serialize the *remaining* budget at send time; the worker
            # restarts the countdown on its own monotonic clock.
            message["deadline_seconds"] = deadline.remaining()
        try:
            conn.settimeout(timeout)
            wire.send_message(conn, message)
            reply = wire.recv_message(conn)
        except BaseException:
            _close_quietly(conn)
            raise
        self._checkin(shard, conn)
        return reply

    def _rpc_timeout(self, deadline: Optional[Deadline] = None) -> float:
        cap = self.config.rpc_timeout_seconds
        if deadline is None:
            return cap
        return max(0.001, min(cap, deadline.remaining()))

    def _connect(self, shard: int, timeout: float) -> socket.socket:
        endpoint = self.supervisor.endpoint(shard)
        if endpoint is None:
            raise ConnectionError(f"shard {shard} has no live worker")
        fault_point(FP_CONNECT)
        return socket.create_connection(endpoint, timeout=timeout)

    def _checkout(self, shard: int) -> Optional[socket.socket]:
        with self._pool_lock:
            pool = self._pools[shard]
            return pool.pop() if pool else None

    def _checkin(self, shard: int, conn: socket.socket) -> None:
        keep = False
        with self._pool_lock:
            pool = self._pools[shard]
            if not self._closed and len(pool) < self.config.pool_size:
                pool.append(conn)
                keep = True
        if not keep:
            _close_quietly(conn)

    # ------------------------------------------------------------------
    # Disposal
    # ------------------------------------------------------------------
    def _responses_from_reply(
        self,
        reply: Optional[Dict[str, Any]],
        shard: int,
        count: int,
        notes: List[str],
    ) -> Optional[List[ServingResponse]]:
        """Decode a query reply; ``None`` means "try the next rung"."""
        if reply is None:
            notes.append(f"shard {shard} unavailable")
            return None
        if not reply.get("ok"):
            if reply.get("kind") == "invalid":
                raise TabulaError(str(reply.get("error", "invalid request")))
            notes.append(f"shard {shard}: {reply.get('error', 'internal error')}")
            return None
        documents = reply.get("responses")
        if (
            not isinstance(documents, list)
            or len(documents) != count
            or not all(isinstance(document, dict) for document in documents)
        ):
            notes.append(f"shard {shard}: malformed reply")
            return None
        return [wire.response_from_wire(document) for document in documents]

    def _local_answer(
        self,
        where: WhereClause,
        deadline: Optional[Deadline],
        notes: List[str],
        owner_reason: str,
        geometry: Optional[spatial.Geometry] = None,
    ) -> ServingResponse:
        """The last rung: the router's own global-sample slice.

        The fallback store owns no cells, so an iceberg cell answers
        DOWNGRADED-global by construction — monotone degradation is a
        property of the store, not of this code path.  The geometry is
        passed through so a foreign-cell DOWNGRADED answer carries the
        *spatially filtered* global sample — a viewport query through
        this rung must never silently ignore its filter.
        """
        self._count_rpc("fallback_local")
        circuit_open = owner_reason == _REASON_BREAKER
        try:
            result = self._fallback.query(dict(where), deadline=deadline, geometry=geometry)
        except DeadlineExceeded as exc:
            return ServingResponse(
                outcome=ServingOutcome.DEADLINE_EXCEEDED,
                guarantee=GuaranteeStatus.VOID,
                source="",
                sample=None,
                cell=None,
                generation=self._generation,
                elapsed_seconds=0.0,
                detail=_join_detail(str(exc), notes),
            )
        if result.guarantee is GuaranteeStatus.CERTIFIED:
            outcome = ServingOutcome.OK
        elif circuit_open:
            outcome = ServingOutcome.CIRCUIT_OPEN
        else:
            outcome = ServingOutcome.DEGRADED
        sample = result.sample
        if self.config.wire_row_limit is not None and sample is not None:
            if sample.num_rows > self.config.wire_row_limit:
                sample = sample.head(self.config.wire_row_limit)
        return ServingResponse(
            outcome=outcome,
            guarantee=result.guarantee,
            source=result.source,
            sample=sample,
            cell=result.cell,
            generation=self._generation,
            elapsed_seconds=0.0,
            detail=_join_detail(result.detail, notes),
            spatial_filtered=result.spatial_filtered,
        )

    def _finish(self, response: ServingResponse, started: float) -> ServingResponse:
        response.elapsed_seconds = time.perf_counter() - started
        with self._stats_lock:
            self._counters[response.outcome.value] += 1
            self._requests_total += 1
        return response

    def _count_rpc(self, key: str) -> None:
        with self._stats_lock:
            self._rpc_counters[key] += 1

    def breaker_state(self, shard: int) -> BreakerState:
        return self._breakers[shard].state


def _plain_where(where: WhereClause) -> Dict[str, Any]:
    """JSON-safe copy of a WHERE mapping (numpy scalars → str)."""
    plain: Dict[str, Any] = {}
    for key, value in where.items():
        if value is None or isinstance(value, (str, int, float, bool)):
            plain[str(key)] = value
        else:
            plain[str(key)] = str(value)
    return plain


def _join_detail(detail: str, notes: List[str]) -> str:
    parts = [p for p in notes if p]
    if detail:
        parts = parts + [detail] if parts else [detail]
    return "; ".join(parts) if parts else detail


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass
