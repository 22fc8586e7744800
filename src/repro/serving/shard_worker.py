"""Shard-worker entrypoint: one :class:`ServingGateway` over one cube shard.

Run as ``python -m repro.serving.shard_worker`` — this is the argv the
supervisor spawns.  The worker loads the full cube file, applies
:func:`~repro.serving.placement.shard_transform` so its store holds only
the cells it owns (global sample replicated, foreign cells degraded),
binds an ephemeral TCP port, and prints exactly one JSON handshake line
to stdout::

    {"event": "ready", "shard": 0, "pid": 12345, "port": 41234}

after which stdout stays silent (diagnostics go to stderr) and the
worker speaks the length-prefixed JSON protocol of
:mod:`repro.serving.wire`, one thread per router connection.

Chaos instrumentation: two fault points (armed cross-process via
``REPRO_FAULTS`` — :func:`repro.resilience.faults.arm_from_env`) let
tests hang a worker mid-request or make it miss heartbeats, and an
:class:`~repro.resilience.faults.InjectedCrash` anywhere in a handler
takes the whole process down with ``os._exit`` — a simulated kill must
never be reduced to one dead thread.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.maintenance import append_rows
from repro.core.persistence import loss_registry, open_cube
from repro.core.tabula import Tabula
from repro.engine.table import Table
from repro.errors import TabulaError
from repro.ingest.stream import recover_ingest
from repro.ingest.wal import IngestWAL, WalBatch
from repro.resilience.deadline import Deadline
from repro.resilience.faults import (
    InjectedCrash,
    arm_from_env,
    fault_point,
    register_fault_point,
)
from repro.resilience.journal import MaintenanceJournal
from repro.serving import wire
from repro.serving.gateway import ServingConfig, ServingGateway
from repro.serving.placement import Placement, shard_transform

__all__ = ["FP_HANDLE", "FP_HEALTH", "ShardWorker", "WorkerIngest", "main"]

FP_HANDLE = register_fault_point(
    "shard.worker.handle",
    "request decoded on a shard worker, gateway not yet consulted "
    "(SlowIO here hangs the worker mid-request; CrashPoint kills it)",
)
FP_HEALTH = register_fault_point(
    "shard.worker.health",
    "before a shard worker answers a supervisor health probe "
    "(SlowIO here makes a live worker miss heartbeats)",
)

#: Exit code for an injected crash — distinguishable from clean exits
#: and from signal deaths in supervisor restart reasons.
CRASH_EXIT_CODE = 17


class WorkerIngest:
    """Synchronous WAL→journal ingest for one shard worker.

    Deliberately *not* the background-threaded
    :class:`~repro.ingest.stream.StreamIngestor`: the apply runs on the
    connection-handler thread, so an :class:`InjectedCrash` at any
    maintenance fault point propagates into the handler's crash path
    and takes the whole process down with ``os._exit`` — exactly the
    kill-mid-``append_rows`` a chaos test simulates. Crash safety is
    the same contract either way: the batch is WAL-durable before the
    apply starts, and the supervisor-restarted worker replays it via
    :func:`~repro.ingest.stream.recover_ingest` before serving again.
    """

    def __init__(
        self,
        tabula: Tabula,
        wal_path: Union[str, Path],
        journal_path: Union[str, Path],
    ) -> None:
        self.tabula = tabula
        self.wal = IngestWAL(wal_path)
        self.journal = MaintenanceJournal(journal_path)
        if Path(wal_path).exists():
            self._seq = self.wal.read_batches().max_seq
        else:
            self.wal.write_open(tabula.table.num_rows)
            self._seq = 0
        # A plain lock on purpose (same policy as tabula.write_lock):
        # the WAL fsync *must* happen inside it so WAL order matches
        # apply order, and the runtime sanitizer only audits
        # create_lock-managed locks for blocking calls.
        self._lock = threading.Lock()

    def ingest(self, rows: Table, seed: Optional[int] = None) -> int:
        """Durably log then journal-apply one batch; returns its seq."""
        with self._lock:
            self._seq += 1
            batch = WalBatch(
                seq=self._seq, seed=self._seq if seed is None else seed, rows=rows
            )
            self.wal.append_batches([batch])
            append_rows(self.tabula, rows, seed=batch.seed, journal=self.journal)
            return batch.seq

    def watermarks(self) -> Dict[str, int]:
        """Shape-compatible with StreamIngestor.watermarks (no lag: the
        apply is synchronous, so durable == applied here)."""
        with self._lock:
            seq = self._seq
        return {
            "submitted_seq": seq,
            "durable_seq": seq,
            "applied_seq": seq,
            "lag_batches": 0,
            "queued_batches": 0,
            "queued_rows": 0,
        }

    def staleness_batches(self) -> int:
        """Always 0: an answer never trails an acknowledged batch here."""
        return 0

    def stats(self) -> Dict[str, object]:
        """The ``ingest`` block of the gateway's stats."""
        return {"watermarks": self.watermarks(), "failure": ""}


class ShardWorker:
    """Socket server fronting one shard's gateway (thread per connection)."""

    def __init__(
        self,
        gateway: ServingGateway,
        shard_id: int,
        num_shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._gateway = gateway
        self.shard_id = shard_id
        self.num_shards = num_shards
        self._listener = socket.create_server((host, port))
        self.port = int(self._listener.getsockname()[1])
        self._closed = threading.Event()

    def serve_forever(self) -> None:
        """Accept router connections until :meth:`close`."""
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by a concurrent shutdown
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._gateway.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = wire.recv_message(conn)
                except (ConnectionError, OSError):
                    return
                try:
                    reply = self._handle(request)
                except InjectedCrash:
                    # A simulated kill takes the whole worker, abruptly:
                    # no reply, no cleanup — the router sees a reset
                    # connection and the supervisor sees a dead process.
                    os._exit(CRASH_EXIT_CODE)
                except TabulaError as exc:
                    reply = {"ok": False, "kind": "invalid", "error": str(exc)}
                except OSError:
                    # Injected partition: drop the connection without a
                    # reply so the router exercises its retry path.
                    return
                except Exception as exc:  # never let a handler bug kill the loop
                    reply = {
                        "ok": False,
                        "kind": "internal",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                try:
                    wire.send_message(conn, reply)
                except (ConnectionError, OSError):
                    return
                if request.get("op") == "shutdown":
                    self.close()
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "query":
            fault_point(FP_HANDLE)
            deadline = _deadline_from(request)
            wheres = [dict(w) for w in request.get("wheres") or []]
            responses = self._gateway.query_many(
                wheres, deadline=deadline, geometry=request.get("geometry")
            )
            limit = _row_limit(request)
            return {
                "ok": True,
                "responses": [
                    wire.response_to_wire(r, row_limit=limit) for r in responses
                ],
            }
        if op == "health":
            # Answered without gateway admission: an overloaded-but-alive
            # worker must still pass liveness.
            fault_point(FP_HEALTH)
            return {
                "ok": True,
                "shard": self.shard_id,
                "pid": os.getpid(),
                "ready": self._gateway.ready,
                "generation": self._gateway.generation,
            }
        if op == "ingest":
            fault_point(FP_HANDLE)
            ingest = self._gateway.ingestor
            if ingest is None:
                return {
                    "ok": False,
                    "kind": "invalid",
                    "error": "this worker was started without --ingest-dir",
                }
            rows = wire.table_from_wire(request.get("rows"))
            if rows is None or rows.num_rows == 0:
                return {"ok": True, "shard": self.shard_id, "seq": 0, "rows": 0}
            seed = request.get("seed")
            seq = ingest.ingest(rows, None if seed is None else int(seed))
            return {
                "ok": True,
                "shard": self.shard_id,
                "seq": seq,
                "rows": rows.num_rows,
                "watermarks": ingest.watermarks(),
            }
        if op == "stats":
            return {"ok": True, "shard": self.shard_id, "stats": self._gateway.stats()}
        if op == "reload":
            result = self._gateway.reload(request.get("path"))
            return {
                "ok": result.ok,
                "generation": result.generation,
                "path": result.path,
                "error": result.error,
            }
        if op == "shutdown":
            return {"ok": True}
        return {"ok": False, "kind": "invalid", "error": f"unknown op {op!r}"}


def _deadline_from(request: Mapping[str, Any]) -> Optional[Deadline]:
    """Rebuild the router's deadline from the remaining budget it sent.

    Deadlines are monotonic-clock objects and cannot cross a process
    boundary; the router serializes ``deadline.remaining()`` at send
    time and the worker restarts the countdown here.  Network transit
    time is therefore *not* charged to the worker — the router's own
    copy of the deadline still bounds the overall request.
    """
    seconds = request.get("deadline_seconds")
    if seconds is None:
        return None
    return Deadline.after(float(seconds))


def _row_limit(request: Mapping[str, Any]) -> Optional[int]:
    limit = request.get("row_limit")
    return None if limit is None else int(limit)


def build_worker(args: argparse.Namespace) -> ShardWorker:
    tabula = open_cube(args.cube, args.table, args.loss_sql)
    ingest_dir = Path(args.ingest_dir) if getattr(args, "ingest_dir", None) else None
    if ingest_dir is not None:
        ingest_dir.mkdir(parents=True, exist_ok=True)
        wal_path = ingest_dir / f"shard{args.shard}.wal"
        journal_path = ingest_dir / f"shard{args.shard}.journal"
        recover_ingest(tabula, wal_path, journal_path)
    gateway = ServingGateway(
        tabula,
        config=ServingConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            default_deadline_seconds=args.deadline,
            min_service_seconds=args.min_service_seconds,
        ),
        cube_path=args.cube,
        registry=loss_registry(args.loss_sql),
        transform=shard_transform(Placement(args.num_shards, vnodes=args.vnodes), args.shard),
    )
    if ingest_dir is not None:
        # Attached, the pipeline also makes the gateway refuse hot reload.
        gateway.attach_ingestor(WorkerIngest(gateway.tabula, wal_path, journal_path))
    return ShardWorker(gateway, args.shard, args.num_shards, host=args.host, port=args.port)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serving.shard_worker",
        description="One supervised shard of the sharded serving tier",
    )
    parser.add_argument("--cube", required=True, help="cube file (full; sliced on load)")
    parser.add_argument("--table", required=True, help="raw table CSV")
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--num-shards", type=int, required=True)
    parser.add_argument("--vnodes", type=int, default=64)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--min-service-seconds", type=float, default=0.0)
    parser.add_argument("--loss-sql", default=None)
    parser.add_argument(
        "--ingest-dir",
        default=None,
        help="directory for this shard's ingest WAL + maintenance journal; "
        "enables the 'ingest' wire op (and WAL replay on restart)",
    )
    args = parser.parse_args(argv)

    # Arm after imports so every instrumented module has registered its
    # fault points (arming an unknown point is a loud error).
    arm_from_env()
    worker = build_worker(args)
    print(
        json.dumps(
            {
                "event": "ready",
                "shard": worker.shard_id,
                "pid": os.getpid(),
                "port": worker.port,
            }
        ),
        flush=True,
    )
    print(
        f"shard {worker.shard_id}/{worker.num_shards} serving on "
        f"{args.host}:{worker.port} (pid {os.getpid()})",
        file=sys.stderr,
    )
    try:
        worker.serve_forever()
    finally:
        worker.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
