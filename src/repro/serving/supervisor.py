"""Supervision of shard-worker processes: spawn, probe, restart, park.

The supervisor owns one worker process per shard and runs a monitor
loop that walks a small deterministic state machine per worker::

    STOPPED ──start──▶ STARTING ──handshake──▶ UP
        UP ──exit code / probe misses──▶ BACKOFF ──delay elapsed──▶ STARTING
        BACKOFF ──crash-loop budget exhausted──▶ FAILED   (parked)

Death is detected two ways: ``poll()`` sees the process exit (crash,
kill -9, injected ``os._exit``), and a *liveness probe* — a ``health``
RPC over the worker's own serving socket — catches the subtler failure
of a hung-but-alive process (``liveness_misses`` consecutive probe
failures ⇒ kill and restart).  Restart delays follow deterministic
exponential backoff with seeded jitter (:func:`backoff_delay` is a pure
function, so tests assert the exact schedule), and a crash-loop budget
(> ``crash_loop_budget`` restarts inside ``crash_loop_window_seconds``)
parks the shard as FAILED instead of burning CPU on a poisoned cube —
the router then serves that shard's cells from the replicated global
sample indefinitely, which is the designed degradation, not an outage.

Everything effectful is injectable (worker factory, probe, clock), so
the unit tests drive the state machine with fakes and zero real
processes; the integration tests use :func:`default_worker_factory`.
"""

from __future__ import annotations

import enum
import json
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sanitizer import create_lock
from repro.serving import wire

__all__ = [
    "ShardSupervisor",
    "SupervisorConfig",
    "WorkerProcess",
    "WorkerSpawnError",
    "WorkerState",
    "backoff_delay",
    "default_worker_factory",
    "wire_health_probe",
]


class WorkerState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"
    UP = "up"
    BACKOFF = "backoff"
    FAILED = "failed"


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs (all deterministic given ``backoff_seed``)."""

    heartbeat_interval_seconds: float = 0.5
    heartbeat_timeout_seconds: float = 1.0
    #: consecutive probe failures before a live process is declared hung.
    liveness_misses: int = 3
    backoff_base_seconds: float = 0.2
    backoff_cap_seconds: float = 5.0
    #: jitter fraction: delay is scaled by 1 ± jitter (seeded, per-shard).
    backoff_jitter: float = 0.1
    backoff_seed: int = 0
    crash_loop_window_seconds: float = 30.0
    #: restarts tolerated inside the window before the shard is parked.
    crash_loop_budget: int = 5
    spawn_ready_timeout_seconds: float = 30.0


def backoff_delay(
    attempt: int,
    base: float,
    cap: float,
    jitter: float,
    seed: int,
    shard: int,
) -> float:
    """Deterministic exponential backoff with multiplicative jitter.

    ``attempt`` is 1-based; the raw delay is ``base * 2**(attempt-1)``
    capped at ``cap``, then scaled by a factor drawn uniformly from
    ``[1-jitter, 1+jitter]`` by a PRNG seeded with
    ``(seed, shard, attempt)`` — the same inputs always yield the same
    delay, so the restart schedule is assertable in tests while shards
    still de-synchronize from each other.
    """
    if attempt < 1:
        attempt = 1
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    if jitter <= 0.0:
        return delay
    rng = random.Random(f"{seed}:{shard}:{attempt}")
    return delay * (1.0 + jitter * (2.0 * rng.random() - 1.0))


class WorkerSpawnError(RuntimeError):
    """The worker process failed to produce its ready handshake."""


class WorkerProcess:
    """Structural interface of a spawned worker (satisfied by fakes).

    Only the members the supervisor touches: the serving ``port`` from
    the handshake, the ``pid``, and the ``Popen``-shaped lifecycle
    methods.
    """

    port: int

    @property
    def pid(self) -> int:
        raise NotImplementedError

    def poll(self) -> Optional[int]:
        raise NotImplementedError

    def terminate(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> int:
        raise NotImplementedError


class SpawnedWorker(WorkerProcess):
    """A real shard-worker subprocess plus its parsed ready handshake."""

    def __init__(self, process: "subprocess.Popen[str]", port: int) -> None:
        self._process = process
        self.port = port

    @property
    def pid(self) -> int:
        return self._process.pid

    def poll(self) -> Optional[int]:
        return self._process.poll()

    def terminate(self) -> None:
        self._process.terminate()

    def kill(self) -> None:
        self._process.kill()

    def wait(self, timeout: Optional[float] = None) -> int:
        return self._process.wait(timeout=timeout)


def default_worker_factory(
    worker_argv: Callable[[int], List[str]],
    ready_timeout_seconds: float = 30.0,
    env: Optional[Dict[str, str]] = None,
) -> Callable[[int], WorkerProcess]:
    """A factory spawning ``python -m repro.serving.shard_worker`` processes.

    ``worker_argv(shard)`` builds the full argv.  The factory blocks
    until the worker prints its one-line JSON ready handshake on stdout
    (a reader thread enforces ``ready_timeout_seconds`` — a wedged child
    is killed, not waited on forever).  ``env``, when given, *replaces*
    the inherited environment; chaos tests use it to arm in-worker
    faults via ``REPRO_FAULTS``.
    """

    def spawn(shard: int) -> WorkerProcess:
        process = subprocess.Popen(
            worker_argv(shard),
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics flow through to our stderr
            text=True,
            env=env,
        )
        lines: List[str] = []

        def read_handshake() -> None:
            stream = process.stdout
            if stream is not None:
                lines.append(stream.readline())

        reader = threading.Thread(target=read_handshake, daemon=True)
        reader.start()
        reader.join(ready_timeout_seconds)
        if not lines or not lines[0].strip():
            process.kill()
            code = process.poll()
            raise WorkerSpawnError(
                f"shard {shard} worker produced no ready handshake within "
                f"{ready_timeout_seconds}s (exit code {code})"
            )
        try:
            handshake = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            process.kill()
            raise WorkerSpawnError(
                f"shard {shard} worker handshake is not JSON: {lines[0]!r}"
            ) from exc
        if handshake.get("event") != "ready" or "port" not in handshake:
            process.kill()
            raise WorkerSpawnError(
                f"shard {shard} worker handshake malformed: {handshake!r}"
            )
        return SpawnedWorker(process, int(handshake["port"]))

    return spawn


def wire_health_probe(host: str, port: int, timeout: float) -> Dict[str, Any]:
    """One ``health`` RPC against a worker's serving socket."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.settimeout(timeout)
        wire.send_message(conn, {"op": "health"})
        return wire.recv_message(conn)


@dataclass
class _Handle:
    """Mutable per-shard supervision record (guarded by the supervisor lock)."""

    shard: int
    state: WorkerState = WorkerState.STOPPED
    process: Optional[WorkerProcess] = None
    port: Optional[int] = None
    restarts_total: int = 0
    probe_misses: int = 0
    backoff_until: float = 0.0
    recent_restarts: List[float] = field(default_factory=list)
    last_error: str = ""
    generation: int = 0


class ShardSupervisor:
    """Owns and supervises one worker process per shard."""

    def __init__(
        self,
        factory: Callable[[int], WorkerProcess],
        num_shards: int,
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        probe: Callable[[str, int, float], Dict[str, Any]] = wire_health_probe,
        host: str = "127.0.0.1",
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.config = config or SupervisorConfig()
        self._factory = factory
        self._clock = clock
        self._probe = probe
        self._host = host
        self._lock = create_lock("supervisor._lock")
        self._handles: Dict[int, _Handle] = {  # guard: _lock
            shard: _Handle(shard) for shard in range(num_shards)
        }
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every shard (concurrently) and start the monitor loop."""
        spawners = [
            threading.Thread(target=self._spawn_shard, args=(shard,))
            for shard in range(self.num_shards)
        ]
        for thread in spawners:
            thread.start()
        for thread in spawners:
            thread.join()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop monitoring, then shut every worker down (graceful → kill)."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
        with self._lock:
            stopping: List[Tuple[Optional[WorkerProcess], Optional[int]]] = [
                (handle.process, handle.port) for handle in self._handles.values()
            ]
            for handle in self._handles.values():
                handle.state = WorkerState.STOPPED
                handle.process = None
                handle.port = None
        for process, port in stopping:
            if process is None:
                continue
            if port is not None and process.poll() is None:
                try:
                    with socket.create_connection((self._host, port), timeout=0.5) as conn:
                        conn.settimeout(0.5)
                        wire.send_message(conn, {"op": "shutdown"})
                        wire.recv_message(conn)
                except (OSError, ValueError):
                    pass
            try:
                process.terminate()
                process.wait(timeout=2.0)
            except Exception:
                process.kill()
                try:
                    process.wait(timeout=2.0)
                except Exception:
                    pass

    # ------------------------------------------------------------------
    # Monitor loop
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.config.heartbeat_interval_seconds):
            try:
                self.poll_once()
            except Exception as exc:  # supervision must outlive any probe bug
                print(f"shard-supervisor: poll error: {exc}", file=sys.stderr)

    def poll_once(self) -> None:
        """One supervision sweep (public so tests drive it deterministically)."""
        with self._lock:
            sweep = [
                (h.shard, h.state, h.process, h.port, h.backoff_until)
                for h in self._handles.values()
            ]
        now = self._clock()
        for shard, state, process, port, backoff_until in sweep:
            if self._stop_event.is_set():
                return
            if state is WorkerState.BACKOFF and now >= backoff_until:
                self._spawn_shard(shard)
            elif state is WorkerState.UP and process is not None:
                exit_code = process.poll()
                if exit_code is not None:
                    self._record_crash(shard, f"worker exited with code {exit_code}")
                elif port is not None:
                    self._probe_shard(shard, port)

    def _spawn_shard(self, shard: int) -> None:
        with self._lock:
            self._handles[shard].state = WorkerState.STARTING
        try:
            worker = self._factory(shard)
        except Exception as exc:
            self._record_crash(shard, f"spawn failed: {exc}")
            return
        with self._lock:
            handle = self._handles[shard]
            if self._stop_event.is_set():
                handle.state = WorkerState.STOPPED
            else:
                handle.state = WorkerState.UP
            handle.process = worker
            handle.port = worker.port
            handle.probe_misses = 0
            handle.last_error = ""

    def _probe_shard(self, shard: int, port: int) -> None:
        # The probe RPC runs outside the lock: it blocks up to the
        # heartbeat timeout and must not stall health()/endpoint() readers.
        error = ""
        reply: Optional[Dict[str, Any]]
        try:
            reply = self._probe(self._host, port, self.config.heartbeat_timeout_seconds)
        except (OSError, ValueError) as exc:
            reply = None
            error = f"{type(exc).__name__}: {exc}"
        hung_process: Optional[WorkerProcess] = None
        misses = 0
        with self._lock:
            handle = self._handles[shard]
            if handle.state is not WorkerState.UP or handle.port != port:
                return  # restarted or stopped while we probed
            if reply is not None:
                handle.probe_misses = 0
                handle.generation = int(reply.get("generation", handle.generation))
                return
            handle.probe_misses += 1
            misses = handle.probe_misses
            if misses >= self.config.liveness_misses:
                hung_process = handle.process
        if hung_process is not None:
            try:
                hung_process.kill()
                hung_process.wait(timeout=5.0)
            except Exception:
                pass
            self._record_crash(
                shard,
                f"hung: {misses} consecutive heartbeat misses (last: {error}); killed",
            )

    def _record_crash(self, shard: int, reason: str) -> None:
        now = self._clock()
        config = self.config
        with self._lock:
            handle = self._handles[shard]
            handle.process = None
            handle.port = None
            handle.probe_misses = 0
            handle.restarts_total += 1
            handle.last_error = reason
            handle.recent_restarts = [
                t for t in handle.recent_restarts
                if now - t < config.crash_loop_window_seconds
            ]
            handle.recent_restarts.append(now)
            if len(handle.recent_restarts) > config.crash_loop_budget:
                handle.state = WorkerState.FAILED
                handle.last_error = (
                    f"crash-loop budget exhausted ({len(handle.recent_restarts)} "
                    f"restarts in {config.crash_loop_window_seconds}s); parked. "
                    f"last error: {reason}"
                )
                return
            attempt = len(handle.recent_restarts)
            handle.state = WorkerState.BACKOFF
            handle.backoff_until = now + backoff_delay(
                attempt,
                config.backoff_base_seconds,
                config.backoff_cap_seconds,
                config.backoff_jitter,
                config.backoff_seed,
                shard,
            )

    # ------------------------------------------------------------------
    # Introspection (the router's view)
    # ------------------------------------------------------------------
    def endpoint(self, shard: int) -> Optional[Tuple[str, int]]:
        """The (host, port) of a currently-UP worker, else ``None``."""
        with self._lock:
            handle = self._handles[shard]
            if handle.state is WorkerState.UP and handle.port is not None:
                return (self._host, handle.port)
            return None

    def up_shards(self) -> List[int]:
        with self._lock:
            return [
                shard
                for shard, handle in self._handles.items()
                if handle.state is WorkerState.UP
            ]

    def state_of(self, shard: int) -> WorkerState:
        with self._lock:
            return self._handles[shard].state

    def health(self) -> Dict[int, Dict[str, Any]]:
        """Per-shard supervision snapshot (feeds ``/stats`` and the bench)."""
        with self._lock:
            return {
                shard: {
                    "state": handle.state.value,
                    "alive": handle.state is WorkerState.UP,
                    "pid": handle.process.pid if handle.process is not None else None,
                    "port": handle.port,
                    "restarts_total": handle.restarts_total,
                    "probe_misses": handle.probe_misses,
                    "generation": handle.generation,
                    "last_error": handle.last_error,
                }
                for shard, handle in self._handles.items()
            }
