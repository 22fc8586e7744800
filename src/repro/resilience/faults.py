"""Deterministic fault-injection harness.

Production code threads *named fault points* through the crash-sensitive
paths of the cube lifecycle (``fault_point("persist.atomic.tmp_written")``
and friends). In normal operation a fault point is a no-op costing one
list check. Under test, :func:`inject` arms faults that trip at the Nth
hit of a point:

    with inject(CrashPoint("persist.atomic.before_replace")):
        with pytest.raises(InjectedCrash):
            save_cube(tabula, path)

Fault kinds:

- :class:`CrashPoint` — raises :class:`InjectedCrash` (simulated process
  death; derives from ``BaseException`` so no library ``except
  Exception`` can accidentally swallow the "kill");
- :class:`IOFault` — raises :class:`InjectedIOError` (an ``OSError``
  subclass, simulating EIO/ENOSPC-style failures that code is expected
  to surface or recover from);
- :class:`SlowIO` — sleeps at the hit, then continues (latency probe);
- :class:`Hang` — from the Nth hit *onward*, every hit stalls: a
  persistently wedged component. One-shot ``SlowIO`` cannot model this
  under concurrency — while one thread serves its sleep, other threads
  sail through the point and a health check alternates miss/ok instead
  of missing consecutively, which is exactly the false negative that
  hides a hung worker from liveness detection.

Every instrumented site registers its point at import time via
:func:`register_fault_point`, so tests can *enumerate* the registry and
prove recovery at every point (the kill-at-every-point property).
Injection is process-local and deterministic: same code path, same hit
counts, same trip.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class InjectedCrash(BaseException):
    """A simulated process death at a fault point.

    Deliberately a ``BaseException``: recovery code must never be able
    to "handle" a kill — only a restart (or the test harness) sees it.
    """

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected crash at fault point {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class InjectedIOError(OSError):
    """A simulated I/O failure at a fault point."""

    def __init__(self, point: str, message: str):
        super().__init__(f"{message} (injected at fault point {point!r})")
        self.point = point


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, str] = {}


def register_fault_point(name: str, description: str = "") -> str:
    """Declare a named fault point (idempotent; returns the name).

    Instrumented modules call this at import time so the full set of
    points is discoverable without executing any lifecycle code.
    """
    _REGISTRY.setdefault(name, description)
    if description and not _REGISTRY[name]:
        _REGISTRY[name] = description
    return name


def registered_fault_points() -> Tuple[str, ...]:
    """All declared fault points, sorted (the kill-at-every-point set)."""
    return tuple(sorted(_REGISTRY))


def fault_point_description(name: str) -> str:
    return _REGISTRY.get(name, "")


# ---------------------------------------------------------------------------
# Fault specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """Base spec: trip at the ``at``-th hit (1-based) of ``point``."""

    point: str
    at: int = 1

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError(f"'at' must be >= 1, got {self.at}")


@dataclass(frozen=True)
class CrashPoint(FaultSpec):
    """Simulate process death at the Nth hit of a point."""


@dataclass(frozen=True)
class IOFault(FaultSpec):
    """Raise an OSError at the Nth hit of a point."""

    message: str = "injected I/O fault"


@dataclass(frozen=True)
class SlowIO(FaultSpec):
    """Sleep ``seconds`` at the Nth hit of a point, then continue."""

    seconds: float = 0.01
    sleep: Callable[[float], None] = field(default=time.sleep, compare=False)


@dataclass(frozen=True)
class Hang(FaultSpec):
    """Stall every hit from the ``at``-th onward (a wedged component).

    Unlike one-shot :class:`SlowIO`, concurrent hits all stall, so a
    health endpoint instrumented with the point misses *consecutively*
    — the condition liveness detection actually fires on.
    """

    seconds: float = 3600.0
    sleep: Callable[[float], None] = field(default=time.sleep, compare=False)


class _Armed:
    """One armed fault: hit counting plus one-shot trip bookkeeping."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.hits = 0
        self.tripped = False

    def count(self) -> Optional[int]:
        """Count one hit; return its number when this hit trips the fault."""
        self.hits += 1
        if isinstance(self.spec, Hang):
            if self.hits < self.spec.at:
                return None
        elif self.tripped or self.hits != self.spec.at:
            return None
        self.tripped = True
        return self.hits

    def act(self, hit: int) -> None:
        """Do what the fault does at a tripping hit: raise, sleep or stall."""
        spec = self.spec
        if isinstance(spec, CrashPoint):
            raise InjectedCrash(spec.point, hit)
        if isinstance(spec, IOFault):
            raise InjectedIOError(spec.point, spec.message)
        if isinstance(spec, (SlowIO, Hang)):
            spec.sleep(spec.seconds)


class InjectionHandle:
    """Introspection over the faults armed by one :func:`inject` block."""

    def __init__(self, armed: List[_Armed]):
        self._armed = armed

    def hits(self, point: str) -> int:
        """How many times ``point`` was hit inside the block.

        Every spec armed on a point counts every hit, so any one of
        them holds the number (0 when nothing is armed there).
        """
        return max((a.hits for a in self._armed if a.spec.point == point), default=0)

    def tripped(self, point: str) -> bool:
        return any(a.tripped for a in self._armed if a.spec.point == point)

    def any_tripped(self) -> bool:
        return any(a.tripped for a in self._armed)


_ACTIVE: List[_Armed] = []
# Hit counting is a read-modify-write shared by every thread that
# reaches a point; the faults act outside the lock.
_COUNT_LOCK = threading.Lock()


def fault_point(name: str) -> None:
    """Hit a named fault point (no-op unless a matching fault is armed).

    The hit is counted on every armed spec before any of them sleeps,
    raises or stalls, so a spec that parks this caller cannot hide the
    hit from the specs armed after it (``SlowIO(at=1)`` and
    ``SlowIO(at=2)`` park the first two concurrent callers).
    """
    if not _ACTIVE:
        return
    if name not in _REGISTRY:
        raise RuntimeError(
            f"fault_point({name!r}) hit but the point was never registered; "
            "call register_fault_point at module import"
        )
    trips = []
    with _COUNT_LOCK:
        for armed in tuple(_ACTIVE):
            if armed.spec.point == name:
                hit = armed.count()
                if hit is not None:
                    trips.append((armed, hit))
    for armed, hit in trips:
        armed.act(hit)


@contextmanager
def inject(*specs: FaultSpec) -> Iterator[InjectionHandle]:
    """Arm faults for the duration of the block (re-entrant, one-shot).

    Arming an unregistered point is an error — it would silently never
    trip (the classic typo'd-test false negative).
    """
    for spec in specs:
        if spec.point not in _REGISTRY:
            raise ValueError(
                f"unknown fault point {spec.point!r}; registered points: "
                f"{', '.join(registered_fault_points()) or '(none)'}"
            )
    armed = [_Armed(spec) for spec in specs]
    _ACTIVE.extend(armed)
    try:
        yield InjectionHandle(armed)
    finally:
        for a in armed:
            _ACTIVE.remove(a)


# ---------------------------------------------------------------------------
# Cross-process arming (the sharded serving tier's chaos harness)
# ---------------------------------------------------------------------------
#: Environment variable a subprocess entrypoint reads via :func:`arm_from_env`.
FAULTS_ENV_VAR = "REPRO_FAULTS"


def encode_fault_specs(specs: Sequence[FaultSpec]) -> str:
    """Serialize specs for handing to a subprocess via ``REPRO_FAULTS``.

    ``inject`` is process-local; chaos tests that need a fault to trip
    *inside a shard worker* put this string in the worker's environment
    and the worker entrypoint arms it at startup with
    :func:`arm_from_env`.  Custom ``SlowIO.sleep`` callables do not
    cross the process boundary (the worker uses ``time.sleep``).
    """
    encoded = []
    for spec in specs:
        document: Dict[str, object] = {"point": spec.point, "at": spec.at}
        if isinstance(spec, IOFault):
            document["kind"] = "io"
            document["message"] = spec.message
        elif isinstance(spec, SlowIO):
            document["kind"] = "slow"
            document["seconds"] = spec.seconds
        elif isinstance(spec, Hang):
            document["kind"] = "hang"
            document["seconds"] = spec.seconds
        elif isinstance(spec, CrashPoint):
            document["kind"] = "crash"
        else:
            raise ValueError(f"cannot encode fault spec of type {type(spec).__name__}")
        encoded.append(document)
    return json.dumps(encoded, separators=(",", ":"))


def arm_from_env(env_var: str = FAULTS_ENV_VAR) -> int:
    """Arm faults from ``env_var`` for the life of the process.

    Called by subprocess entrypoints (the shard worker) *after* their
    imports, so every instrumented module has registered its points.
    Returns the number of faults armed (0 when the variable is unset).
    Unknown points and malformed specs are errors, matching
    :func:`inject` — a typo'd chaos test must fail loudly, not silently
    never trip.
    """
    text = os.environ.get(env_var, "").strip()
    if not text:
        return 0
    specs: List[FaultSpec] = []
    for document in json.loads(text):
        kind = document.get("kind")
        point = str(document["point"])
        at = int(document.get("at", 1))
        if kind == "crash":
            specs.append(CrashPoint(point, at=at))
        elif kind == "io":
            specs.append(IOFault(point, at=at, message=str(document.get("message", "injected I/O fault"))))
        elif kind == "slow":
            specs.append(SlowIO(point, at=at, seconds=float(document.get("seconds", 0.01))))
        elif kind == "hang":
            specs.append(Hang(point, at=at, seconds=float(document.get("seconds", 3600.0))))
        else:
            raise ValueError(f"unknown fault kind {kind!r} in {env_var}")
    for spec in specs:
        if spec.point not in _REGISTRY:
            raise ValueError(
                f"unknown fault point {spec.point!r} in {env_var}; registered "
                f"points: {', '.join(registered_fault_points()) or '(none)'}"
            )
    _ACTIVE.extend(_Armed(spec) for spec in specs)
    return len(specs)
