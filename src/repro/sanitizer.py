"""Runtime concurrency/resource sanitizer (``REPRO_SANITIZE=1``).

The static analyzer (:mod:`repro.analysis.concurrency`) proves lock
discipline and resource lifecycles *syntactically*; this module makes
the same annotations executable. When sanitize mode is on:

- locks created through :func:`create_lock` become :class:`SanLock`
  wrappers that maintain a per-thread held stack, record every
  lock-acquisition-order edge into a global graph, and report an
  inversion the moment two locks are ever taken in both orders
  (the dynamic mirror of the static ``TAB602`` cycle check);
- :func:`guarded_by`-decorated methods assert on entry that the named
  lock is actually held (the dynamic mirror of ``TAB601``);
- ``time.sleep`` and ``os.fsync`` are patched to record a violation
  when called while the current thread holds a sanitized lock (the
  dynamic mirror of ``TAB603``);
- :class:`~repro.resilience.deadline.Deadline` objects report
  themselves if they are garbage collected without ever having been
  consulted — a deadline someone created and then dropped on the floor
  (the dynamic mirror of ``TAB607``).

Violations are *recorded*, never raised inline: production behaviour
is unchanged, and the harness (the pytest ``--sanitize`` fixture, or
the atexit hook) calls :func:`report` / :func:`assert_clean` at the
end. When sanitize mode is off every hook is a cheap flag check and
:func:`create_lock` returns a plain ``threading.Lock``/``RLock``.
"""

from __future__ import annotations

import atexit
import functools
import os
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar, Union

__all__ = [
    "SanitizerError",
    "SanLock",
    "assert_clean",
    "create_lock",
    "disable",
    "enable",
    "guarded_by",
    "is_enabled",
    "report",
    "reset",
    "violations",
]

F = TypeVar("F", bound=Callable[..., Any])

_TRUTHY = {"1", "true", "yes", "on"}

_enabled: bool = os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY

# Meta-lock guarding every registry below. Always a *plain* lock: the
# sanitizer must never observe itself.
_meta = threading.Lock()

# lock-order edges: (held.name, acquired.name) -> first-seen description
_order_edges: Dict[Tuple[str, str], str] = {}
# recorded violations: (kind, detail) in discovery order
_violations: List[Tuple[str, str]] = []
# dropped-deadline accounting feeds _violations via weakref finalizers
_deadlines_tracked = 0
_fd_baseline: Optional[int] = None

_patched: Dict[str, Callable[..., Any]] = {}

_tls = threading.local()


class SanitizerError(AssertionError):
    """Raised by :func:`assert_clean` when violations were recorded."""


def is_enabled() -> bool:
    return _enabled


def _held_stack() -> List["SanLock"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _record(kind: str, detail: str) -> None:
    with _meta:
        _violations.append((kind, detail))


def _caller_site(depth: int = 2) -> str:
    try:
        frame = sys._getframe(depth)
        return f"{frame.f_code.co_filename}:{frame.f_lineno}"
    except Exception:  # pragma: no cover - interpreter without frames
        return "<unknown>"


# ---------------------------------------------------------------------------
# Locks
# ---------------------------------------------------------------------------


class SanLock:
    """A named lock wrapper feeding the order graph and held stack.

    Mirrors the ``threading.Lock`` interface (context manager,
    ``acquire``/``release``/``locked``) so it is a drop-in replacement
    for the locks :func:`create_lock` hands out.
    """

    def __init__(self, name: str, rlock: bool = False):
        self.name = name
        self.reentrant = rlock
        self._inner: Union[threading.Lock, "threading.RLock"] = (
            threading.RLock() if rlock else threading.Lock()
        )

    def held_by_current_thread(self) -> bool:
        return any(entry is self for entry in _held_stack())

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._note_acquired()
        return acquired

    def release(self) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        inner = self._inner
        if hasattr(inner, "locked"):
            return bool(inner.locked())
        return False  # pragma: no cover - RLock before 3.12

    def _note_acquired(self) -> None:
        stack = _held_stack()
        site = _caller_site(3)
        held_names = {entry.name for entry in stack if entry is not self}
        if held_names:
            with _meta:
                for held in held_names:
                    edge = (held, self.name)
                    if edge not in _order_edges:
                        _order_edges[edge] = site
                    reverse = (self.name, held)
                    if reverse in _order_edges:
                        _violations.append((
                            "lock-order",
                            f"inversion between {held!r} and {self.name!r}: "
                            f"{held}->{self.name} at {site}, "
                            f"{self.name}->{held} at {_order_edges[reverse]}",
                        ))
        stack.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanLock({self.name!r}, rlock={self.reentrant})"


def create_lock(
    name: str, rlock: bool = False
) -> Union[threading.Lock, "threading.RLock", SanLock]:
    """A lock for the annotated shared state called ``name``.

    Production mode returns a plain ``threading.Lock``/``RLock``;
    sanitize mode returns a :class:`SanLock` enforcing the same
    invariants the static analyzer checks.
    """
    if _enabled:
        return SanLock(name, rlock=rlock)
    return threading.RLock() if rlock else threading.Lock()


def held_sanitized_locks() -> Tuple[str, ...]:
    """Names of sanitized locks held by the current thread."""
    return tuple(entry.name for entry in _held_stack())


def guarded_by(lock_attr: str) -> Callable[[F], F]:
    """Mark a method as requiring ``self.<lock_attr>`` to be held.

    Statically, the concurrency analyzer treats the decorated body as
    running under that lock (the *caller* must hold it). Dynamically,
    sanitize mode asserts the lock really is held on entry whenever it
    is a :class:`SanLock`.
    """

    def decorate(func: F) -> F:
        @functools.wraps(func)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            if _enabled:
                lock = getattr(self, lock_attr, None)
                if isinstance(lock, SanLock) and not lock.held_by_current_thread():
                    _record(
                        "guard",
                        f"{type(self).__name__}.{func.__name__} entered without "
                        f"holding {lock_attr!r} (declared @guarded_by)",
                    )
            return func(self, *args, **kwargs)

        wrapper.__guarded_by__ = lock_attr  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


# ---------------------------------------------------------------------------
# Blocking-call detector
# ---------------------------------------------------------------------------


def _blocking_probe(label: str, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def probe(*args: Any, **kwargs: Any) -> Any:
        held = held_sanitized_locks()
        if held:
            _record(
                "blocking-under-lock",
                f"{label} called at {_caller_site(2)} while holding "
                f"{', '.join(repr(h) for h in held)}",
            )
        return original(*args, **kwargs)

    return probe


def _install_patches() -> None:
    if _patched:
        return
    _patched["time.sleep"] = time.sleep
    time.sleep = _blocking_probe("time.sleep", time.sleep)  # type: ignore[assignment]
    _patched["os.fsync"] = os.fsync
    os.fsync = _blocking_probe("os.fsync", os.fsync)  # type: ignore[assignment]


def _remove_patches() -> None:
    if not _patched:
        return
    time.sleep = _patched.pop("time.sleep")  # type: ignore[assignment]
    os.fsync = _patched.pop("os.fsync")  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Deadline drop accounting (fed by repro.resilience.deadline)
# ---------------------------------------------------------------------------


def track_deadline(deadline: object) -> Optional[List[bool]]:
    """Register a Deadline; returns the consulted-flag box, or ``None``.

    The box is a one-element list the Deadline flips to ``True`` the
    first time anyone consults it (``remaining``/``expired``/``check``).
    A finalizer reports deadlines that die unconsulted — created at the
    edge and then dropped before reaching the code they were meant to
    bound.
    """
    global _deadlines_tracked
    if not _enabled:
        return None
    box = [False]
    site = _caller_site(3)
    with _meta:
        _deadlines_tracked += 1

    def finalize() -> None:
        if not box[0]:
            _record("dropped-deadline", f"Deadline created at {site} was never consulted")

    try:
        weakref.finalize(deadline, finalize)
    except TypeError:  # pragma: no cover - non-weakrefable caller
        return None
    return box


# ---------------------------------------------------------------------------
# Session control & reporting
# ---------------------------------------------------------------------------


def enable() -> None:
    """Turn sanitize mode on for this process (idempotent)."""
    global _enabled, _fd_baseline
    if _enabled and _patched:
        return
    _enabled = True
    if _fd_baseline is None:
        _fd_baseline = _open_fd_count()
    _install_patches()


def disable() -> None:
    """Turn sanitize mode off and unpatch (state is kept for report())."""
    global _enabled
    _enabled = False
    _remove_patches()


def reset() -> None:
    """Drop all recorded state (tests isolate themselves with this)."""
    global _deadlines_tracked, _fd_baseline
    with _meta:
        _order_edges.clear()
        _violations.clear()
        _deadlines_tracked = 0
    _fd_baseline = _open_fd_count() if _enabled else None


def violations() -> List[Tuple[str, str]]:
    with _meta:
        return list(_violations)


def _open_fd_count() -> Optional[int]:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-procfs platform
        return None


def report() -> Dict[str, object]:
    """Everything the sanitizer observed, ready for assertion/printing.

    ``fd_delta`` is informational only (test frameworks legitimately
    open sockets/pipes); :func:`assert_clean` does not gate on it.
    """
    fd_now = _open_fd_count()
    with _meta:
        return {
            "enabled": _enabled,
            "violations": list(_violations),
            "lock_order_edges": {f"{a}->{b}": s for (a, b), s in _order_edges.items()},
            "deadlines_tracked": _deadlines_tracked,
            "fd_delta": (
                fd_now - _fd_baseline
                if fd_now is not None and _fd_baseline is not None
                else None
            ),
        }


def assert_clean(snapshot: Optional[Dict[str, object]] = None) -> None:
    """Raise :class:`SanitizerError` listing every recorded violation."""
    snap = snapshot if snapshot is not None else report()
    problems: List[str] = [
        f"[{kind}] {detail}" for kind, detail in snap.get("violations", [])  # type: ignore[union-attr]
    ]
    if problems:
        raise SanitizerError(
            "sanitizer recorded %d problem(s):\n  %s"
            % (len(problems), "\n  ".join(problems))
        )


def _atexit_report() -> None:  # pragma: no cover - exercised via subprocess
    if not _enabled:
        return
    snap = report()
    try:
        assert_clean(snap)
    except SanitizerError as exc:
        print(f"REPRO_SANITIZE: {exc}", file=sys.stderr)


atexit.register(_atexit_report)

if _enabled:  # pragma: no cover - env-driven production path
    enable()
