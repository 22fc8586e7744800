"""Request deadlines that propagate through the query path.

A :class:`Deadline` is an absolute point on a monotonic clock. It is
created once at the edge (the serving gateway, a CLI flag, a test) and
threaded *down* through ``Tabula.query`` so every expensive step — most
importantly a degraded cell's rebind scan — can ask "is there budget
left?" before starting work it cannot finish in time.

The clock is injectable so tests can drive time deterministically
instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro import sanitizer
from repro.errors import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """An absolute expiry instant on a monotonic clock."""

    __slots__ = ("expires_at", "_clock", "_started", "_sanbox", "__weakref__")

    def __init__(
        self,
        expires_at: float,
        clock: Callable[[], float] = time.monotonic,
        started: Optional[float] = None,
    ):
        self.expires_at = expires_at
        self._clock = clock
        self._started = clock() if started is None else started
        # Sanitizer accounting: a deadline that dies without ever being
        # consulted was dropped on the floor by some call path. The box
        # is None in production mode (zero overhead beyond this check).
        self._sanbox = sanitizer.track_deadline(self) if sanitizer.is_enabled() else None

    def _touch(self) -> None:
        box = self._sanbox
        if box is not None:
            box[0] = True

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now."""
        now = clock()
        return cls(now + seconds, clock=clock, started=now)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        self._touch()
        return max(0.0, self.expires_at - self._clock())

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return self._clock() - self._started

    @property
    def expired(self) -> bool:
        self._touch()
        return self._clock() >= self.expires_at

    def check(self, doing: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is gone."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline exceeded {doing}", elapsed=self.elapsed()
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.4f}s)"
