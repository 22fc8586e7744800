"""Circuit breaker guarding a shard worker behind the router.

A dead or wedged shard worker turns every request routed to it into a
stalled caller. The router keeps one breaker per shard: it watches the
shard's RPC outcomes and, once the recent failure rate crosses a
threshold, *opens* — the router then answers that shard's cells from
a replica or the local global sample (``DOWNGRADED`` +
``CIRCUIT_OPEN``) instead of sending more doomed calls. After a
cooldown it *half-opens* and lets a single probe through; the probe's
outcome decides between closing and re-opening.

```
            failure rate ≥ threshold
  CLOSED ──────────────────────────────► OPEN
    ▲                                     │ cooldown elapsed
    │ probe succeeds                      ▼
    └────────────────────────────── HALF_OPEN ──► OPEN (probe fails)
```

The clock is injectable so tests drive the cooldown deterministically;
all state transitions happen under a lock (a shard's breaker is shared
by every caller thread of the router).
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict

from repro.sanitizer import create_lock, guarded_by


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Failure-rate + cooldown parameters.

    Attributes:
        failure_threshold: open once ``failures / window ≥`` this rate.
        window: how many recent outcomes the rate is computed over.
        min_calls: never open before this many outcomes are recorded
            (a single early failure must not trip a cold breaker).
        cooldown_seconds: how long an open breaker rejects before
            half-opening for a probe.
    """

    failure_threshold: float = 0.5
    window: int = 10
    min_calls: int = 3
    cooldown_seconds: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {self.min_calls}")
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {self.cooldown_seconds}"
            )


class CircuitBreaker:
    """Thread-safe closed/open/half-open breaker over a sliding window.

    Implements the raw-policy protocol ``Tabula.query`` expects:
    ``allow()`` / ``record_success()`` / ``record_failure()``.
    """

    def __init__(
        self,
        config: BreakerConfig = BreakerConfig(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._lock = create_lock("breaker._lock")
        self._state = BreakerState.CLOSED  # guard: _lock
        self._outcomes: Deque[bool] = deque(maxlen=config.window)  # guard: _lock
        self._opened_at = 0.0  # guard: _lock
        self._probe_in_flight = False  # guard: _lock
        self._opens = 0  # guard: _lock
        self._rejected = 0  # guard: _lock

    # -- raw-policy protocol -------------------------------------------
    def allow(self) -> bool:
        """Whether the guarded call may proceed right now.

        In ``HALF_OPEN`` only one caller wins the probe slot; everyone
        else is rejected until the probe reports back.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at >= self.config.cooldown_seconds:
                    self._state = BreakerState.HALF_OPEN
                    self._probe_in_flight = False
                else:
                    self._rejected += 1
                    return False
            # HALF_OPEN: hand out exactly one probe.
            if self._probe_in_flight:
                self._rejected += 1
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._outcomes.clear()
                self._probe_in_flight = False
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._outcomes.append(False)
            if len(self._outcomes) >= self.config.min_calls:
                failures = sum(1 for ok in self._outcomes if not ok)
                if failures / len(self._outcomes) >= self.config.failure_threshold:
                    self._trip()

    # -- introspection -------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            # An expired cooldown reads as HALF_OPEN even before the
            # next allow() call performs the transition.
            if (
                self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.config.cooldown_seconds
            ):
                return BreakerState.HALF_OPEN
            return self._state

    def snapshot(self) -> Dict[str, object]:
        """Stats-endpoint view of the breaker."""
        with self._lock:
            failures = sum(1 for ok in self._outcomes if not ok)
            return {
                "state": self._state.value,
                "window_calls": len(self._outcomes),
                "window_failures": failures,
                "opens_total": self._opens,
                "rejected_total": self._rejected,
            }

    # -- internal ------------------------------------------------------
    @guarded_by("_lock")
    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._opens += 1
        self._probe_in_flight = False
        self._outcomes.clear()
