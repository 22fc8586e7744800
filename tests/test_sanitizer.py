"""Unit tests for the runtime sanitizer (`repro.sanitizer`).

Each test enables sanitize mode locally, provokes exactly one class of
violation, asserts it was recorded, and resets — the deliberate
violations here must never leak into the session-level gate the
``--sanitize`` fixture enforces.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro import sanitizer
from repro.resilience.deadline import Deadline
from repro.sanitizer import SanLock, SanitizerError, create_lock, guarded_by


@pytest.fixture()
def san():
    was_enabled = sanitizer.is_enabled()
    sanitizer.reset()
    sanitizer.enable()
    yield sanitizer
    if not was_enabled:
        sanitizer.disable()
    sanitizer.reset()


def _kinds() -> set:
    return {kind for kind, _ in sanitizer.violations()}


# ---------------------------------------------------------------------------
# create_lock / SanLock
# ---------------------------------------------------------------------------


def test_create_lock_is_plain_when_disabled():
    if sanitizer.is_enabled():
        pytest.skip("session runs under --sanitize")
    lock = create_lock("x")
    assert not isinstance(lock, SanLock)
    with lock:
        pass


def test_create_lock_is_sanlock_when_enabled(san):
    lock = create_lock("x")
    assert isinstance(lock, SanLock)
    with lock:
        assert lock.held_by_current_thread()
        assert "x" in sanitizer.held_sanitized_locks()
    assert not lock.held_by_current_thread()


def test_reentrant_sanlock(san):
    lock = create_lock("r", rlock=True)
    with lock:
        with lock:
            pass
    assert sanitizer.violations() == []


def test_lock_order_inversion_recorded(san):
    a = create_lock("lock_a")
    b = create_lock("lock_b")
    with a:
        with b:
            pass
    with b:
        with a:  # reversed order -> inversion
            pass
    assert "lock-order" in _kinds()
    detail = dict(sanitizer.violations())["lock-order"]
    assert "lock_a" in detail and "lock_b" in detail


def test_consistent_order_is_clean(san):
    a = create_lock("lock_a")
    b = create_lock("lock_b")
    for _ in range(3):
        with a:
            with b:
                pass
    assert sanitizer.violations() == []


def test_inversion_across_threads(san):
    a = create_lock("lock_a")
    b = create_lock("lock_b")

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    t1 = threading.Thread(target=forward)
    t1.start()
    t1.join()
    t2 = threading.Thread(target=backward)
    t2.start()
    t2.join()
    assert "lock-order" in _kinds()


# ---------------------------------------------------------------------------
# @guarded_by
# ---------------------------------------------------------------------------


class _Guarded:
    def __init__(self):
        self._lock = create_lock("guarded._lock")
        self.count = 0

    @guarded_by("_lock")
    def bump(self):
        self.count += 1


def test_guarded_by_violation_without_lock(san):
    obj = _Guarded()
    obj.bump()  # caller does not hold the lock
    assert "guard" in _kinds()


def test_guarded_by_clean_with_lock(san):
    obj = _Guarded()
    with obj._lock:
        obj.bump()
    assert sanitizer.violations() == []
    assert obj.count == 1


def test_guarded_by_is_noop_when_disabled():
    if sanitizer.is_enabled():
        pytest.skip("session runs under --sanitize")
    obj = _Guarded()
    obj.bump()
    assert obj.count == 1


# ---------------------------------------------------------------------------
# Blocking calls under locks
# ---------------------------------------------------------------------------


def test_sleep_under_lock_recorded(san):
    lock = create_lock("sleepy")
    with lock:
        time.sleep(0)
    assert "blocking-under-lock" in _kinds()


def test_sleep_outside_lock_clean(san):
    time.sleep(0)
    assert sanitizer.violations() == []


# ---------------------------------------------------------------------------
# Dropped deadlines
# ---------------------------------------------------------------------------


def test_dropped_deadline_recorded(san):
    deadline = Deadline.after(60.0)
    del deadline
    gc.collect()
    assert "dropped-deadline" in _kinds()


def test_consulted_deadline_clean(san):
    deadline = Deadline.after(60.0)
    assert deadline.remaining() > 0
    del deadline
    gc.collect()
    assert sanitizer.violations() == []


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def test_assert_clean_lists_everything(san):
    lock = create_lock("listed")
    with lock:
        time.sleep(0)
    obj = _Guarded()
    obj.bump()
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.assert_clean()
    message = str(excinfo.value)
    assert "blocking-under-lock" in message
    assert "guard" in message
    assert "2 problem(s)" in message


def test_report_shape(san):
    snapshot = sanitizer.report()
    assert snapshot["enabled"] is True
    assert isinstance(snapshot["violations"], list)
    assert isinstance(snapshot["lock_order_edges"], dict)
    assert set(snapshot) == {
        "enabled", "violations", "lock_order_edges", "deadlines_tracked", "fd_delta",
    }
