"""Unit tests for the deterministic fault-injection harness itself."""

import json
import threading

import pytest

from repro.resilience import faults
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    CrashPoint,
    FaultSpec,
    Hang,
    InjectedCrash,
    InjectedIOError,
    IOFault,
    SlowIO,
    arm_from_env,
    encode_fault_specs,
    fault_point,
    inject,
    register_fault_point,
    registered_fault_points,
)
from repro.serving import ServingConfig, ServingGateway
from repro.serving.gateway import FP_EXECUTE
from tests.serving.test_gateway import (
    build_tabula,
    iceberg_query,
    stalled_workers,
    wait_until,
)

POINT = register_fault_point("test.harness.point", "used by the harness tests")
OTHER = register_fault_point("test.harness.other")


class TestRegistry:
    def test_registration_is_idempotent(self):
        before = registered_fault_points()
        register_fault_point("test.harness.point", "different text ignored")
        assert registered_fault_points() == before

    def test_lifecycle_points_are_registered_at_import(self):
        import repro.core.maintenance  # noqa: F401
        import repro.core.tabula  # noqa: F401

        points = set(registered_fault_points())
        for expected in (
            "init.global_sample.drawn",
            "init.dryrun.done",
            "init.realrun.cell_start",
            "init.checkpoint.cell",
            "persist.atomic.before_replace",
            "journal.before_append",
            "maintain.journal.planned",
            "maintain.apply.decision",
            "maintain.commit",
        ):
            assert expected in points

    def test_unarmed_point_is_a_noop(self):
        fault_point(POINT)  # must not raise

    def test_unknown_point_rejected_when_armed(self):
        with inject(CrashPoint(POINT)):
            with pytest.raises(RuntimeError, match="never registered"):
                fault_point("test.harness.never_registered")


class TestInjection:
    def test_crash_at_first_hit(self):
        with inject(CrashPoint(POINT)) as handle:
            with pytest.raises(InjectedCrash) as excinfo:
                fault_point(POINT)
            assert excinfo.value.point == POINT
            assert handle.tripped(POINT)

    def test_crash_at_nth_hit(self):
        with inject(CrashPoint(POINT, at=3)) as handle:
            fault_point(POINT)
            fault_point(POINT)
            with pytest.raises(InjectedCrash) as excinfo:
                fault_point(POINT)
            assert excinfo.value.hit == 3
            assert handle.hits(POINT) == 3

    def test_one_shot_never_retrips(self):
        with inject(CrashPoint(POINT)):
            with pytest.raises(InjectedCrash):
                fault_point(POINT)
            fault_point(POINT)  # already tripped: passes through

    def test_other_points_unaffected(self):
        with inject(CrashPoint(POINT)) as handle:
            fault_point(OTHER)
            assert handle.hits(OTHER) == 0
            assert not handle.any_tripped()

    def test_disarmed_after_block(self):
        with inject(CrashPoint(POINT)):
            pass
        fault_point(POINT)  # no longer armed

    def test_io_fault_is_oserror(self):
        with inject(IOFault(POINT, message="disk full")):
            with pytest.raises(OSError, match="disk full"):
                fault_point(POINT)

    def test_crash_is_not_an_exception_subclass(self):
        """``except Exception`` must never swallow a simulated kill."""
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedIOError, OSError)

    def test_slow_io_calls_sleep_then_continues(self):
        slept = []
        with inject(SlowIO(POINT, seconds=0.5, sleep=slept.append)):
            fault_point(POINT)
        assert slept == [0.5]

    def test_arming_unknown_point_is_an_error(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            with inject(CrashPoint("test.harness.typo")):
                pass

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(POINT, at=0)

    def test_multiple_faults_in_one_block(self):
        with inject(CrashPoint(POINT, at=2), IOFault(OTHER)) as handle:
            fault_point(POINT)
            with pytest.raises(InjectedIOError):
                fault_point(OTHER)
            with pytest.raises(InjectedCrash):
                fault_point(POINT)
            assert handle.tripped(POINT) and handle.tripped(OTHER)

    def test_hang_stalls_every_hit_from_at_onward(self):
        """Unlike one-shot SlowIO, Hang keeps stalling — the property
        liveness detection needs to see *consecutive* probe misses."""
        slept = []
        with inject(Hang(POINT, at=2, seconds=7.0, sleep=slept.append)) as handle:
            fault_point(POINT)  # below 'at': passes through
            assert slept == []
            fault_point(POINT)
            fault_point(POINT)
            fault_point(POINT)
            assert handle.tripped(POINT)
        assert slept == [7.0, 7.0, 7.0]


class TestConcurrentHits:
    """Every armed spec counts a hit before any spec acts on it."""

    def test_two_slow_specs_park_two_concurrent_callers(self):
        release = threading.Event()
        parked = []
        lock = threading.Lock()

        def park(_):
            with lock:
                parked.append(threading.current_thread().name)
            release.wait(timeout=10.0)

        specs = [SlowIO(POINT, at=n, sleep=park) for n in (1, 2)]
        with inject(*specs) as handle:
            callers = [
                threading.Thread(target=fault_point, args=(POINT,), name=f"caller-{n}")
                for n in (1, 2)
            ]
            try:
                for caller in callers:
                    caller.start()
                assert wait_until(lambda: len(parked) == 2), parked
                assert handle.hits(POINT) == 2
            finally:
                release.set()
                for caller in callers:
                    caller.join(timeout=10.0)
            assert not any(caller.is_alive() for caller in callers)
            fault_point(POINT)  # a third hit passes through
            assert handle.hits(POINT) == 3
        assert sorted(parked) == ["caller-1", "caller-2"]

    def test_a_raising_spec_does_not_hide_the_hit_from_later_specs(self):
        with inject(IOFault(POINT, at=1), IOFault(POINT, at=2)) as handle:
            with pytest.raises(InjectedIOError):
                fault_point(POINT)
            with pytest.raises(InjectedIOError):
                fault_point(POINT)
            fault_point(POINT)
            assert handle.hits(POINT) == 3

    def test_stalled_workers_parks_two_gateway_requests(self, rides_tiny):
        """``stalled_workers(count=2)`` holds both execution slots, so
        two more callers wait (``queued_now`` reaches 2)."""
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=2, queue_depth=2))
        callers = [threading.Thread(target=gateway.query, args=(where,)) for _ in range(4)]
        try:
            with stalled_workers(count=2) as (release, handle):
                for caller in callers[:2]:
                    caller.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) == 2)
                for caller in callers[2:]:
                    caller.start()
                assert wait_until(lambda: gateway.stats()["queued_now"] == 2)
                release.set()
                for caller in callers:
                    caller.join(timeout=10.0)
            assert not any(caller.is_alive() for caller in callers)
            assert gateway.stats()["outcomes"]["ok"] == 4
        finally:
            gateway.close()


class TestCrossProcessEncoding:
    def test_encode_roundtrips_every_kind_through_env(self, monkeypatch):
        specs = [
            CrashPoint(POINT, at=2),
            IOFault(POINT, at=1, message="disk full"),
            SlowIO(OTHER, at=3, seconds=0.25),
            Hang(OTHER, at=4, seconds=9.0),
        ]
        encoded = encode_fault_specs(specs)
        kinds = [doc["kind"] for doc in json.loads(encoded)]
        assert kinds == ["crash", "io", "slow", "hang"]
        monkeypatch.setenv(FAULTS_ENV_VAR, encoded)
        before = len(faults._ACTIVE)
        try:
            assert arm_from_env() == 4
            armed = [a.spec for a in faults._ACTIVE[before:]]
            # sleep callables don't cross the boundary; compare fields.
            assert armed[0] == CrashPoint(POINT, at=2)
            assert armed[1] == IOFault(POINT, at=1, message="disk full")
            assert (armed[2].point, armed[2].at, armed[2].seconds) == (OTHER, 3, 0.25)
            assert isinstance(armed[3], Hang)
            assert (armed[3].point, armed[3].at, armed[3].seconds) == (OTHER, 4, 9.0)
        finally:
            del faults._ACTIVE[before:]

    def test_unknown_kind_and_unknown_point_are_loud(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR, json.dumps([{"point": POINT, "kind": "gremlin"}])
        )
        with pytest.raises(ValueError, match="unknown fault kind"):
            arm_from_env()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            json.dumps([{"point": "test.harness.typo", "kind": "crash"}]),
        )
        with pytest.raises(ValueError, match="unknown fault point"):
            arm_from_env()

    def test_unset_env_arms_nothing(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert arm_from_env() == 0
