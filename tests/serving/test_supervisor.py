"""Supervision state machine, driven deterministically with fakes.

No real processes: the factory hands out :class:`FakeWorker` objects, a
scripted probe stands in for the health RPC, and a manual clock replaces
``time.monotonic`` — so the exact restart schedule (pure
:func:`backoff_delay`), the hang-detection miss count, and the
crash-loop budget are all assertable to the decimal, not raced.
"""

import pytest

from repro.serving.supervisor import (
    ShardSupervisor,
    SupervisorConfig,
    WorkerProcess,
    WorkerState,
    backoff_delay,
)

pytestmark = pytest.mark.faults


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeWorker(WorkerProcess):
    _next_pid = 40000

    def __init__(self, shard):
        FakeWorker._next_pid += 1
        self._pid = FakeWorker._next_pid
        self.shard = shard
        self.port = 50000 + shard
        self.exit_code = None
        self.killed = False
        self.terminated = False

    @property
    def pid(self):
        return self._pid

    def poll(self):
        return self.exit_code

    def die(self, code=9):
        self.exit_code = code

    def kill(self):
        self.killed = True
        self.exit_code = -9

    def terminate(self):
        self.terminated = True
        self.exit_code = -15

    def wait(self, timeout=None):
        return self.exit_code if self.exit_code is not None else 0


class Harness:
    """A supervisor with injected factory/probe/clock, not yet start()ed.

    ``poll_once`` is driven manually; the monitor thread never runs, so
    each sweep's effect is observable in isolation.
    """

    def __init__(self, num_shards=2, **config_overrides):
        defaults = dict(
            heartbeat_interval_seconds=60.0,  # monitor thread must stay idle
            heartbeat_timeout_seconds=0.1,
            liveness_misses=3,
            backoff_base_seconds=0.2,
            backoff_cap_seconds=5.0,
            backoff_jitter=0.1,
            backoff_seed=0,
            crash_loop_window_seconds=30.0,
            crash_loop_budget=5,
        )
        defaults.update(config_overrides)
        self.config = SupervisorConfig(**defaults)
        self.clock = FakeClock()
        self.workers = {}
        self.spawn_counts = {}
        self.probe_replies = {}  # shard -> list of dict | Exception

        def factory(shard):
            self.spawn_counts[shard] = self.spawn_counts.get(shard, 0) + 1
            worker = FakeWorker(shard)
            self.workers.setdefault(shard, []).append(worker)
            return worker

        def probe(host, port, timeout):
            shard = port - 50000
            scripted = self.probe_replies.get(shard)
            if scripted:
                step = scripted.pop(0)
                if isinstance(step, Exception):
                    raise step
                return step
            return {"ok": True, "generation": 1}

        self.supervisor = ShardSupervisor(
            factory,
            num_shards,
            config=self.config,
            clock=self.clock,
            probe=probe,
        )
        # Spawn directly (not start()) so no monitor thread races the test.
        for shard in range(num_shards):
            self.supervisor._spawn_shard(shard)

    def current(self, shard):
        return self.workers[shard][-1]


class TestSpawnAndProbe:
    def test_all_shards_up_with_endpoints(self):
        h = Harness(num_shards=3)
        assert h.supervisor.up_shards() == [0, 1, 2]
        assert h.supervisor.endpoint(1) == ("127.0.0.1", 50001)

    def test_probe_success_records_generation(self):
        h = Harness(num_shards=1)
        h.probe_replies[0] = [{"ok": True, "generation": 7}]
        h.supervisor.poll_once()
        health = h.supervisor.health()[0]
        assert health["generation"] == 7
        assert health["probe_misses"] == 0

    def test_probe_miss_then_success_resets_counter(self):
        h = Harness(num_shards=1)
        h.probe_replies[0] = [OSError("refused"), {"ok": True}]
        h.supervisor.poll_once()
        assert h.supervisor.health()[0]["probe_misses"] == 1
        h.supervisor.poll_once()
        assert h.supervisor.health()[0]["probe_misses"] == 0
        assert h.supervisor.state_of(0) is WorkerState.UP


class TestDeathAndRestart:
    def test_dead_worker_enters_backoff_with_exact_delay(self):
        h = Harness(num_shards=2)
        h.current(0).die(code=17)
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.BACKOFF
        assert h.supervisor.state_of(1) is WorkerState.UP
        expected = backoff_delay(1, 0.2, 5.0, 0.1, 0, shard=0)
        health = h.supervisor.health()[0]
        assert "exited with code 17" in health["last_error"]
        with h.supervisor._lock:
            until = h.supervisor._handles[0].backoff_until
        assert until == pytest.approx(h.clock.now + expected)

    def test_restart_after_backoff_elapses_not_before(self):
        h = Harness(num_shards=1)
        h.current(0).die()
        h.supervisor.poll_once()
        delay = backoff_delay(1, 0.2, 5.0, 0.1, 0, shard=0)
        h.clock.advance(delay * 0.5)
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.BACKOFF
        assert h.spawn_counts[0] == 1
        h.clock.advance(delay)
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.UP
        assert h.spawn_counts[0] == 2
        assert h.supervisor.health()[0]["restarts_total"] == 1

    def test_backoff_schedule_is_exponential_and_deterministic(self):
        h = Harness(num_shards=1, backoff_jitter=0.0, crash_loop_budget=10)
        observed = []
        for attempt in range(1, 5):
            h.current(0).die()
            h.supervisor.poll_once()
            with h.supervisor._lock:
                observed.append(h.supervisor._handles[0].backoff_until - h.clock.now)
            h.clock.advance(observed[-1] + 0.001)
            h.supervisor.poll_once()
            assert h.supervisor.state_of(0) is WorkerState.UP
        assert observed == [
            pytest.approx(backoff_delay(a, 0.2, 5.0, 0.0, 0, shard=0))
            for a in range(1, 5)
        ]
        assert observed == pytest.approx([0.2, 0.4, 0.8, 1.6])

    def test_crash_loop_budget_parks_shard_failed(self):
        h = Harness(num_shards=1, crash_loop_budget=2, crash_loop_window_seconds=1000.0)
        for _ in range(2):
            h.current(0).die()
            h.supervisor.poll_once()
            h.clock.advance(10.0)
            h.supervisor.poll_once()
            assert h.supervisor.state_of(0) is WorkerState.UP
        h.current(0).die()
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.FAILED
        assert "crash-loop budget exhausted" in h.supervisor.health()[0]["last_error"]
        spawns = h.spawn_counts[0]
        h.clock.advance(3600.0)
        h.supervisor.poll_once()
        assert h.spawn_counts[0] == spawns, "FAILED must park, not respawn"
        assert h.supervisor.endpoint(0) is None

    def test_crashes_outside_window_do_not_count_against_budget(self):
        h = Harness(num_shards=1, crash_loop_budget=2, crash_loop_window_seconds=5.0)
        for _ in range(4):  # would exceed the budget if the window never pruned
            h.current(0).die()
            h.supervisor.poll_once()
            h.clock.advance(20.0)  # outside the 5s window
            h.supervisor.poll_once()
            assert h.supervisor.state_of(0) is WorkerState.UP


class TestHangDetection:
    def test_hung_worker_killed_after_consecutive_misses(self):
        h = Harness(num_shards=1, liveness_misses=3)
        h.probe_replies[0] = [OSError("timed out")] * 3
        h.supervisor.poll_once()
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.UP
        assert not h.current(0).killed
        h.supervisor.poll_once()  # third consecutive miss
        assert h.current(0).killed
        assert h.supervisor.state_of(0) is WorkerState.BACKOFF
        assert "hung: 3 consecutive heartbeat misses" in (
            h.supervisor.health()[0]["last_error"]
        )

    def test_hang_recovery_spawns_fresh_worker(self):
        h = Harness(num_shards=1, liveness_misses=2)
        h.probe_replies[0] = [OSError("x"), OSError("x")]
        h.supervisor.poll_once()
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.BACKOFF
        h.clock.advance(backoff_delay(1, 0.2, 5.0, 0.1, 0, shard=0) + 0.01)
        h.supervisor.poll_once()
        assert h.supervisor.state_of(0) is WorkerState.UP
        assert len(h.workers[0]) == 2


class TestStop:
    def test_stop_terminates_workers_and_clears_state(self):
        h = Harness(num_shards=2)
        # FakeWorker ports point nowhere; the graceful-shutdown RPC
        # failing must not prevent termination.
        h.supervisor.stop(timeout=0.1)
        for shard in (0, 1):
            assert h.supervisor.state_of(shard) is WorkerState.STOPPED
            assert h.current(shard).terminated or h.current(shard).killed
            assert h.supervisor.endpoint(shard) is None


class TestBackoffDelayFunction:
    def test_pure_and_deterministic(self):
        a = backoff_delay(3, 0.2, 5.0, 0.1, seed=0, shard=1)
        b = backoff_delay(3, 0.2, 5.0, 0.1, seed=0, shard=1)
        assert a == b
        assert backoff_delay(3, 0.2, 5.0, 0.1, seed=0, shard=2) != a

    def test_cap_and_jitter_bounds(self):
        for attempt in range(1, 12):
            delay = backoff_delay(attempt, 0.2, 5.0, 0.1, seed=0, shard=0)
            raw = min(5.0, 0.2 * 2 ** (attempt - 1))
            assert raw * 0.9 <= delay <= raw * 1.1

    def test_attempt_floor(self):
        assert backoff_delay(0, 0.2, 5.0, 0.0, 0, 0) == pytest.approx(0.2)
