"""Serving-gateway robustness under deterministic fault injection.

The acceptance scenarios of the serving layer: an overloaded gateway
sheds instead of queueing unboundedly, deadlines cut requests off
within one scheduling quantum, a degraded cell whose rebind fails is
never reported CERTIFIED, and hot reload against a corrupted file rolls
back with the old cube still serving.
"""

import json
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.loss import MeanLoss
from repro.core.persistence import save_cube
from repro.core.tabula import FP_REBIND_SCAN, GuaranteeStatus, Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.column import Column
from repro.engine.cube import CubeCells
from repro.engine.table import Table
from repro.ingest import StreamIngestor
from repro.resilience.faults import CrashPoint, IOFault, InjectedCrash, SlowIO, inject
from repro.serving import ServingConfig, ServingGateway, ServingOutcome
from repro.serving.gateway import FP_EXECUTE, FP_RELOAD_SWAP

ATTRS = ("passenger_count", "payment_type")

pytestmark = pytest.mark.faults


def build_tabula(table, theta=0.1, **overrides):
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=ATTRS, threshold=theta, loss=MeanLoss("fare_amount"), **overrides
        ),
    )
    tabula.initialize()
    return tabula


def iceberg_query(tabula):
    """A query hitting some materialized iceberg cell."""
    cell = next(iter(tabula.store._cell_to_sample_id))
    return cell, {a: v for a, v in zip(ATTRS, cell) if v is not None}


@contextmanager
def stalled_workers(count=1, timeout=10.0):
    """Deterministically park the next ``count`` requests at the
    ``serve.request.execute`` fault point until the event is set."""
    release = threading.Event()
    specs = [
        SlowIO(FP_EXECUTE, at=i + 1, sleep=lambda _: release.wait(timeout=timeout))
        for i in range(count)
    ]
    with inject(*specs) as handle:
        try:
            yield release, handle
        finally:
            release.set()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestLoadShedding:
    def test_full_queue_sheds_fast_with_typed_outcome(self, rides_tiny):
        """queue_depth waiting + all workers busy → instant SHED, not an
        unbounded queue or a blocked caller."""
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(
            tabula, config=ServingConfig(workers=1, queue_depth=2)
        )
        try:
            with stalled_workers(count=1) as (release, handle):
                background = [
                    threading.Thread(target=gateway.query, args=(where,))
                    for _ in range(3)
                ]
                background[0].start()
                # The worker must be parked on the request before we fill
                # the queue behind it.
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                for thread in background[1:]:
                    thread.start()
                assert wait_until(lambda: gateway.stats()["queued_now"] == 2)

                response = gateway.query(where)  # 4th request: queue full
                assert response.outcome is ServingOutcome.SHED
                assert response.guarantee is GuaranteeStatus.VOID
                assert response.sample is None
                assert "shed" in response.detail
                assert response.elapsed_seconds < 0.25  # fast reject
                assert gateway.stats()["queued_now"] <= 2  # bound held

                release.set()
                for thread in background:
                    thread.join(timeout=5)
            stats = gateway.stats()
            assert stats["outcomes"]["shed"] == 1
            assert stats["outcomes"]["ok"] == 3
        finally:
            gateway.close()

    def test_shedding_recovers_once_load_drains(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(
            tabula, config=ServingConfig(workers=1, queue_depth=1)
        )
        try:
            with stalled_workers(count=1) as (release, handle):
                blocked = threading.Thread(target=gateway.query, args=(where,))
                blocked.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                filler = threading.Thread(target=gateway.query, args=(where,))
                filler.start()
                assert wait_until(lambda: gateway.stats()["queued_now"] == 1)
                assert gateway.query(where).outcome is ServingOutcome.SHED
                release.set()
                blocked.join(timeout=5)
                filler.join(timeout=5)
            # Load drained: the same request is served again.
            assert gateway.query(where).outcome is ServingOutcome.OK
        finally:
            gateway.close()


class TestDeadlines:
    def test_deadline_exceeded_within_one_quantum(self, rides_tiny):
        """A stalled backend must not hold the caller past its budget:
        the response arrives within deadline + one scheduling quantum."""
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(
            tabula, config=ServingConfig(workers=1, queue_depth=4)
        )
        try:
            with stalled_workers(count=1) as (release, handle):
                occupier = threading.Thread(target=gateway.query, args=(where,))
                occupier.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)

                deadline = 0.1
                started = time.perf_counter()
                response = gateway.query(where, deadline_seconds=deadline)
                elapsed = time.perf_counter() - started
                assert response.outcome is ServingOutcome.DEADLINE_EXCEEDED
                assert response.guarantee is GuaranteeStatus.VOID
                assert response.sample is None
                assert elapsed < deadline + 0.9  # deadline + a quantum
                release.set()
                occupier.join(timeout=5)
        finally:
            gateway.close()

    def test_expired_deadline_never_executes(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=1))
        try:
            response = gateway.query(where, deadline_seconds=0.0)
            assert response.outcome is ServingOutcome.DEADLINE_EXCEEDED
        finally:
            gateway.close()

    def test_default_deadline_from_config(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(
            tabula,
            config=ServingConfig(workers=1, default_deadline_seconds=5.0),
        )
        try:
            assert gateway.query(where).outcome is ServingOutcome.OK
        finally:
            gateway.close()


class TestCircuitBreaker:
    def test_never_certified_after_failed_fallback(self, rides_tiny):
        """A degraded cell whose rebind scan fails answers DEGRADED from
        the global sample, and keeps doing so while the fault lasts."""
        tabula = build_tabula(rides_tiny)
        cell, where = iceberg_query(tabula)
        tabula.store.mark_degraded(cell, "sample lost in test")
        gateway = ServingGateway(tabula, config=ServingConfig(workers=1))
        try:
            # The backend fails on each of the three rebind scans.
            faults = [IOFault(FP_REBIND_SCAN, at=n) for n in (1, 2, 3)]
            with inject(*faults) as handle:
                for _ in range(3):
                    response = gateway.query(where)
                    assert response.outcome is ServingOutcome.DEGRADED
                    assert response.guarantee is not GuaranteeStatus.CERTIFIED
                    assert response.source == "global"
            assert handle.hits(FP_REBIND_SCAN) == 3
        finally:
            gateway.close()


class TestHotReload:
    def _gateway_from_file(self, table, tmp_path, **config_overrides):
        tabula = build_tabula(table)
        path = tmp_path / "cube.json"
        save_cube(tabula, path)
        gateway = ServingGateway.from_cube_file(
            path, table, config=ServingConfig(workers=1, **config_overrides)
        )
        return gateway, path

    def test_reload_swaps_generation_atomically(self, rides_tiny, tmp_path):
        gateway, path = self._gateway_from_file(rides_tiny, tmp_path)
        try:
            _, where = iceberg_query(gateway.tabula)
            assert gateway.query(where).generation == 1
            result = gateway.reload()
            assert result.ok and result.generation == 2
            response = gateway.query(where)
            assert response.generation == 2
            assert response.outcome is ServingOutcome.OK
        finally:
            gateway.close()

    def test_corrupt_replacement_rolls_back_and_old_cube_serves(
        self, rides_tiny, tmp_path
    ):
        gateway, path = self._gateway_from_file(rides_tiny, tmp_path)
        try:
            _, where = iceberg_query(gateway.tabula)
            payload = json.loads(path.read_text())
            # Tamper with the cube table without fixing its checksum.
            payload["cube_table"], payload["known_cells"] = [], []
            path.write_text(json.dumps(payload))

            result = gateway.reload()
            assert not result.ok
            assert result.generation == 1
            assert "rolled back" in result.error
            assert "cube_table" in result.error

            response = gateway.query(where)  # old snapshot still serving
            assert response.outcome is ServingOutcome.OK
            assert response.generation == 1
            stats = gateway.stats()
            assert stats["reloads"] == {"attempted": 1, "succeeded": 0, "failed": 1}
            assert "cube_table" in stats["last_reload_error"]
        finally:
            gateway.close()

    def test_reload_refused_while_ingest_is_attached(self, rides_small, tmp_path):
        """Swapping in the file under a live pipeline would pair its store
        with the grown table (and detach ingest from what queries read):
        refused, the generation stays, and CERTIFIED answers hold θ."""
        theta = 0.05
        tabula = build_tabula(rides_small, theta=theta)
        path = tmp_path / "cube.json"
        save_cube(tabula, path)
        gateway = ServingGateway.from_cube_file(path, rides_small)
        ingestor = StreamIngestor(
            gateway.tabula, tmp_path / "ingest.wal", tmp_path / "maintenance.journal"
        )
        gateway.attach_ingestor(ingestor)
        try:
            delta = generate_nyctaxi(num_rows=800, seed=99)
            surge = Table(
                [
                    Column(c.name, c.ctype, c.data * 5) if c.name == "fare_amount" else c
                    for c in delta.columns()
                ]
            )
            assert ingestor.submit(surge, seed=1).accepted
            assert ingestor.wait_applied(timeout=20.0)

            result = gateway.reload()
            assert not result.ok and result.generation == 1
            assert "ingest pipeline StreamIngestor" in result.error
            assert gateway.stats()["reloads"] == {"attempted": 1, "succeeded": 0, "failed": 1}

            served = gateway.tabula
            loss = served.config.loss
            values = loss.extract(served.table)
            cube = CubeCells(served.table, ATTRS)
            certified = 0
            for key in cube:
                response = gateway.query({a: v for a, v in zip(ATTRS, key) if v is not None})
                assert response.generation == 1
                if response.guarantee is GuaranteeStatus.CERTIFIED:
                    certified += 1
                    raw = values[cube.cell_indices(key)]
                    assert loss.loss(raw, loss.extract(response.sample)) <= theta + 1e-12, key
            assert certified > 0
        finally:
            ingestor.close(timeout=10.0)
            gateway.close()

    def test_inflight_request_keeps_its_pinned_generation(
        self, rides_tiny, tmp_path
    ):
        gateway, path = self._gateway_from_file(rides_tiny, tmp_path)
        try:
            _, where = iceberg_query(gateway.tabula)
            results = []
            with stalled_workers(count=1) as (release, handle):
                inflight = threading.Thread(
                    target=lambda: results.append(gateway.query(where))
                )
                inflight.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                assert gateway.reload().generation == 2
                release.set()
                inflight.join(timeout=5)
            # The stalled request finished on the snapshot it pinned.
            assert results[0].generation == 1
            assert gateway.query(where).generation == 2
        finally:
            gateway.close()

    def test_crash_mid_reload_then_restart_recovers_from_file(
        self, rides_tiny, tmp_path
    ):
        """A kill between load and swap leaves the old snapshot serving;
        a restarted gateway recovers the cube from the persisted file."""
        gateway, path = self._gateway_from_file(rides_tiny, tmp_path)
        _, where = iceberg_query(gateway.tabula)
        baseline = gateway.query(where)
        try:
            with inject(CrashPoint(FP_RELOAD_SWAP)):
                with pytest.raises(InjectedCrash):
                    gateway.reload()
            survivor = gateway.query(where)
            assert survivor.outcome is ServingOutcome.OK
            assert survivor.generation == 1
        finally:
            gateway.close()

        # "Restart": a fresh gateway boots from the same persisted cube
        # and answers the query identically.
        restarted = ServingGateway.from_cube_file(
            path, rides_tiny, config=ServingConfig(workers=1)
        )
        try:
            recovered = restarted.query(where)
            assert recovered.outcome is ServingOutcome.OK
            assert recovered.sample.num_rows == baseline.sample.num_rows
        finally:
            restarted.close()

    def test_reload_without_file_requires_explicit_path(self, rides_tiny):
        from repro.errors import TabulaError

        gateway = ServingGateway(build_tabula(rides_tiny))
        try:
            with pytest.raises(TabulaError, match="path"):
                gateway.reload()
        finally:
            gateway.close()


class TestCallerThread:
    def test_request_runs_on_the_callers_thread(self, rides_tiny):
        """The gateway owns no threads: the caller's thread executes its
        own request, so no hand-off sits between the caller and the
        cube lookup."""
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=2))
        try:
            assert not [
                t.name for t in threading.enumerate() if t.name.startswith("tabula-serve-")
            ]
            executed_on = []
            spec = SlowIO(FP_EXECUTE, sleep=lambda _: executed_on.append(threading.get_ident()))
            with inject(spec):
                response = gateway.query(where)
            assert response.outcome is ServingOutcome.OK
            assert executed_on == [threading.get_ident()]
        finally:
            gateway.close()

    def test_admission_count_survives_a_caller_stampede(self, rides_tiny):
        """More callers than cores, with a tiny switch interval, race the
        admission count; afterwards exactly ``workers + queue_depth``
        callers are admitted again — a lost update would leave it
        shedding early or admitting too many."""
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=1, queue_depth=2))
        callers, rounds = 8, 40
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            stampede = [
                threading.Thread(target=lambda: [gateway.query(where) for _ in range(rounds)])
                for _ in range(callers)
            ]
            for thread in stampede:
                thread.start()
            for thread in stampede:
                thread.join(timeout=30)
            assert not any(t.is_alive() for t in stampede)
        finally:
            sys.setswitchinterval(interval)
        try:
            stats = gateway.stats()
            assert stats["requests_total"] == callers * rounds
            assert sum(stats["outcomes"].values()) == callers * rounds
            assert stats["queued_now"] == 0
            with stalled_workers(count=1) as (release, handle):
                held = [threading.Thread(target=gateway.query, args=(where,)) for _ in range(3)]
                held[0].start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                for thread in held[1:]:
                    thread.start()
                assert wait_until(lambda: gateway.stats()["queued_now"] == 2)
                assert gateway.query(where).outcome is ServingOutcome.SHED
                release.set()
                for thread in held:
                    thread.join(timeout=10)
            assert not any(t.is_alive() for t in held)
            assert gateway.stats()["queued_now"] == 0
        finally:
            gateway.close()


class TestLifecycle:
    def test_closed_gateway_rejects_queries(self, rides_tiny):
        from repro.errors import TabulaError

        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        with ServingGateway(tabula, config=ServingConfig(workers=1)) as gateway:
            assert gateway.healthy and gateway.ready
        assert not gateway.healthy
        with pytest.raises(TabulaError, match="closed"):
            gateway.query(where)

    def test_stats_accounting_is_complete(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=2))
        try:
            for _ in range(5):
                gateway.query(where)
            stats = gateway.stats()
            assert stats["requests_total"] == 5
            assert sum(stats["outcomes"].values()) == 5
            assert stats["latency_seconds"]["count"] == 5
            assert stats["latency_seconds"]["p99"] >= stats["latency_seconds"]["p50"]
            assert stats["generation"] == 1
        finally:
            gateway.close()


class TestBatchedQueries:
    def test_empty_batch_is_noop(self, rides_tiny):
        gateway = ServingGateway(build_tabula(rides_tiny))
        try:
            assert gateway.query_many([]) == []
            assert gateway.stats()["requests_total"] == 0
        finally:
            gateway.close()

    def test_batch_occupies_one_queue_slot(self, rides_tiny):
        """A 50-query batch admits through a depth-1 queue: admission is
        per unit of work, not per query — the amortization the batched
        path exists for."""
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=1, queue_depth=1))
        try:
            responses = gateway.query_many([where] * 50)
            assert all(r.outcome is ServingOutcome.OK for r in responses)
            assert gateway.stats()["requests_total"] == 50
        finally:
            gateway.close()

    def test_full_queue_sheds_whole_batch(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=1, queue_depth=1))
        try:
            with stalled_workers(count=1) as (_, handle):
                # One request parks the worker; only once it is parked
                # (hit observed, queue drained) does the second go in —
                # started together they race put_nowait against the
                # worker's dequeue and one can shed instead of queuing.
                background = []
                staller = threading.Thread(
                    target=lambda: background.append(gateway.query(where))
                )
                staller.start()
                background.append(staller)
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                filler = threading.Thread(
                    target=lambda: background.append(gateway.query(where))
                )
                filler.start()
                background.append(filler)
                assert wait_until(lambda: gateway.stats()["queued_now"] >= 1)
                # ...so the batch is shed as a unit, every item typed SHED.
                responses = gateway.query_many([where] * 5)
                assert len(responses) == 5
                assert all(r.outcome is ServingOutcome.SHED for r in responses)
                assert all(r.sample is None for r in responses)
                assert all("batch of 5" in r.detail for r in responses)
            for item in background:
                if isinstance(item, threading.Thread):
                    item.join(timeout=10)
            assert gateway.stats()["outcomes"]["shed"] == 5
        finally:
            gateway.close()

    def test_batch_deadline_expires_every_item(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(tabula, config=ServingConfig(workers=1, queue_depth=2))
        try:
            with stalled_workers(count=1) as (_, handle):
                parked = threading.Thread(target=lambda: gateway.query(where))
                parked.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                responses = gateway.query_many([where] * 3, deadline_seconds=0.05)
                assert all(
                    r.outcome is ServingOutcome.DEADLINE_EXCEEDED for r in responses
                )
            parked.join(timeout=10)
        finally:
            gateway.close()

    def test_closed_gateway_rejects_batches(self, rides_tiny):
        from repro.errors import TabulaError

        gateway = ServingGateway(build_tabula(rides_tiny))
        gateway.close()
        with pytest.raises(TabulaError):
            gateway.query_many([{}])


class TestBatchDispositionConsistency:
    """Shed/timeout batches must mutate the stats counters atomically.

    ``query_many`` used to disposition a rejected batch one response at
    a time — N separate ``_stats_lock`` acquisitions — so a concurrent
    ``stats()`` reader could observe a *torn* batch: a shed count that
    no admission decision ever produced. ``_disposed`` counts the
    whole batch under one lock acquisition; this test races a stats
    sampler against shedding batches and asserts every observed value
    is a whole number of batches.
    """

    BATCH = 8
    ROUNDS = 30

    def test_shed_batches_are_never_observed_torn(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(
            tabula, config=ServingConfig(workers=1, queue_depth=1)
        )
        observed = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                observed.append(gateway.stats()["outcomes"]["shed"])

        try:
            with stalled_workers(count=1) as (release, handle):
                blocked = threading.Thread(target=gateway.query, args=(where,))
                blocked.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                filler = threading.Thread(target=gateway.query, args=(where,))
                filler.start()
                assert wait_until(lambda: gateway.stats()["queued_now"] == 1)

                sampling = threading.Thread(target=sampler)
                sampling.start()
                for _ in range(self.ROUNDS):
                    responses = gateway.query_many([where] * self.BATCH)
                    assert len(responses) == self.BATCH
                    assert all(
                        r.outcome is ServingOutcome.SHED for r in responses
                    )
                stop.set()
                sampling.join(timeout=5)
                release.set()
                blocked.join(timeout=5)
                filler.join(timeout=5)
            assert observed, "stats sampler never ran"
            torn = [value for value in observed if value % self.BATCH != 0]
            assert torn == [], f"torn batch counts observed: {torn[:10]}"
            assert gateway.stats()["outcomes"]["shed"] == self.ROUNDS * self.BATCH
        finally:
            gateway.close()

    def test_disposed_batch_counts_requests_total_once(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = iceberg_query(tabula)
        gateway = ServingGateway(
            tabula, config=ServingConfig(workers=1, queue_depth=1)
        )
        try:
            with stalled_workers(count=1) as (release, handle):
                blocked = threading.Thread(target=gateway.query, args=(where,))
                blocked.start()
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                filler = threading.Thread(target=gateway.query, args=(where,))
                filler.start()
                assert wait_until(lambda: gateway.stats()["queued_now"] == 1)
                before = gateway.stats()["requests_total"]
                responses = gateway.query_many([where] * 5)
                assert [r.outcome for r in responses] == [ServingOutcome.SHED] * 5
                assert gateway.stats()["requests_total"] == before + 5
                release.set()
                blocked.join(timeout=5)
                filler.join(timeout=5)
        finally:
            gateway.close()
