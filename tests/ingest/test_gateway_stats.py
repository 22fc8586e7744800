"""Gateway stats stay consistent under concurrent reload + ingest.

Three writer threads hammer ``submit`` (retrying typed backpressure),
a reloader keeps asking for a hot reload (refused: an ingest pipeline
is attached), query clients and a stats poller read throughout — all with the runtime sanitizer armed. The
acceptance properties: every mid-storm ``stats()`` snapshot is
internally coherent (generation and watermarks monotone, counters
never claim more disposals than offers), the final accounting closes
exactly, and the sanitizer records zero violations.
"""

import threading
import time

import pytest

from repro import sanitizer
from repro.core.loss import MeanLoss
from repro.core.persistence import save_cube
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.ingest import IngestConfig, IngestOutcome, StreamIngestor
from repro.ingest.stream import FP_APPLY_START
from repro.resilience.faults import Hang, inject
from repro.serving import ServingConfig, ServingGateway

ATTRS = ("passenger_count", "payment_type")
WRITERS = 3
BATCHES_PER_WRITER = 6
BATCH_ROWS = 20
RELOADS = 4


@pytest.fixture()
def san():
    was_enabled = sanitizer.is_enabled()
    sanitizer.reset()
    sanitizer.enable()
    yield sanitizer
    if not was_enabled:
        sanitizer.disable()
    sanitizer.reset()


@pytest.fixture()
def served(rides_tiny, tmp_path):
    """(gateway, ingestor) built from a cube *file* so reload works."""
    tabula = Tabula(
        rides_tiny,
        TabulaConfig(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    cube_path = str(tmp_path / "cube.json")
    save_cube(tabula, cube_path)
    gateway = ServingGateway.from_cube_file(
        cube_path, rides_tiny, config=ServingConfig(workers=2, queue_depth=16)
    )
    # A maintainer that lags 5 ms before each apply.
    with inject(Hang(FP_APPLY_START, seconds=0.005)):
        ingestor = StreamIngestor(
            gateway.tabula,
            tmp_path / "ingest.wal",
            tmp_path / "maintenance.journal",
            config=IngestConfig(
                max_queued_rows=3 * BATCH_ROWS,
                flush_interval_seconds=0.002,
                retry_after_seconds=0.01,
            ),
        )
        gateway.attach_ingestor(ingestor)
        try:
            yield gateway, ingestor
        finally:
            ingestor.close(drain=False, timeout=10.0)
            gateway.close()


def test_stats_consistent_under_reload_plus_ingest(san, served):
    gateway, ingestor = served
    total_batches = WRITERS * BATCHES_PER_WRITER
    delta = generate_nyctaxi(num_rows=total_batches * BATCH_ROWS, seed=67)
    rows_before = ingestor.tabula.table.num_rows
    errors = []
    done = threading.Event()

    def writer(writer_id):
        try:
            for i in range(BATCHES_PER_WRITER):
                index = writer_id * BATCHES_PER_WRITER + i
                rows = delta.slice(index * BATCH_ROWS, (index + 1) * BATCH_ROWS)
                deadline = time.monotonic() + 30.0
                while True:
                    result = ingestor.submit(rows, seed=500 + index)
                    if result.accepted:
                        break
                    if result.outcome is not IngestOutcome.BACKPRESSURE:
                        raise AssertionError(f"untyped outcome: {result}")
                    if time.monotonic() > deadline:
                        raise AssertionError(f"batch {index} starved")
                    time.sleep(result.retry_after_seconds)
        except Exception as exc:  # surfaced after join; threads stay quiet
            errors.append(("writer", writer_id, exc))

    def reloader():
        try:
            for _ in range(RELOADS):
                result = gateway.reload()
                # Refused: the ingest pipeline applies to the served
                # instance, which a swapped-in file would abandon.
                if result.ok or result.generation != 1:
                    raise AssertionError(f"reload under ingest swapped: {result}")
                time.sleep(0.02)
        except Exception as exc:
            errors.append(("reloader", 0, exc))

    def querier(n):
        try:
            while not done.is_set():
                response = gateway.query({"payment_type": "cash"})
                assert response.staleness_batches >= 0
                time.sleep(0.005)
        except Exception as exc:
            errors.append(("querier", n, exc))

    def poller():
        """Every snapshot must be coherent even mid-mutation."""
        last_generation = 0
        last_durable = 0
        try:
            while not done.is_set():
                stats = gateway.stats()
                assert stats["generation"] >= last_generation
                last_generation = stats["generation"]
                marks = stats["ingest"]["watermarks"]
                assert marks["durable_seq"] >= last_durable
                assert marks["applied_seq"] <= marks["durable_seq"]
                last_durable = marks["durable_seq"]
                counters = stats["ingest"]["counters"]
                # ``offered`` increments before the outcome is decided,
                # so mid-flight it may run ahead — never behind.
                assert counters["offered"] >= (
                    counters["accepted"]
                    + counters["backpressured"]
                    + counters["rejected_closed"]
                )
                # One lock acquisition per disposal: a snapshot never
                # counts an outcome that requests_total does not.
                assert sum(stats["outcomes"].values()) <= stats["requests_total"]
                time.sleep(0.002)
        except Exception as exc:
            errors.append(("poller", 0, exc))

    threads = (
        [threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)]
        + [threading.Thread(target=reloader)]
        + [threading.Thread(target=querier, args=(n,)) for n in range(2)]
        + [threading.Thread(target=poller)]
    )
    for thread in threads:
        thread.start()
    for thread in threads[: WRITERS + 1]:  # writers + reloader
        thread.join(timeout=60.0)
    done.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not errors, errors
    assert ingestor.wait_applied(timeout=30.0)

    # Quiescent accounting closes exactly.
    stats = gateway.stats()
    assert stats["generation"] == 1
    assert stats["reloads"]["attempted"] == RELOADS
    assert stats["reloads"]["succeeded"] == 0
    assert stats["reloads"]["failed"] == RELOADS
    counters = stats["ingest"]["counters"]
    assert counters["accepted"] == total_batches
    assert counters["applied_batches"] == total_batches
    assert counters["rejected_closed"] == 0
    assert counters["offered"] == (
        counters["accepted"] + counters["backpressured"]
    )
    marks = stats["ingest"]["watermarks"]
    assert marks["durable_seq"] == marks["applied_seq"] == total_batches
    assert marks["lag_batches"] == 0 and marks["queued_rows"] == 0
    assert stats["ingest"]["failure"] == ""
    assert (
        ingestor.tabula.table.num_rows
        == rows_before + total_batches * BATCH_ROWS
    )
    assert stats["requests_total"] == sum(stats["outcomes"].values())

    # The whole storm ran with the sanitizer armed: no lock-order
    # inversions, no blocking calls under sanitized locks, no leaks.
    assert san.violations() == []
    san.assert_clean()
