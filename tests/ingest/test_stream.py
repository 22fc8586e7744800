"""StreamIngestor semantics: typed outcomes, watermarks, bounded queue.

The acceptance contract under test: every ``submit`` is disposed of
exactly once with a typed outcome (accepted / backpressure / closed),
the queue never exceeds its bound, watermarks advance monotonically
durable → applied, and a drained close leaves nothing behind.
"""

import threading

import pytest

from repro.core.loss import MeanLoss
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.errors import TabulaError
from repro.ingest import IngestConfig, IngestOutcome, StreamIngestor
from repro.ingest.stream import FP_APPLY_START
from repro.resilience.faults import Hang, inject

ATTRS = ("passenger_count", "payment_type")


def build(table):
    tabula = Tabula(
        table,
        TabulaConfig(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    return tabula


@pytest.fixture(scope="module")
def delta():
    return generate_nyctaxi(num_rows=240, seed=21)


@pytest.fixture()
def pipeline(rides_tiny, tmp_path):
    tabula = build(rides_tiny)
    ingestor = StreamIngestor(
        tabula,
        tmp_path / "ingest.wal",
        tmp_path / "maintenance.journal",
        config=IngestConfig(flush_interval_seconds=0.005),
    )
    yield tabula, ingestor
    ingestor.close(drain=False, timeout=5.0)


class TestSubmit:
    def test_accepted_batch_becomes_durable_and_applied(self, pipeline, delta):
        tabula, ingestor = pipeline
        before = tabula.table.num_rows
        result = ingestor.submit(delta.slice(0, 60), seed=7)
        assert result.accepted and result.durable and result.seq == 1
        assert ingestor.wait_applied(timeout=10.0)
        assert tabula.table.num_rows == before + 60
        marks = ingestor.watermarks()
        assert marks["durable_seq"] == marks["applied_seq"] == 1
        assert marks["lag_batches"] == 0 and marks["queued_rows"] == 0

    def test_empty_batch_is_a_typed_noop(self, pipeline, delta):
        _, ingestor = pipeline
        result = ingestor.submit(delta.slice(0, 0))
        assert result.accepted and result.seq == 0

    def test_schema_mismatch_is_rejected_loudly(self, pipeline):
        from repro.engine.table import Table

        _, ingestor = pipeline
        bad = Table.from_pydict({"only_column": [1.0, 2.0]})
        with pytest.raises(TabulaError, match="schema"):
            ingestor.submit(bad)

    def test_closed_pipeline_rejects_with_typed_outcome(self, pipeline, delta):
        _, ingestor = pipeline
        ingestor.close(drain=True, timeout=10.0)
        result = ingestor.submit(delta.slice(0, 10))
        assert result.outcome is IngestOutcome.CLOSED
        assert "closed" in result.detail


class TestBackpressure:
    def test_full_queue_returns_typed_backpressure_not_buffering(
        self, rides_tiny, tmp_path, delta
    ):
        tabula = build(rides_tiny)
        # A maintainer that lags 0.5 s before each apply.
        with inject(Hang(FP_APPLY_START, seconds=0.5)):
            ingestor = StreamIngestor(
                tabula,
                tmp_path / "bp.wal",
                tmp_path / "bp.journal",
                config=IngestConfig(
                    max_queued_rows=50,
                    retry_after_seconds=0.02,
                ),
            )
            try:
                first = ingestor.submit(delta.slice(0, 50), wait_durable=False)
                assert first.accepted
                second = ingestor.submit(delta.slice(50, 100), wait_durable=False)
                assert second.outcome is IngestOutcome.BACKPRESSURE
                assert second.retry_after_seconds == pytest.approx(0.02)
                assert second.queued_rows <= 50
                assert "retry" in second.detail
                stats = ingestor.stats()
                assert stats["counters"]["offered"] == 2
                assert stats["counters"]["accepted"] == 1
                assert stats["counters"]["backpressured"] == 1
                # The backpressured rows were NOT buffered anywhere.
                assert ingestor.watermarks()["queued_rows"] <= 50
                # Retrying after the maintainer drains eventually lands.
                assert ingestor.wait_applied(timeout=10.0)
                retry = ingestor.submit(delta.slice(50, 100), wait_durable=False)
                assert retry.accepted
            finally:
                ingestor.close(timeout=10.0)

    def test_staleness_is_visible_while_maintainer_lags(
        self, rides_tiny, tmp_path, delta
    ):
        tabula = build(rides_tiny)
        with inject(Hang(FP_APPLY_START, seconds=0.2)):
            ingestor = StreamIngestor(
                tabula,
                tmp_path / "lag.wal",
                tmp_path / "lag.journal",
            )
            try:
                ingestor.submit(delta.slice(0, 40), seed=1)
                ingestor.submit(delta.slice(40, 80), seed=2)
                assert ingestor.staleness_batches() >= 1
                assert ingestor.wait_applied(timeout=10.0)
                assert ingestor.staleness_batches() == 0
            finally:
                ingestor.close(timeout=10.0)


class TestConcurrentWriters:
    def test_many_writers_every_batch_disposed_exactly_once(
        self, rides_tiny, tmp_path, delta
    ):
        """4 writer threads race submit; accounting must close exactly."""
        tabula = build(rides_tiny)
        before = tabula.table.num_rows
        ingestor = StreamIngestor(
            tabula,
            tmp_path / "conc.wal",
            tmp_path / "conc.journal",
            config=IngestConfig(flush_interval_seconds=0.002),
        )
        accepted = []
        lock = threading.Lock()

        def writer(start):
            for i in range(start, start + 3):
                result = ingestor.submit(
                    delta.slice(i * 20, (i + 1) * 20), seed=100 + i
                )
                with lock:
                    accepted.append(result.outcome)

        threads = [threading.Thread(target=writer, args=(s,)) for s in (0, 3, 6, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert all(o is IngestOutcome.ACCEPTED for o in accepted)
            assert ingestor.wait_applied(timeout=15.0)
            assert tabula.table.num_rows == before + 12 * 20
            counters = ingestor.stats()["counters"]
            assert counters["offered"] == 12
            assert counters["accepted"] == 12
            assert counters["applied_batches"] == 12
        finally:
            ingestor.close(timeout=10.0)

    def test_close_drains_queued_batches(self, rides_tiny, tmp_path, delta):
        tabula = build(rides_tiny)
        before = tabula.table.num_rows
        with inject(Hang(FP_APPLY_START, seconds=0.05)):
            ingestor = StreamIngestor(
                tabula,
                tmp_path / "drain.wal",
                tmp_path / "drain.journal",
            )
            for i in range(4):
                ingestor.submit(delta.slice(i * 30, (i + 1) * 30), wait_durable=False)
            ingestor.close(drain=True, timeout=20.0)
        assert tabula.table.num_rows == before + 120
        marks = ingestor.watermarks()
        assert marks["applied_seq"] == marks["durable_seq"] == 4
