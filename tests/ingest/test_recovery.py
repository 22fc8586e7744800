"""Crash the ingest pipeline at every fault point; recover exactly-once.

The acceptance property: a pipeline killed at *any* registered
``ingest.*`` fault point — submit, WAL write, WAL fsync, apply start,
apply done — can be restarted (fresh cube, ``recover_ingest``, client
re-submits every batch with its original seed) to exactly the cube an
uninterrupted run produces, byte for byte. A crash in a background
thread is indistinguishable from ``kill -9`` for durability purposes:
the in-memory instance is discarded and only the WAL + journal files
survive into the restart.
"""

import pytest

from repro.core.loss import MeanLoss
from repro.core.maintenance import append_rows
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.ingest import IngestConfig, StreamIngestor, recover_ingest
from repro.resilience.faults import (
    CrashPoint,
    InjectedCrash,
    inject,
    registered_fault_points,
)

ATTRS = ("passenger_count", "payment_type")
NUM_BATCHES = 5
BATCH_ROWS = 40

INGEST_POINTS = [p for p in registered_fault_points() if p.startswith("ingest.")]

pytestmark = pytest.mark.faults


def build(table):
    tabula = Tabula(
        table,
        TabulaConfig(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    return tabula


@pytest.fixture(scope="module")
def delta():
    return generate_nyctaxi(num_rows=NUM_BATCHES * BATCH_ROWS, seed=33)


def batch(delta, i):
    return delta.slice(i * BATCH_ROWS, (i + 1) * BATCH_ROWS)


def seed_of(i):
    return 700 + i  # client-stable idempotency keys


@pytest.fixture(scope="module")
def reference(rides_tiny, delta):
    """Rows + digest after an uninterrupted apply of every batch."""
    tabula = build(rides_tiny)
    for i in range(NUM_BATCHES):
        append_rows(tabula, batch(delta, i), seed=seed_of(i))
    return tabula.table.num_rows, tabula.store.content_digest()


def drive_until_dead(ingestor, delta):
    """Submit every batch; swallow the one injected submit-side crash."""
    for i in range(NUM_BATCHES):
        try:
            ingestor.submit(batch(delta, i), seed=seed_of(i), timeout=2.0)
        except InjectedCrash:
            pass  # ingest.accept fires on the submitter thread


class TestKillAtEveryPoint:
    @pytest.mark.parametrize("point", INGEST_POINTS)
    def test_kill_recover_resubmit_converges(
        self, rides_tiny, delta, tmp_path, reference, point
    ):
        ref_rows, ref_digest = reference
        wal_path = tmp_path / "ingest.wal"
        journal_path = tmp_path / "maintenance.journal"
        live = StreamIngestor(
            build(rides_tiny),
            wal_path,
            journal_path,
            config=IngestConfig(flush_interval_seconds=0.002),
        )
        with inject(CrashPoint(point)):
            drive_until_dead(live, delta)
            live.close(drain=True, timeout=5.0)
        # Background-thread crashes surface as a typed pipeline failure,
        # never a silent drop; submit-side crashes raise at the caller.
        if point != "ingest.accept":
            assert live.stats()["failure"], f"{point} never tripped"

        # Simulated restart: the in-memory instance is gone; the WAL and
        # journal are all that survived.
        fresh = build(rides_tiny)
        recover_ingest(fresh, wal_path, journal_path)
        restarted = StreamIngestor(
            fresh,
            wal_path,
            journal_path,
            config=IngestConfig(flush_interval_seconds=0.002),
        )
        try:
            # The client retries its whole session (exactly-once by
            # content-hashed batch id: committed batches deduplicate).
            for i in range(NUM_BATCHES):
                result = restarted.submit(batch(delta, i), seed=seed_of(i))
                assert result.accepted, (point, i, result)
            assert restarted.wait_applied(timeout=20.0)
        finally:
            restarted.close(timeout=10.0)
        assert fresh.table.num_rows == ref_rows, point
        assert fresh.store.content_digest() == ref_digest, point

    def test_recovery_is_idempotent(self, rides_tiny, delta, tmp_path, reference):
        """Recovering twice (or after a clean run) changes nothing."""
        ref_rows, ref_digest = reference
        wal_path = tmp_path / "ingest.wal"
        journal_path = tmp_path / "maintenance.journal"
        live_cube = build(rides_tiny)
        live = StreamIngestor(live_cube, wal_path, journal_path)
        for i in range(NUM_BATCHES):
            assert live.submit(batch(delta, i), seed=seed_of(i)).accepted
        assert live.wait_applied(timeout=20.0)
        live.close(timeout=10.0)
        assert live_cube.store.content_digest() == ref_digest

        fresh = build(rides_tiny)
        first = recover_ingest(fresh, wal_path, journal_path)
        assert first.reapplied_batches + first.replayed_plans == NUM_BATCHES
        assert first.dropped_wal_lines == 0  # no crash, so no torn tail
        again = recover_ingest(fresh, wal_path, journal_path)
        assert again.reapplied_batches == again.replayed_plans == 0
        assert again.skipped_batches == NUM_BATCHES
        assert fresh.table.num_rows == ref_rows
        assert fresh.store.content_digest() == ref_digest

    def test_second_restart_after_a_deduplicated_resubmit(
        self, rides_tiny, delta, tmp_path
    ):
        """A client retry that the ingestor deduplicates is still logged
        in the WAL; the next restart must count it once, not as rows."""
        batches = 3
        expected = build(rides_tiny)
        for i in range(batches):
            append_rows(expected, batch(delta, i), seed=seed_of(i))
        wal_path = tmp_path / "ingest.wal"
        journal_path = tmp_path / "maintenance.journal"
        live = StreamIngestor(build(rides_tiny), wal_path, journal_path)
        for i in range(batches):
            assert live.submit(batch(delta, i), seed=seed_of(i)).accepted
        assert live.wait_applied(timeout=20.0)
        live.close(timeout=10.0)

        # First restart; the client re-submits its whole session.
        first = build(rides_tiny)
        recover_ingest(first, wal_path, journal_path)
        restarted = StreamIngestor(first, wal_path, journal_path)
        for i in range(batches):
            assert restarted.submit(batch(delta, i), seed=seed_of(i)).accepted
        assert restarted.wait_applied(timeout=20.0)
        restarted.close(timeout=10.0)
        assert restarted.stats()["counters"]["deduplicated_batches"] == batches

        # Second restart over a WAL that holds every batch twice.
        second = build(rides_tiny)
        recovery = recover_ingest(second, wal_path, journal_path)
        assert recovery.reapplied_batches + recovery.replayed_plans == batches
        assert recovery.skipped_batches == batches
        assert second.table.num_rows == expected.table.num_rows
        assert second.store.content_digest() == expected.store.content_digest()
        again = recover_ingest(second, wal_path, journal_path)
        assert again.reapplied_batches == again.replayed_plans == 0
        assert again.skipped_batches == 2 * batches
        assert second.table.num_rows == expected.table.num_rows
        assert second.store.content_digest() == expected.store.content_digest()

    def test_wrong_cube_for_logs_is_loud(self, rides_tiny, delta, tmp_path):
        """A cube that is not on the WAL's batch-boundary ladder is a
        typed error, not a silent mis-merge."""
        from repro.errors import TabulaError

        wal_path = tmp_path / "ingest.wal"
        journal_path = tmp_path / "maintenance.journal"
        live = StreamIngestor(build(rides_tiny), wal_path, journal_path)
        assert live.submit(batch(delta, 0), seed=seed_of(0)).accepted
        assert live.wait_applied(timeout=20.0)
        live.close(timeout=10.0)

        stranger = build(generate_nyctaxi(num_rows=123, seed=9))
        with pytest.raises(TabulaError, match="does not belong"):
            recover_ingest(stranger, wal_path, journal_path)


class TestRestartFromCubeFile:
    """``repro serve --ingest`` boots from the cube file, not a rebuild."""

    def test_open_cube_then_recover_keeps_the_files_digest(self, rides_tiny, tmp_path):
        from repro.core.persistence import open_cube, save_cube
        from repro.engine.io import read_csv, write_csv
        from repro.engine.schema import ColumnType

        def csv_table(table, name):
            path = tmp_path / name
            write_csv(table, path)
            return path, read_csv(path, types={a: ColumnType.CATEGORY for a in ATTRS})

        table_csv, table = csv_table(rides_tiny, "rides.csv")
        _, rows = csv_table(generate_nyctaxi(num_rows=2 * BATCH_ROWS, seed=33), "delta.csv")
        built = Tabula(
            table,
            TabulaConfig(
                cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount"), seed=7
            ),
        )
        built.initialize()
        cube_path = tmp_path / "cube.json"
        save_cube(built, cube_path)
        wal_path = tmp_path / "ingest.wal"
        journal_path = tmp_path / "maintenance.journal"

        served = open_cube(cube_path, table_csv)
        recover_ingest(served, wal_path, journal_path)  # first boot: no logs yet
        assert served.store.content_digest() == built.store.content_digest()

        live = StreamIngestor(served, wal_path, journal_path)
        for i in range(2):
            assert live.submit(batch(rows, i), seed=seed_of(i)).accepted
            append_rows(built, batch(rows, i), seed=seed_of(i))
        assert live.wait_applied(timeout=20.0)
        live.close(timeout=10.0)
        assert served.store.content_digest() == built.store.content_digest()

        restarted = open_cube(cube_path, table_csv)
        assert recover_ingest(restarted, wal_path, journal_path).reapplied_batches == 2
        assert restarted.table.num_rows == built.table.num_rows
        assert restarted.store.content_digest() == built.store.content_digest()
