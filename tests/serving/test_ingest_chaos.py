"""Chaos: SIGKILL a shard worker mid-``append_rows``; replay from the WAL.

``CrashPoint("maintain.commit", at=2)`` crosses the process boundary
via ``REPRO_FAULTS``: the worker's second maintenance commit dies with
``os._exit`` *after* the batch is WAL-durable and journal-planned but
*before* the commit marker lands — the canonical torn append. The
acceptance invariants:

- the ingest client sees a dropped connection, never a fabricated ack;
- the router degrades monotonically (DOWNGRADED from its own fallback
  slice) and never serves CERTIFIED derived from the torn batch;
- the supervisor-restarted worker replays the orphaned batch via
  ``recover_ingest`` *before* serving, then certifies again;
- the client's retry of the un-acked batch deduplicates by content-
  hashed batch id instead of double-appending — provable offline by
  recovering the (now duplicate-bearing) WAL into a pristine cube.
"""

import argparse
import socket
import time

import pytest

from repro.core.persistence import load_cube
from repro.core.tabula import GuaranteeStatus
from repro.data import generate_nyctaxi
from repro.engine.io import read_csv, write_csv
from repro.engine.schema import ColumnType
from repro.ingest import recover_ingest
from repro.resilience.faults import CrashPoint, encode_fault_specs
from repro.serving import wire
from repro.serving.shard_worker import build_worker
from repro.serving.supervisor import WorkerState

from tests.serving.conftest import CLUSTER_ATTRS, boot_cluster, where_for

pytestmark = pytest.mark.faults

BATCH_ROWS = 40


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def ingest_op(endpoint, rows, seed):
    """One raw 'ingest' frame straight at a shard worker's socket."""
    with socket.create_connection(endpoint, timeout=10.0) as sock:
        wire.send_message(
            sock,
            {"op": "ingest", "rows": wire.table_to_wire(rows), "seed": seed},
        )
        return wire.recv_message(sock)


def worker_args(cube_path, csv_path, ingest_dir):
    """``shard_worker`` arguments for a one-shard in-process worker."""
    return argparse.Namespace(
        cube=cube_path, table=csv_path, shard=0, num_shards=1, vnodes=64,
        host="127.0.0.1", port=0, workers=1, queue_depth=4, deadline=None,
        min_service_seconds=0.0, loss_sql=None, ingest_dir=ingest_dir,
    )


class TestWorkerReload:
    def test_reload_op_refused_with_ingest_dir(self, cluster_cube, tmp_path):
        cube_path, csv_path, _ = cluster_cube
        worker = build_worker(worker_args(cube_path, csv_path, str(tmp_path / "ingest")))
        try:
            reply = worker._handle({"op": "reload"})
            assert not reply["ok"] and reply["generation"] == 1
            assert "ingest pipeline WorkerIngest" in reply["error"]
            assert worker._handle({"op": "health"})["generation"] == 1
        finally:
            worker.close()


    def test_router_reload_refused_by_ingest_workers_keeps_generation(
        self, cluster_cube, tmp_path
    ):
        """Every ingest-enabled worker refuses a reload, so the router
        keeps its own fallback and generation instead of drifting
        ahead of the cube its workers still serve."""
        cube_path, csv_path, _ = cluster_cube
        router = boot_cluster(
            cube_path,
            csv_path,
            2,
            extra_argv=["--ingest-dir", str(tmp_path / "ingest")],
        )
        try:
            generation_before = router.generation
            result = router.reload()
            assert not result.ok
            assert result.generation == generation_before
            assert router.generation == generation_before
            assert "shard 0" in result.error and "shard 1" in result.error
        finally:
            router.close()


class TestKillMidAppend:
    def test_torn_append_replays_and_retry_dedups(self, cluster_cube, tmp_path):
        cube_path, csv_path, tabula = cluster_cube
        # Round-trip the delta through CSV with the cluster's column
        # types so its schema matches the worker's table exactly.
        delta_csv = tmp_path / "delta.csv"
        write_csv(generate_nyctaxi(num_rows=2 * BATCH_ROWS, seed=88), str(delta_csv))
        delta = read_csv(
            str(delta_csv), types={a: ColumnType.CATEGORY for a in CLUSTER_ATTRS}
        )
        ingest_dir = tmp_path / "ingest"
        router = boot_cluster(
            cube_path,
            csv_path,
            1,
            env_extra={
                "REPRO_FAULTS": encode_fault_specs(
                    [CrashPoint("maintain.commit", at=2)]
                )
            },
            extra_argv=["--ingest-dir", str(ingest_dir)],
        )
        try:
            cell = next(iter(tabula.store._cell_to_sample_id))
            warm = router.query(where_for(cell), deadline_seconds=10.0)
            assert warm.guarantee is GuaranteeStatus.CERTIFIED

            # Batch 1 commits: the first maintain.commit hit is armed
            # at=2, so it passes through.
            first = ingest_op(
                router.supervisor.endpoint(0), delta.slice(0, BATCH_ROWS), seed=900
            )
            assert first["ok"] and first["seq"] == 1

            # Batch 2 dies mid-append: WAL-durable, journal-planned,
            # store mutated only inside the dying process. The client
            # gets a dropped connection, never a fabricated ack.
            with pytest.raises(ConnectionError):
                ingest_op(
                    router.supervisor.endpoint(0),
                    delta.slice(BATCH_ROWS, 2 * BATCH_ROWS),
                    seed=901,
                )

            # With the worker down, the router answers from its own
            # fallback slice — built before any ingest, so it cannot
            # leak the torn batch — and says so: DOWNGRADED, not a
            # silent CERTIFIED.
            degraded = router.query(where_for(cell), deadline_seconds=10.0)
            assert degraded.guarantee is GuaranteeStatus.DOWNGRADED
            assert degraded.source == "global"

            assert wait_until(
                lambda: router.supervisor.health()[0]["restarts_total"] >= 1
                and router.supervisor.state_of(0) is WorkerState.UP
            ), router.supervisor.health()

            # The replacement ran recover_ingest before serving: the
            # orphaned batch is applied from its journaled plan, and
            # answers certify again.
            assert wait_until(
                lambda: router.query(
                    where_for(cell), deadline_seconds=10.0
                ).guarantee
                is GuaranteeStatus.CERTIFIED,
                interval=0.5,
            ), "worker never recovered to CERTIFIED after crash mid-append"

            # The client retries the batch it never got an ack for.
            # The content-hashed batch id dedups (is_committed short-
            # circuits before the re-armed fault point can fire), so
            # this cannot crash the replacement or double-append.
            retry = ingest_op(
                router.supervisor.endpoint(0),
                delta.slice(BATCH_ROWS, 2 * BATCH_ROWS),
                seed=901,
            )
            assert retry["ok"] and retry["seq"] == 3
            assert retry["watermarks"]["applied_seq"] == 3
        finally:
            router.close()

        # Offline exactly-once audit: the WAL now carries the torn
        # batch twice (seq 2 and its retry at seq 3). Recovering into a
        # pristine cube must land each *distinct* batch exactly once.
        table = read_csv(
            csv_path, types={a: ColumnType.CATEGORY for a in CLUSTER_ATTRS}
        )
        fresh = load_cube(cube_path, table)
        base_rows = fresh.table.num_rows
        recovery = recover_ingest(
            fresh, ingest_dir / "shard0.wal", ingest_dir / "shard0.journal"
        )
        assert recovery.dropped_wal_lines == 0
        assert recovery.durable_seq == 3
        assert fresh.table.num_rows == base_rows + 2 * BATCH_ROWS
