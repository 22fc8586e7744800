"""Unit tests for the parallel cube-construction engine.

Covers the partition grid, the merge identity for zero-row partitions,
the workers/partition guards, and the determinism contract: the
parallel dry run agrees with the serial dry run on every iceberg cell,
and builds with different worker counts are *exactly* equal.
"""

import numpy as np
import pytest

from repro.core.dryrun import dry_run, merge_partition_stats, partition_bounds
from repro.core.global_sample import draw_global_sample
from repro.core.loss.mean import MeanLoss
from repro.core.parallel import (
    check_workers,
    parallel_dry_run,
    parallel_real_run,
    task_chunks,
)
from repro.core.tabula import Tabula, TabulaConfig

ATTRS = ("passenger_count", "payment_type")


def _global_sample(table, seed=11):
    return draw_global_sample(table, np.random.default_rng(seed))


class TestPartitionBounds:
    def test_covers_every_row_exactly_once(self):
        for num_rows in (0, 1, 5, 16, 17, 1000):
            for partitions in (1, 2, 7, 16, 64):
                bounds = partition_bounds(num_rows, partitions)
                assert len(bounds) == partitions
                assert bounds[0][0] == 0
                assert bounds[-1][1] == num_rows
                for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                    assert hi == lo2
                assert all(hi >= lo for lo, hi in bounds)

    def test_near_equal_sizes(self):
        bounds = partition_bounds(103, 10)
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_more_partitions_than_rows_yields_empty_tails(self):
        bounds = partition_bounds(3, 8)
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == 3
        assert sizes.count(0) == 5  # legal empty partitions

    def test_independent_of_workers(self):
        # The grid is a function of (num_rows, partitions) alone; this is
        # the root of the determinism guarantee.
        assert partition_bounds(1000, 16) == partition_bounds(1000, 16)

    def test_rejects_bad_partition_count(self):
        with pytest.raises(ValueError):
            partition_bounds(100, 0)
        with pytest.raises(ValueError):
            partition_bounds(100, -3)

    def test_rejects_negative_rows(self):
        with pytest.raises(ValueError):
            partition_bounds(-1, 4)

    def test_degenerate_shapes_pinned_exactly(self):
        """The grid IS the determinism contract: these exact lists are
        load-bearing (a resumed build must see the same cell→partition
        map the crashed build wrote), so they are pinned, not just
        property-checked."""
        assert partition_bounds(3, 8) == [
            (0, 1), (1, 2), (2, 3), (3, 3), (3, 3), (3, 3), (3, 3), (3, 3),
        ]
        assert partition_bounds(5, 3) == [(0, 2), (2, 4), (4, 5)]
        assert partition_bounds(0, 4) == [(0, 0), (0, 0), (0, 0), (0, 0)]
        assert partition_bounds(7, 7) == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        ]
        assert partition_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert partition_bounds(1, 1) == [(0, 1)]


class TestTaskChunks:
    def test_never_empty_never_overlapping(self):
        for num_tasks in (0, 1, 2, 3, 17, 100, 1000):
            for workers in (1, 2, 4, 8, 64):
                chunks = task_chunks(num_tasks, workers)
                assert all(hi > lo for lo, hi in chunks), "empty chunk emitted"
                covered = 0
                for lo, hi in chunks:
                    assert lo == covered, "gap or overlap between chunks"
                    covered = hi
                assert covered == num_tasks

    def test_fewer_tasks_than_slots_one_task_per_chunk(self):
        assert task_chunks(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert task_chunks(1, 4) == [(0, 1)]

    def test_zero_tasks_zero_chunks(self):
        assert task_chunks(0, 4) == []

    def test_oversubscribes_workers_to_amortize_stragglers(self):
        # 4x chunks per worker by default: slow cells stop serializing
        # the pool only if there are more chunks than workers.
        chunks = task_chunks(100, 3)
        assert len(chunks) == 12
        assert chunks[0] == (0, 9) and chunks[-1] == (92, 100)


class TestCheckWorkers:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", None, True])
    def test_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            check_workers(bad)

    def test_accepts_positive_ints(self):
        assert check_workers(1) == 1
        assert check_workers(64) == 64


class TestMergeIdentity:
    def test_empty_partition_contributes_identity(self):
        loss = MeanLoss("fare_amount")
        stats = (3.0, 12.0)
        merged = merge_partition_stats(
            loss, [[(("a",), stats)], [], [(("a",), stats)], []]
        )
        assert merged[("a",)] == loss.merge_stats(stats, stats)

    def test_all_empty_partitions_merge_to_nothing(self):
        merged = merge_partition_stats(MeanLoss("fare_amount"), [[], [], []])
        assert merged == {}


class TestParallelDryRun:
    def test_matches_serial_iceberg_set(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        serial = dry_run(rides_tiny, ATTRS, loss, 0.05, gs)
        par = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=1)
        assert set(par.iceberg_stats) == set(serial.iceberg_stats)
        assert par.known_cells == serial.known_cells
        assert par.cell_counts == serial.cell_counts
        for cell, value in serial.cell_losses.items():
            assert par.cell_losses[cell] == pytest.approx(value)

    def test_workers_do_not_change_result(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        one = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=1)
        two = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=2)
        assert list(one.iceberg_stats) == list(two.iceberg_stats)
        assert one.cell_losses == two.cell_losses
        assert one.cell_stats == two.cell_stats

    def test_workers_exceeding_partitions_is_clamped(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        few = parallel_dry_run(
            rides_tiny, ATTRS, loss, 0.05, gs, workers=1, partitions=2
        )
        many = parallel_dry_run(
            rides_tiny, ATTRS, loss, 0.05, gs, workers=64, partitions=2
        )
        assert list(few.iceberg_stats) == list(many.iceberg_stats)

    def test_partitions_exceeding_rows(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        par = parallel_dry_run(
            rides_tiny,
            ATTRS,
            loss,
            0.05,
            gs,
            workers=2,
            partitions=rides_tiny.num_rows + 50,
        )
        serial = dry_run(rides_tiny, ATTRS, loss, 0.05, gs)
        assert set(par.iceberg_stats) == set(serial.iceberg_stats)

    def test_empty_table(self, rides_tiny):
        empty = rides_tiny.take(np.empty(0, dtype=np.int64))
        loss = MeanLoss("fare_amount")
        gs = _global_sample(empty)
        result = parallel_dry_run(empty, ATTRS, loss, 0.05, gs, workers=2)
        assert result.num_iceberg_cells == 0
        assert result.known_cells == frozenset()

    def test_rejects_bad_workers(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        with pytest.raises(ValueError):
            parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=0)


class TestParallelRealRun:
    def test_workers_exceeding_cell_count(self, rides_tiny):
        # More workers than iceberg cells must not crash or change bytes.
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        dry = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=1)
        assert dry.num_iceberg_cells > 0
        one = parallel_real_run(rides_tiny, dry, loss, seed=7, workers=1)
        many = parallel_real_run(
            rides_tiny, dry, loss, seed=7, workers=dry.num_iceberg_cells + 40
        )
        assert [c.key for c in one.cells] == [c.key for c in many.cells]
        for a, b in zip(one.cells, many.cells):
            np.testing.assert_array_equal(a.sample_indices, b.sample_indices)
            assert a.sampling.achieved_loss == b.sampling.achieved_loss

    def test_per_cell_rng_independent_of_order(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        dry = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=1)
        first = parallel_real_run(rides_tiny, dry, loss, seed=3, workers=2)
        second = parallel_real_run(rides_tiny, dry, loss, seed=3, workers=2)
        for a, b in zip(first.cells, second.cells):
            assert a.key == b.key
            np.testing.assert_array_equal(a.sample_indices, b.sample_indices)


class TestTabulaWorkersAPI:
    def _config(self):
        return TabulaConfig(
            cubed_attrs=ATTRS,
            threshold=0.05,
            loss=MeanLoss("fare_amount"),
            seed=11,
        )

    def test_initialize_rejects_bad_workers(self, rides_tiny):
        with pytest.raises(ValueError):
            Tabula(rides_tiny, self._config()).initialize(workers=0)

    def test_parallel_digest_matches_across_worker_counts(self, rides_tiny):
        digests = set()
        for workers in (1, 2, 5):
            tabula = Tabula(rides_tiny, self._config())
            tabula.initialize(workers=workers)
            digests.add(tabula.store.content_digest())
        assert len(digests) == 1

    def test_parallel_build_really_fans_out(self, rides_tiny):
        """A ``workers=2`` build that quietly ran inline would still pass
        every digest check; the report's execution records must say both
        stages went through the pool (negative half: ``TestFallbackAudit``)."""
        report = Tabula(rides_tiny, self._config()).initialize(workers=2)
        for execution in (report.dry_run_execution, report.real_run_execution):
            assert execution.mode == "pool"
            assert execution.fallback_kind != "error"


class TestFallbackAudit:
    """A pool that cannot start must degrade loudly, not silently: the
    run still completes (inline, identical results) but the execution
    record says so (``TestTabulaWorkersAPI`` asserts the positive half on
    a real build)."""

    class _BrokenContext:
        """Stub multiprocessing context whose Pool always fails."""

        def get_start_method(self):
            return "fork"

        def Pool(self, *args, **kwargs):
            raise OSError("forced pool failure (test)")

    def test_dry_run_records_error_fallback(self, rides_tiny, monkeypatch):
        import repro.core.parallel as parallel_mod

        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        healthy = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=2)
        assert healthy.execution.mode == "pool"
        assert not healthy.execution.degraded

        monkeypatch.setattr(parallel_mod, "_preferred_context", self._BrokenContext)
        with pytest.warns(RuntimeWarning, match="fell back to in-process"):
            degraded = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=2)
        execution = degraded.execution
        assert execution.mode == "inline"
        assert execution.fallback_kind == "error"
        assert "OSError" in execution.fallback_reason
        assert execution.effective_workers == 1
        assert execution.requested_workers == 2
        assert execution.degraded
        # Degraded, not wrong: the inline rerun is the same computation.
        assert degraded.cell_losses == healthy.cell_losses

    def test_execution_record_round_trips_to_dict(self, rides_tiny):
        loss = MeanLoss("fare_amount")
        gs = _global_sample(rides_tiny)
        result = parallel_dry_run(rides_tiny, ATTRS, loss, 0.05, gs, workers=2)
        doc = result.execution.to_dict()
        assert doc["mode"] == "pool"
        assert doc["used_shared_memory"] is True
        assert doc["fallback_kind"] == ""
        assert doc["shared_bytes"] > 0
