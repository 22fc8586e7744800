"""Golden serial/parallel equivalence tests.

The parallel engine's whole value rests on one property: changing
``workers`` changes wall-clock and nothing else. These tests pin it at
the strongest level available — byte-identical persisted cube files —
including when a parallel build is killed mid-flight and resumed (even
with a *different* worker count, since partial progress must be
portable across parallelism).
"""

import numpy as np
import pytest

from repro.core.dryrun import dry_run
from repro.core.global_sample import draw_global_sample
from repro.core.loss import HeatmapLoss, MeanLoss
from repro.core.persistence import save_cube
from repro.core.tabula import Tabula, TabulaConfig
from repro.resilience.faults import CrashPoint, InjectedCrash, inject

ATTRS = ("passenger_count", "payment_type")


def make(table, loss=None, theta=0.05, **overrides):
    return Tabula(
        table,
        TabulaConfig(
            cubed_attrs=ATTRS,
            threshold=theta,
            loss=loss or MeanLoss("fare_amount"),
            seed=11,
            **overrides,
        ),
    )


def build_bytes(table, workers, path, **kwargs):
    tabula = make(table, **kwargs)
    tabula.initialize(workers=workers)
    save_cube(tabula, path)
    return path.read_bytes()


class TestGoldenEquivalence:
    def test_workers_1_vs_4_byte_identical_cube_file(self, rides_tiny, tmp_path):
        one = build_bytes(rides_tiny, 1, tmp_path / "w1.json")
        four = build_bytes(rides_tiny, 4, tmp_path / "w4.json")
        assert one == four

    def test_same_iceberg_cells_samples_and_representatives(self, rides_tiny):
        t1 = make(rides_tiny)
        t1.initialize(workers=1)
        t4 = make(rides_tiny)
        t4.initialize(workers=4)
        s1, s4 = t1.store, t4.store
        cells1 = list(s1._cell_to_sample_id)
        cells4 = list(s4._cell_to_sample_id)
        assert cells1 == cells4  # same iceberg cells, same layout order
        for cell in cells1:
            # same representative assignment...
            assert s1.sample_id_of(cell) == s4.sample_id_of(cell)
        for (sid1, sample1), (sid4, sample4) in zip(
            s1.sample_table_entries(), s4.sample_table_entries()
        ):
            # ...and identical sample tuples.
            assert sid1 == sid4
            assert sample1.num_rows == sample4.num_rows
            for name in sample1.column_names:
                assert sample1.column(name).to_list() == sample4.column(name).to_list()

    def test_heatmap_loss_equivalence(self, rides_tiny, tmp_path):
        loss = HeatmapLoss("pickup_x", "pickup_y")
        one = build_bytes(
            rides_tiny, 1, tmp_path / "w1.json", loss=loss, theta=0.01
        )
        four = build_bytes(
            rides_tiny, 4, tmp_path / "w4.json", loss=loss, theta=0.01
        )
        assert one == four

    def test_partitions_do_not_change_iceberg_cells(self, rides_tiny):
        # Different partition grids may reassociate float additions (an
        # accepted last-ulp effect) but must agree on the cube structure.
        loss = MeanLoss("fare_amount")
        gs = draw_global_sample(rides_tiny, np.random.default_rng(11))
        a = dry_run(rides_tiny, ATTRS, loss, 0.05, gs, partitions=4)
        b = dry_run(rides_tiny, ATTRS, loss, 0.05, gs, partitions=32)
        assert a.iceberg_cells_by_cuboid == b.iceberg_cells_by_cuboid
        assert a.known_cells == b.known_cells


class TestKillResumeEquivalence:
    @pytest.fixture()
    def reference(self, rides_tiny, tmp_path):
        tabula = make(rides_tiny)
        tabula.initialize(workers=1)
        path = tmp_path / "reference.json"
        save_cube(tabula, path)
        return path.read_bytes()

    @pytest.mark.faults
    @pytest.mark.parametrize(
        "point", ["init.realrun.cell_sampled", "init.checkpoint.cell"]
    )
    def test_killed_parallel_build_resumes_identically(
        self, rides_tiny, tmp_path, reference, point
    ):
        ckpt = tmp_path / "ckpt"
        with inject(CrashPoint(point, at=2)):
            with pytest.raises(InjectedCrash):
                make(rides_tiny).initialize(checkpoint_dir=ckpt, workers=4)
        resumed = make(rides_tiny)
        resumed.initialize(checkpoint_dir=ckpt, workers=4)
        out = tmp_path / "resumed.json"
        save_cube(resumed, out)
        assert out.read_bytes() == reference

    @pytest.mark.faults
    def test_resume_with_different_worker_count(self, rides_tiny, tmp_path, reference):
        # Progress journaled under workers=4 must replay under workers=1
        # (and vice versa): the checkpoint is parallelism-agnostic.
        ckpt = tmp_path / "ckpt"
        with inject(CrashPoint("init.checkpoint.cell", at=2)):
            with pytest.raises(InjectedCrash):
                make(rides_tiny).initialize(checkpoint_dir=ckpt, workers=4)
        resumed = make(rides_tiny)
        resumed.initialize(checkpoint_dir=ckpt, workers=1)
        out = tmp_path / "resumed.json"
        save_cube(resumed, out)
        assert out.read_bytes() == reference

    @pytest.mark.faults
    def test_kill_before_any_cell_dispatch(self, rides_tiny, tmp_path, reference):
        ckpt = tmp_path / "ckpt"
        with inject(CrashPoint("init.realrun.cell_start")):
            with pytest.raises(InjectedCrash):
                make(rides_tiny).initialize(checkpoint_dir=ckpt, workers=4)
        resumed = make(rides_tiny)
        resumed.initialize(checkpoint_dir=ckpt, workers=4)
        out = tmp_path / "resumed.json"
        save_cube(resumed, out)
        assert out.read_bytes() == reference


@pytest.mark.slow
class TestLargerScaleEquivalence:
    """Opt-in (``-m slow``): equivalence at a scale where the pool
    genuinely dispatches many partitions and dozens of cells."""

    def test_byte_identical_at_scale(self, tmp_path):
        from repro.data import generate_nyctaxi

        table = generate_nyctaxi(num_rows=20_000, seed=3)
        one = build_bytes(table, 1, tmp_path / "w1.json", theta=0.03)
        four = build_bytes(table, 4, tmp_path / "w4.json", theta=0.03)
        assert one == four


@pytest.mark.slow
def test_spawn_pool_matches_serial_build(rides_tiny, monkeypatch):
    """Under ``spawn`` (the platforms without ``fork``) the initializer's
    arguments are pickled to each worker rather than inherited: both
    stages must still run in the pool and write the serial build's cube."""
    import multiprocessing

    from repro.core import parallel

    serial = make(rides_tiny)
    serial.initialize(workers=1)
    monkeypatch.setattr(
        parallel, "_preferred_context", lambda: multiprocessing.get_context("spawn")
    )
    spawned = make(rides_tiny)
    report = spawned.initialize(workers=2)
    for execution in (report.dry_run_execution, report.real_run_execution):
        assert execution.mode == "pool"
        assert execution.fallback_kind == ""
    assert spawned.store.content_digest() == serial.store.content_digest()
