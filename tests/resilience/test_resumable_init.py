"""Resumable initialization: kill the build anywhere, resume, get the
same cube.

The acceptance property for the checkpoint protocol: for every
registered fault point on the initialization path, crashing there and
re-running ``initialize`` with the same checkpoint directory yields a
cube store with the same logical content as an uninterrupted build.
"""

import pytest

# Imported for their import-time fault-point registrations, so the
# parametrized kill list below is complete.
import repro.core.maintenance  # noqa: F401
import repro.core.persistence  # noqa: F401
from repro.core.loss import MeanLoss
from repro.core.tabula import Tabula, TabulaConfig
from repro.resilience.checkpoint import CheckpointError, InitCheckpoint
from repro.resilience.faults import (
    CrashPoint,
    InjectedCrash,
    inject,
    registered_fault_points,
)

ATTRS = ("passenger_count", "payment_type")
THETA = 0.1

#: Every fault point a checkpointed initialize can hit (init stages,
#: checkpoint persistence, the cell log). Points registered later are
#: picked up automatically.
INIT_POINTS = [
    p
    for p in registered_fault_points()
    if p.startswith(("init.", "persist.", "journal."))
]


def make(table, **overrides):
    return Tabula(
        table,
        TabulaConfig(
            cubed_attrs=ATTRS,
            threshold=overrides.pop("threshold", THETA),
            loss=MeanLoss("fare_amount"),
            **overrides,
        ),
    )


@pytest.fixture(scope="module")
def reference_digest(rides_tiny):
    """Digest of a plain ``initialize()`` (the oracle): passing a
    checkpoint directory must not change the cube."""
    tabula = make(rides_tiny)
    tabula.initialize()
    return tabula.store.content_digest()


class TestDeterminism:
    def test_checkpointed_builds_are_reproducible(
        self, rides_tiny, tmp_path, reference_digest
    ):
        tabula = make(rides_tiny)
        tabula.initialize(checkpoint_dir=tmp_path / "ckpt")
        assert tabula.store.content_digest() == reference_digest

    def test_reopening_a_finished_checkpoint_reuses_it(
        self, rides_tiny, tmp_path, reference_digest
    ):
        ckpt = tmp_path / "ckpt"
        make(rides_tiny).initialize(checkpoint_dir=ckpt)
        again = make(rides_tiny)
        again.initialize(checkpoint_dir=ckpt)
        assert again.store.content_digest() == reference_digest


class TestForcedPoolDraws:
    """The cells that *use* their RNG: with ``pool_size`` below the
    iceberg cells' row counts every such cell draws a candidate pool, so
    equal digests mean equal RNG streams on every path — not just equal
    greedy runs over whole cells."""

    POOL = 50

    @pytest.mark.faults
    def test_plain_checkpointed_and_resumed_builds_agree(self, rides_tiny, tmp_path):
        plain = make(rides_tiny, pool_size=self.POOL)
        plain.initialize()
        assert any(
            len(cell.raw_indices) > self.POOL for cell in plain.real_run_result.cells
        ), "no iceberg cell exceeds pool_size; the test would prove nothing"
        reference = plain.store.content_digest()

        checkpointed = make(rides_tiny, pool_size=self.POOL)
        checkpointed.initialize(checkpoint_dir=tmp_path / "whole")
        assert checkpointed.store.content_digest() == reference

        ckpt = tmp_path / "killed"
        with inject(CrashPoint("init.realrun.cell_sampled", at=2)):
            with pytest.raises(InjectedCrash):
                make(rides_tiny, pool_size=self.POOL).initialize(checkpoint_dir=ckpt)
        resumed = make(rides_tiny, pool_size=self.POOL)
        resumed.initialize(checkpoint_dir=ckpt)
        assert resumed.store.content_digest() == reference


class TestKillAtEveryPoint:
    @pytest.mark.faults
    @pytest.mark.parametrize("point", INIT_POINTS)
    def test_kill_then_resume_matches_uninterrupted(
        self, rides_tiny, tmp_path, reference_digest, point
    ):
        ckpt = tmp_path / "ckpt"
        first = make(rides_tiny)
        crashed = False
        try:
            with inject(CrashPoint(point)):
                first.initialize(checkpoint_dir=ckpt)
        except InjectedCrash:
            crashed = True
        if not crashed:
            # The point is not on this build's path — the build must
            # simply have completed correctly.
            assert first.store.content_digest() == reference_digest
            return
        resumed = make(rides_tiny)  # fresh instance: in-memory state lost
        resumed.initialize(checkpoint_dir=ckpt)
        assert resumed.store.content_digest() == reference_digest

    @pytest.mark.faults
    def test_kill_mid_cells_preserves_progress(
        self, rides_tiny, tmp_path, reference_digest
    ):
        ckpt = tmp_path / "ckpt"
        with inject(CrashPoint("init.checkpoint.cell", at=2)):
            with pytest.raises(InjectedCrash):
                make(rides_tiny).initialize(checkpoint_dir=ckpt)
        # At least the first cell's record survived the kill.
        assert len(InitCheckpoint(ckpt).completed_cells()) >= 1
        resumed = make(rides_tiny)
        resumed.initialize(checkpoint_dir=ckpt)
        assert resumed.store.content_digest() == reference_digest

    @pytest.mark.faults
    def test_double_kill_still_converges(self, rides_tiny, tmp_path, reference_digest):
        ckpt = tmp_path / "ckpt"
        with inject(CrashPoint("init.checkpoint.cell")):
            with pytest.raises(InjectedCrash):
                make(rides_tiny).initialize(checkpoint_dir=ckpt)
        with inject(CrashPoint("init.selection.done")):
            with pytest.raises(InjectedCrash):
                make(rides_tiny).initialize(checkpoint_dir=ckpt)
        final = make(rides_tiny)
        final.initialize(checkpoint_dir=ckpt)
        assert final.store.content_digest() == reference_digest


class TestCheckpointSafety:
    def test_mismatched_config_is_rejected(self, rides_tiny, tmp_path):
        ckpt = tmp_path / "ckpt"
        make(rides_tiny).initialize(checkpoint_dir=ckpt)
        other = make(rides_tiny, threshold=0.2)
        with pytest.raises(CheckpointError):
            other.initialize(checkpoint_dir=ckpt)

    def test_mismatched_table_is_rejected(self, rides_tiny, rides_small, tmp_path):
        ckpt = tmp_path / "ckpt"
        make(rides_tiny).initialize(checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError):
            make(rides_small).initialize(checkpoint_dir=ckpt)

    def test_discard_removes_the_directory(self, rides_tiny, tmp_path):
        ckpt = tmp_path / "ckpt"
        make(rides_tiny).initialize(checkpoint_dir=ckpt)
        InitCheckpoint(ckpt).discard()
        assert not ckpt.exists()

    def test_plain_initialize_is_unaffected(self, rides_tiny):
        """Same ``(table, config)`` ⇒ same cube, also when one instance
        is initialized twice (no generator state survives a build)."""
        a = make(rides_tiny)
        a.initialize()
        first = a.store.content_digest()
        a.initialize()
        b = make(rides_tiny)
        b.initialize()
        assert first == a.store.content_digest() == b.store.content_digest()
