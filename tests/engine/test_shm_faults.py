"""Kill-at-fault-point tests for the shared-memory attach path.

Satellite of the concurrency-analyzer PR: a worker dying *mid-attach*
(segment opened by name, views not yet built) must not strand its
mapping — the attach wrappers close the segment on the way out, the
coordinator's ``unlink`` still destroys the name, and the runtime
sanitizer's accounting balances to zero.

The ``shm.attach.views`` fault point fires in-process here: the
parallel engine resolves descriptors in the coordinator too (the
inline fallback), and an :class:`InjectedCrash` is a *BaseException*
precisely so no recovery path can accidentally swallow it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitizer
from repro.engine.shm import (
    FP_ATTACH_VIEWS,
    attach_arrays,
    attach_table,
    share_arrays,
    share_table,
)
from repro.engine.table import Table
from repro.resilience.faults import CrashPoint, InjectedCrash, inject

pytestmark = pytest.mark.faults


def _toy() -> Table:
    return Table.from_pydict(
        {"city": ["nyc", "sf", "la"], "fare": [1.5, 2.0, 3.25]}
    )


@pytest.fixture()
def san():
    was_enabled = sanitizer.is_enabled()
    sanitizer.reset()
    sanitizer.enable()
    yield sanitizer
    if not was_enabled:
        sanitizer.disable()
    sanitizer.reset()


class TestAttachCrash:
    def test_registered_point(self):
        from repro.resilience.faults import registered_fault_points

        assert FP_ATTACH_VIEWS in registered_fault_points()

    def test_arrays_crash_mid_attach_releases_mapping(self, san):
        with share_arrays({"v": np.arange(16)}) as bundle:
            with inject(CrashPoint(FP_ATTACH_VIEWS)) as handle:
                with pytest.raises(InjectedCrash):
                    attach_arrays(bundle.descriptor)
            assert handle.tripped(FP_ATTACH_VIEWS)
            # The dying attach closed its segment: nothing is accounted
            # as attached-but-never-closed.
            assert not sanitizer.report()["shm_leaks"]["attached_not_closed"]
        # Exiting the with unlinked the segment; everything balances.
        sanitizer.assert_clean()

    def test_table_crash_mid_attach_releases_mapping(self, san):
        with share_table(_toy()) as bundle:
            with inject(CrashPoint(FP_ATTACH_VIEWS)) as handle:
                with pytest.raises(InjectedCrash):
                    attach_table(bundle.descriptor)
            assert handle.tripped(FP_ATTACH_VIEWS)
            assert not sanitizer.report()["shm_leaks"]["attached_not_closed"]
        sanitizer.assert_clean()

    def test_coordinator_unlink_survives_dead_attach(self, san):
        """The segment is really destroyed after a mid-attach death."""
        from multiprocessing import shared_memory

        bundle = share_arrays({"v": np.arange(8)})
        name = bundle.descriptor.shm_name
        with inject(CrashPoint(FP_ATTACH_VIEWS)):
            with pytest.raises(InjectedCrash):
                attach_arrays(bundle.descriptor)
        bundle.close()
        bundle.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        sanitizer.assert_clean()

    def test_healthy_attach_still_works_after_crash_round(self, san):
        """A tripped injection must not poison later attaches."""
        with share_arrays({"v": np.arange(4)}) as bundle:
            with inject(CrashPoint(FP_ATTACH_VIEWS)):
                with pytest.raises(InjectedCrash):
                    attach_arrays(bundle.descriptor)
            views, segment = attach_arrays(bundle.descriptor)
            try:
                assert views["v"].tolist() == [0, 1, 2, 3]
            finally:
                segment.close()
        sanitizer.assert_clean()


class TestParallelBuildWithAttachCrash:
    def test_build_with_crashing_attach_does_not_leak(
        self, san, rides_tiny, monkeypatch
    ):
        """End-to-end: a build whose attach dies mid-way leaves no
        segment behind (the coordinator's finally closes + unlinks).

        The crash is driven through the engine's documented pool
        fallback: when the pool can't be built, ``_map_with_pool``
        re-runs the worker initializer *in the coordinator* — where the
        armed fault point trips deterministically. (Arming it under a
        real fork pool would crash the children's initializers instead,
        and ``multiprocessing`` respawns crashed workers forever.)
        """
        from repro.core import parallel
        from repro.core.loss import MeanLoss
        from repro.core.tabula import Tabula, TabulaConfig

        real_context = parallel._preferred_context()

        class _UnusablePool:
            def get_start_method(self):
                return real_context.get_start_method()

            def Pool(self, *args, **kwargs):
                raise OSError("injected: no pool for you")

        monkeypatch.setattr(parallel, "_preferred_context", lambda: _UnusablePool())
        config = TabulaConfig(
            cubed_attrs=["vendor_name", "payment_type"],
            threshold=0.05,
            loss=MeanLoss("fare_amount"),
            seed=11,
        )
        with inject(CrashPoint(FP_ATTACH_VIEWS)):
            with pytest.raises(InjectedCrash), pytest.warns(RuntimeWarning):
                Tabula(rides_tiny, config).initialize(workers=2)
        leaks = sanitizer.report()["shm_leaks"]
        assert not leaks["created_not_unlinked"]
        assert not leaks["attached_not_closed"]
