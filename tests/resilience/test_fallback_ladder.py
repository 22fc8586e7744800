"""Fallback-ladder behavior under injected raw-backend faults.

Satellite coverage for the degraded-cell query path: rebind (re-verify
a surviving representative with one raw scan of the cell) → global
sample → ``VOID``. When the rebind's raw scan fails (``IOFault``), the
:class:`GuaranteeStatus` must degrade *monotonically* — never report
CERTIFIED after a failed fallback — and an expired deadline must refuse
the query rather than stall the dashboard.
"""

import pytest

from repro.core.loss import MeanLoss
from repro.core.tabula import (
    FP_REBIND_SCAN,
    GuaranteeStatus,
    Tabula,
    TabulaConfig,
)
from repro.errors import DeadlineExceeded
from repro.resilience.deadline import Deadline
from repro.resilience.faults import IOFault, inject

ATTRS = ("passenger_count", "payment_type")

pytestmark = pytest.mark.faults


def build_tabula(table, **overrides):
    config = dict(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount"))
    config.update(overrides)
    tabula = Tabula(table, TabulaConfig(**config))
    tabula.initialize()
    return tabula


def degrade_one_cell(tabula):
    cell = next(iter(tabula.store._cell_to_sample_id))
    tabula.store.mark_degraded(cell, "injected test degradation")
    return cell, {a: v for a, v in zip(ATTRS, cell) if v is not None}


class FakeClock:
    def __init__(self):
        self.now = 50.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestIOFaultOnRawRung:
    def test_raw_failure_degrades_to_global_never_certified(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = degrade_one_cell(tabula)
        with inject(IOFault(FP_REBIND_SCAN)) as handle:
            result = tabula.query(where)
        assert handle.tripped(FP_REBIND_SCAN)
        assert result.guarantee is GuaranteeStatus.DOWNGRADED
        assert result.source == "global"

    def test_degradation_is_monotone_across_the_ladder(self, rides_tiny):
        """Healthy rebind: CERTIFIED. Failed rebind: strictly worse, and
        repeating the failure never climbs back to CERTIFIED."""
        tabula = build_tabula(rides_tiny)
        cell, where = degrade_one_cell(tabula)

        healthy = tabula.query(where)
        assert healthy.guarantee is GuaranteeStatus.CERTIFIED
        assert healthy.source == "representative"

        ranks = [healthy.guarantee.rank]
        for attempt in range(3):
            tabula.store.mark_degraded(cell, "injected test degradation")
            with inject(IOFault(FP_REBIND_SCAN)):
                result = tabula.query(where)
            assert result.guarantee is not GuaranteeStatus.CERTIFIED
            ranks.append(result.guarantee.rank)
        # Once a fallback failed, the guarantee never improves again
        # within the faulty regime.
        assert ranks[1:] == sorted(ranks[1:])
        assert max(ranks[1:]) >= GuaranteeStatus.DOWNGRADED.rank

    def test_rebind_scan_failure_is_tolerated(self, rides_tiny):
        """An OSError while re-verifying a representative must not
        abort the query: the ladder records it, keeps descending, and
        leaves the cell degraded for a later, healthy rebind."""
        tabula = build_tabula(rides_tiny)
        cell, where = degrade_one_cell(tabula)
        with inject(IOFault(FP_REBIND_SCAN)) as handle:
            result = tabula.query(where)
        assert handle.tripped(FP_REBIND_SCAN)
        assert "rebind scan failed" in result.detail
        assert tabula.store.is_degraded(cell)

        healed = tabula.query(where)
        assert healed.guarantee is GuaranteeStatus.CERTIFIED
        assert healed.source == "representative"
        assert not tabula.store.is_degraded(cell)


class TestDeadlineOnRawRung:
    def test_expired_deadline_skips_raw_rung_entirely(self, rides_tiny):
        clock = FakeClock()
        tabula = build_tabula(rides_tiny)
        _, where = degrade_one_cell(tabula)
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)  # expired before the ladder runs
        # An expired deadline raises before the cube lookup: the query
        # path refuses to do *any* work past the budget.
        with inject(IOFault(FP_REBIND_SCAN)) as handle:
            with pytest.raises(DeadlineExceeded):
                tabula.query(where, deadline=deadline)
        assert handle.hits(FP_REBIND_SCAN) == 0

    def test_generous_deadline_changes_nothing(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        _, where = degrade_one_cell(tabula)
        result = tabula.query(where, deadline=Deadline.after(60.0))
        assert result.guarantee is GuaranteeStatus.CERTIFIED
        assert result.source == "representative"
