"""Shard slicing of the sampling-cube store (the sharded tier's substrate).

The safety of the whole sharded serving tier reduces to properties of
``SamplingCubeStore.shard_slice``: shards partition the iceberg cells
exactly, a foreign iceberg cell on any slice is *structurally* degraded
(so no shard can ever emit a CERTIFIED answer for a cell it does not
own — the monotone-degradation invariant lives in the store, not in
router code), and the router's own ``shard_id=None`` slice owns nothing.
"""

import pytest

from repro.core.loss import MeanLoss
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.serving.placement import Placement, shard_transform

ATTRS = ("passenger_count", "payment_type")


def build_tabula(table, theta=0.1):
    tabula = Tabula(
        table,
        TabulaConfig(cubed_attrs=ATTRS, threshold=theta, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    return tabula


def where_for(cell):
    return {a: v for a, v in zip(ATTRS, cell) if v is not None}


@pytest.fixture(scope="module")
def cube(rides_tiny):
    tabula = build_tabula(rides_tiny)
    assert tabula.store.num_iceberg_cells > 2, "fixture too small to shard"
    return tabula


class TestShardSliceStore:
    def test_shards_partition_iceberg_cells_exactly(self, cube):
        placement = Placement(3)
        all_cells = set(cube.store._cell_to_sample_id)
        owned = []
        for shard in range(3):
            sliced = cube.store.shard_slice(placement.shard_of, shard)
            owned.append(set(sliced._cell_to_sample_id))
            # Owned cells keep their materialized local samples.
            for cell in owned[-1]:
                assert sliced.lookup(cell) is not None
        assert owned[0] | owned[1] | owned[2] == all_cells
        assert not (owned[0] & owned[1] or owned[0] & owned[2] or owned[1] & owned[2])

    def test_foreign_iceberg_cells_degraded_with_owner_named(self, cube):
        placement = Placement(2)
        sliced = cube.store.shard_slice(placement.shard_of, 0)
        foreign = [
            c for c in cube.store._cell_to_sample_id if placement.shard_of(c) == 1
        ]
        assert foreign, "placement left shard 1 empty; enlarge the fixture"
        for cell in foreign:
            assert sliced.is_degraded(cell)
            assert "shard 1" in sliced.degraded_reason(cell)
            assert sliced.lookup(cell) is None

    def test_known_cells_and_global_sample_are_replicated(self, cube):
        placement = Placement(2)
        sliced = cube.store.shard_slice(placement.shard_of, 0)
        assert sliced._known_cells == cube.store._known_cells
        # By reference: the global sample is the replicated rung, not a copy.
        assert sliced.global_sample is cube.store.global_sample

    def test_none_slice_owns_nothing(self, cube):
        placement = Placement(3)
        sliced = cube.store.shard_slice(placement.shard_of, None)
        assert not sliced._cell_to_sample_id
        assert sliced.num_samples == 0
        for cell in cube.store._cell_to_sample_id:
            assert sliced.is_degraded(cell)


class TestShardTransformQueries:
    def test_owned_cell_answers_certified_local(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        placement = Placement(2)
        cells = list(tabula.store._cell_to_sample_id)
        owned = next(c for c in cells if placement.shard_of(c) == 0)
        shard_transform(placement, 0)(tabula)
        result = tabula.query(where_for(owned))
        assert result.guarantee is GuaranteeStatus.CERTIFIED
        assert result.source == "local"

    def test_foreign_cell_answers_downgraded_global_never_certified(self, rides_tiny):
        """The monotone-degradation invariant, at its source."""
        tabula = build_tabula(rides_tiny)
        placement = Placement(2)
        cells = list(tabula.store._cell_to_sample_id)
        foreign = next(c for c in cells if placement.shard_of(c) == 1)
        shard_transform(placement, 0)(tabula)
        result = tabula.query(where_for(foreign))
        assert result.guarantee is GuaranteeStatus.DOWNGRADED
        assert result.source == "global"
        assert "shard 1" in result.detail

    def test_transform_pins_no_rebind_no_raw_fallback(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        shard_transform(Placement(2), 0)(tabula)
        assert tabula.config.degraded_rebind is False

    def test_router_slice_downgrades_every_iceberg_cell(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        cells = list(tabula.store._cell_to_sample_id)
        shard_transform(Placement(4), None)(tabula)
        for cell in cells[:5]:
            result = tabula.query(where_for(cell))
            assert result.guarantee is GuaranteeStatus.DOWNGRADED
            assert result.source == "global"
