"""Progressive answers: stream now, refine as the maintainer catches up.

The acceptance properties: on a deliberately lagging maintainer a
stream yields the initial answer immediately plus at least two
refinement frames before the final; guarantee transitions are monotone
(rank never regresses within one stream, regressions are counted, not
silently dropped); and the final frame equals the answer a plain
non-progressive query gives once the pipeline has drained.
"""

import pytest

from repro.core.loss import MeanLoss
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.ingest import IngestConfig, ProgressiveFrame, StreamIngestor, progressive_query
from repro.ingest.stream import FP_APPLY_START
from repro.resilience.faults import Hang, inject
from repro.serving.gateway import ServingGateway

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
    return generate_nyctaxi(num_rows=360, seed=55)


def ranks(frames):
    return [f.response.guarantee.rank for f in frames]


class TestLaggingMaintainer:
    def test_streams_refinements_while_catching_up(
        self, rides_tiny, tmp_path, delta
    ):
        gateway = ServingGateway(build(rides_tiny))
        with inject(Hang(FP_APPLY_START, seconds=0.05)):
            ingestor = StreamIngestor(
                gateway.tabula,
                tmp_path / "ingest.wal",
                tmp_path / "maintenance.journal",
                config=IngestConfig(flush_interval_seconds=0.002),
            )
            gateway.attach_ingestor(ingestor)
            try:
                for i in range(6):
                    result = ingestor.submit(
                        delta.slice(i * 60, (i + 1) * 60), seed=40 + i
                    )
                    assert result.accepted
                frames = list(
                    progressive_query(
                        gateway,
                        {"payment_type": "cash"},
                        max_frames=10,
                        poll_seconds=0.002,
                        max_wait_seconds=30.0,
                    )
                )
            finally:
                ingestor.close(timeout=20.0)
                gateway.close()
        assert frames[0].kind == "initial"
        assert frames[-1].kind == "final"
        refines = [f for f in frames if f.kind == "refine"]
        assert len(refines) >= 2, [f.kind for f in frames]
        # Staleness visibly decays across the stream.
        assert frames[0].staleness_batches > frames[-1].staleness_batches
        assert frames[-1].staleness_batches == 0
        # applied_seq is non-decreasing frame to frame.
        applied = [f.applied_seq for f in frames]
        assert applied == sorted(applied)
        # Monotone guarantee: rank never worsens within the stream.
        sequence = ranks(frames)
        assert all(b <= a for a, b in zip(sequence, sequence[1:])), sequence
        # Every frame is a ProgressiveFrame with a coherent index.
        assert [f.index for f in frames] == list(range(len(frames)))
        assert all(isinstance(f, ProgressiveFrame) for f in frames)

    def test_final_frame_equals_non_progressive_answer(
        self, rides_tiny, tmp_path, delta
    ):
        gateway = ServingGateway(build(rides_tiny))
        with inject(Hang(FP_APPLY_START, seconds=0.02)):
            ingestor = StreamIngestor(
                gateway.tabula,
                tmp_path / "ingest.wal",
                tmp_path / "maintenance.journal",
                config=IngestConfig(flush_interval_seconds=0.002),
            )
            gateway.attach_ingestor(ingestor)
            where = {"payment_type": "credit"}
            try:
                for i in range(4):
                    assert ingestor.submit(
                        delta.slice(i * 60, (i + 1) * 60), seed=60 + i
                    ).accepted
                frames = list(
                    progressive_query(gateway, where, max_wait_seconds=30.0)
                )
                assert ingestor.wait_applied(timeout=20.0)
                plain = gateway.query(where)
            finally:
                ingestor.close(timeout=20.0)
                gateway.close()
        final = frames[-1].response
        assert final.guarantee is plain.guarantee
        assert final.source == plain.source
        assert final.sample is not None and plain.sample is not None
        assert final.sample.num_rows == plain.sample.num_rows
        assert final.sample.to_pydict() == plain.sample.to_pydict()


class TestNoIngestor:
    def test_degenerates_to_initial_plus_final(self, rides_tiny):
        gateway = ServingGateway(build(rides_tiny))
        try:
            frames = list(progressive_query(gateway, {"payment_type": "cash"}))
        finally:
            gateway.close()
        assert [f.kind for f in frames] == ["initial", "final"]
        assert frames[0].staleness_batches == 0
        assert frames[0].response.guarantee in (
            GuaranteeStatus.CERTIFIED,
            GuaranteeStatus.DOWNGRADED,
        )

    def test_max_frames_must_leave_room_for_final(self, rides_tiny):
        gateway = ServingGateway(build(rides_tiny))
        try:
            with pytest.raises(ValueError, match="max_frames"):
                list(progressive_query(gateway, {}, max_frames=1))
        finally:
            gateway.close()
