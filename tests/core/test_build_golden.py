"""Golden cube digests: the build's output pinned across refactors.

Every other digest test compares two arms of the same code (plain vs
checkpointed vs parallel vs loaded), so a change that moves all arms
together — a different row order handed to the greedy, a different
cell order, a different candidate pool — passes them all. These
literals were recorded at the commit *before* the build's grouping was
rewritten (packed integer keys, cuboid rows derived from base cells);
a change that is meant to alter which samples exist must say so and
re-record them.
"""

import pytest

from repro.core.loss import HeatmapLoss, HistogramLoss, MeanLoss
from repro.core.loss.combined import CombinedLoss
from repro.core.loss.compiler import compile_loss
from repro.core.loss.stddev import StdDevLoss
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.sql.parser import parse_statement

ATTRS = ("passenger_count", "payment_type", "rate_code")
#: The benchmark's cubed attributes.
PERF_ATTRS = ("payment_type", "rate_code", "passenger_count", "pickup_weekday", "vendor_name")


@pytest.fixture(scope="module")
def taxi_50k():
    return generate_nyctaxi(50_000, seed=0)


def compiled_mean_loss():
    """The mean loss written in the DSL: a loss with no join bounds."""
    stmt = parse_statement(
        "CREATE AGGREGATE mean_dsl(Raw, Sam) RETURN decimal_value AS BEGIN "
        "ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw)) END"
    )
    return compile_loss(stmt).bind(("fare_amount",))


CASES = {
    "mean-small": (
        "rides_small",
        dict(cubed_attrs=ATTRS, threshold=0.05, loss=MeanLoss("fare_amount"), seed=3),
        "08ecb322e7ccea61bbb2ba00dedbd2d94aae07919553d696243e3ccdd8eaf24d",
    ),
    # rides_small, not rides_tiny: a 400-row table is its own global
    # sample, so no cell is iceberg under the heat-map loss there.
    "heatmap-small": (
        "rides_small",
        dict(
            cubed_attrs=ATTRS,
            threshold=0.003,
            loss=HeatmapLoss("pickup_x", "pickup_y"),
            seed=3,
        ),
        "ec55663d74ca75eb5da24d68c367c6588e8e036ce93c6c12bca3a794265b897e",
    ),
    # Cells larger than the pool cap draw a candidate pool from their
    # own (seed, cell) stream — the only randomness in the real run.
    "mean-small-pooled": (
        "rides_small",
        dict(
            cubed_attrs=ATTRS,
            threshold=0.05,
            loss=MeanLoss("fare_amount"),
            seed=3,
            pool_size=50,
        ),
        "b1637fa5dcda5ab0909674c039db6e18016efc5936feaa101673907eb9b08941",
    ),
    # The benchmark's heat-map cube: large enough that most base cells'
    # nearest-sample distances come from the k-d tree, not the distance
    # matrix, and recorded before the distance losses measured a whole
    # partition (and a sample's SamGraph checks) in one batch.
    "heatmap-50k": (
        "taxi_50k",
        dict(
            cubed_attrs=PERF_ATTRS,
            threshold=0.006,
            loss=HeatmapLoss("pickup_x", "pickup_y"),
        ),
        "def404273b8ee330846bf075bded2fd89d4403e68cd0a3fb99522f9a89d0e746",
    ),
    # Losses the representation join used to decide pair by pair; the
    # combined and compiled losses now share the batched join.
    "combined-max-tiny": (
        "rides_tiny",
        dict(
            cubed_attrs=ATTRS,
            threshold=1.0,
            loss=CombinedLoss(
                [(0.05, MeanLoss("fare_amount")), (0.02, HistogramLoss("fare_amount"))]
            ),
            seed=3,
        ),
        "41c4f3c6e207feede978e04e1bead557bed2b362475491813e0bb12dfbc6e4e1",
    ),
    "combined-sum-small": (
        "rides_small",
        dict(
            cubed_attrs=ATTRS,
            threshold=0.08,
            loss=CombinedLoss(
                [(1.0, MeanLoss("fare_amount")), (1.0, StdDevLoss("fare_amount"))],
                mode="sum",
            ),
            seed=3,
        ),
        "7c1559bb1708e6b64264bc016a7d8723274c531b30833d054991566ed076e9cc",
    ),
    # The same cube as mean-small, so the same literal.
    "compiled-mean-small": (
        "rides_small",
        dict(cubed_attrs=ATTRS, threshold=0.05, loss=compiled_mean_loss(), seed=3),
        "08ecb322e7ccea61bbb2ba00dedbd2d94aae07919553d696243e3ccdd8eaf24d",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_digest_is_pinned(case, request):
    fixture, config, expected = CASES[case]
    tabula = Tabula(request.getfixturevalue(fixture), TabulaConfig(**config))
    tabula.initialize()
    assert tabula.store.content_digest() == expected
