"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitizer
from repro.core.loss import HeatmapLoss, HistogramLoss, MeanLoss, RegressionLoss
from repro.data import generate_nyctaxi
from repro.engine.table import Table


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="run the whole session under the runtime concurrency sanitizer "
        "(same as REPRO_SANITIZE=1) and fail it on recorded violations",
    )


@pytest.fixture(scope="session", autouse=True)
def _sanitize_session(request: pytest.FixtureRequest):
    """Session-wide sanitizer harness (``--sanitize`` / REPRO_SANITIZE=1).

    Enables sanitize mode before the first test, lets the whole suite
    run (violations are recorded, never raised inline), and fails the
    session at teardown if anything was recorded — lock-order
    inversions, blocking calls under locks, unguarded access to
    ``@guarded_by`` methods, dropped deadlines.
    """
    if not (request.config.getoption("--sanitize") or sanitizer.is_enabled()):
        yield
        return
    sanitizer.reset()
    sanitizer.enable()
    yield
    snapshot = sanitizer.report()
    sanitizer.disable()
    sanitizer.assert_clean(snapshot)


@pytest.fixture(scope="session")
def rides_small() -> Table:
    """A small synthetic taxi table shared across tests (read-only)."""
    return generate_nyctaxi(num_rows=3000, seed=11)


@pytest.fixture(scope="session")
def rides_tiny() -> Table:
    """A very small table for exhaustive/ground-truth comparisons."""
    return generate_nyctaxi(num_rows=400, seed=5)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture()
def toy_table() -> Table:
    """The paper's running-example shape: D (distance bucket), C, M."""
    return Table.from_pydict(
        {
            "D": ["[0,5)", "[0,5)", "[0,5)", "[5,10)", "[5,10)", "[10,15)", "[10,15)", "[15,20)"],
            "C": [1, 1, 2, 1, 3, 1, 2, 2],
            "M": ["credit", "dispute", "cash", "credit", "dispute", "cash", "credit", "cash"],
            "fare": [5.0, 7.5, 4.0, 12.0, 11.0, 21.0, 19.5, 30.0],
            "tip": [1.0, 0.0, 0.0, 2.5, 0.0, 4.2, 3.9, 6.0],
        }
    )


@pytest.fixture()
def mean_loss() -> MeanLoss:
    return MeanLoss("fare_amount")


@pytest.fixture()
def heatmap_loss() -> HeatmapLoss:
    return HeatmapLoss("pickup_x", "pickup_y")


@pytest.fixture()
def histogram_loss() -> HistogramLoss:
    return HistogramLoss("fare_amount")


@pytest.fixture()
def regression_loss() -> RegressionLoss:
    return RegressionLoss("fare_amount", "tip_amount")
