"""One query pipeline: single ≡ batch of one ≡ item *i* of a mixed batch.

Every surface that answers dashboard queries — ``Tabula``, the
``ServingGateway``, the HTTP endpoint and a 2-shard ``ShardRouter`` —
has a single entry and a batch entry over one implementation. This
suite is the one place that checks it: for each surface, over cells
that land on every rung (local / global / empty / degraded, plus an
IN-union where the surface accepts predicates), with and without a
viewport geometry, the three ways of asking must agree on outcome,
guarantee, source, cell, rows, ``spatial_filtered`` and ``detail``.

The router runs a second time with one shard SIGKILLed: its cells are
the sharded tier's degraded cells (foreign on the replica that fails
over for them), and a batch must take the same failover rung a single
query takes.
"""

import json
import os
import signal
import threading
import urllib.request
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import pytest

from repro.core.loss import HistogramLoss
from repro.core.persistence import save_cube
from repro.core.tabula import Tabula, TabulaConfig
from repro.engine.expressions import Equals, In
from repro.engine.io import read_csv, write_csv
from repro.engine.schema import ColumnType
from repro.serving import ServingConfig, ServingGateway
from repro.serving.http import make_server
from repro.serving.router import RouterConfig
from repro.serving.supervisor import SupervisorConfig

from tests.serving.conftest import CLUSTER_ATTRS, boot_cluster, cells_owned_by, where_for

VIEWPORT = {"type": "bbox", "xmin": 0.0, "ymin": 0.0, "xmax": 0.5, "ymax": 0.5}
IN_UNION = In("payment_type", ["cash", "credit"]) & Equals("passenger_count", "1")

#: The rung each kind of case must land on (so no case is vacuous).
EXPECTED_SOURCE = {
    "local": "local",
    "global": "global",
    "empty": "empty",
    "degraded": "global",
    "union": "union",
}

#: Detects the kill within ~0.3 s, then leaves the victim down for the
#: rest of the test: a restart between two asks would change the answer.
SLOW_RESTART = SupervisorConfig(
    heartbeat_interval_seconds=0.1,
    heartbeat_timeout_seconds=0.3,
    liveness_misses=2,
    backoff_base_seconds=300.0,
    backoff_cap_seconds=300.0,
)


class Answer(NamedTuple):
    outcome: Optional[str]
    guarantee: str
    source: str
    cell: Any
    rows: Optional[Dict[str, list]]
    spatial_filtered: bool
    detail: str


class Surface(NamedTuple):
    single: Callable[[Any, Any], Answer]
    batch: Callable[[List[Any], Any], List[Answer]]
    cases: Dict[str, Any]  # kind -> WHERE clause


def _answer(result) -> Answer:
    """A ``QueryResult`` or a ``ServingResponse``, normalized."""
    outcome = getattr(result, "outcome", None)
    return Answer(
        outcome.value if outcome is not None else None,
        result.guarantee.name,
        result.source,
        result.cell,
        result.sample.to_pydict() if result.sample is not None else None,
        result.spatial_filtered,
        result.detail,
    )


def _json_answer(document: Dict[str, Any]) -> Answer:
    cell = document["cell"]
    return Answer(
        document["outcome"],
        document["guarantee"],
        document["source"],
        tuple(cell) if cell is not None else None,
        document["rows"],
        document["spatial_filtered"],
        document["detail"],
    )


def _object_surface(backend, cases) -> Surface:
    return Surface(
        lambda where, geometry: _answer(backend.query(where, geometry=geometry)),
        lambda wheres, geometry: [
            _answer(r) for r in backend.query_many(wheres, geometry=geometry)
        ],
        cases,
    )


def _http_surface(base: str, cases) -> Surface:
    def post(payload: Dict[str, Any], geometry) -> Dict[str, Any]:
        payload["limit"] = 1_000_000
        if geometry is not None:
            payload["geometry"] = geometry
        request = urllib.request.Request(
            f"{base}/query", data=json.dumps(payload).encode("utf-8"), method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            return json.load(response)

    return Surface(
        lambda where, geometry: _json_answer(post({"where": where}, geometry)),
        lambda wheres, geometry: [
            _json_answer(d) for d in post({"queries": wheres}, geometry)["results"]
        ],
        cases,
    )


@pytest.fixture(scope="module")
def cube(tmp_path_factory, rides_small):
    """``(tabula, cases, cube_path, csv_path)`` over a histogram-loss cube.

    The loss is union-safe (IN-queries work) and the table carries the
    spatial columns (viewports work). ``degraded_rebind`` is off so the
    degraded cell stays degraded however often it is asked for; the
    cube file is saved *before* the cell is degraded, so the cluster's
    workers serve it healthy.
    """
    workdir = tmp_path_factory.mktemp("equivalence")
    csv_path, cube_path = str(workdir / "rides.csv"), str(workdir / "cube.json")
    write_csv(rides_small, csv_path)
    table = read_csv(csv_path, types={a: ColumnType.CATEGORY for a in CLUSTER_ATTRS})
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=CLUSTER_ATTRS,
            threshold=0.05,
            loss=HistogramLoss("fare_amount"),
            degraded_rebind=False,
        ),
    )
    tabula.initialize()
    save_cube(tabula, cube_path)
    store = tabula.store
    local, degraded = list(store._cell_to_sample_id)[:2]
    known_global = min(
        (c for c in store._known_cells if c not in store._cell_to_sample_id), key=repr
    )
    store.mark_degraded(degraded, "checksum mismatch (test)")
    cases = {
        "local": where_for(local),
        "global": where_for(known_global),
        "empty": {"payment_type": "no_such_value"},
        "degraded": where_for(degraded),
    }
    return tabula, cases, cube_path, csv_path


@pytest.fixture(
    scope="module",
    params=[
        "tabula",
        "gateway",
        "http",
        "router",
        pytest.param("router-owner-killed", marks=pytest.mark.faults),
    ],
)
def surface(request, cube):
    tabula, cases, cube_path, csv_path = cube
    if request.param == "tabula":
        yield _object_surface(tabula, dict(cases, union=IN_UNION))
    elif request.param == "gateway":
        with ServingGateway(tabula, config=ServingConfig(workers=2)) as gateway:
            yield _object_surface(gateway, dict(cases, union=IN_UNION))
    elif request.param == "http":
        with ServingGateway(tabula, config=ServingConfig(workers=2)) as gateway:
            server = make_server(gateway, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                yield _http_surface(f"http://127.0.0.1:{server.server_address[1]}", cases)
            finally:
                server.shutdown()
                server.server_close()
    else:
        killed = request.param == "router-owner-killed"
        router = boot_cluster(
            cube_path,
            csv_path,
            2,
            supervisor_config=SLOW_RESTART if killed else None,
            router_config=RouterConfig(retries=1, retry_backoff_seconds=0.02),
        )
        try:
            # The workers loaded the healthy file: the in-process
            # "degraded" cell is an ordinary local cell here...
            routed = {k: v for k, v in cases.items() if k != "degraded"}
            victim = 1
            routed["local"] = where_for(cells_owned_by(tabula, router.placement, 0)[0])
            if killed:
                # ...and the tier's degraded cells are the dead shard's.
                routed["degraded"] = where_for(
                    cells_owned_by(tabula, router.placement, victim)[0]
                )
                os.kill(router.supervisor.health()[victim]["pid"], signal.SIGKILL)
            yield _object_surface(router, routed)
        finally:
            router.close()


@pytest.mark.parametrize("geometry", [None, VIEWPORT], ids=["plain", "viewport"])
def test_single_is_batch_of_one_is_item_of_a_mixed_batch(surface, geometry):
    kinds = list(surface.cases)
    wheres = [surface.cases[kind] for kind in kinds]
    mixed = surface.batch(wheres, geometry)
    assert len(mixed) == len(wheres)
    for kind, where, from_mixed in zip(kinds, wheres, mixed):
        single = surface.single(where, geometry)
        assert single.source == EXPECTED_SOURCE[kind], kind
        assert single.spatial_filtered == (geometry is not None), kind
        if kind == "degraded":
            assert single.guarantee == "DOWNGRADED"
        assert surface.batch([where], geometry) == [single], kind
        assert from_mixed == single, kind
