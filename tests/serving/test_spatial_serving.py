"""Spatial (viewport) queries through the serving stack.

Covers the full exposure chain: gateway geometry plumbing, the wire
codec's ``spatial_filtered`` field, the sharded tier's foreign-cell
fallback (a DOWNGRADED answer must carry the *spatially filtered*
global sample, not the unfiltered one), and the HTTP endpoint's typed
400s for malformed geometries, bodies, and reserved params — single
and batched forms.
"""

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import spatial
from repro.core.loss import MeanLoss
from repro.core.persistence import save_cube
from repro.core.spatial import BBox
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.serving import ServingConfig, ServingGateway
from repro.serving.http import (
    TAB711_MALFORMED_REQUEST,
    TAB712_INVALID_QUERY,
    make_server,
)
from repro.serving.placement import Placement, shard_transform
from repro.serving.wire import response_from_wire, response_to_wire

ATTRS = ("passenger_count", "payment_type")

VIEWPORT = BBox(0.0, 0.0, 0.5, 0.5)


def build_tabula(table):
    tabula = Tabula(
        table,
        TabulaConfig(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    return tabula


@pytest.fixture()
def served(rides_tiny, tmp_path):
    tabula = build_tabula(rides_tiny)
    path = tmp_path / "cube.json"
    save_cube(tabula, path)
    gateway = ServingGateway.from_cube_file(
        path, rides_tiny, config=ServingConfig(workers=2, queue_depth=8)
    )
    server = make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", gateway
    finally:
        server.shutdown()
        server.server_close()
        gateway.close()


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.load(response)


def post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8") if not isinstance(payload, bytes) else payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


def error_body(excinfo):
    return json.loads(excinfo.value.read().decode("utf-8"))


def iceberg_where(tabula):
    cell = next(iter(tabula.store._cell_to_sample_id))
    return {a: v for a, v in zip(ATTRS, cell) if v is not None}


class TestGatewaySpatial:
    def test_geometry_flows_through_gateway(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        with ServingGateway(tabula, config=ServingConfig(workers=1)) as gateway:
            response = gateway.query(iceberg_where(tabula), geometry=VIEWPORT)
            assert response.spatial_filtered
            if response.sample is not None and response.sample.num_rows:
                xs, ys = spatial.table_points(response.sample)
                assert VIEWPORT.mask(xs, ys).all()

    def test_malformed_geometry_rejected_before_admission(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        with ServingGateway(tabula, config=ServingConfig(workers=1)) as gateway:
            stats_before = gateway.stats()
            before = (stats_before["requests_total"], stats_before["errors"])
            with pytest.raises(spatial.GeometryError):
                gateway.query({}, geometry="not-a-bbox")
            stats_after = gateway.stats()
            # Parsed before admission: no slot taken, no error counted.
            assert (stats_after["requests_total"], stats_after["errors"]) == before

class TestWireCodec:
    def test_spatial_filtered_round_trips(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        with ServingGateway(tabula, config=ServingConfig(workers=1)) as gateway:
            response = gateway.query(iceberg_where(tabula), geometry=VIEWPORT)
        assert response.spatial_filtered
        decoded = response_from_wire(
            json.loads(json.dumps(response_to_wire(response)))
        )
        assert decoded.spatial_filtered
        assert decoded.guarantee is response.guarantee


class TestForeignCellFallback:
    """Satellite: a shard answering a cell it does not own must apply
    the viewport to the replicated global sample it falls back to."""

    def _foreign_setup(self, rides_tiny):
        tabula = build_tabula(rides_tiny)
        unfiltered_global = tabula.store.global_sample.table
        placement = Placement(2)
        cells = list(tabula.store._cell_to_sample_id)
        cell = cells[0]
        foreign_shard = 1 - placement.shard_of(cell)
        shard_transform(placement, foreign_shard)(tabula)
        where = {a: v for a, v in zip(ATTRS, cell) if v is not None}
        return tabula, where, unfiltered_global

    def test_foreign_cell_answer_is_filtered_global(self, rides_tiny):
        tabula, where, unfiltered_global = self._foreign_setup(rides_tiny)
        result = tabula.query(where, geometry=VIEWPORT)
        assert result.guarantee is GuaranteeStatus.DOWNGRADED
        assert result.source == "global"
        assert result.spatial_filtered
        expected, covers = spatial.filter_table(unfiltered_global, VIEWPORT)
        assert not covers  # the viewport is a strict subset of the extent
        assert result.sample.to_pydict() == expected.to_pydict()
        xs, ys = spatial.table_points(result.sample)
        assert VIEWPORT.mask(xs, ys).all()

    def test_foreign_cell_answer_through_wire(self, rides_tiny):
        tabula, where, _ = self._foreign_setup(rides_tiny)
        with ServingGateway(tabula, config=ServingConfig(workers=1)) as gateway:
            response = gateway.query(where, geometry=VIEWPORT)
        decoded = response_from_wire(
            json.loads(json.dumps(response_to_wire(response)))
        )
        assert decoded.guarantee is GuaranteeStatus.DOWNGRADED
        assert decoded.spatial_filtered
        xs, ys = spatial.table_points(decoded.sample)
        assert VIEWPORT.mask(xs, ys).all()


class TestHttpViewport:
    def test_get_with_bbox_and_f_json(self, served):
        base, gateway = served
        where = iceberg_where(gateway.tabula)
        params = "&".join(f"{k}={v}" for k, v in where.items())
        status, body = get_json(
            f"{base}/query?{params}&geometry=0,0,0.5,0.5&f=json"
        )
        assert status == 200
        assert body["spatial_filtered"] is True
        if body["rows"]:
            xs = body["rows"]["pickup_x"]
            ys = body["rows"]["pickup_y"]
            assert all(0 <= x <= 0.5 and 0 <= y <= 0.5 for x, y in zip(xs, ys))

    def test_get_with_json_geometry_object(self, served):
        base, _ = served
        geometry = urllib.parse.quote(
            json.dumps({"type": "radius", "x": 0.5, "y": 0.5, "radius": 0.25})
        )
        status, body = get_json(f"{base}/query?geometry={geometry}")
        assert status == 200
        assert body["spatial_filtered"] is True

    def test_post_batch_with_shared_geometry(self, served):
        base, gateway = served
        payload = {
            "queries": [iceberg_where(gateway.tabula), {}],
            "geometry": {"xmin": 0, "ymin": 0, "xmax": 0.5, "ymax": 0.5},
        }
        status, body = post_json(f"{base}/query", payload)
        assert status == 200
        assert len(body["results"]) == 2
        assert all(r["spatial_filtered"] for r in body["results"])

    def test_malformed_geometry_single_is_tab701(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{base}/query?geometry=0,0,0.5")
        assert excinfo.value.code == 400
        body = error_body(excinfo)
        assert body["code"] == spatial.TAB701_MALFORMED_GEOMETRY
        assert "[TAB701]" in body["error"]

    def test_malformed_geometry_batch_is_tab701(self, served):
        base, _ = served
        payload = {"queries": [{}], "geometry": {"type": "circle", "radius": 1}}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{base}/query", payload)
        assert excinfo.value.code == 400
        assert error_body(excinfo)["code"] == spatial.TAB701_MALFORMED_GEOMETRY

    def test_undecodable_geometry_param_is_tab711(self, served):
        base, _ = served
        geometry = urllib.parse.quote('{"type": "bbox", broken')
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{base}/query?geometry={geometry}")
        assert excinfo.value.code == 400
        assert error_body(excinfo)["code"] == TAB711_MALFORMED_REQUEST

    def test_unsupported_format_param_is_tab711(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{base}/query?geometry=0,0,1,1&f=html")
        assert excinfo.value.code == 400
        assert error_body(excinfo)["code"] == TAB711_MALFORMED_REQUEST

    def test_malformed_json_body_is_tab711(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{base}/query", b"{not json")
        assert excinfo.value.code == 400
        body = error_body(excinfo)
        assert body["code"] == TAB711_MALFORMED_REQUEST
        assert "malformed request" in body["error"]

    def test_malformed_batch_body_is_tab711(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{base}/query", {"queries": [{}, "not-a-where"]})
        assert excinfo.value.code == 400
        assert error_body(excinfo)["code"] == TAB711_MALFORMED_REQUEST

    def test_unknown_attribute_is_tab712(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(f"{base}/query?no_such_attribute=1")
        assert excinfo.value.code == 400
        body = error_body(excinfo)
        assert body["code"] == TAB712_INVALID_QUERY
        assert isinstance(body["error"], str)

    def test_non_spatial_error_keeps_plain_error_string(self, served):
        # The pre-spatial error contract: "error" stays a plain string.
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(f"{base}/query", {"where": "not-an-object"})
        assert excinfo.value.code == 400
        body = error_body(excinfo)
        assert isinstance(body["error"], str)
        assert body["code"] == TAB711_MALFORMED_REQUEST
