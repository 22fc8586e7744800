"""HTTP surface of streaming ingest: POST /ingest, SSE progressive /query.

The wire contracts under test: typed ingest outcomes map to typed HTTP
statuses (200 accepted, 503 + Retry-After backpressure, 503 closed,
400 TAB713 when no pipeline is attached), answers carry
``staleness_batches``, /readyz and /stats grow ingest blocks, and
``progressive=1`` streams well-formed monotone SSE frames — including
a clean 400 (not a broken stream) for an invalid query.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.loss import MeanLoss
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.ingest import IngestConfig, StreamIngestor
from repro.serving import ServingConfig, ServingGateway
from repro.serving.http import make_server
from tests.serving.conftest import post_raw

ATTRS = ("passenger_count", "payment_type")


def build_tabula(table):
    tabula = Tabula(
        table,
        TabulaConfig(cubed_attrs=ATTRS, threshold=0.1, loss=MeanLoss("fare_amount")),
    )
    tabula.initialize()
    return tabula


@pytest.fixture(scope="module")
def delta():
    return generate_nyctaxi(num_rows=300, seed=77)


def _serve(gateway):
    server = make_server(gateway, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def served_ingest(rides_tiny, tmp_path):
    """(base_url, gateway, ingestor) with a live ingest pipeline."""
    gateway = ServingGateway(
        build_tabula(rides_tiny), config=ServingConfig(workers=2, queue_depth=8)
    )
    ingestor = StreamIngestor(
        gateway.tabula,
        tmp_path / "ingest.wal",
        tmp_path / "maintenance.journal",
        config=IngestConfig(flush_interval_seconds=0.002),
    )
    gateway.attach_ingestor(ingestor)
    server, base = _serve(gateway)
    try:
        yield base, gateway, ingestor
    finally:
        server.shutdown()
        server.server_close()
        ingestor.close(drain=False, timeout=5.0)
        gateway.close()


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.load(response)


def post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read() or b"{}")


def sse_frames(url):
    """Drain one SSE stream into its JSON data frames."""
    frames = []
    with urllib.request.urlopen(url, timeout=30) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("data: "):
                frames.append(json.loads(line[len("data: "):]))
    return frames


class TestIngestRoute:
    def test_accepted_batch_is_200_with_watermarks(self, served_ingest, delta):
        base, _, ingestor = served_ingest
        status, _, body = post_json(
            base + "/ingest",
            {"rows": delta.slice(0, 50).to_pydict(), "seed": 11},
        )
        assert status == 200
        assert body["outcome"] == "accepted" and body["durable"]
        assert body["seq"] == 1
        assert body["watermarks"]["durable_seq"] >= 1
        assert ingestor.wait_applied(timeout=10.0)

    def test_rows_then_queries_include_them(self, served_ingest, delta):
        base, gateway, ingestor = served_ingest
        rows_before = gateway.tabula.table.num_rows
        status, _, _ = post_json(
            base + "/ingest", {"rows": delta.slice(0, 60).to_pydict(), "seed": 12}
        )
        assert status == 200
        assert ingestor.wait_applied(timeout=10.0)
        assert gateway.tabula.table.num_rows == rows_before + 60
        status, body = get_json(base + "/query?payment_type=cash")
        assert status == 200
        assert body["staleness_batches"] == 0

    def test_backpressure_is_503_with_retry_after(self, rides_tiny, tmp_path, delta):
        gateway = ServingGateway(build_tabula(rides_tiny))
        ingestor = StreamIngestor(
            gateway.tabula,
            tmp_path / "bp.wal",
            tmp_path / "bp.journal",
            config=IngestConfig(max_queued_rows=20, maintain_delay_seconds=0.5),
        )
        gateway.attach_ingestor(ingestor)
        server, base = _serve(gateway)
        try:
            post_json(
                base + "/ingest",
                {"rows": delta.slice(0, 20).to_pydict(), "wait_durable": False},
            )
            status, headers, body = post_json(
                base + "/ingest",
                {"rows": delta.slice(20, 40).to_pydict(), "wait_durable": False},
            )
            assert status == 503
            assert body["outcome"] == "backpressure"
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_seconds"] > 0
        finally:
            server.shutdown()
            server.server_close()
            ingestor.close(drain=False, timeout=5.0)
            gateway.close()

    def test_closed_pipeline_is_503_without_retry_after(
        self, served_ingest, delta
    ):
        base, _, ingestor = served_ingest
        ingestor.close(drain=True, timeout=10.0)
        status, headers, body = post_json(
            base + "/ingest", {"rows": delta.slice(0, 10).to_pydict()}
        )
        assert status == 503
        assert body["outcome"] == "closed"
        assert "Retry-After" not in headers

    def test_no_pipeline_is_400_tab713(self, rides_tiny):
        gateway = ServingGateway(build_tabula(rides_tiny))
        server, base = _serve(gateway)
        try:
            status, _, body = post_json(base + "/ingest", {"rows": {}})
            assert status == 400
            assert body["code"] == "TAB713"
        finally:
            server.shutdown()
            server.server_close()
            gateway.close()

    @pytest.mark.parametrize(
        "fields, content_length",
        [
            pytest.param({"rows": "not-a-mapping"}, None, id="rows-not-a-mapping"),
            pytest.param({"timeout": "abc"}, None, id="timeout-not-a-number"),
            pytest.param({"seed": [1]}, None, id="seed-not-a-number"),
            pytest.param({}, "x", id="content-length-not-a-number"),
        ],
    )
    def test_malformed_rows_are_400(self, served_ingest, delta, fields, content_length):
        base, _, ingestor = served_ingest
        payload = {"rows": delta.slice(0, 5).to_pydict(), "seed": 3, **fields}
        status, body = post_raw(
            base + "/ingest", json.dumps(payload).encode("utf-8"), content_length
        )
        assert status == 400
        assert body["code"] == "TAB711"
        assert ingestor.watermarks()["submitted_seq"] == 0  # nothing was submitted


class TestIngestVisibility:
    def test_readyz_and_stats_grow_ingest_blocks(self, served_ingest, delta):
        base, _, ingestor = served_ingest
        post_json(base + "/ingest", {"rows": delta.slice(0, 30).to_pydict()})
        assert ingestor.wait_applied(timeout=10.0)
        status, ready = get_json(base + "/readyz")
        assert status == 200
        assert ready["ingest"]["healthy"]
        assert ready["ingest"]["watermarks"]["durable_seq"] >= 1
        _, stats = get_json(base + "/stats")
        assert stats["ingest"]["counters"]["accepted"] == 1
        assert stats["ingest"]["watermarks"]["applied_seq"] >= 1


class TestProgressiveSSE:
    def test_streams_monotone_frames_while_lagging(
        self, rides_tiny, tmp_path, delta
    ):
        gateway = ServingGateway(build_tabula(rides_tiny))
        ingestor = StreamIngestor(
            gateway.tabula,
            tmp_path / "sse.wal",
            tmp_path / "sse.journal",
            config=IngestConfig(
                maintain_delay_seconds=0.05, flush_interval_seconds=0.002
            ),
        )
        gateway.attach_ingestor(ingestor)
        server, base = _serve(gateway)
        try:
            for i in range(5):
                post_json(
                    base + "/ingest",
                    {"rows": delta.slice(i * 60, (i + 1) * 60).to_pydict(),
                     "seed": 20 + i},
                )
            frames = sse_frames(base + "/query?payment_type=cash&progressive=1")
        finally:
            server.shutdown()
            server.server_close()
            ingestor.close(timeout=20.0)
            gateway.close()
        assert frames[0]["kind"] == "initial"
        assert frames[-1]["kind"] == "final"
        assert len(frames) >= 3  # at least one refinement in between
        rank = {"CERTIFIED": 0, "DOWNGRADED": 1, "VOID": 2}
        sequence = [rank[f["response"]["guarantee"]] for f in frames]
        assert all(b <= a for a, b in zip(sequence, sequence[1:])), sequence
        applied = [f["applied_seq"] for f in frames]
        assert applied == sorted(applied)
        assert frames[-1]["staleness_batches"] == 0
        assert [f["index"] for f in frames] == list(range(len(frames)))

    def test_invalid_progressive_query_is_clean_400(self, served_ingest):
        base, _, _ = served_ingest
        request = urllib.request.Request(
            base + "/query?no_such_attribute=x&progressive=1"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["code"]

    def test_batch_plus_progressive_is_rejected(self, served_ingest):
        base, _, _ = served_ingest
        status, _, body = post_json(
            base + "/query", {"queries": [{}], "progressive": True}
        )
        assert status == 400
        assert body["code"] == "TAB711"
