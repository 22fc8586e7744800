"""HTTP surface of the serving gateway (stdlib client, in-process server)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.loss import MeanLoss
from repro.core.persistence import save_cube
from repro.core.tabula import Tabula, TabulaConfig
from repro.resilience.faults import SlowIO, inject
from repro.serving import ServingConfig, ServingGateway
from repro.serving.gateway import FP_EXECUTE
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


@pytest.fixture()
def served(rides_tiny, tmp_path):
    """(base_url, gateway) for a live in-process server on a free port."""
    tabula = build_tabula(rides_tiny)
    path = tmp_path / "cube.json"
    save_cube(tabula, path)
    gateway = ServingGateway.from_cube_file(
        path, rides_tiny, config=ServingConfig(workers=2, queue_depth=4)
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
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def iceberg_where(gateway):
    cell = next(iter(gateway.tabula.store._cell_to_sample_id))
    return {a: v for a, v in zip(ATTRS, cell) if v is not None}


class TestQueryRoutes:
    def test_get_query_with_params(self, served):
        base, gateway = served
        where = iceberg_where(gateway)
        params = "&".join(f"{a}={v}" for a, v in where.items())
        status, body = get_json(f"{base}/query?{params}&limit=3")
        assert status == 200
        assert body["outcome"] == "ok"
        assert body["guarantee"] == "CERTIFIED"
        assert body["generation"] == 1
        assert body["num_rows"] >= 1
        assert all(len(values) <= 3 for values in body["rows"].values())

    def test_post_query_with_body(self, served):
        base, gateway = served
        status, body = post_json(
            f"{base}/query",
            {"where": iceberg_where(gateway), "deadline_seconds": 5.0},
        )
        assert status == 200
        assert body["outcome"] == "ok"

    def test_malformed_body_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.load(excinfo.value)

    def test_unknown_attribute_is_400(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/query?nonexistent=1", timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope", timeout=10)
        assert excinfo.value.code == 404


class TestHealthAndStats:
    def test_healthz_readyz(self, served):
        base, _ = served
        assert get_json(f"{base}/healthz") == (200, {"ok": True})
        assert get_json(f"{base}/readyz") == (200, {"ok": True})

    def test_stats_document(self, served):
        base, gateway = served
        get_json(f"{base}/query?" + "&".join(
            f"{a}={v}" for a, v in iceberg_where(gateway).items()
        ))
        status, stats = get_json(f"{base}/stats")
        assert status == 200
        for key in ("requests_total", "outcomes", "breaker", "latency_seconds",
                    "generation", "queue_depth", "reloads"):
            assert key in stats
        assert stats["requests_total"] >= 1


@pytest.mark.faults
class TestSheddingOverHTTP:
    def test_shed_is_503_with_retry_after_and_wellformed_body(self, served):
        """Saturate the bounded queue past its depth with concurrent
        stdlib clients: overflow requests get a well-formed 503."""
        base, gateway = served
        where = iceberg_where(gateway)
        params = "&".join(f"{a}={v}" for a, v in where.items())
        url = f"{base}/query?{params}"
        workers = gateway.config.workers
        depth = gateway.config.queue_depth
        outcomes = []
        lock = threading.Lock()

        def client():
            try:
                status, body = get_json(url)
            except urllib.error.HTTPError as error:
                status, body = error.code, json.load(error)
                retry_after = error.headers.get("Retry-After")
            else:
                retry_after = None
            with lock:
                outcomes.append((status, body, retry_after))

        release = threading.Event()
        specs = [
            SlowIO(FP_EXECUTE, at=i + 1, sleep=lambda _: release.wait(timeout=10))
            for i in range(workers)
        ]
        with inject(*specs) as handle:
            try:
                stallers = [threading.Thread(target=client) for _ in range(workers)]
                for thread in stallers:
                    thread.start()
                # Both workers parked; now fill the queue and overflow it.
                assert wait_until(lambda: handle.hits(FP_EXECUTE) >= workers)
                rest = [
                    threading.Thread(target=client) for _ in range(depth + 4)
                ]
                for thread in rest:
                    thread.start()
                for thread in rest:
                    thread.join(timeout=10)
            finally:
                release.set()
            for thread in stallers:
                thread.join(timeout=10)

        shed = [entry for entry in outcomes if entry[0] == 503]
        served_ok = [entry for entry in outcomes if entry[0] == 200]
        assert len(shed) >= 1  # overflow had to be rejected
        assert len(served_ok) >= workers
        for status, body, retry_after in shed:
            assert body["outcome"] == "shed"
            assert body["guarantee"] == "VOID"
            assert body["rows"] is None
            # Jittered to spread the retry stampede: uniform over 1..3.
            assert retry_after in {"1", "2", "3"}


class TestRetryAfterJitter:
    def test_values_are_jittered_over_the_documented_window(self):
        from repro.serving.http import (
            _RETRY_AFTER_MIN,
            _RETRY_AFTER_SPAN,
            _retry_after,
        )

        observed = {_retry_after() for _ in range(200)}
        low, high = _RETRY_AFTER_MIN, _RETRY_AFTER_MIN + _RETRY_AFTER_SPAN - 1
        assert observed <= set(range(low, high + 1))
        # 200 draws over a 3-value window: all values appear (p ~ 1).
        assert len(observed) > 1, "Retry-After is not jittered"


class TestShardedBackendPassthrough:
    """/stats and /readyz surface per-shard health when the backend is
    sharded (duck-typed via ``shard_health``) — a router-shaped fake
    stands in so the HTTP layer is tested without booting workers."""

    @pytest.fixture()
    def sharded_served(self, served):
        base, gateway = served
        health = {
            "0": {"state": "up", "restarts_total": 0, "router_breaker": "closed"},
            "1": {"state": "backoff", "restarts_total": 2, "router_breaker": "open"},
        }

        class RouterShaped:
            def __getattr__(self, name):
                return getattr(gateway, name)

            def shard_health(self):
                return dict(health)

        server = make_server(RouterShaped(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}", health
        finally:
            server.shutdown()
            server.server_close()

    def test_stats_includes_per_shard_health(self, sharded_served):
        base, health = sharded_served
        status, stats = get_json(f"{base}/stats")
        assert status == 200
        assert stats["shards"] == health

    def test_readyz_includes_per_shard_health(self, sharded_served):
        base, health = sharded_served
        status, body = get_json(f"{base}/readyz")
        assert status == 200
        assert body["ok"] is True
        assert body["shards"] == health

    def test_plain_gateway_has_no_shards_key(self, served):
        base, _ = served
        _, stats = get_json(f"{base}/stats")
        _, ready = get_json(f"{base}/readyz")
        assert "shards" not in stats
        assert "shards" not in ready


class TestReloadRoute:
    def test_reload_ok_then_corrupt_is_409(self, served, tmp_path):
        base, gateway = served
        status, body = post_json(f"{base}/reload", {})
        assert status == 200 and body["ok"] and body["generation"] == 2

        cube_path = gateway._snapshot.path
        payload = json.loads(open(cube_path).read())
        payload["cube_table"] = []
        with open(cube_path, "w") as handle:
            json.dump(payload, handle)
        request = urllib.request.Request(
            f"{base}/reload", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 409
        body = json.load(excinfo.value)
        assert not body["ok"]
        assert body["generation"] == 2  # rollback: generation unchanged
        assert "cube_table" in body["error"]

    @pytest.mark.parametrize(
        "body, content_length",
        [
            pytest.param(b"[]", None, id="body-not-an-object"),
            pytest.param(b"{}", "x", id="content-length-not-a-number"),
        ],
    )
    def test_malformed_reload_is_400(self, served, body, content_length):
        base, gateway = served
        status, document = post_raw(f"{base}/reload", body, content_length)
        assert status == 400
        assert document["code"] == "TAB711"
        assert gateway.stats()["generation"] == 1  # nothing was reloaded


class TestBatchedQueryRoute:
    def test_post_batch_returns_results_in_order(self, served):
        base, gateway = served
        cell = next(iter(gateway.tabula.store._cell_to_sample_id))
        where = {a: v for a, v in zip(ATTRS, cell) if v is not None}
        status, body = post_json(
            f"{base}/query",
            {"queries": [where, {}, {"payment_type": "no_such"}], "limit": 5},
        )
        assert status == 200
        results = body["results"]
        assert len(results) == 3
        assert results[0]["source"] == "local"
        assert results[0]["outcome"] == "ok"
        assert results[0]["guarantee"] == "CERTIFIED"
        assert results[2]["source"] == "empty"
        assert results[2]["num_rows"] == 0
        for result in results:
            assert len(next(iter(result["rows"].values()), [])) <= 5

    def test_empty_batch_is_200_with_no_results(self, served):
        base, _ = served
        status, body = post_json(f"{base}/query", {"queries": []})
        assert status == 200
        assert body["results"] == []

    def test_malformed_batch_is_400(self, served):
        base, _ = served
        for bad in (
            {"queries": "nope"},
            {"queries": [{"ok": "yes"}, "nope"]},
            # Non-numeric budgets used to raise TypeError in the handler
            # thread: the client saw a dropped connection, not a 400.
            {"where": {}, "deadline_seconds": "abc"},
            {"queries": [{}], "deadline_seconds": [1]},
            {"where": {}, "limit": [1]},
            # rows[:-1] would silently drop a row under an unchanged num_rows.
            {"where": {}, "limit": -1},
        ):
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps(bad).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400, bad
            assert json.load(excinfo.value)["code"] == "TAB711", bad
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/query?limit=-1", timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_attribute_in_batch_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/query",
            data=json.dumps({"queries": [{"not_cubed": "x"}]}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_fully_shed_batch_is_503(self, rides_tiny):
        """A deterministically saturated single-worker gateway: the one
        worker is parked, the depth-1 queue filled by a direct call, so
        the HTTP batch must shed — 503 + Retry-After, every item typed
        shed in a well-formed results list."""
        gateway = ServingGateway(
            build_tabula(rides_tiny),
            config=ServingConfig(workers=1, queue_depth=1),
        )
        server = make_server(gateway, port=0)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        where = iceberg_where(gateway)
        release = threading.Event()
        threads = []
        try:
            with inject(
                SlowIO(FP_EXECUTE, at=1, sleep=lambda _: release.wait(timeout=10))
            ) as handle:
                try:
                    staller = threading.Thread(target=lambda: gateway.query(where))
                    staller.start()
                    threads.append(staller)
                    assert wait_until(lambda: handle.hits(FP_EXECUTE) >= 1)
                    filler = threading.Thread(target=lambda: gateway.query(where))
                    filler.start()
                    threads.append(filler)
                    assert wait_until(lambda: gateway.stats()["queued_now"] >= 1)
                    request = urllib.request.Request(
                        f"{base}/query",
                        data=json.dumps({"queries": [where] * 4}).encode("utf-8"),
                        method="POST",
                    )
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        urllib.request.urlopen(request, timeout=10)
                    assert excinfo.value.code == 503
                    assert excinfo.value.headers.get("Retry-After") in {"1", "2", "3"}
                    body = json.load(excinfo.value)
                    assert len(body["results"]) == 4
                    assert all(r["outcome"] == "shed" for r in body["results"])
                    assert all(r["guarantee"] == "VOID" for r in body["results"])
                finally:
                    release.set()
            for thread in threads:
                thread.join(timeout=15)
        finally:
            server.shutdown()
            server.server_close()
            gateway.close()
