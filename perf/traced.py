"""The traced run: the same inputs replayed in-process, with a span per layer.

Every per-layer metric comes from here and none of the end-to-end ones: the
wrappers cost time, and the gateway, the HTTP handler threads and the load
generator share one interpreter lock. The HTTP hop is still a real loopback
socket (``make_server`` on a thread), driven by one closed-loop connection, so
the root span of a request is what a client would measure.

Layers and the calls that are wrapped (all from this file, none inside
``repro``): see ``_READ_PATH`` / ``_BUILD_PATH`` / ``_INGEST_PATH``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import types
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.core.maintenance as maintenance_mod
import repro.core.parallel as parallel_mod
import repro.core.spatial as spatial_mod
import repro.core.tabula as tabula_mod
import repro.serving.http as http_mod
from perf import ROOT, definition, inputs, stats
from perf.audit import Oracle
from perf.httpclient import HttpConnection, Response, build_request
from perf.server import HOST, OUT_DIR, remove_tree, scratch_dir
from perf.tracing import Tracer, durations_ns, layer_self_ns_per_request
from perf.workloads import (
    CONNECTIONS,
    FEED_BATCHES_PER_SECOND,
    STREAM_REQUESTS_PER_SECOND,
    FeedLog,
    Options,
    Post,
    Result,
    audit_every_cell,
    build_cube,
    feed_loop,
    run_readers,
)
from repro.core.cube_store import SamplingCubeStore
from repro.core.persistence import load_cube, save_cube, verify_cube_file
from repro.core.tabula import Tabula
from repro.ingest import StreamIngestor, recover_ingest
from repro.ingest.wal import IngestWAL
from repro.resilience.journal import MaintenanceJournal
from repro.serving import ServingGateway
from repro.serving.wire import recv_message, response_from_wire, response_to_wire, send_message

#: The client names its root span here so the handler thread can nest under it.
SPAN_HEADER = "X-Perf-Span"
WIRE_REPLAY_ANSWERS = 200

#: (owner, attribute, span name[, span options]) — "<layer>:<function>".
_BUILD_PATH = [
    (tabula_mod, "dry_run", "core.dryrun:dry_run"),
    (tabula_mod, "real_run", "core.realrun:real_run"),
    (tabula_mod, "build_samgraph", "core.selection:build_samgraph"),
    (tabula_mod, "select_representatives", "core.selection:select_representatives"),
    (parallel_mod, "parallel_dry_run", "core.parallel:parallel_dry_run"),
    (parallel_mod, "parallel_real_run", "core.parallel:parallel_real_run"),
]
_LOOKUP_PATH = [
    # Runs on a gateway worker thread: adopt the span the gateway published.
    (Tabula, "query", "core.tabula:query", {"adopt": True}),
    (SamplingCubeStore, "sample_id_of", "core.cube_store:sample_id_of"),
    (SamplingCubeStore, "sample_for_id", "core.cube_store:sample_for_id"),
    (SamplingCubeStore, "is_known_cell", "core.cube_store:is_known_cell"),
    (SamplingCubeStore, "spatial_filter", "core.cube_store:spatial_filter"),
    (SamplingCubeStore, "filtered_global", "core.cube_store:filtered_global"),
]
_READ_PATH = [
    # The gateway blocks on a worker thread: publish so Tabula.query can adopt it.
    (ServingGateway, "query", "serving.gateway:query", {"publish": True}),
    *_LOOKUP_PATH,
    (http_mod, "response_to_json", "serving.http.encode:response_to_json"),
]
_INGEST_PATH = [
    (StreamIngestor, "submit", "ingest.stream:submit"),
    (IngestWAL, "append_batches", "ingest.wal:append_batches"),
    (maintenance_mod, "plan_append", "core.maintenance:plan_append"),
    (maintenance_mod, "apply_plan", "core.maintenance:apply_plan"),
    (MaintenanceJournal, "is_committed", "resilience.journal:is_committed"),
    (MaintenanceJournal, "log_plan", "resilience.journal:log_plan"),
    (MaintenanceJournal, "commit", "resilience.journal:commit"),
]


def _wrap_all(tracer: Tracer, targets: Sequence[tuple]) -> None:
    for owner, attr, name, *options in targets:
        tracer.wrap(owner, attr, name, **(options[0] if options else {}))


def _new_result() -> Result:
    """Every per-layer metric reported on every workload; 0 where a layer is idle."""
    result = Result()
    result.metrics = {metric["name"]: 0.0 for metric in definition()["per_layer"]}
    return result


def _median_ms(values_ns: Sequence[int]) -> float:
    return stats.median(values_ns) / 1e6 if values_ns else 0.0


def _finish(tracer: Tracer, result: Result, label: str) -> Result:
    tracer.unpatch()
    path = OUT_DIR / f"trace-{label}.jsonl"
    tracer.write(path)
    result.notes["spans"] = len(tracer.spans)
    result.notes["trace_file"] = str(path.relative_to(ROOT))
    return result


# ----------------------------------------------------------------------
# build / build_parallel
# ----------------------------------------------------------------------
def trace_build(options: Options, workers: Optional[int] = None) -> Result:
    result = _new_result()
    tracer = Tracer()
    spec = inputs.CUBE_M
    table = inputs.make_table(options.rows)
    cells = inputs.lattice_cells(table, spec.attrs)
    scratch = scratch_dir("trace-build")
    _wrap_all(tracer, _BUILD_PATH)
    try:
        deadline = time.perf_counter() + 0.75 * options.seconds
        builds = 0
        while builds < 2 or time.perf_counter() < deadline:
            tabula = inputs.make_tabula(table, spec)
            with tracer.span("core.tabula:initialize"):
                tabula.initialize(workers=workers)
            builds += 1
        result.attempted += builds
        cube_path = scratch / "cube.json"
        with tracer.span("core.persistence:save_cube"):
            save_cube(tabula, cube_path)
        with tracer.span("core.persistence:verify_cube_file"):
            verified = verify_cube_file(cube_path).ok
        with tracer.span("core.persistence:load_cube"):
            loaded = load_cube(cube_path, table)
        if not verified or loaded.store.content_digest() != tabula.store.content_digest():
            result.fail("saved cube does not verify or does not load back identically")
        result.metrics["core.persistence.file_bytes"] = cube_path.stat().st_size
    finally:
        remove_tree(scratch)

    def total_seconds(*names: str) -> float:
        return sum(sum(durations_ns(tracer.spans, name)) for name in names) / 1e9

    def stage_seconds(*names: str) -> float:
        return total_seconds(*names) / builds  # mean per build

    m = result.metrics
    m["core.dryrun.seconds"] = stage_seconds("core.dryrun:dry_run", "core.parallel:parallel_dry_run")
    m["core.realrun.seconds"] = stage_seconds(
        "core.realrun:real_run", "core.parallel:parallel_real_run"
    )
    m["core.selection.seconds"] = stage_seconds(
        "core.selection:build_samgraph", "core.selection:select_representatives"
    )
    m["core.parallel.pool_seconds"] = stage_seconds(
        "core.parallel:parallel_dry_run", "core.parallel:parallel_real_run"
    )
    sampled = tabula.real_run_result.cells
    m["core.sampling.cells_sampled"] = len(sampled)
    m["core.sampling.sample_rows_total"] = sum(len(cell.sample_indices) for cell in sampled)
    executions = [tabula.report.dry_run_execution, tabula.report.real_run_execution]
    m["core.parallel.pool_stages"] = sum(1 for e in executions if e and e.mode == "pool")
    m["core.parallel.shared_bytes"] = sum(e.shared_bytes for e in executions if e)
    m["core.persistence.save_seconds"] = total_seconds("core.persistence:save_cube")
    m["core.persistence.load_seconds"] = total_seconds("core.persistence:load_cube")

    # In-process look-ups through the wrapped read path, every cell audited.
    tracer.unpatch()
    _wrap_all(tracer, _LOOKUP_PATH)
    first_lookup = len(tracer.spans)
    audit_every_cell(loaded, spec, cells, result)
    lookups = {span[5] for span in tracer.spans[first_lookup:]}
    _read_path_metrics(tracer, result, lookups)
    return _finish(tracer, result, "build" if workers is None else "build_parallel")


def _read_path_metrics(tracer: Tracer, result: Result, roots: set) -> None:
    """Medians, per request, of each read-path layer's self time."""
    per_request = layer_self_ns_per_request(tracer.spans, keep=roots.__contains__)

    def layer_median(layer: str) -> float:
        return stats.median([layers.get(layer, 0) for layers in per_request.values()])

    if not per_request:
        return
    m = result.metrics
    m["serving.http.self_ms"] = layer_median("serving.http") / 1e6
    m["serving.http.encode_ms"] = layer_median("serving.http.encode") / 1e6
    m["serving.gateway.self_ms"] = layer_median("serving.gateway") / 1e6
    m["core.tabula.query_us"] = layer_median("core.tabula") / 1e3
    m["core.cube_store.resolve_us"] = layer_median("core.cube_store") / 1e3
    m["core.spatial.filter_us"] = layer_median("core.spatial") / 1e3


# ----------------------------------------------------------------------
# An in-process server with the request path wrapped
# ----------------------------------------------------------------------
class TracedServer:
    """``make_server`` on a thread over a gateway built the way ``repro serve``
    builds it; a context manager. Quacks like ``ServerChild`` for the clients."""

    alive = True

    def __init__(self, tracer: Tracer, spec: inputs.CubeSpec, options: Options, ingest: bool = False):
        self.tracer = tracer
        self.scratch = scratch_dir("trace-serve")
        #: (rows in, rows kept, kept everything) per ``spatial.filter_table`` call.
        self.filter_calls: List[Tuple[int, int, bool]] = []
        self.ingestor: Optional[StreamIngestor] = None
        try:
            self.cube = build_cube(spec, options.rows, save_to=self.scratch / "cube.json")
            self.gateway = ServingGateway.from_cube_file(self.cube.path, self.cube.table)
            if ingest:
                wal = self.scratch / "ingest.wal"
                journal = self.scratch / "maintenance.journal"
                self.gateway.tabula.initialize()
                recover_ingest(self.gateway.tabula, wal, journal)
                _wrap_all(tracer, _INGEST_PATH)
                self.ingestor = StreamIngestor(self.gateway.tabula, wal, journal)
                self.gateway.attach_ingestor(self.ingestor)
            self._patch_request_path()
            self._server = http_mod.make_server(self.gateway, HOST, 0)
            self.port = self._server.server_address[1]
            self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
            self._thread.start()
        except BaseException:
            tracer.unpatch()
            remove_tree(self.scratch)
            raise

    def _patch_request_path(self) -> None:
        tracer = self.tracer
        _wrap_all(tracer, _READ_PATH)
        handle_post = http_mod._GatewayHandler.do_POST
        filter_table = spatial_mod.filter_table
        filter_calls = self.filter_calls

        def do_post(handler: object) -> None:
            root = handler.headers.get(SPAN_HEADER)
            parent = (int(root), int(root)) if root else None
            with tracer.span("serving.http:do_POST", parent=parent):
                handle_post(handler)

        def traced_filter(table, geometry, index=None):
            with tracer.span("core.spatial:filter_table"):
                filtered, covers = filter_table(table, geometry, index=index)
            filter_calls.append((table.num_rows, filtered.num_rows, covers))
            return filtered, covers

        def dumps(*args: object, **kwargs: object) -> str:
            with tracer.span("serving.http.encode:json.dumps"):
                return json.dumps(*args, **kwargs)

        tracer.patch(http_mod._GatewayHandler, "do_POST", do_post)
        tracer.patch(spatial_mod, "filter_table", traced_filter)
        # Only the handler's own encoder, not the process-wide json module.
        tracer.patch(http_mod, "json", types.SimpleNamespace(
            dumps=dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError))

    def __enter__(self) -> "TracedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        if self.ingestor is not None:
            self.ingestor.close()
        self.gateway.close()
        self.tracer.unpatch()
        remove_tree(self.scratch)


@dataclass
class Exchange:
    """One traced POST: its request id, when it left, what came back."""

    request: int
    sent: float
    response: Response


def traced_post(tracer: Tracer, exchanges: List[Exchange]) -> Post:
    """A ``Post`` that makes each exchange the root span of its request."""

    def post(connection: HttpConnection, path: str, body: bytes) -> Response:
        sent = time.perf_counter()
        with tracer.span("serving.http:round_trip") as context:
            request = build_request("POST", path, body, {SPAN_HEADER: str(context[0])})
            response = connection.exchange(request)
        exchanges.append(Exchange(context[1], sent, response))
        return response

    return post


def trace_reads(
    tracer: Tracer,
    server: TracedServer,
    queries: Sequence[inputs.Query],
    options: Options,
    oracle: Oracle,
    result: Result,
    keep_going: Optional[Callable[[], bool]] = None,
) -> List[Response]:
    """The untraced reader loop, one connection, every POST a root span.

    Returns the answers of the measured window.
    """
    exchanges: List[Exchange] = []
    warm_until = run_readers(
        result, server, [queries], options, oracle, keep_going, traced_post(tracer, exchanges)
    )
    measured = [e for e in exchanges if e.sent >= warm_until and e.response.status == 200]
    _read_path_metrics(tracer, result, {e.request for e in measured})
    answers = [e.response for e in measured]
    m = result.metrics
    m["serving.http.total_ms"] = _median_ms([int(a.seconds * 1e9) for a in answers])
    m["serving.http.response_bytes"] = stats.median([len(a.body) for a in answers] or [0])
    m["serving.gateway.shed"] = server.gateway.stats()["outcomes"]["shed"]
    result.samples["serving.http.total_ms"] = len(answers)
    return answers


class _CountingSocket:
    """Counts the bytes ``recv_message`` pulls off a socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.received = 0

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self.received += len(chunk)
        return chunk


def wire_codec_replay(server: TracedServer, queries: Sequence[inputs.Query], result: Result) -> None:
    """The router-to-worker codec on recorded answers, over a ``socketpair``.

    ``response_to_wire -> send_message -> recv_message -> response_from_wire``;
    no sharded tier is started (router + 2 workers + generator on 2 cores would
    measure the scheduler), so this moves no end-to-end metric here.
    """
    responses = [
        server.gateway.query(query.where, geometry=query.geometry)
        for query in queries[:WIRE_REPLAY_ANSWERS]
    ]
    left, right = socket.socketpair()
    with left, right:
        counter = _CountingSocket(right)
        sender = threading.Thread(
            target=lambda: [send_message(left, response_to_wire(r)) for r in responses]
        )
        started = time.perf_counter()
        sender.start()
        for expected in responses:
            decoded = response_from_wire(recv_message(counter))
            if decoded.guarantee is not expected.guarantee:
                result.fail("wire codec changed an answer's guarantee")
        elapsed = time.perf_counter() - started
        sender.join()
    result.metrics["serving.wire.codec_us"] = elapsed / len(responses) * 1e6
    result.metrics["serving.wire.frame_bytes"] = counter.received / len(responses)


def trace_http(options: Options, spec: inputs.CubeSpec, viewport: bool, label: str) -> Result:
    result = _new_result()
    tracer = Tracer()
    with TracedServer(tracer, spec, options) as server:
        table = server.cube.table
        cells = inputs.lattice_cells(table, spec.attrs)
        length = int(options.seconds * STREAM_REQUESTS_PER_SECOND)
        seed = options.seed * CONNECTIONS  # the untraced run's first connection
        if viewport:
            queries = inputs.viewport_stream(table, spec.attrs, cells, seed, length)
        else:
            queries = inputs.cell_stream(spec.attrs, cells, seed, length)
        trace_reads(tracer, server, queries, options, Oracle(table, spec), result)
        if server.filter_calls:
            kept = [out / rows for rows, out, _ in server.filter_calls if rows]
            result.metrics["core.spatial.rows_kept_share"] = sum(kept) / max(1, len(kept))
            result.metrics["core.spatial.covers_all_share"] = sum(
                covers for _, _, covers in server.filter_calls
            ) / len(server.filter_calls)
        if viewport:
            wire_codec_replay(server, queries, result)
    return _finish(tracer, result, label)


# ----------------------------------------------------------------------
# ingest_mixed
# ----------------------------------------------------------------------
def trace_ingest_mixed(options: Options) -> Result:
    result = _new_result()
    tracer = Tracer()
    spec = inputs.CUBE_I
    num_batches = max(4, int(options.seconds * FEED_BATCHES_PER_SECOND))
    with TracedServer(tracer, spec, options, ingest=True) as server:
        table = server.cube.table
        cells = inputs.lattice_cells(table, spec.attrs)
        bodies = inputs.feed_batches(num_batches, options.seed)
        queries = inputs.cell_stream(
            spec.attrs, cells, options.seed, int(options.seconds * STREAM_REQUESTS_PER_SECOND)
        )
        ingestor = server.ingestor
        applied = threading.Event()
        feed = FeedLog()
        writer = threading.Thread(
            target=feed_loop, args=(server, bodies, feed, traced_post(tracer, []))
        )
        answers: List[Response] = []
        reader = threading.Thread(
            target=lambda: answers.extend(
                trace_reads(
                    tracer, server, queries, options, Oracle(table, spec, check_loss=False),
                    result, keep_going=lambda: not applied.is_set(),
                )
            )
        )
        reader.start()
        time.sleep(options.warmup_seconds)
        writer.start()
        cap = time.perf_counter() + 6.0 * options.seconds + 30.0
        while time.perf_counter() < cap and ingestor.healthy:
            if ingestor.watermarks()["applied_seq"] >= num_batches:
                break
            time.sleep(0.02)
        applied_at = time.perf_counter()
        applied.set()
        writer.join()
        reader.join()

        result.attempted += num_batches
        for reason in feed.failures:
            result.fail(reason)
        counters = ingestor.stats()["counters"]
        expected_rows = table.num_rows + num_batches * inputs.FEED_BATCH_ROWS
        if server.gateway.tabula.table.num_rows != expected_rows:
            result.fail(
                f"final row count {server.gateway.tabula.table.num_rows}, expected "
                f"{expected_rows}: {counters}",
                count=num_batches - min(num_batches, counters["applied_batches"]) or 1,
            )
        staleness = [json.loads(a.body)["staleness_batches"] for a in answers] or [0]
        journal_ns = sum(
            end - start for _, name, start, end, _, _ in tracer.spans
            if name.startswith("resilience.journal:")
        )
        m = result.metrics
        m["ingest.stream.submit_ms"] = _median_ms(durations_ns(tracer.spans, "ingest.stream:submit"))
        m["ingest.wal.append_ms"] = _median_ms(
            durations_ns(tracer.spans, "ingest.wal:append_batches")
        )
        m["ingest.stream.fsyncs_per_batch"] = counters["fsyncs"] / num_batches
        m["core.maintenance.plan_ms"] = _median_ms(
            durations_ns(tracer.spans, "core.maintenance:plan_append")
        )
        m["core.maintenance.apply_ms"] = _median_ms(
            durations_ns(tracer.spans, "core.maintenance:apply_plan")
        )
        m["resilience.journal.append_ms"] = journal_ns / num_batches / 1e6
        m["ingest.stream.staleness_batches_p50"] = stats.median(staleness)
        m["ingest.stream.staleness_batches_max"] = max(staleness)
        m["ingest.stream.backpressured"] = counters["backpressured"]
        m["ingest.stream.applied_rows_per_s"] = (
            num_batches * inputs.FEED_BATCH_ROWS / (applied_at - feed.first_submit)
        )
    return _finish(tracer, result, "ingest_mixed")


WORKLOADS: Dict[str, Callable[[Options], Result]] = {
    "build": trace_build,
    "build_parallel": partial(trace_build, workers=2),
    "http_cell": partial(trace_http, spec=inputs.CUBE_M, viewport=False, label="http_cell"),
    "http_viewport": partial(trace_http, spec=inputs.CUBE_H, viewport=True, label="http_viewport"),
    "ingest_mixed": trace_ingest_mixed,
}
