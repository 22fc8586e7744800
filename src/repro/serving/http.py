"""Stdlib HTTP surface for the serving gateway (``repro serve``).

A deliberately dependency-free JSON endpoint on
:class:`http.server.ThreadingHTTPServer` — one OS thread per connection,
which runs its own requests through the gateway's *bounded* admission
(``workers`` executing, ``queue_depth`` waiting), so concurrency is
capped by the gateway, not the listener.

Routes:

- ``POST /query`` — body ``{"where": {...}, "deadline_seconds": 0.05,
  "limit": 20}``; also reachable as ``GET /query?attr=value&...`` with
  reserved params ``deadline_seconds`` / ``limit`` / ``geometry`` /
  ``f`` (dashboards and smoke tests can curl it). Batched form:
  ``{"queries": [{...}, ...]}`` (a list of WHERE objects) answers the
  whole viewport in one request → ``{"results": [...]}``; the batch is
  200 unless every item was shed (503) or deadline-expired (504), since
  a dashboard can render the answered tiles either way. Viewport
  (feature-service-style) form: ``GET /query?geometry=0.1,0.1,0.5,0.5
  &f=json`` — ``geometry`` is a bbox string or a JSON geometry object
  (bbox / radius / polygon), applied to the answer rows; on POST it is
  a top-level key shared by the whole batch.

Error bodies are typed: 400s carry ``{"error": ..., "code": "TABxxx"}``
— TAB711 for a malformed request (bad JSON body, bad reserved param),
TAB701/TAB702 for geometry failures, TAB712 for any other invalid query
(e.g. unknown attributes).
Progressive variant: ``/query`` with ``progressive=1`` (GET param or
POST body key) answers as a Server-Sent-Events stream — the immediate
sample-rung answer first, refinement frames while the ingest maintainer
catches up, and a final frame equal to the non-progressive answer;
guarantee transitions are monotone (see
:mod:`repro.ingest.progressive`).

- ``POST /ingest`` — body ``{"rows": {col: [...]}, "seed": 7}`` feeds
  the attached streaming-ingest pipeline. 200 when accepted (body
  carries ``seq`` and whether it is fsync-durable yet); 503 with a
  ``Retry-After`` header on typed backpressure (the bounded queue is
  full — nothing was buffered); 503 without ``Retry-After`` when the
  pipeline is closed or failed. 400/TAB713 when the backend has no
  ingest pipeline attached.
- ``GET /healthz`` — liveness (200 while the process accepts work).
- ``GET /readyz`` — readiness (gateway open, cube snapshot loaded);
  with an attached ingest pipeline the body carries its watermarks
  (``durable_seq`` / ``applied_seq``) and health.
- ``GET /stats`` — counters, latency percentiles; plus
  the ``ingest`` block (watermarks, queue bounds, counters) when a
  pipeline is attached.
- ``POST /reload`` — hot-swap the cube file (body ``{"path": ...}``
  optional); a corrupt replacement rolls back and reports 409, as does
  any reload while an ingest pipeline is attached.

Status mapping: answered requests (``OK`` / ``DEGRADED``, and the
sharded router's ``CIRCUIT_OPEN``) are 200 — degradation is carried in
the body, the dashboard still renders; ``SHED`` is 503 with
``Retry-After``; ``DEADLINE_EXCEEDED`` is 504; malformed requests are
400.
"""

from __future__ import annotations

import json
import random
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Mapping, Optional, Protocol, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import TabulaError
from repro.serving.gateway import ReloadResult, ServingOutcome, ServingResponse

_STATUS = {
    ServingOutcome.OK: 200,
    ServingOutcome.DEGRADED: 200,
    ServingOutcome.CIRCUIT_OPEN: 200,
    ServingOutcome.SHED: 503,
    ServingOutcome.DEADLINE_EXCEEDED: 504,
}

_RESERVED_PARAMS = ("deadline_seconds", "limit", "geometry", "f", "progressive")

# TAB71x — HTTP request error codes.  Geometry failures keep their core
# codes (TAB701 malformed geometry, TAB702 table not spatial).
TAB711_MALFORMED_REQUEST = "TAB711"
TAB712_INVALID_QUERY = "TAB712"
TAB713_INGEST_UNAVAILABLE = "TAB713"

#: SHED ``Retry-After`` is drawn uniformly from [_RETRY_AFTER_MIN,
#: _RETRY_AFTER_MIN + _RETRY_AFTER_SPAN) seconds.  A fixed value would
#: re-synchronize every shed dashboard client onto the same second and
#: re-stampede the queue; the jitter spreads the retry wave.
_RETRY_AFTER_MIN = 1
_RETRY_AFTER_SPAN = 3


def _retry_after() -> int:
    return _RETRY_AFTER_MIN + random.randrange(_RETRY_AFTER_SPAN)


class ServingBackend(Protocol):
    """What the HTTP surface needs from a gateway-shaped object.

    Satisfied structurally by both :class:`ServingGateway` (one process,
    one cube) and :class:`~repro.serving.router.ShardRouter` (the
    sharded tier) — ``repro serve`` binds whichever the flags built.
    """

    @property
    def healthy(self) -> bool: ...

    @property
    def ready(self) -> bool: ...

    def query(
        self,
        where: Mapping[str, object],
        deadline_seconds: Optional[float] = None,
        geometry: Optional[Any] = None,
    ) -> ServingResponse: ...

    def query_many(
        self,
        wheres: List[Mapping[str, object]],
        deadline_seconds: Optional[float] = None,
        geometry: Optional[Any] = None,
    ) -> List[ServingResponse]: ...

    def stats(self) -> Dict[str, Any]: ...

    def reload(self, path: Optional[str] = None) -> ReloadResult: ...

    def close(self) -> None: ...


def response_to_json(response: ServingResponse, limit: int = 20) -> Dict[str, object]:
    """Wire shape of one gateway response (rows capped at ``limit``)."""
    rows: Optional[Dict[str, List[object]]] = None
    num_rows = 0
    if response.sample is not None:
        num_rows = response.sample.num_rows
        data = response.sample.to_pydict()
        rows = {name: values[:limit] for name, values in data.items()}
    return {
        "outcome": response.outcome.value,
        "guarantee": response.guarantee.name,
        "source": response.source,
        "cell": list(response.cell) if response.cell is not None else None,
        "generation": response.generation,
        "elapsed_seconds": response.elapsed_seconds,
        "detail": response.detail,
        "num_rows": num_rows,
        "rows": rows,
        "spatial_filtered": response.spatial_filtered,
        "staleness_batches": response.staleness_batches,
    }


def _rows_from_json(columns: Dict[str, list], backend: Any) -> Any:
    """Build an ingest batch table typed to match the served schema.

    Column order follows the served table's schema when the names
    match, so a JSON object (unordered by nature) never fails the
    pipeline's ordered-schema check on ordering alone; a genuinely
    wrong column *set* is left as-is for ``submit`` to reject with its
    typed error.
    """
    from repro.engine.table import Table

    tabula = getattr(backend, "tabula", None)
    names = list(columns)
    types = None
    if tabula is not None:
        schema_names = list(tabula.table.column_names)
        if set(names) == set(schema_names):
            names = schema_names
        types = {
            name: tabula.table.column(name).ctype
            for name in names
            if name in tabula.table.column_names
        }
    return Table.from_pydict({name: columns[name] for name in names}, types=types)


def _number(kind: type, name: str, value: Any, default: Any = None) -> Any:
    """A numeric request field; anything else is a ``ValueError`` (→ 400)."""
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name!r} must be a number, got {value!r}") from None


def _json_object_body(handler: "_GatewayHandler") -> Dict[str, Any]:
    """The POST body as a JSON object (``{}`` when empty).

    Anything else is a ``ValueError`` (→ 400). A ``Content-Length`` that
    is not a non-negative integer leaves the body's extent unknown, so
    the connection closes after the answer.
    """
    try:
        length = _number(int, "Content-Length", handler.headers.get("Content-Length"), 0)
        if length < 0:
            raise ValueError(f"'Content-Length' must be >= 0, got {length}")
    except ValueError:
        handler.close_connection = True
        raise
    body = json.loads(handler.rfile.read(length) or b"{}")
    if not isinstance(body, dict):
        raise ValueError("body must be a JSON object")
    return body


def _parse_query_request(
    handler: "_GatewayHandler",
) -> Tuple[List[Any], bool, Optional[float], int, Optional[Any], bool]:
    """(wheres, enveloped, deadline_seconds, limit, geometry, progressive).

    ``enveloped`` marks the ``{"queries": [...]}`` shape, answered as
    ``{"results": [...]}``; every other shape is a batch of one.
    """
    fields: Mapping[str, Any]
    if handler.command == "POST":
        body = _json_object_body(handler)
        fields = body
        geometry = body.get("geometry")  # shared by the whole batch
        progressive = bool(body.get("progressive", False))
        enveloped = "queries" in body
        wheres = body["queries"] if enveloped else [body.get("where", {})]
        if not isinstance(wheres, list) or not all(isinstance(w, dict) for w in wheres):
            raise ValueError("'where' must be an object and 'queries' a list of them")
        if progressive and enveloped:
            raise ValueError("progressive mode takes a single 'where', not 'queries'")
    else:
        params = dict(parse_qsl(urlsplit(handler.path).query))
        fields = {name: params.pop(name, None) for name in _RESERVED_PARAMS}
        geometry = _parse_geometry_param(fields["geometry"])
        if fields["f"] is not None and fields["f"] != "json":
            raise ValueError(f"unsupported response format f={fields['f']!r} (only 'json')")
        progressive = (fields["progressive"] or "").lower() in ("1", "true", "yes")
        wheres, enveloped = [params], False
    deadline = _number(float, "deadline_seconds", fields.get("deadline_seconds"))
    limit = _number(int, "limit", fields.get("limit"), 20)
    if limit < 0:
        raise ValueError(f"'limit' must be >= 0, got {limit}")
    return wheres, enveloped, deadline, limit, geometry, progressive


def _parse_geometry_param(value: Optional[str]) -> Optional[Any]:
    """Decode the GET ``geometry`` param: bbox string or JSON object."""
    if value is None:
        return None
    text = value.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"geometry param is not valid JSON: {exc}") from None
    return text  # "xmin,ymin,xmax,ymax" — parsed by the geometry layer


class _GatewayHandler(BaseHTTPRequestHandler):
    gateway: ServingBackend  # bound by make_server
    quiet = True
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt: str, *args: object) -> None:  # pragma: no cover - noise control
        if not self.quiet:
            super().log_message(fmt, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[int] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _send_malformed(self, exc: Exception) -> None:
        """400 TAB711: the request could not be parsed or validated."""
        self._send_json(
            400,
            {"error": f"malformed request: {exc}", "code": TAB711_MALFORMED_REQUEST},
        )

    def _send_invalid(self, exc: TabulaError) -> None:
        """400 with the error's own code (TAB712 when it carries none)."""
        self._send_json(
            400,
            {"error": str(exc), "code": getattr(exc, "code", "") or TAB712_INVALID_QUERY},
        )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:
        route = urlsplit(self.path).path
        if route == "/healthz":
            ok = self.gateway.healthy
            self._send_json(200 if ok else 503, {"ok": ok})
        elif route == "/readyz":
            ok = self.gateway.ready
            payload: Dict[str, object] = {"ok": ok}
            shards = self._shard_health()
            if shards is not None:
                payload["shards"] = shards
            ingestor = getattr(self.gateway, "ingestor", None)
            if ingestor is not None:
                # Readiness is *serving* readiness: a lagging maintainer
                # does not fail the probe (answers stay servable from
                # the pre-append snapshot), but the watermarks make the
                # lag observable to operators and load balancers.
                payload["ingest"] = {
                    "healthy": ingestor.healthy,
                    "watermarks": ingestor.watermarks(),
                }
            self._send_json(200 if ok else 503, payload)
        elif route == "/stats":
            # A ShardRouter already embeds "shards" in stats(); for any
            # other sharded backend, merge its health view in here too.
            stats = self.gateway.stats()
            if "shards" not in stats:
                shards = self._shard_health()
                if shards is not None:
                    stats["shards"] = shards
            self._send_json(200, stats)
        elif route == "/query":
            self._handle_query()
        else:
            self._send_json(404, {"error": f"no route {route!r}"})

    def _shard_health(self) -> Optional[Dict[str, object]]:
        """Per-shard health when the backend is sharded (duck-typed)."""
        prober = getattr(self.gateway, "shard_health", None)
        if prober is None:
            return None
        shards = prober()
        return shards if isinstance(shards, dict) else None

    def do_POST(self) -> None:
        route = urlsplit(self.path).path
        if route == "/query":
            self._handle_query()
        elif route == "/ingest":
            self._handle_ingest()
        elif route == "/reload":
            self._handle_reload()
        else:
            self._send_json(404, {"error": f"no route {route!r}"})

    def _handle_query(self) -> None:
        try:
            (
                wheres,
                enveloped,
                deadline_seconds,
                limit,
                geometry,
                progressive,
            ) = _parse_query_request(self)
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_malformed(exc)
            return
        if progressive:
            self._handle_progressive(wheres[0], deadline_seconds, limit, geometry)
            return
        try:
            if enveloped:
                responses = self.gateway.query_many(
                    wheres, deadline_seconds=deadline_seconds, geometry=geometry
                )
            else:  # the same pipeline, entered through its public single entry
                responses = [
                    self.gateway.query(
                        wheres[0], deadline_seconds=deadline_seconds, geometry=geometry
                    )
                ]
        except TabulaError as exc:
            self._send_invalid(exc)
            return
        # A batch is 200 unless every item met the same fate (all shed →
        # 503, all deadline-expired → 504): a dashboard can render the
        # answered tiles either way. At n = 1 that is _STATUS itself.
        outcomes = {r.outcome for r in responses}
        status = _STATUS[outcomes.pop()] if len(outcomes) == 1 else 200
        documents = [response_to_json(r, limit=limit) for r in responses]
        self._send_json(
            status,
            {"results": documents} if enveloped else documents[0],
            retry_after=_retry_after() if status == 503 else None,
        )

    def _handle_progressive(
        self,
        where: Mapping[str, object],
        deadline_seconds: Optional[float],
        limit: int,
        geometry: Optional[Any],
    ) -> None:
        """Stream one query's answers as Server-Sent Events.

        The first frame is pulled *before* any bytes go out, so an
        invalid query is still a clean 400; after that the stream is
        committed and ends with the ``final`` frame (the connection
        closes — SSE has no trailer to carry an HTTP status).
        """
        from repro.ingest.progressive import progressive_query

        frames = progressive_query(
            self.gateway,
            where,
            deadline_seconds=deadline_seconds,
            geometry=geometry,
            ingestor=getattr(self.gateway, "ingestor", None),
        )
        try:
            first = next(frames)
        except TabulaError as exc:
            self._send_invalid(exc)
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            self._write_sse_frame(first, limit)
            for frame in frames:
                self._write_sse_frame(frame, limit)
        except (ConnectionError, OSError):
            pass  # client went away mid-stream; nothing to clean up

    def _write_sse_frame(self, frame: Any, limit: int) -> None:
        document = {
            "index": frame.index,
            "kind": frame.kind,
            "durable_seq": frame.durable_seq,
            "applied_seq": frame.applied_seq,
            "staleness_batches": frame.staleness_batches,
            "suppressed_regressions": frame.suppressed_regressions,
            "response": response_to_json(frame.response, limit=limit),
        }
        payload = json.dumps(document)
        self.wfile.write(f"event: frame\ndata: {payload}\n\n".encode("utf-8"))
        self.wfile.flush()

    def _handle_ingest(self) -> None:
        ingestor = getattr(self.gateway, "ingestor", None)
        if ingestor is None:
            self._send_json(
                400,
                {
                    "error": "this backend has no streaming-ingest pipeline "
                    "attached (start with --ingest)",
                    "code": TAB713_INGEST_UNAVAILABLE,
                },
            )
            return
        try:
            body = _json_object_body(self)
            if not isinstance(body.get("rows"), dict):
                raise ValueError("body must be {'rows': {column: [values...]}}")
            rows = _rows_from_json(body["rows"], self.gateway)
            seed = _number(int, "seed", body.get("seed"))
            timeout = _number(float, "timeout", body.get("timeout"), 5.0)
        except ValueError as exc:
            self._send_malformed(exc)
            return
        try:
            result = ingestor.submit(
                rows,
                seed=seed,
                wait_durable=bool(body.get("wait_durable", True)),
                timeout=timeout,
            )
        except TabulaError as exc:
            self._send_invalid(exc)
            return
        payload = {
            "outcome": result.outcome.value,
            "seq": result.seq,
            "durable": result.durable,
            "queued_rows": result.queued_rows,
            "retry_after_seconds": result.retry_after_seconds,
            "detail": result.detail,
        }
        if result.accepted:
            payload["watermarks"] = ingestor.watermarks()
            self._send_json(200, payload)
        elif result.outcome.value == "backpressure":
            # Typed backpressure: Retry-After is integral per RFC; the
            # body carries the precise hint.
            self._send_json(
                503,
                payload,
                retry_after=max(1, int(result.retry_after_seconds + 0.999)),
            )
        else:  # closed / failed pipeline — retrying here cannot help
            self._send_json(503, payload)

    def _handle_reload(self) -> None:
        try:
            body = _json_object_body(self)
        except ValueError as exc:
            self._send_malformed(exc)
            return
        try:
            result = self.gateway.reload(body.get("path"))
        except TabulaError as exc:
            self._send_invalid(exc)
            return
        self._send_json(
            200 if result.ok else 409,
            {
                "ok": result.ok,
                "generation": result.generation,
                "path": result.path,
                "error": result.error,
            },
        )


def make_server(
    gateway: ServingBackend,
    host: str = "127.0.0.1",
    port: int = 8787,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``gateway``.

    Returned (not started) so callers control the lifecycle — tests run
    it on a daemon thread, the CLI calls ``serve_forever`` directly.
    """

    class Handler(_GatewayHandler):
        pass

    Handler.gateway = gateway
    Handler.quiet = quiet
    return ThreadingHTTPServer((host, port), Handler)


def serve_http(
    gateway: ServingBackend,
    host: str = "127.0.0.1",
    port: int = 8787,
    quiet: bool = False,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = make_server(gateway, host, port, quiet=quiet)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
        gateway.close()
