"""Command-line interface for the Tabula middleware.

Usage (``python -m repro.cli <command>``):

- ``generate`` — write a synthetic NYC-taxi CSV;
- ``build`` — read a CSV table, initialize a sampling cube, save it;
- ``query`` — answer a dashboard query from a saved cube;
- ``info`` — summarize a saved cube;
- ``cube verify`` — audit a saved cube's checksums and version;
- ``serve`` — run the concurrent dashboard gateway over HTTP (bounded
  admission, deadlines, hot reload;
  ``--ingest DIR`` adds crash-safe streaming ingest with progressive
  answers);
- ``ingest`` — stream a CSV into a running ``serve --ingest`` server,
  honoring typed backpressure;
- ``sql`` — execute SQL statements against a CSV-backed session;
- ``lint`` — run the static analyzer over SQL files or inline text;
- ``check`` — run the concurrency/resource-lifecycle static analyzer
  (TAB600-range) over this repo's Python sources.

Benchmarks are not a CLI command: ``python3 perf/run.py`` is the
benchmark of record (``perf/README.md``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Dict, List, Optional

from repro.bench.metrics import format_bytes, format_seconds
from repro.core.persistence import cube_info, loss_registry, open_cube, save_cube
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.io import read_csv, write_csv
from repro.engine.sql import SQLSession
from repro.errors import TabulaError


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TabulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _theta(text: str) -> float:
    """``--theta``: rejects θ ≤ 0 and NaN at parse time, as ``TabulaConfig`` would."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"θ must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tabula sampling-cube middleware (ICDE 2020)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic taxi CSV")
    generate.add_argument("--rows", type=int, default=50_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=cmd_generate)

    build = commands.add_parser("build", help="initialize and save a sampling cube")
    build.add_argument("--table", required=True, help="CSV file with the raw data")
    build.add_argument("--attrs", required=True, help="comma-separated cubed attributes")
    build.add_argument("--loss", default="mean_loss", help="loss function name")
    build.add_argument(
        "--target", required=True, help="comma-separated target attribute(s)"
    )
    build.add_argument("--theta", type=_theta, required=True, help="loss threshold θ > 0")
    build.add_argument(
        "--loss-sql", help="file with a CREATE AGGREGATE declaring --loss"
    )
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--out", required=True, help="cube file to write")
    build.add_argument(
        "--checkpoint-dir",
        help="journal build progress here; a killed build re-run with the "
        "same directory resumes from the last completed cell",
    )
    build.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the build's partition map and cell sampling on N worker "
        "processes (bit-identical for any N); default: in this process",
    )
    build.set_defaults(handler=cmd_build)

    query = commands.add_parser("query", help="answer a dashboard query from a cube")
    query.add_argument("--cube", required=True)
    query.add_argument("--table", required=True)
    query.add_argument(
        "--where",
        default="",
        help="conjunction like payment_type=cash,passenger_count=1",
    )
    query.add_argument("--loss-sql", help="replay a CREATE AGGREGATE before loading")
    query.add_argument("--limit", type=int, default=10, help="rows to print")
    query.set_defaults(handler=cmd_query)

    serve = commands.add_parser(
        "serve",
        help="serve a saved cube over HTTP with admission control, "
        "deadlines and hot reload",
    )
    serve.add_argument("--cube", required=True, help="cube file to serve (and reload)")
    serve.add_argument("--table", required=True, help="CSV file with the raw data")
    serve.add_argument("--loss-sql", help="replay a CREATE AGGREGATE before loading")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument("--workers", type=int, default=4, help="requests executing at once")
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="requests allowed to wait for an execution slot; beyond it they are shed",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline in seconds (requests may "
        "carry their own)",
    )
    serve.add_argument(
        "--min-service-seconds",
        type=float,
        default=0.0,
        help="artificial per-request service floor (overload drills "
        "and smoke tests only; keep 0 in production)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="N > 0 boots the fault-tolerant sharded tier: N supervised "
        "shard-worker processes behind a health-checked router that "
        "degrades to the replicated global sample when a shard is down "
        "(0 = single-process gateway)",
    )
    serve.add_argument(
        "--ingest",
        metavar="DIR",
        help="enable crash-safe streaming ingest: WAL + maintenance journal "
        "live in DIR (replayed on restart), POST /ingest accepts rows, "
        "answers carry staleness, /query?progressive=1 streams refinements. "
        "With --shards each worker keeps its own logs in DIR",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve.set_defaults(handler=cmd_serve)

    ingest = commands.add_parser(
        "ingest",
        help="stream rows from a CSV into a running `repro serve --ingest` "
        "server, honoring typed backpressure (Retry-After)",
    )
    ingest.add_argument("--url", required=True, help="server base URL, e.g. http://127.0.0.1:8787")
    ingest.add_argument("--table", required=True, help="CSV file with the rows to append")
    ingest.add_argument(
        "--batch-rows", type=int, default=200, help="rows per POST /ingest micro-batch"
    )
    ingest.add_argument(
        "--seed",
        type=int,
        default=None,
        help="idempotency-key base (batch i submits seed+i); re-running the "
        "same CSV with the same base deduplicates instead of double-appending",
    )
    ingest.add_argument(
        "--max-retries",
        type=int,
        default=50,
        help="bounded backpressure retries per batch before giving up",
    )
    ingest.set_defaults(handler=cmd_ingest)

    info = commands.add_parser("info", help="summarize a saved cube")
    info.add_argument("--cube", required=True)
    info.set_defaults(handler=cmd_info)

    cube = commands.add_parser("cube", help="operate on saved cube files")
    cube_commands = cube.add_subparsers(dest="cube_command", required=True)
    verify = cube_commands.add_parser(
        "verify",
        help="check a saved cube's format version and checksums; exits "
        "non-zero on any corruption",
    )
    verify.add_argument("path", help="cube file to audit")
    verify.add_argument(
        "--quiet", action="store_true", help="print failures only"
    )
    verify.set_defaults(handler=cmd_cube_verify)

    sql = commands.add_parser("sql", help="run SQL statements against a CSV table")
    sql.add_argument("--table", required=True, help="CSV file registered as its basename")
    sql.add_argument("statements", nargs="+", help="SQL statements to execute in order")
    sql.set_defaults(handler=cmd_sql)

    lint = commands.add_parser(
        "lint",
        help="statically analyze loss-DSL SQL (files, or inline statements/expressions)",
    )
    lint.add_argument(
        "targets",
        nargs="+",
        help="*.sql/*.md/*.py files, or inline SQL / a bare loss-body expression",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    lint.set_defaults(handler=cmd_lint)

    check = commands.add_parser(
        "check",
        help="statically analyze this repo's Python sources for concurrency "
        "and resource-lifecycle bugs (the TAB600-range checks)",
    )
    check.add_argument(
        "targets",
        nargs="+",
        help="Python files or directories (directories are scanned for *.py)",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    check.set_defaults(handler=cmd_check)
    return parser


# ---------------------------------------------------------------------------
def cmd_generate(args) -> int:
    table = generate_nyctaxi(num_rows=args.rows, seed=args.seed)
    write_csv(table, args.out)
    print(f"wrote {table.num_rows} rides to {args.out}")
    return 0


def cmd_build(args) -> int:
    from repro.engine.schema import ColumnType

    attrs = tuple(args.attrs.split(","))
    # Cube attributes are categorical by definition; forcing CATEGORY
    # keeps digit-labeled values (passenger counts, zone ids) stable
    # across CSV round trips.
    table = read_csv(args.table, types={a: ColumnType.CATEGORY for a in attrs})
    loss = loss_registry(args.loss_sql).bind(args.loss, tuple(args.target.split(",")))
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=attrs,
            threshold=args.theta,
            loss=loss,
            seed=args.seed,
        ),
    )
    report = tabula.initialize(
        checkpoint_dir=args.checkpoint_dir, workers=args.workers
    )
    declaration = None
    if args.loss_sql:
        with open(args.loss_sql) as handle:
            declaration = handle.read()
    save_cube(tabula, args.out, loss_declaration=declaration)
    memory = tabula.memory_breakdown()
    print(
        f"built {args.out}: {report.num_iceberg_cells}/{report.num_cells} iceberg cells, "
        f"{report.num_representatives} samples, {format_bytes(memory.total_bytes)}, "
        f"init {format_seconds(report.total_seconds)}"
    )
    return 0


def _parse_where(text: str) -> Dict[str, object]:
    conditions: Dict[str, object] = {}
    if not text:
        return conditions
    for clause in text.split(","):
        if "=" not in clause:
            raise TabulaError(f"bad --where clause {clause!r}; expected attr=value")
        attr, value = clause.split("=", 1)
        conditions[attr.strip()] = value.strip()
    return conditions


def cmd_query(args) -> int:
    tabula = open_cube(args.cube, args.table, args.loss_sql)
    result = tabula.query(_parse_where(args.where))
    print(
        f"source={result.source} rows={result.sample.num_rows} "
        f"time={format_seconds(result.data_system_seconds)}"
    )
    if result.sample.num_rows:
        print(result.sample.format(limit=args.limit))
    return 0


def cmd_serve(args) -> int:
    from repro.serving import ServingConfig, ServingGateway
    from repro.serving.http import serve_http

    if getattr(args, "shards", 0) and args.shards > 0:
        return _serve_sharded(args)
    gateway = ServingGateway(
        open_cube(args.cube, args.table, args.loss_sql),
        cube_path=args.cube,
        registry=loss_registry(args.loss_sql),
        config=ServingConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            default_deadline_seconds=args.deadline,
            min_service_seconds=args.min_service_seconds,
        ),
    )
    ingestor = None
    if getattr(args, "ingest", None):
        from pathlib import Path

        from repro.ingest import StreamIngestor, recover_ingest

        ingest_dir = Path(args.ingest)
        ingest_dir.mkdir(parents=True, exist_ok=True)
        wal_path = ingest_dir / "ingest.wal"
        journal_path = ingest_dir / "maintenance.journal"
        recovery = recover_ingest(gateway.tabula, wal_path, journal_path)
        ingestor = StreamIngestor(gateway.tabula, wal_path, journal_path)
        gateway.attach_ingestor(ingestor)
        print(
            f"ingest logs in {ingest_dir}: recovered "
            f"{recovery.reapplied_batches} batch(es), finished "
            f"{recovery.replayed_plans} plan(s), skipped "
            f"{recovery.skipped_batches} committed"
        )
    print(
        f"serving {args.cube} on http://{args.host}:{args.port} "
        f"(workers={args.workers}, queue={args.queue_depth}, "
        f"deadline={args.deadline if args.deadline is not None else 'none'})"
    )
    routes = "routes: POST/GET /query, GET /healthz /readyz /stats, POST /reload"
    if ingestor is not None:
        routes += ", POST /ingest, GET /query?...&progressive=1 (SSE)"
    print(routes)
    try:
        serve_http(gateway, host=args.host, port=args.port, quiet=args.quiet)
    finally:
        if ingestor is not None:
            ingestor.close()
    return 0


def _serve_sharded(args) -> int:
    """``repro serve --shards N``: supervised workers behind the router."""
    from repro.serving.http import serve_http
    from repro.serving.placement import Placement, shard_transform
    from repro.serving.router import RouterConfig, ShardRouter
    from repro.serving.supervisor import ShardSupervisor, default_worker_factory

    placement = Placement(args.shards)

    def worker_argv(shard: int) -> list:
        argv = [
            sys.executable, "-m", "repro.serving.shard_worker",
            "--cube", args.cube, "--table", args.table,
            "--shard", str(shard), "--num-shards", str(args.shards),
            "--workers", str(args.workers), "--queue-depth", str(args.queue_depth),
            "--min-service-seconds", str(args.min_service_seconds),
        ]
        if args.deadline is not None:
            argv += ["--deadline", str(args.deadline)]
        if args.loss_sql:
            argv += ["--loss-sql", args.loss_sql]
        if getattr(args, "ingest", None):
            argv += ["--ingest-dir", args.ingest]
        return argv

    def terminate(signum, frame) -> None:
        # SIGTERM's default action would skip every ``finally`` and orphan
        # the workers; leave the way Ctrl-C does instead.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, terminate)
    supervisor = ShardSupervisor(default_worker_factory(worker_argv), args.shards)
    try:
        supervisor.start()
        up = supervisor.up_shards()
        fallback = shard_transform(placement, None)(
            open_cube(args.cube, args.table, args.loss_sql)
        )
        router = ShardRouter(
            supervisor,
            placement,
            fallback,
            cube_path=args.cube,
            registry=loss_registry(args.loss_sql),
        )
        print(
            f"serving {args.cube} on http://{args.host}:{args.port} with "
            f"{len(up)}/{args.shards} shard workers up "
            f"(per-worker: workers={args.workers}, queue={args.queue_depth}; "
            f"failed shards degrade to the replicated global sample)"
        )
        print("routes: POST/GET /query, GET /healthz /readyz /stats, POST /reload")
        serve_http(router, host=args.host, port=args.port, quiet=args.quiet)
    except KeyboardInterrupt:  # terminated before serve_http took over
        pass
    finally:
        supervisor.stop()  # idempotent: serve_http's router.close() stops it too
    return 0


def cmd_info(args) -> int:
    for label, value in {"cube file": args.cube, **cube_info(args.cube)}.items():
        print(f"{label + ':':<18}{value}")
    return 0


def cmd_cube_verify(args) -> int:
    from repro.core.persistence import verify_cube_file

    report = verify_cube_file(args.path)
    print(f"cube file:      {report.path}")
    print(f"format version: {report.format_version}")
    for status in report.sections:
        if status.ok and args.quiet:
            continue
        mark = "ok  " if status.ok else "FAIL"
        code = f" [{status.code}]" if status.code else ""
        detail = f" — {status.detail}" if status.detail else ""
        print(f"  {mark} {status.section}{code}{detail}")
    if report.ok:
        print("verdict: OK")
        return 0
    print(f"verdict: CORRUPT ({len(report.failures)} section(s) failed)")
    return 1


def cmd_ingest(args) -> int:
    """Stream a CSV into a running ``serve --ingest`` server over HTTP."""
    import urllib.error
    import urllib.request

    table = read_csv(args.table)
    url = args.url.rstrip("/") + "/ingest"
    total = table.num_rows
    sent = 0
    batch_index = 0
    while sent < total:
        rows = table.slice(sent, min(sent + args.batch_rows, total))
        body = {"rows": rows.to_pydict(), "wait_durable": True}
        if args.seed is not None:
            body["seed"] = args.seed + batch_index
        payload = json.dumps(body).encode("utf-8")
        attempts = 0
        while True:
            request = urllib.request.Request(
                url, data=payload, headers={"Content-Type": "application/json"}
            )
            try:
                with urllib.request.urlopen(request) as response:
                    document = json.load(response)
                break
            except urllib.error.HTTPError as exc:
                document = json.loads(exc.read().decode("utf-8") or "{}")
                retry_after = exc.headers.get("Retry-After")
                if exc.code == 503 and retry_after and attempts < args.max_retries:
                    attempts += 1
                    time.sleep(
                        float(document.get("retry_after_seconds", retry_after))
                    )
                    continue
                print(
                    f"batch {batch_index}: HTTP {exc.code} "
                    f"{document.get('outcome', '')} {document.get('detail', '')}",
                    file=sys.stderr,
                )
                return 1
            except urllib.error.URLError as exc:
                print(f"cannot reach {url}: {exc.reason}", file=sys.stderr)
                return 1
        sent += rows.num_rows
        batch_index += 1
        marks = document.get("watermarks", {})
        print(
            f"batch {batch_index}: {rows.num_rows} rows durable "
            f"(seq {document.get('seq')}, {sent}/{total} sent, "
            f"retries {attempts}, applied_seq {marks.get('applied_seq', '?')})"
        )
    print(f"ingested {sent} rows in {batch_index} batch(es)")
    return 0


def cmd_sql(args) -> int:
    import os

    session = SQLSession()
    name = os.path.splitext(os.path.basename(args.table))[0]
    session.register_table(name, read_csv(args.table))
    for statement in args.statements:
        seen = len(session.diagnostics)
        result = session.execute(statement)
        for diagnostic in session.diagnostics[seen:]:
            print(diagnostic.render(), file=sys.stderr)
        _print_sql_result(result)
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.lint import LintResult, lint_inline, lint_path

    total = LintResult()
    for target in args.targets:
        path = Path(target)
        if path.is_file():
            total.extend(lint_path(path))
        elif path.suffix.lower() in {".sql", ".md", ".markdown", ".py"} or "/" in target:
            # Looks like a file path, not inline SQL — a typo'd path would
            # otherwise be "linted" as an expression, which is baffling.
            print(f"error: no such file: {target}", file=sys.stderr)
            return 1
        else:
            total.extend(lint_inline(target))
    for diagnostic in total.diagnostics:
        print(diagnostic.render())
        print()
    print(total.summary())
    failing = total.error_count > 0 or (args.strict and total.warning_count > 0)
    return 1 if failing else 0


def cmd_check(args) -> int:
    from pathlib import Path

    from repro.analysis.concurrency import check_paths

    paths: List[Path] = []
    for target in args.targets:
        path = Path(target)
        if not path.exists():
            print(f"error: no such file or directory: {target}", file=sys.stderr)
            return 1
        paths.append(path)
    result = check_paths(paths)
    for diagnostic in result.diagnostics:
        print(diagnostic.render())
        print()
    print(result.summary())
    failing = result.error_count > 0 or (args.strict and result.warning_count > 0)
    return 1 if failing else 0


def _print_sql_result(result) -> None:
    from repro.core.tabula import InitializationReport, QueryResult
    from repro.engine.table import Table

    if isinstance(result, InitializationReport):
        print(
            f"cube initialized: {result.num_iceberg_cells}/{result.num_cells} iceberg "
            f"cells in {format_seconds(result.total_seconds)}"
        )
    elif isinstance(result, QueryResult):
        print(f"source={result.source} rows={result.sample.num_rows}")
        if result.sample.num_rows:
            print(result.sample.format(limit=10))
    elif isinstance(result, Table):
        print(result.format(limit=20))
    else:
        print(result)


if __name__ == "__main__":
    sys.exit(main())
