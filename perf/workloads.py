"""The five workloads, untraced: every end-to-end metric comes from here.

Serving workloads drive ``python -m repro.cli serve`` as a child process over
loopback, closed loop with ``CONNECTIONS`` connections (a dashboard client
waits for its answer before its next interaction). Build workloads call
``Tabula.initialize`` / ``save_cube`` / ``load_cube`` directly and serve
look-ups in-process, so they measure the same answers with no socket at all.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perf import inputs, stats
from perf.audit import Oracle
from perf.httpclient import HttpConnection, HttpFailure, Response, build_request
from perf.server import HOST, ServerChild, get_json, remove_tree, scratch_dir
from repro.core.persistence import load_cube, save_cube, verify_cube_file
from repro.core.tabula import Tabula
from repro.data import generate_nyctaxi
from repro.engine.io import write_csv
from repro.engine.table import Table

CONNECTIONS = 2
SETUP_REPETITIONS = 3
#: ``build_s`` of a serving workload stands on at least this share of
#: ``--seconds`` spent initialising (the set-ups plus extra builds if needed).
MIN_BUILD_SHARE = 0.3
WARMUP_SECONDS = 1.0
#: One HTTP answer in this many is kept and audited after the timed window.
AUDIT_ONE_IN = 20
#: Requests generated per connection and per second of window; the stream
#: wraps around if a (much faster) server ever exhausts it.
STREAM_REQUESTS_PER_SECOND = 1500
#: In-process look-ups generated per second of window on the build workloads.
LOOKUPS_PER_SECOND = 100_000
#: Micro-batches fed per second of nominal window: at today's apply rate the
#: feed takes about ``--seconds`` to become visible.
FEED_BATCHES_PER_SECOND = 12
MAX_BACKPRESSURE_RETRIES = 400
STATS_POLL_SECONDS = 0.05


@dataclass
class Options:
    seed: int
    seconds: float
    rows: int = inputs.TABLE_ROWS
    setup_repetitions: int = SETUP_REPETITIONS
    warmup_seconds: float = WARMUP_SECONDS


@dataclass
class Result:
    """One run of one workload: counts, the end-to-end metrics and their context."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: How many samples stand behind each timing metric.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Recorded, not gated: digests, exact counts, the supported tail percentile.
    notes: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)


# ----------------------------------------------------------------------
# Set-up shared by every workload
# ----------------------------------------------------------------------
@dataclass
class Cube:
    """One initialised cube with the timings of getting there."""

    table: Table
    tabula: Tabula
    build_seconds: float
    save_seconds: float
    path: Path

    @property
    def bytes_ratio(self) -> float:
        return self.tabula.memory_breakdown().total_bytes / self.table.nbytes


def build_cube(spec: inputs.CubeSpec, rows: int, save_to: Path) -> Cube:
    """Generate the table, initialise the cube serially and persist it."""
    table = inputs.make_table(rows)
    tabula = inputs.make_tabula(table, spec)
    started = time.perf_counter()
    tabula.initialize()
    built = time.perf_counter()
    save_cube(tabula, save_to)
    return Cube(table, tabula, built - started, time.perf_counter() - built, save_to)


def fastest(seconds: Sequence[float], result: Result, name: str) -> float:
    """The fastest of a run's repetitions of one CPU-bound step; all of them go to the notes.

    This host runs at full speed most of the time and a quarter slower for
    spells of half a minute to a few minutes. A median follows whichever state
    covers most of a run's repetitions; the fastest one is slow only when a
    spell covers every one of them, and the repetitions are spread over the
    whole run to make that rare.
    """
    result.samples[name] = len(seconds)
    result.notes[f"{name}_samples"] = [round(value, 4) for value in seconds]
    return min(seconds)


def read_metrics(result: Result, latencies: Sequence[float], certified: int, window: float) -> None:
    """The read-side metrics of an HTTP workload from its answered requests."""
    if not latencies:
        result.fail("no request was answered inside the timed window")
        latencies = [0.0]
    result.metrics["latency_p50_ms"] = stats.median(latencies) * 1e3
    result.metrics["latency_p95_ms"] = stats.percentile(latencies, 95.0) * 1e3
    result.metrics["throughput_rps"] = len(latencies) / window
    result.metrics["certified_share"] = certified / len(latencies)
    result.samples.update(dict.fromkeys(("latency_p50_ms", "latency_p95_ms"), len(latencies)))
    result.notes["highest_supported_percentile"] = stats.highest_supported_percentile(
        len(latencies)
    )


# ----------------------------------------------------------------------
# build / build_parallel
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """~0.1 s of in-process look-ups: per-look-up seconds, and look-ups per second."""

    p50: float
    p95: float
    rate: float


class LookupBursts:
    """In-process ``Tabula.query`` calls in bursts of a given length.

    One sample is the mean look-up time over ``BATCH`` consecutive calls: a
    single 4 us call cannot be timed without mostly timing the clock, and its
    tail would be the machine's interrupts rather than the program. A burst is
    cut into slices of ``SLICE_BATCHES`` samples (about 0.1 s), each with its
    own median, 95th percentile and rate.
    """

    BATCH = 256
    SLICE_BATCHES = 100

    def __init__(self, wheres: Sequence[Dict[str, str]], cell_indices: np.ndarray):
        self._wheres = wheres
        self._cell_indices = cell_indices
        self._position = 0
        self.slices: List[Slice] = []
        self.bursts = 0
        self.lookups = 0
        self.certified = 0

    def run(self, tabula: Tabula, seconds: float) -> None:
        batch_means: List[float] = []
        started = time.perf_counter()
        while time.perf_counter() < started + seconds or len(batch_means) < self.SLICE_BATCHES:
            chunk = self._cell_indices[self._position:self._position + self.BATCH]
            self._position = (self._position + self.BATCH) % (
                len(self._cell_indices) - self.BATCH
            )
            batch = [self._wheres[i] for i in chunk.tolist()]
            certified = 0
            before = time.perf_counter()
            for where in batch:
                certified += tabula.query(where).guarantee.name == "CERTIFIED"
            batch_means.append((time.perf_counter() - before) / len(batch))
            self.certified += certified
        self.lookups += len(batch_means) * self.BATCH
        self.bursts += 1
        whole = len(batch_means) - len(batch_means) % self.SLICE_BATCHES
        for offset in range(0, whole, self.SLICE_BATCHES):
            means = batch_means[offset:offset + self.SLICE_BATCHES]
            self.slices.append(Slice(
                stats.median(means), stats.percentile(means, 95.0), len(means) / sum(means)
            ))

    def report(self, result: Result) -> None:
        """The fastest slice's numbers.

        On a shared host a stretch of look-ups either runs undisturbed or
        shares its core with a neighbour (discrete levels of 3.1 / 4.0 / 5.0 us
        per look-up were observed within four minutes, each lasting from a
        fraction of a second to a minute); the undisturbed level is the
        program's, so each number is the best over the run's slices - taken at
        two points of every build iteration, so that a run has many chances of
        seeing the machine quiet.
        """
        result.metrics["latency_p50_ms"] = min(s.p50 for s in self.slices) * 1e3
        result.metrics["latency_p95_ms"] = min(s.p95 for s in self.slices) * 1e3
        result.metrics["throughput_rps"] = max(s.rate for s in self.slices)
        result.metrics["certified_share"] = self.certified / self.lookups
        result.samples.update(latency_p50_ms=len(self.slices), latency_p95_ms=len(self.slices))
        result.notes["lookup_bursts"] = self.bursts


def audit_every_cell(
    tabula: Tabula, spec: inputs.CubeSpec, cells: Sequence[inputs.Cell], result: Result
) -> None:
    """Look every cell of the lattice up in-process and audit the answer."""
    oracle = Oracle(tabula.table, spec)
    for cell in cells:
        answer = tabula.query(inputs.where_of(spec.attrs, cell))
        columns = {t: answer.sample.column(t).data for t in spec.targets}
        problem = oracle.check(cell, None, answer.guarantee.name, columns)
        if problem:
            result.fail(f"cell {cell}: {problem}")
    result.attempted += len(cells)
    result.notes["max_certified_loss"] = oracle.max_certified_loss


def run_build(options: Options, workers: Optional[int] = None) -> Result:
    """Initialise, persist, load and look up cube M in-process, repeatedly."""
    result = Result()
    spec = inputs.CUBE_M
    started = time.perf_counter()
    table = inputs.make_table(options.rows)
    setup_seconds = [time.perf_counter() - started]
    cells = inputs.lattice_cells(table, spec.attrs)
    wheres = [inputs.where_of(spec.attrs, cell) for cell in cells]
    lookups = inputs.zipf_cell_indices(
        len(cells), options.seed, int(options.seconds * LOOKUPS_PER_SECOND)
    )
    result.notes["inputs_digest"] = inputs.inputs_digest(table, [[lookups.tobytes()]])
    # Each repetition is what an operator does: initialise, persist, serve a
    # burst of look-ups, load the file back and serve a burst from the loaded
    # cube. Bursts between builds spread the look-up samples over the window.
    build_seconds, durable_seconds, digests = [], [], set()
    burst = LookupBursts(wheres, lookups)
    scratch = scratch_dir("build")
    try:
        deadline = time.perf_counter() + options.seconds
        while len(build_seconds) < 3 or time.perf_counter() < deadline:
            if build_seconds:  # set up again: the same table, generated afresh
                started = time.perf_counter()
                table = inputs.make_table(options.rows)
                setup_seconds.append(time.perf_counter() - started)
            tabula = inputs.make_tabula(table, spec)
            started = time.perf_counter()
            tabula.initialize(workers=workers)
            built = time.perf_counter()
            save_cube(tabula, scratch / "cube.json")
            saved = time.perf_counter()
            build_seconds.append(built - started)
            durable_seconds.append(saved - started)
            burst.run(tabula, options.seconds / 20)
            loaded = load_cube(scratch / "cube.json", table)
            digests.update((tabula.store.content_digest(), loaded.store.content_digest()))
            result.attempted += 1
            burst.run(loaded, options.seconds / 20)
        if not verify_cube_file(scratch / "cube.json").ok:
            result.fail("verify_cube_file rejects the cube save_cube just wrote")
    finally:
        remove_tree(scratch)
    if workers is not None:
        reference = inputs.make_tabula(table, spec)
        reference.initialize()
        digests.add(reference.store.content_digest())
    if len(digests) != 1:
        result.fail(f"content_digest differs between builds/serial/loaded: {sorted(digests)}")
    result.notes["content_digest"] = sorted(digests)[0]
    result.attempted += burst.lookups

    audit_every_cell(loaded, spec, cells, result)

    result.metrics["setup_s"] = stats.median(setup_seconds)
    result.samples["setup_s"] = len(setup_seconds)
    result.metrics["build_s"] = fastest(build_seconds, result, "build_s")
    result.metrics["durable_rows_per_s"] = table.num_rows / min(durable_seconds)
    result.metrics["cube_bytes_ratio"] = (
        loaded.memory_breakdown().total_bytes / table.nbytes
    )
    burst.report(result)
    return result


# ----------------------------------------------------------------------
# Serving: set-up, load generation, audit
# ----------------------------------------------------------------------
@dataclass
class Served:
    cube: Cube
    server: ServerChild
    scratch: Path
    setup_seconds: float
    #: Every cube initialised for this workload so far: ``build_s`` is their median.
    cubes: List[Cube] = field(default_factory=list)

    def close(self) -> None:
        self.server.stop()
        remove_tree(self.scratch)


def serve_cube(spec: inputs.CubeSpec, options: Options, ingest: bool, label: str) -> Served:
    """One complete set-up: table, cube, cube file, CSV, child server answering /readyz."""
    scratch = scratch_dir(label)
    try:
        started = time.perf_counter()
        cube = build_cube(spec, options.rows, save_to=scratch / "cube.json")
        write_csv(cube.table, scratch / "table.csv")
        server = ServerChild(
            label, cube.path, scratch / "table.csv", scratch / "ingest" if ingest else None
        )
        server.start()
        return Served(cube, server, scratch, time.perf_counter() - started)
    except BaseException:
        remove_tree(scratch)
        raise


def set_up_serving(
    spec: inputs.CubeSpec, options: Options, result: Result, ingest: bool, label: str
) -> Served:
    """Set up ``setup_repetitions`` times; keep the last one running.

    Records the median ``setup_s``. ``build_s`` is reported by
    ``report_builds`` once the timed window is over.
    """
    reps: List[Served] = []
    try:
        for _ in range(options.setup_repetitions):
            if reps:
                reps[-1].close()
            reps.append(serve_cube(spec, options, ingest, label))
        served = reps[-1]
        served.cubes = [rep.cube for rep in reps]
        build_more(served, spec, options, share=MIN_BUILD_SHARE * 2 / 3)
    except BaseException:  # the caller's ``finally`` starts only once this returns
        for rep in reps:
            rep.close()
        raise
    result.metrics["setup_s"] = stats.median([rep.setup_seconds for rep in reps])
    result.samples["setup_s"] = len(reps)
    result.metrics["cube_bytes_ratio"] = served.cube.bytes_ratio
    return served


def build_more(served: Served, spec: inputs.CubeSpec, options: Options, share: float) -> None:
    """Initialise the cube again (no server) until builds add up to ``share`` of ``--seconds``."""
    while sum(cube.build_seconds for cube in served.cubes) < share * options.seconds:
        served.cubes.append(build_cube(spec, options.rows, save_to=served.scratch / "extra.json"))


def report_builds(
    served: Served, spec: inputs.CubeSpec, options: Options, result: Result, rate: bool
) -> None:
    """``build_s`` and, for workloads without a feed, the durable rate of initialisation.

    The cube is initialised at three points of the run - the set-ups, just
    before the warm-up, and here, after the timed window - for at least a few
    seconds in all (a small cube takes a fraction of a second), and the fastest
    initialisation is reported: see ``fastest``.
    """
    served.cubes.append(build_cube(spec, options.rows, save_to=served.scratch / "extra.json"))
    build_more(served, spec, options, share=MIN_BUILD_SHARE)
    result.metrics["build_s"] = fastest(
        [cube.build_seconds for cube in served.cubes], result, "build_s"
    )
    if rate:
        result.metrics["durable_rows_per_s"] = served.cube.table.num_rows / min(
            cube.build_seconds + cube.save_seconds for cube in served.cubes
        )


#: How a client posts one body: the traced run substitutes a span-opening version.
Post = Callable[[HttpConnection, str, bytes], Response]


def plain_post(connection: HttpConnection, path: str, body: bytes) -> Response:
    return connection.exchange(build_request("POST", path, body))


@dataclass
class ReaderLog:
    latencies: List[float] = field(default_factory=list)
    certified: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    audited: List[Tuple[inputs.Query, bytes]] = field(default_factory=list)
    finished: float = 0.0


def read_loop(
    server: ServerChild,
    queries: Sequence[inputs.Query],
    audit_seed: Sequence[int],
    warm_until: float,
    keep_going: Callable[[], bool],
    log: ReaderLog,
    post: Post,
) -> None:
    """One closed-loop dashboard client: POST /query, wait, repeat."""
    audit = np.random.default_rng(list(audit_seed)).random(len(queries)) < 1.0 / AUDIT_ONE_IN
    with HttpConnection(HOST, server.port) as connection:
        index = 0
        while keep_going():
            slot = index % len(queries)
            index += 1
            sent = time.perf_counter()
            try:
                response = post(connection, "/query", queries[slot].body)
                problem = None if response.status == 200 else f"HTTP {response.status}"
            except HttpFailure as exc:
                problem = str(exc)
                if not server.alive:
                    time.sleep(0.05)  # a dead server fails every remaining operation
            if sent < warm_until:
                continue
            log.attempted += 1
            log.finished = time.perf_counter()
            if problem:
                log.failures.append(problem)
                continue
            log.latencies.append(response.seconds)
            log.certified += b'"guarantee": "CERTIFIED"' in response.body
            if audit[slot]:
                log.audited.append((queries[slot], response.body))


def run_readers(
    result: Result,
    server: ServerChild,
    streams: Sequence[Sequence[inputs.Query]],
    options: Options,
    oracle: Oracle,
    keep_going: Optional[Callable[[], bool]] = None,
    post: Post = plain_post,
) -> float:
    """Drive one reader thread per stream; fold logs and audits into ``result``.

    Returns the instant the measured window started (the end of the warm-up).
    """
    warm_until = time.perf_counter() + options.warmup_seconds
    stop_at = warm_until + options.seconds
    if keep_going is None:
        keep_going = lambda: time.perf_counter() < stop_at  # noqa: E731
    logs = [ReaderLog() for _ in streams]
    threads = [
        threading.Thread(
            target=read_loop,
            args=(server, stream, (options.seed, 4, c), warm_until, keep_going, log, post),
        )
        for c, (stream, log) in enumerate(zip(streams, logs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    latencies = [value for log in logs for value in log.latencies]
    window = max(log.finished for log in logs) - warm_until
    for log in logs:
        result.attempted += log.attempted
        for reason in log.failures:
            result.fail(reason)
        for query, body in log.audited:
            problem = oracle.check_http(query, body)
            if problem:
                result.fail(f"audit of {query.where} {query.geometry}: {problem}")
    result.notes["audited_answers"] = sum(len(log.audited) for log in logs)
    read_metrics(result, latencies, sum(log.certified for log in logs), max(window, 1e-9))
    return warm_until


def run_http(options: Options, spec: inputs.CubeSpec, viewport: bool, label: str) -> Result:
    result = Result()
    served = set_up_serving(spec, options, result, ingest=False, label=label)
    try:
        table = served.cube.table
        cells = inputs.lattice_cells(table, spec.attrs)
        length = int(options.seconds * STREAM_REQUESTS_PER_SECOND)
        streams = []
        for c in range(CONNECTIONS):
            seed = options.seed * CONNECTIONS + c
            if viewport:
                streams.append(inputs.viewport_stream(table, spec.attrs, cells, seed, length))
            else:
                streams.append(inputs.cell_stream(spec.attrs, cells, seed, length))
        result.notes["inputs_digest"] = inputs.inputs_digest(
            table, [[q.body for q in stream] for stream in streams]
        )
        run_readers(result, served.server, streams, options, Oracle(table, spec))
        report_builds(served, spec, options, result, rate=True)
    finally:
        served.close()
    return result


# ----------------------------------------------------------------------
# ingest_mixed
# ----------------------------------------------------------------------
@dataclass
class FeedLog:
    first_submit: float = 0.0
    last_ack: float = 0.0
    acked: int = 0
    backpressured: int = 0
    failures: List[str] = field(default_factory=list)


def feed_loop(
    server: ServerChild, bodies: Sequence[bytes], log: FeedLog, post: Post = plain_post
) -> None:
    """POST every micro-batch back to back, honouring 503 + Retry-After."""
    log.first_submit = time.perf_counter()
    with HttpConnection(HOST, server.port, timeout=10.0) as connection:
        for position, body in enumerate(bodies):
            for _ in range(MAX_BACKPRESSURE_RETRIES):
                try:
                    response = post(connection, "/ingest", body)
                except HttpFailure as exc:
                    log.failures.append(f"batch {position}: {exc}")
                    break
                if response.status == 200:
                    log.acked += 1
                    log.last_ack = time.perf_counter()
                    break
                if response.status == 503 and "retry-after" in response.headers:
                    log.backpressured += 1
                    time.sleep(float(json.loads(response.body)["retry_after_seconds"]))
                    continue
                log.failures.append(f"batch {position}: HTTP {response.status}")
                break
            else:
                log.failures.append(f"batch {position}: still backpressured after retries")


def run_ingest_mixed(options: Options) -> Result:
    result = Result()
    spec = inputs.CUBE_I
    num_batches = max(4, int(options.seconds * FEED_BATCHES_PER_SECOND))
    fed_rows = num_batches * inputs.FEED_BATCH_ROWS
    served = set_up_serving(spec, options, result, ingest=True, label="ingest_mixed")
    try:
        table = served.cube.table
        cells = inputs.lattice_cells(table, spec.attrs)
        bodies = inputs.feed_batches(num_batches, options.seed)
        queries = inputs.cell_stream(
            spec.attrs, cells, options.seed, int(options.seconds * STREAM_REQUESTS_PER_SECOND)
        )
        result.notes["inputs_digest"] = inputs.inputs_digest(
            table, [bodies, [q.body for q in queries]]
        )
        applied = threading.Event()
        feed = FeedLog()
        writer = threading.Thread(target=feed_loop, args=(served.server, bodies, feed))
        reader_result = Result()
        reader = threading.Thread(
            target=run_readers,
            args=(reader_result, served.server, [queries], options,
                  Oracle(table, spec, check_loss=False)),
            kwargs={"keep_going": lambda: not applied.is_set()},
        )
        # Mid-feed answers are audited for shape only (check_loss=False): the raw
        # cell they were certified against is a moving target. The full audit of
        # every cell against the final table follows below.
        reader.start()
        time.sleep(options.warmup_seconds)
        writer.start()
        cap = time.perf_counter() + 6.0 * options.seconds + 30.0
        applied_at = None
        ingest_stats: Dict[str, object] = {}
        with HttpConnection(HOST, served.server.port) as poller:
            while time.perf_counter() < cap and served.server.alive:
                time.sleep(STATS_POLL_SECONDS)
                try:
                    ingest_stats = get_json(poller, "/stats")["ingest"]
                except HttpFailure:
                    continue
                if ingest_stats["watermarks"]["applied_seq"] >= num_batches:
                    applied_at = time.perf_counter()
                    break
        applied.set()
        writer.join()
        reader.join()

        result.attempted += num_batches + reader_result.attempted
        result.failed += reader_result.failed
        result.failures += reader_result.failures
        result.notes.update(reader_result.notes)
        for name in ("latency_p50_ms", "latency_p95_ms", "throughput_rps", "certified_share"):
            result.metrics[name] = reader_result.metrics[name]
        result.samples.update(reader_result.samples)
        for reason in feed.failures:
            result.fail(reason)
        counters = ingest_stats.get("counters", {})
        result.notes["backpressured"] = feed.backpressured
        result.notes["final_rows"] = table.num_rows + counters.get("applied_rows", 0)
        if applied_at is None:
            unapplied = num_batches - ingest_stats.get("watermarks", {}).get("applied_seq", 0)
            result.fail("feed not applied before the cap", count=max(1, unapplied))
            applied_at = time.perf_counter()
        elif (
            counters["applied_rows"] != fed_rows
            or counters["applied_batches"] != num_batches
            or counters["deduplicated_batches"] != 0
        ):
            result.fail(f"lost or duplicated batches: {counters}")
        if feed.acked:
            result.metrics["durable_rows_per_s"] = fed_rows / (feed.last_ack - feed.first_submit)
            # Recorded, not gated: see README, "applied_rows_per_s".
            result.notes["applied_rows_per_s"] = fed_rows / (applied_at - feed.first_submit)

        # Every cell, audited against base rows + every fed row, in one batched POST.
        final = table.concat(generate_nyctaxi(fed_rows, seed=inputs.FEED_TABLE_SEED))
        oracle = Oracle(final, spec)
        audit = [inputs.make_query(spec.attrs, c, None) for c in inputs.lattice_cells(final, spec.attrs)]
        body = json.dumps({"queries": [q.where for q in audit], "limit": inputs.ROW_LIMIT})
        result.attempted += len(audit)
        try:
            with HttpConnection(HOST, served.server.port, timeout=30.0) as connection:
                response = connection.exchange(build_request("POST", "/query", body.encode()))
            answers = json.loads(response.body)["results"] if response.status == 200 else []
        except (HttpFailure, ValueError, KeyError) as exc:
            answers = []
            result.fail(f"post-feed audit request failed: {exc}")
        if len(answers) != len(audit):
            result.fail("post-feed audit: answers missing", count=len(audit) - len(answers))
        for query, answer in zip(audit, answers):
            problem = oracle.check_answer(query, answer)
            if problem:
                result.fail(f"post-feed audit of {query.where}: {problem}")
        result.notes["max_certified_loss"] = oracle.max_certified_loss
        report_builds(served, spec, options, result, rate=False)
    finally:
        served.close()
    return result


WORKLOADS: Dict[str, Callable[[Options], Result]] = {
    "build": run_build,
    "build_parallel": partial(run_build, workers=2),
    "http_cell": partial(run_http, spec=inputs.CUBE_M, viewport=False, label="http_cell"),
    "http_viewport": partial(run_http, spec=inputs.CUBE_H, viewport=True, label="http_viewport"),
    "ingest_mixed": run_ingest_mixed,
}
