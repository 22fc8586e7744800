"""Machine-readable streaming-ingest benchmark (``repro bench ingest``).

One run drives the full crash-safe ingest pipeline the way a dashboard
deployment would: writer threads submit micro-batches through the
bounded queue (retrying on typed backpressure), query clients keep
reading the same cube the whole time, and the maintainer applies
batches in the background. The emitted ``BENCH_ingest.json`` records
three kinds of facts:

- **throughput trajectory** — durable rows/second, applied catch-up
  time, and query latency under ingest vs an idle baseline. Timings
  drift with hardware and are never gated (except the coarse
  ``latency_gate``, which is skipped with a reason where the machine
  cannot show it);
- **accounting invariants** — every offered submission disposed exactly
  once (accepted / backpressured / rejected-closed), zero untyped
  failures on either the writer or the query side, the queue bound
  never exceeded, and ``applied_seq`` catching ``durable_seq`` once
  writers stop. These must hold on any hardware and ``--check`` gates
  them;
- **recovery equivalence** — after the live run, a fresh cube built
  from the same base table replays the run's WAL/journal through
  :func:`~repro.ingest.stream.recover_ingest`; its content digest must
  equal the live cube's. This is the crash-safety contract measured as
  a byte-level fact rather than asserted in prose.

Schema details live in ``benchmarks/README.md``.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.cube_bench import (
    SCHEMA_VERSION,
    BenchSettings,
    _build,
    _environment,
    _latency_stats,
)
from repro.data.nyctaxi import generate_nyctaxi
from repro.data.workload import generate_workload

__all__ = ["bench_ingest", "check_ingest_doc"]


def _latency_gate(query_clients: int) -> Dict[str, object]:
    """Whether ``check_ingest_doc`` should enforce the p99-under-ingest bound.

    The gate asks for ingest-phase query p99 ≤ 2x the idle baseline
    (with a small absolute floor so microsecond-scale baselines don't
    turn scheduler jitter into failures). On a <4-core machine the
    writer, maintainer and query threads contend for the same cores and
    the ratio measures the scheduler, not the pipeline — recorded but
    not enforced there.
    """
    import multiprocessing

    cpu_count = multiprocessing.cpu_count()
    if cpu_count < 4:
        return {
            "enforced": False,
            "cpu_count": cpu_count,
            "required_ratio": 2.0,
            "floor_seconds": 0.005,
            "reason": (
                f"cpu_count={cpu_count} < 4: ingest/query threads share cores, "
                "the latency ratio measures the scheduler"
            ),
        }
    return {
        "enforced": True,
        "cpu_count": cpu_count,
        "required_ratio": 2.0,
        "floor_seconds": 0.005,
        "reason": f"cpu_count={cpu_count} >= 4 with {query_clients} query client(s)",
    }


def bench_ingest(
    settings: Optional[BenchSettings] = None,
    batches: int = 30,
    batch_rows: int = 50,
    writers: int = 2,
    query_clients: int = 2,
    num_queries: int = 80,
    maintain_delay_seconds: float = 0.0,
    max_queued_rows: int = 2048,
    workload_seed: int = 0,
    ingest_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Benchmark the streaming-ingest pipeline under concurrent queries.

    Four phases over one cube:

    - **idle** — the query workload against the pre-ingest cube: the
      latency baseline;
    - **ingest** — ``writers`` threads submit ``batches`` micro-batches
      of ``batch_rows`` rows (retrying on backpressure, never dropping)
      while ``query_clients`` threads keep draining the workload and
      recording per-answer staleness;
    - **drain** — writers done; wait for ``applied_seq`` to catch
      ``durable_seq`` and record how long the catch-up took;
    - **recovery** — rebuild the base cube from scratch and replay the
      run's WAL/journal through ``recover_ingest``; the digests must
      match byte-for-byte.

    ``maintain_delay_seconds`` artificially slows the maintainer so the
    backpressure and staleness paths actually exercise (drills only;
    keep 0 for throughput numbers).
    """
    from repro.ingest.stream import IngestConfig, StreamIngestor, recover_ingest
    from repro.serving.gateway import ServingGateway

    settings = settings or BenchSettings()
    table = generate_nyctaxi(num_rows=settings.num_rows, seed=settings.seed)
    tabula, _, _ = _build(table, settings, workers=1)
    queries = [
        dict(q)
        for q in generate_workload(
            table, settings.attrs, num_queries=num_queries, seed=workload_seed
        )
    ]
    delta = generate_nyctaxi(num_rows=batches * batch_rows, seed=settings.seed + 1)

    gateway = ServingGateway(tabula)

    # ---- idle baseline -------------------------------------------------
    idle_latencies: List[float] = []
    for where in queries:
        response = gateway.query(where)
        idle_latencies.append(response.elapsed_seconds)

    # ---- live ingest under concurrent queries --------------------------
    directory = Path(ingest_dir) if ingest_dir else Path(tempfile.mkdtemp(prefix="bench_ingest_"))
    directory.mkdir(parents=True, exist_ok=True)
    wal_path = directory / "ingest.wal"
    journal_path = directory / "maintenance.journal"
    config = IngestConfig(
        max_queued_rows=max_queued_rows,
        flush_interval_seconds=0.005,
        maintain_delay_seconds=maintain_delay_seconds,
    )
    ingestor = StreamIngestor(tabula, wal_path, journal_path, config=config)
    gateway.attach_ingestor(ingestor)

    lock = threading.Lock()
    cursor = {"next": 0}
    submit_errors: List[str] = []
    query_errors: List[str] = []
    ingest_latencies: List[float] = []
    staleness_samples: List[int] = []
    state = {
        "backpressure_retries": 0,
        "max_queued_rows_observed": 0,
        "writers_done": False,
    }

    def writer() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= batches:
                    return
                cursor["next"] = index + 1
            rows = delta.slice(index * batch_rows, (index + 1) * batch_rows)
            seed = 1_000_000 + index  # client-stable idempotency key
            deadline = time.monotonic() + 60.0
            while True:
                result = ingestor.submit(rows, seed=seed, wait_durable=True)
                with lock:
                    state["max_queued_rows_observed"] = max(
                        state["max_queued_rows_observed"], result.queued_rows
                    )
                if result.accepted:
                    return_code = None
                    break
                if result.outcome.value == "backpressure":
                    with lock:
                        state["backpressure_retries"] += 1
                    if time.monotonic() > deadline:
                        return_code = f"batch {index}: backpressure never cleared"
                        break
                    time.sleep(result.retry_after_seconds)
                    continue
                return_code = f"batch {index}: rejected as closed: {result.detail}"
                break
            if return_code is not None:
                with lock:
                    submit_errors.append(return_code)

    def query_client() -> None:
        position = 0
        while True:
            with lock:
                if state["writers_done"]:
                    return
            where = queries[position % len(queries)]
            position += 1
            try:
                response = gateway.query(where)
            except Exception as exc:  # untyped failure — the gated bug
                with lock:
                    query_errors.append(f"{type(exc).__name__}: {exc}")
                return
            with lock:
                ingest_latencies.append(response.elapsed_seconds)
                staleness_samples.append(response.staleness_batches)

    writer_threads = [threading.Thread(target=writer) for _ in range(max(1, writers))]
    query_threads = [
        threading.Thread(target=query_client) for _ in range(max(0, query_clients))
    ]
    ingest_started = time.perf_counter()
    for thread in writer_threads + query_threads:
        thread.start()
    for thread in writer_threads:
        thread.join()
    submit_wall = time.perf_counter() - ingest_started

    # ---- drain: applied catches durable --------------------------------
    drain_started = time.perf_counter()
    caught_up = ingestor.wait_applied(timeout=120.0)
    catchup_seconds = time.perf_counter() - drain_started
    with lock:
        state["writers_done"] = True
    for thread in query_threads:
        thread.join()
    stats = ingestor.stats()
    ingestor.close(drain=True)

    # ---- recovery equivalence ------------------------------------------
    fresh, _, _ = _build(table, settings, workers=1)
    recovery = recover_ingest(fresh, wal_path, journal_path)
    live_digest = tabula.store.content_digest()
    recovered_digest = fresh.store.content_digest()
    gateway.close()

    rows_ingested = batches * batch_rows
    watermarks = dict(stats["watermarks"])
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "ingest",
        "settings": settings.as_dict(),
        "environment": _environment(),
        "workload": {
            "batches": batches,
            "batch_rows": batch_rows,
            "writers": max(1, writers),
            "query_clients": max(0, query_clients),
            "num_queries": num_queries,
        },
        "config": {
            "max_queued_rows": config.max_queued_rows,
            "max_queued_batches": config.max_queued_batches,
            "maintain_delay_seconds": config.maintain_delay_seconds,
        },
        "idle": {
            "offered": len(queries),
            "latency_seconds": _latency_stats(idle_latencies),
        },
        "ingest": {
            "rows_ingested": rows_ingested,
            "submit_wall_seconds": submit_wall,
            "durable_rows_per_second": (
                rows_ingested / submit_wall if submit_wall > 0 else 0.0
            ),
            "applied_catchup_seconds": catchup_seconds,
            "applied_caught_up": bool(caught_up),
            "backpressure_retries": state["backpressure_retries"],
            "max_queued_rows_observed": state["max_queued_rows_observed"],
            "queue_bound_rows": config.max_queued_rows,
            "submit_errors": submit_errors,
            "query_errors": query_errors,
            "queries_answered": len(ingest_latencies),
            "latency_seconds": _latency_stats(ingest_latencies),
            "max_staleness_batches": max(staleness_samples) if staleness_samples else 0,
            "counters": dict(stats["counters"]),
            "watermarks": watermarks,
            "pipeline_failure": str(stats["failure"]),
        },
        "recovery": {
            "digests_equal": live_digest == recovered_digest,
            "live_digest": live_digest,
            "recovered_digest": recovered_digest,
            "replayed_plans": recovery.replayed_plans,
            "reapplied_batches": recovery.reapplied_batches,
            "skipped_batches": recovery.skipped_batches,
            "dropped_wal_lines": recovery.dropped_wal_lines,
            "rows_after": fresh.table.num_rows,
        },
        "latency_gate": _latency_gate(query_clients),
    }


def check_ingest_doc(doc: Dict[str, object]) -> List[str]:
    """Validate a ``bench ingest`` document's robustness invariants.

    Gated: submission accounting closes (offered = accepted +
    backpressured + rejected-closed, and exactly-once apply), zero
    untyped failures, the queue bound held, applied caught durable, the
    recovery digest matches the live cube. NOT gated: throughput,
    catch-up time and latency percentiles — hardware-dependent — except
    the coarse ``latency_gate`` ratio when ``enforced``.
    """
    failures: List[str] = []
    ingest = doc.get("ingest", {})
    counters = ingest.get("counters", {})
    offered = counters.get("offered", 0)
    disposed = (
        counters.get("accepted", 0)
        + counters.get("backpressured", 0)
        + counters.get("rejected_closed", 0)
    )
    if offered != disposed:
        failures.append(
            f"ingest: {offered} submissions offered but {disposed} disposed — "
            "a batch was lost or double-counted"
        )
    if counters.get("rejected_closed", 0):
        failures.append(
            f"ingest: {counters['rejected_closed']} submission(s) rejected as "
            "closed while the pipeline was open"
        )
    # applied_batches counts every disposed batch (deduplicated_batches
    # is the subset acknowledged without re-applying).
    if counters.get("applied_batches", 0) != counters.get("accepted", 0):
        failures.append(
            f"ingest: {counters.get('accepted', 0)} accepted batches but "
            f"{counters.get('applied_batches', 0)} disposed by the maintainer "
            "— exactly-once accounting broken"
        )
    for key in ("submit_errors", "query_errors"):
        errors = ingest.get(key) or []
        if errors:
            failures.append(
                f"ingest: {len(errors)} untyped {key.replace('_', ' ')} "
                f"(first: {errors[0]})"
            )
    if ingest.get("pipeline_failure"):
        failures.append(f"ingest: pipeline failed: {ingest['pipeline_failure']}")
    if not ingest.get("applied_caught_up"):
        failures.append("ingest: applied_seq never caught durable_seq after drain")
    watermarks = ingest.get("watermarks", {})
    if watermarks.get("lag_batches", 0) or watermarks.get("queued_rows", 0):
        failures.append(
            f"ingest: residual lag after drain — watermarks {watermarks}"
        )
    observed = ingest.get("max_queued_rows_observed", 0)
    bound = ingest.get("queue_bound_rows", 0)
    if bound and observed > bound:
        failures.append(
            f"ingest: observed queue depth {observed} rows exceeds the "
            f"configured bound {bound} — backpressure is not bounding memory"
        )
    recovery = doc.get("recovery", {})
    if not recovery.get("digests_equal"):
        failures.append(
            "recovery: replaying the WAL/journal onto a fresh base cube "
            f"produced digest {recovery.get('recovered_digest')!r} != live "
            f"digest {recovery.get('live_digest')!r}"
        )
    if recovery.get("dropped_wal_lines", 0):
        failures.append(
            f"recovery: {recovery['dropped_wal_lines']} torn WAL line(s) in a "
            "run with no injected crash"
        )
    gate = doc.get("latency_gate", {})
    if gate.get("enforced"):
        idle_p99 = doc.get("idle", {}).get("latency_seconds", {}).get("p99", 0.0)
        ingest_p99 = ingest.get("latency_seconds", {}).get("p99", 0.0)
        baseline = max(idle_p99, gate.get("floor_seconds", 0.005))
        ratio = gate.get("required_ratio", 2.0)
        if ingest_latencies_gated(ingest) and ingest_p99 > baseline * ratio:
            failures.append(
                f"ingest: query p99 {ingest_p99:.4f}s under ingest exceeds "
                f"{ratio}x the idle baseline ({baseline:.4f}s) on a "
                f"{gate.get('cpu_count')}-core machine"
            )
    return failures


def ingest_latencies_gated(ingest: Dict[str, object]) -> bool:
    """The latency gate needs a real sample to be meaningful."""
    return int(ingest.get("queries_answered", 0)) >= 20
