"""Machine-readable cube benchmarks (``repro bench cube`` / ``bench query``).

These benches seed the repo's performance trajectory: each run emits a
JSON document (``BENCH_cube_init.json`` / ``BENCH_query.json``) with
wall-clock numbers, a per-phase breakdown, the parallel speedup over a
``workers=1`` baseline, and the cube-quality invariants that must NOT
move when only the worker count changes:

- iceberg-cell count and known-cell count,
- number of local samples and total sample tuples,
- per-iceberg-cell achieved loss ``<= θ`` (the paper's guarantee),
- the store content digest — byte-level determinism across workers.

Timings drift with hardware; invariants never may. ``check_cube_doc``
separates the two so CI can gate on drift without flaking on slow
runners. Schema details live in ``benchmarks/README.md``.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.loss.registry import LossRegistry
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.data.nyctaxi import generate_nyctaxi
from repro.data.workload import generate_workload
from repro.engine.cube import CubeCells

#: Bump when the emitted JSON layout changes incompatibly.
#: v2 (additive): ``latency_seconds`` gained ``p99``; ``bench query``
#: gained ``clients``/``throughput_qps``; new ``bench serving`` document.
#: v3 (additive): ``bench cube`` gained per-stage ``execution`` audit
#: records and a ``speedup_gate`` block (no longer emitted: the ratio
#: is recorded, not gated); ``bench query`` gained the
#: ``batch`` section (``--batch``). Every earlier field keeps its name.
#: v4 (additive): ``bench serving`` phase ``breaker`` blocks gained
#: per-phase deltas (``phase_opens``/``phase_rejected`` — the cumulative
#: ``opens_total``/``rejected_total`` stay); new ``sharded`` section
#: (``--shards N``): single-shard vs N-shard throughput, a chaos phase
#: that SIGKILLs a worker under load, per-shard worker stats and router
#: breaker deltas, and a ``recovery`` record with the supervisor's
#: restart outcome. Every earlier field keeps its name.
#: v5 (additive): ``bench serving`` gained a ``workload`` field
#: (``"cells"`` — the v4 behaviour and still the default — or
#: ``"viewport"``) and, for viewport runs, a ``viewport`` section: the
#: zoom-level session workload driven with per-query geometries, a
#: brute-force spatial oracle replay (``oracle_mismatches``), a
#: row-containment audit (``rows_outside_viewport``), a guarantee audit
#: (``certified_violations`` — a CERTIFIED answer whose sample was
#: strictly narrowed by the viewport), and per-zoom latency stats.
#: Every earlier field keeps its name.
#: v6 (additive): new ``bench ingest`` document
#: (:mod:`repro.bench.ingest_bench` → ``BENCH_ingest.json``): streaming
#: ingest under concurrent queries — idle vs under-ingest query latency,
#: durable throughput, backpressure/accounting counters, watermark
#: catch-up, and a ``recovery`` section whose WAL-replay digest must
#: equal the live cube's. Every earlier document keeps every field.
SCHEMA_VERSION = 6


@dataclass(frozen=True)
class BenchSettings:
    """Everything that determines a bench run's workload (not its speed)."""

    num_rows: int = 20_000
    seed: int = 0
    attrs: Tuple[str, ...] = ("payment_type", "rate_code", "passenger_count")
    loss_name: str = "mean_loss"
    target: Tuple[str, ...] = ("fare_amount",)
    theta: float = 0.05
    partitions: int = 16

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_rows": self.num_rows,
            "seed": self.seed,
            "attrs": list(self.attrs),
            "loss": self.loss_name,
            "target": list(self.target),
            "theta": self.theta,
            "partitions": self.partitions,
        }


def _make_tabula(table, settings: BenchSettings) -> Tabula:
    loss = LossRegistry().bind(settings.loss_name, settings.target)
    config = TabulaConfig(
        cubed_attrs=settings.attrs,
        threshold=settings.theta,
        loss=loss,
        seed=settings.seed,
        partitions=settings.partitions,
    )
    return Tabula(table, config)


def _build(table, settings: BenchSettings, workers: int):
    """Initialize one cube; returns ``(tabula, report, wall_seconds)``."""
    tabula = _make_tabula(table, settings)
    started = time.perf_counter()
    report = tabula.initialize(workers=workers)
    return tabula, report, time.perf_counter() - started


def cube_invariants(tabula: Tabula, table) -> Dict[str, object]:
    """Quality invariants of a built cube — identical across worker counts.

    ``max_achieved_loss`` re-measures every materialized iceberg-cell
    sample against its raw population, so the reported θ-guarantee is a
    fact about the artifact, not a replay of the builder's bookkeeping.
    """
    store = tabula.store
    loss = tabula.config.loss
    values = loss.extract(table)
    cube = CubeCells(table, tabula.config.cubed_attrs)
    max_loss = 0.0
    for cell in store._cell_to_sample_id:
        sample = store.lookup(cell)
        if sample is None:
            continue
        raw = values[cube.cell_indices(cell)]
        max_loss = max(max_loss, loss.loss(raw, loss.extract(sample)))
    total_sample_tuples = sum(
        sample.num_rows for _, sample in store.sample_table_entries()
    )
    return {
        "iceberg_cells": store.num_iceberg_cells,
        "known_cells": len(store._known_cells),
        "num_samples": store.num_samples,
        "total_sample_tuples": total_sample_tuples,
        "global_sample_size": store.global_sample.size,
        "max_achieved_loss": max_loss,
        "threshold": tabula.config.threshold,
        "loss_bound_ok": bool(max_loss <= tabula.config.threshold + 1e-9),
        "content_digest": store.content_digest(),
    }


def _phase_breakdown(report) -> Dict[str, float]:
    return {
        "dry_run_seconds": report.dry_run_seconds,
        "real_run_seconds": report.real_run_seconds,
        "selection_seconds": report.selection_seconds,
        "total_seconds": report.total_seconds,
    }


def _execution_audit(report) -> Dict[str, Optional[Dict[str, object]]]:
    """Per-stage :class:`~repro.core.parallel.PoolExecution` records.

    ``None`` for a stage means it ran on the serial code path (no pool
    engine involved); a record with ``fallback_kind == "error"`` means
    the pool engine *tried* to fan out and silently fell back inline —
    the regression this bench exists to catch.
    """
    out: Dict[str, Optional[Dict[str, object]]] = {}
    for stage, execution in (
        ("dry_run", getattr(report, "dry_run_execution", None)),
        ("real_run", getattr(report, "real_run_execution", None)),
    ):
        out[stage] = execution.to_dict() if execution is not None else None
    return out


def bench_cube(
    settings: Optional[BenchSettings] = None,
    workers: int = 4,
) -> Dict[str, object]:
    """Benchmark cube construction: ``workers=1`` baseline vs ``workers=N``.

    Both runs go through the parallel engine (the serial baseline is
    ``workers=1``), so the byte-identity invariant is exact rather than
    subject to chunked-summation float drift.
    """
    settings = settings or BenchSettings()
    table = generate_nyctaxi(num_rows=settings.num_rows, seed=settings.seed)

    serial_tabula, serial_report, serial_wall = _build(table, settings, workers=1)
    parallel_tabula, parallel_report, parallel_wall = _build(
        table, settings, workers=workers
    )

    serial_inv = cube_invariants(serial_tabula, table)
    parallel_inv = cube_invariants(parallel_tabula, table)
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "cube_init",
        "settings": settings.as_dict(),
        "environment": _environment(),
        "workers": workers,
        "serial": {
            "workers": 1,
            "wall_seconds": serial_wall,
            "phases": _phase_breakdown(serial_report),
            "invariants": serial_inv,
            "execution": _execution_audit(serial_report),
        },
        "parallel": {
            "workers": workers,
            "wall_seconds": parallel_wall,
            "phases": _phase_breakdown(parallel_report),
            "invariants": parallel_inv,
            "execution": _execution_audit(parallel_report),
        },
        "speedup_vs_serial": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "digests_equal": serial_inv["content_digest"] == parallel_inv["content_digest"],
    }


def _latency_stats(latencies: List[float]) -> Dict[str, float]:
    """v1 latency fields plus the v2 tail (p99)."""
    if not latencies:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0, "total": 0.0}
    lat = np.asarray(latencies)
    return {
        "mean": float(lat.mean()),
        "p50": float(np.percentile(lat, 50)),
        "p95": float(np.percentile(lat, 95)),
        "p99": float(np.percentile(lat, 99)),
        "max": float(lat.max()),
        "total": float(lat.sum()),
    }


def bench_query(
    settings: Optional[BenchSettings] = None,
    workers: int = 1,
    num_queries: int = 100,
    workload_seed: int = 0,
    clients: int = 1,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """Benchmark the dashboard query path over a fixed random workload.

    With ``clients > 1`` the same workload is drained by that many
    threads hammering one shared ``Tabula`` — the dashboard's actual
    deployment shape — which exercises the store's swap-generation
    guards and reports aggregate throughput alongside the latency tail.

    With ``batch_size`` set, a second phase replays the same workload
    through a single-worker :class:`ServingGateway` twice — once as
    individual requests, once via ``query_many`` in viewport-sized
    batches (the multi-cell fetch a dashboard pan/zoom issues). Each
    individual request pays one admission-queue round-trip and one
    future handoff; a batch pays that once for ``batch_size`` answers,
    which is the speedup being measured. The document gains a ``batch``
    section: both throughputs, the speedup, and
    ``answers_match_single`` — the equivalence fact ``--check`` gates
    on (throughput is hardware-dependent; the answers never may
    differ).
    """
    settings = settings or BenchSettings()
    table = generate_nyctaxi(num_rows=settings.num_rows, seed=settings.seed)
    tabula, report, _ = _build(table, settings, workers=workers)

    workload = generate_workload(
        table, settings.attrs, num_queries=num_queries, seed=workload_seed
    )
    latencies: List[float] = []
    sources: Dict[str, int] = {}
    guarantees: Dict[str, int] = {}
    record_lock = threading.Lock()

    def run_one(query) -> None:
        started = time.perf_counter()
        result = tabula.query(query)
        elapsed = time.perf_counter() - started
        with record_lock:
            latencies.append(elapsed)
            sources[result.source] = sources.get(result.source, 0) + 1
            name = result.guarantee.name
            guarantees[name] = guarantees.get(name, 0) + 1

    wall_started = time.perf_counter()
    if clients <= 1:
        for query in workload:
            run_one(query)
    else:
        pending = list(workload)
        cursor = {"next": 0}

        def client() -> None:
            while True:
                with record_lock:
                    index = cursor["next"]
                    if index >= len(pending):
                        return
                    cursor["next"] = index + 1
                run_one(pending[index])

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - wall_started

    batch_section: Optional[Dict[str, object]] = None
    if batch_size is not None and batch_size > 0:
        from repro.serving.gateway import ServingConfig, ServingGateway

        gateway = ServingGateway(
            tabula,
            config=ServingConfig(workers=1, queue_depth=max(batch_size, 64)),
        )
        with gateway:
            # Warm pass so both measured passes see the same caches.
            gateway.query_many(workload[:batch_size])

            single_started = time.perf_counter()
            single_results = [gateway.query(query) for query in workload]
            single_wall = time.perf_counter() - single_started

            batch_started = time.perf_counter()
            batch_results: List = []
            for start in range(0, len(workload), batch_size):
                batch_results.extend(
                    gateway.query_many(workload[start : start + batch_size])
                )
            batch_wall = time.perf_counter() - batch_started

        answers_match = len(single_results) == len(batch_results) and all(
            s.source == b.source
            and s.guarantee == b.guarantee
            and s.outcome == b.outcome
            and s.cell == b.cell
            and s.sample.to_pydict() == b.sample.to_pydict()
            for s, b in zip(single_results, batch_results)
        )
        batch_section = {
            "batch_size": batch_size,
            "num_queries": len(workload),
            "single_wall_seconds": single_wall,
            "single_throughput_qps": len(workload) / single_wall if single_wall > 0 else 0.0,
            "batch_wall_seconds": batch_wall,
            "batch_throughput_qps": len(workload) / batch_wall if batch_wall > 0 else 0.0,
            "speedup_vs_single": single_wall / batch_wall if batch_wall > 0 else 0.0,
            "answers_match_single": answers_match,
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "query",
        "settings": settings.as_dict(),
        "environment": _environment(),
        "workers": workers,
        "clients": clients,
        "num_queries": len(workload),
        "latency_seconds": _latency_stats(latencies),
        "throughput_qps": len(workload) / wall if wall > 0 else 0.0,
        "source_mix": sources,
        "guarantee_mix": guarantees,
        "void_answers": guarantees.get(GuaranteeStatus.VOID.name, 0),
        "init_total_seconds": report.total_seconds,
        "invariants": cube_invariants(tabula, table),
        "batch": batch_section,
    }


def bench_serving(
    settings: Optional[BenchSettings] = None,
    workers: int = 2,
    queue_depth: int = 4,
    clients: int = 16,
    num_queries: int = 200,
    min_service_seconds: float = 0.002,
    deadline_seconds: Optional[float] = None,
    workload_seed: int = 0,
    shards: int = 0,
    workload: str = "cells",
) -> Dict[str, object]:
    """Benchmark the serving gateway in a steady and an overloaded regime.

    Two phases over the same workload:

    - **steady** — a well-provisioned gateway (no artificial service
      floor, clients ≤ workers): the baseline latency tail.
    - **overload** — a deliberately under-provisioned gateway
      (``min_service_seconds`` service floor, ``clients`` ≫ workers +
      queue): offered load exceeds capacity, so the gateway *must* shed;
      the document records throughput, shed rate and the p99 of the
      requests that were actually served.

    Shedding is the designed overload response, so ``shed_rate`` is a
    descriptive metric here — ``check_serving_doc`` gates the accounting
    invariants (every request disposed exactly once, outcomes well
    formed), never the timing- and scheduler-dependent rate itself.

    With ``shards >= 1`` the document gains a ``sharded`` section: the
    same workload driven through the fault-tolerant sharded tier — one
    single-shard cluster as the baseline, an N-shard cluster for the
    scaling phase, then a chaos phase that SIGKILLs one worker mid-load
    and a recovery record proving the supervisor restarted it back to
    CERTIFIED answers. The ≥1.5x scaling gate is skipped with a reason
    on <2-core machines: recorded but not enforced (process parallelism
    cannot show wall-clock speedup there).

    With ``workload="viewport"`` the same two phases run over a
    zoom-level-aware viewport session workload — every request carries a
    bbox geometry — and the document gains a ``viewport`` section whose
    oracle replay ``--check`` gates on (see :func:`check_serving_doc`).
    """
    from repro.serving.breaker import BreakerConfig
    from repro.serving.gateway import ServingConfig, ServingGateway

    if workload not in ("cells", "viewport"):
        raise ValueError(f"unknown serving workload: {workload!r}")
    settings = settings or BenchSettings()
    table = generate_nyctaxi(num_rows=settings.num_rows, seed=settings.seed)
    tabula, _, _ = _build(table, settings, workers=1)
    geometries: Optional[List[Dict[str, object]]] = None
    viewport_workload = None
    if workload == "viewport":
        from repro.data.workload import generate_viewport_workload

        viewport_workload = generate_viewport_workload(
            table, settings.attrs, num_queries=num_queries, seed=workload_seed
        )
        queries = [dict(q) for q in viewport_workload.queries]
        geometries = [dict(g) for g in viewport_workload.geometries]
    else:
        queries = [
            dict(q)
            for q in generate_workload(
                table, settings.attrs, num_queries=num_queries, seed=workload_seed
            )
        ]

    def run_phase(config: ServingConfig, phase_clients: int) -> Dict[str, object]:
        gateway = ServingGateway(tabula, config=config)
        breaker_before = gateway.breaker.snapshot()
        outcomes: Dict[str, int] = {}
        served_latencies: List[float] = []
        lock = threading.Lock()
        cursor = {"next": 0}

        def client() -> None:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(queries):
                        return
                    cursor["next"] = index + 1
                response = gateway.query(
                    queries[index],
                    deadline_seconds=deadline_seconds,
                    geometry=geometries[index] if geometries is not None else None,
                )
                with lock:
                    outcomes[response.outcome.value] = (
                        outcomes.get(response.outcome.value, 0) + 1
                    )
                    if response.answered:
                        served_latencies.append(response.elapsed_seconds)

        threads = [threading.Thread(target=client) for _ in range(phase_clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        stats = gateway.stats()
        gateway.close()
        served = sum(
            count for name, count in outcomes.items() if name not in ("shed",)
        )
        return {
            "clients": phase_clients,
            "workers": config.workers,
            "queue_depth": config.queue_depth,
            "min_service_seconds": config.min_service_seconds,
            "offered": len(queries),
            "outcomes": outcomes,
            "served": served,
            "shed": outcomes.get("shed", 0),
            "shed_rate": outcomes.get("shed", 0) / len(queries) if queries else 0.0,
            "throughput_rps": len(queries) / wall if wall > 0 else 0.0,
            "latency_seconds": _latency_stats(served_latencies),
            "breaker": _breaker_delta(breaker_before, stats["breaker"]),
        }

    steady = run_phase(
        ServingConfig(
            workers=max(workers, 4),
            queue_depth=max(queue_depth, len(queries)),
            breaker=BreakerConfig(),
        ),
        phase_clients=min(clients, max(workers, 4)),
    )
    overload = run_phase(
        ServingConfig(
            workers=workers,
            queue_depth=queue_depth,
            min_service_seconds=min_service_seconds,
            breaker=BreakerConfig(),
        ),
        phase_clients=clients,
    )
    document: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "bench": "serving",
        "settings": settings.as_dict(),
        "environment": _environment(),
        "deadline_seconds": deadline_seconds,
        "workload": workload,
        "phases": {"steady": steady, "overload": overload},
    }
    if viewport_workload is not None:
        document["viewport"] = _bench_viewport(tabula, viewport_workload)
    if shards >= 1:
        document["sharded"] = _bench_sharded(
            settings=settings,
            tabula=tabula,
            table=table,
            workload=queries,
            shards=shards,
            clients=clients,
            min_service_seconds=max(min_service_seconds, 0.005),
        )
    return document


def _bench_viewport(tabula: Tabula, viewport_workload) -> Dict[str, object]:
    """The viewport oracle phase: drive, then refute against brute force.

    A well-provisioned single-worker gateway (deep queue, no service
    floor, no deadline) answers every viewport request, so the answers
    are rung-deterministic; each is then replayed against a brute-force
    oracle — the *unfiltered* answer for the same cell with the geometry
    applied by plain point-in-shape arithmetic, no spatial index — and
    three audits are recorded:

    - ``oracle_mismatches`` — index-filtered rows differ from the
      brute-force rows (the tentpole equivalence fact);
    - ``rows_outside_viewport`` — an answer contains a row outside its
      own geometry (containment must hold regardless of rung);
    - ``certified_violations`` — a CERTIFIED sampled answer whose rows
      were strictly narrowed by the viewport (the θ-certificate does
      not cover a spatially narrowed estimator, so this must downgrade).

    All three are ``--check``-gated at zero.  Per-zoom latency stats
    ride along for the trajectory (not gated).
    """
    from repro.core import spatial
    from repro.serving.gateway import ServingConfig, ServingGateway

    queries = [dict(q) for q in viewport_workload.queries]
    geometries = [spatial.parse_geometry(g) for g in viewport_workload.geometries]
    zooms = list(viewport_workload.zooms)

    responses: List = [None] * len(queries)
    gateway = ServingGateway(
        tabula,
        config=ServingConfig(workers=1, queue_depth=max(64, len(queries))),
    )
    started = time.perf_counter()
    with gateway:
        for index, (query, geom) in enumerate(zip(queries, geometries)):
            responses[index] = gateway.query(query, geometry=geom)
    wall = time.perf_counter() - started

    outcomes: Dict[str, int] = {}
    guarantees: Dict[str, int] = {}
    sources: Dict[str, int] = {}
    oracle_mismatches: List[str] = []
    rows_outside: List[str] = []
    certified_violations: List[str] = []
    by_zoom: Dict[int, List[float]] = {}
    filtered_answers = 0

    for index, response in enumerate(responses):
        geom = geometries[index]
        outcomes[response.outcome.value] = outcomes.get(response.outcome.value, 0) + 1
        guarantees[response.guarantee.value] = (
            guarantees.get(response.guarantee.value, 0) + 1
        )
        sources[response.source] = sources.get(response.source, 0) + 1
        by_zoom.setdefault(zooms[index], []).append(response.elapsed_seconds)
        if response.sample is None:
            continue
        # Containment: every returned row lies inside its own viewport.
        inside = spatial.oracle_rows(response.sample, geom)
        if len(inside) != response.sample.num_rows:
            rows_outside.append(
                f"query {index}: {response.sample.num_rows - len(inside)} of "
                f"{response.sample.num_rows} rows outside {geom.to_dict()}"
            )
        # Equivalence: replay the unfiltered rung through the brute-force
        # oracle (filter_table without an index) and compare rows.
        base = tabula.query(queries[index])
        if base.sample is None or base.source != response.source:
            continue  # different rung answered; no comparable baseline
        expected, covers = spatial.filter_table(base.sample, geom)
        if expected.to_pydict() != response.sample.to_pydict():
            oracle_mismatches.append(
                f"query {index}: index-filtered answer differs from "
                f"brute-force oracle ({response.sample.num_rows} vs "
                f"{expected.num_rows} rows, source={response.source})"
            )
        if not covers:
            filtered_answers += 1
            if (
                response.guarantee is GuaranteeStatus.CERTIFIED
                and response.source in ("local", "global", "representative")
            ):
                certified_violations.append(
                    f"query {index}: CERTIFIED {response.source} answer was "
                    f"strictly narrowed ({base.sample.num_rows} -> "
                    f"{expected.num_rows} rows) without a downgrade"
                )

    zoom_stats = {
        str(zoom): {"count": len(latencies), **_latency_stats(latencies)}
        for zoom, latencies in sorted(by_zoom.items())
    }
    return {
        "offered": len(queries),
        "disposed": sum(outcomes.values()),
        "outcomes": outcomes,
        "guarantees": guarantees,
        "sources": sources,
        "spatial_filtered_answers": sum(
            1 for r in responses if r is not None and r.spatial_filtered
        ),
        "strict_subset_answers": filtered_answers,
        "oracle_mismatches": oracle_mismatches,
        "rows_outside_viewport": rows_outside,
        "certified_violations": certified_violations,
        "throughput_rps": len(queries) / wall if wall > 0 else 0.0,
        "latency_by_zoom": zoom_stats,
        "zoom_range": [min(zooms), max(zooms)] if zooms else [0, 0],
    }


def _breaker_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """Per-phase breaker activity: cumulative snapshot + in-phase deltas.

    The cumulative ``opens_total``/``rejected_total`` counters survive
    across phases sharing a breaker, which used to make per-phase
    reports read as all-zero (or as the *previous* phase's trips); the
    ``phase_*`` keys subtract the phase-start snapshot so each phase
    reports its own activity. Additive: all v3 keys keep their meaning.
    """
    merged: Dict[str, object] = dict(after)
    merged["phase_opens"] = int(after.get("opens_total", 0)) - int(
        before.get("opens_total", 0)
    )
    merged["phase_rejected"] = int(after.get("rejected_total", 0)) - int(
        before.get("rejected_total", 0)
    )
    return merged


def _bench_sharded(
    settings: BenchSettings,
    tabula: Tabula,
    table,
    workload: List[Dict[str, object]],
    shards: int,
    clients: int,
    min_service_seconds: float,
) -> Dict[str, object]:
    """The sharded-tier phases: scaling, chaos (SIGKILL), recovery."""
    import os
    import signal
    import sys
    import tempfile

    from repro.core.persistence import load_cube, save_cube
    from repro.engine.io import read_csv, write_csv
    from repro.engine.schema import ColumnType
    from repro.serving.placement import Placement, shard_transform
    from repro.serving.router import RouterConfig, ShardRouter
    from repro.serving.supervisor import (
        ShardSupervisor,
        SupervisorConfig,
        default_worker_factory,
    )

    workdir = tempfile.mkdtemp(prefix="bench_serving_sharded_")
    csv_path = os.path.join(workdir, "rides.csv")
    cube_path = os.path.join(workdir, "cube.json")
    write_csv(table, csv_path)
    save_cube(tabula, cube_path)
    # Workers re-read the CSV themselves; the router's fallback slice
    # must use the same CATEGORY-typed re-read for identical cells.
    served_table = read_csv(
        csv_path, types={a: ColumnType.CATEGORY for a in settings.attrs}
    )

    def boot(num_shards: int) -> ShardRouter:
        placement = Placement(num_shards)

        def worker_argv(shard: int) -> List[str]:
            return [
                sys.executable, "-m", "repro.serving.shard_worker",
                "--cube", cube_path, "--table", csv_path,
                "--shard", str(shard), "--num-shards", str(num_shards),
                "--workers", "2", "--queue-depth", str(max(64, len(workload))),
                "--min-service-seconds", str(min_service_seconds),
            ]

        supervisor = ShardSupervisor(
            default_worker_factory(worker_argv),
            num_shards,
            config=SupervisorConfig(
                heartbeat_interval_seconds=0.2,
                heartbeat_timeout_seconds=0.5,
                liveness_misses=3,
                backoff_base_seconds=0.1,
                backoff_cap_seconds=1.0,
            ),
        )
        supervisor.start()
        fallback = shard_transform(placement, None)(load_cube(cube_path, served_table))
        return ShardRouter(
            supervisor,
            placement,
            fallback,
            cube_path=cube_path,
            config=RouterConfig(wire_row_limit=8),
        )

    def drive(
        router: ShardRouter,
        phase_clients: int,
        kill_shard: Optional[int] = None,
    ) -> Dict[str, object]:
        breakers_before = {
            shard: router.breaker_state(shard)
            for shard in range(router.placement.num_shards)
        }
        stats_before = router.stats()
        outcomes: Dict[str, int] = {}
        guarantees: Dict[str, int] = {}
        latencies: List[float] = []
        errors: List[str] = []
        lock = threading.Lock()
        cursor = {"next": 0}
        kill_at = len(workload) // 4
        killed = {"pid": None}

        def client() -> None:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(workload):
                        return
                    cursor["next"] = index + 1
                if kill_shard is not None and index == kill_at:
                    pid = router.supervisor.health()[kill_shard]["pid"]
                    if pid is not None:
                        os.kill(pid, signal.SIGKILL)
                        with lock:
                            killed["pid"] = pid
                try:
                    response = router.query(workload[index], deadline_seconds=10.0)
                except Exception as exc:  # the never-500 contract: record, gate
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                with lock:
                    outcomes[response.outcome.value] = (
                        outcomes.get(response.outcome.value, 0) + 1
                    )
                    guarantees[response.guarantee.value] = (
                        guarantees.get(response.guarantee.value, 0) + 1
                    )
                    if response.answered:
                        latencies.append(response.elapsed_seconds)

        threads = [threading.Thread(target=client) for _ in range(phase_clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        stats_after = router.stats()
        rpc_delta = {
            key: int(stats_after["rpc"][key]) - int(stats_before["rpc"][key])
            for key in stats_after["rpc"]
        }
        record: Dict[str, object] = {
            "clients": phase_clients,
            "offered": len(workload),
            "outcomes": outcomes,
            "guarantees": guarantees,
            "served": sum(v for k, v in outcomes.items() if k != "shed"),
            "shed": outcomes.get("shed", 0),
            "shed_rate": outcomes.get("shed", 0) / len(workload) if workload else 0.0,
            "downgraded": guarantees.get("downgraded", 0),
            "errors": errors,
            "throughput_rps": len(workload) / wall if wall > 0 else 0.0,
            "latency_seconds": _latency_stats(latencies),
            "rpc": rpc_delta,
            "router_breakers": {
                str(shard): {
                    "before": breakers_before[shard].value,
                    "after": router.breaker_state(shard).value,
                }
                for shard in range(router.placement.num_shards)
            },
        }
        if kill_shard is not None:
            record["killed_shard"] = kill_shard
            record["killed_pid"] = killed["pid"]
        return record

    single = boot(1)
    try:
        single_phase = drive(single, phase_clients=clients)
    finally:
        single.close()

    cluster = boot(shards)
    try:
        steady_phase = drive(cluster, phase_clients=clients)
        # Chaos: SIGKILL the owner of the most-loaded shard mid-run.
        placement = cluster.placement
        cells = list(tabula.store._cell_to_sample_id)
        spread = placement.spread(cells)
        victim = max(spread, key=lambda shard: spread[shard])
        chaos_phase = drive(cluster, phase_clients=clients, kill_shard=victim)
        recovery = _await_recovery(cluster, victim, cells, settings)
        per_shard = cluster.shard_stats()
        shard_health = cluster.shard_health()
    finally:
        cluster.close()

    speedup = (
        steady_phase["throughput_rps"] / single_phase["throughput_rps"]
        if single_phase["throughput_rps"]
        else 0.0
    )
    gate = _scaling_gate(shards)
    return {
        "shards": shards,
        "min_service_seconds": min_service_seconds,
        "phases": {
            "single_shard": single_phase,
            "sharded_steady": steady_phase,
            "chaos": chaos_phase,
        },
        "speedup_vs_single_shard": speedup,
        "scaling_gate": gate,
        "recovery": recovery,
        "per_shard_stats": per_shard,
        "shard_health": shard_health,
    }


def _await_recovery(
    router, victim: int, cells: List[tuple], settings: BenchSettings
) -> Dict[str, object]:
    """Wait for the supervisor to restart the killed shard and for its
    cells to answer CERTIFIED again (the chaos criterion's second half)."""
    from repro.serving.supervisor import WorkerState

    started = time.perf_counter()
    deadline = started + 60.0
    while time.perf_counter() < deadline:
        if router.supervisor.state_of(victim) is WorkerState.UP:
            break
        time.sleep(0.1)
    victim_cells = [c for c in cells if router.placement.shard_of(c) == victim]
    probe_cells = victim_cells[:3]
    recovered = False
    while time.perf_counter() < deadline:
        if not probe_cells:
            # The victim owned no iceberg cells (tiny cube): recovery is
            # just the supervisor reporting it UP again.
            recovered = router.supervisor.state_of(victim) is WorkerState.UP
            break
        responses = [
            router.query(
                {a: v for a, v in zip(settings.attrs, cell) if v is not None},
                deadline_seconds=10.0,
            )
            for cell in probe_cells
        ]
        if all(r.guarantee is GuaranteeStatus.CERTIFIED for r in responses):
            recovered = True
            break
        time.sleep(0.2)
    return {
        "recovered": recovered,
        "recovery_seconds": time.perf_counter() - started,
        "victim_shard": victim,
        "victim_iceberg_cells": len(victim_cells),
        "probed_cells": len(probe_cells),
        "restarts_total": router.supervisor.health()[victim]["restarts_total"],
    }


def _scaling_gate(shards: int) -> Dict[str, object]:
    """Skip-with-reason gate for the sharded tier (≥1.5x over 1 shard)."""
    import multiprocessing

    cpu_count = multiprocessing.cpu_count()
    if shards < 2:
        return {
            "enforced": False,
            "cpu_count": cpu_count,
            "required_speedup": 1.5,
            "reason": f"shards={shards} < 2: no scaling to gate",
        }
    if cpu_count < 2:
        return {
            "enforced": False,
            "cpu_count": cpu_count,
            "required_speedup": 1.5,
            "reason": f"cpu_count={cpu_count} < 2: speedup unobservable on this machine",
        }
    return {
        "enforced": True,
        "cpu_count": cpu_count,
        "required_speedup": 1.5,
        "reason": "",
    }


def check_cube_doc(doc: Dict[str, object]) -> List[str]:
    """Validate a ``bench cube`` document's quality invariants.

    Returns human-readable failure strings (empty = healthy). Timings
    are deliberately NOT checked — only determinism and the θ-bound,
    which must hold on any hardware.
    """
    failures: List[str] = []
    if not doc.get("digests_equal"):
        failures.append(
            "content digest drifted between workers=1 and workers=N builds"
        )
    for side in ("serial", "parallel"):
        inv = doc.get(side, {}).get("invariants", {})
        if not inv.get("loss_bound_ok"):
            failures.append(
                f"{side}: max achieved loss {inv.get('max_achieved_loss')} "
                f"exceeds threshold {inv.get('threshold')}"
            )
    serial_inv = doc.get("serial", {}).get("invariants", {})
    parallel_inv = doc.get("parallel", {}).get("invariants", {})
    for key in ("iceberg_cells", "known_cells", "num_samples", "total_sample_tuples"):
        if serial_inv.get(key) != parallel_inv.get(key):
            failures.append(
                f"invariant {key!r} differs: serial={serial_inv.get(key)} "
                f"parallel={parallel_inv.get(key)}"
            )
    # A parallel build that silently degraded to inline execution is the
    # regression this bench exists to catch — fail it even though the
    # invariants (necessarily) still hold.
    for stage, execution in (doc.get("parallel", {}).get("execution") or {}).items():
        if execution and execution.get("fallback_kind") == "error":
            failures.append(
                f"parallel {stage}: pool fan-out silently degraded to inline "
                f"({execution.get('fallback_reason', 'unknown reason')})"
            )
    # ``speedup_vs_serial`` is recorded, not gated: below the pool
    # start-up crossover it depends on the machine, not on the code.
    return failures


def check_query_doc(doc: Dict[str, object]) -> List[str]:
    """Validate a ``bench query`` document: θ-bound holds, no VOID answers."""
    failures: List[str] = []
    inv = doc.get("invariants", {})
    if not inv.get("loss_bound_ok"):
        failures.append(
            f"max achieved loss {inv.get('max_achieved_loss')} exceeds "
            f"threshold {inv.get('threshold')}"
        )
    if doc.get("void_answers", 0):
        failures.append(f"{doc['void_answers']} VOID answer(s) in the workload")
    batch = doc.get("batch")
    if batch and not batch.get("answers_match_single"):
        failures.append(
            "batched query_many answers diverged from sequential query answers"
        )
    return failures


def check_serving_doc(doc: Dict[str, object]) -> List[str]:
    """Validate a ``bench serving`` document's accounting invariants.

    Gated: every offered request disposed exactly once, outcome names
    well formed, shed count consistent. NOT gated: shed rate, throughput
    and latencies — those are scheduler- and hardware-dependent.
    """
    valid_outcomes = {"ok", "degraded", "shed", "deadline_exceeded", "circuit_open"}
    failures: List[str] = []
    for name, phase in doc.get("phases", {}).items():
        outcomes = phase.get("outcomes", {})
        unknown = set(outcomes) - valid_outcomes
        if unknown:
            failures.append(f"{name}: unknown outcome(s) {sorted(unknown)}")
        disposed = sum(outcomes.values())
        if disposed != phase.get("offered"):
            failures.append(
                f"{name}: {phase.get('offered')} requests offered but "
                f"{disposed} disposed — requests lost or double-counted"
            )
        if phase.get("shed") != outcomes.get("shed", 0):
            failures.append(f"{name}: shed count inconsistent with outcomes")
        if phase.get("served", 0) + phase.get("shed", 0) != disposed:
            failures.append(f"{name}: served + shed != disposed")
    viewport = doc.get("viewport")
    if viewport:
        failures.extend(_check_viewport_section(viewport))
    sharded = doc.get("sharded")
    if sharded:
        failures.extend(_check_sharded_section(sharded))
    return failures


def _check_viewport_section(viewport: Dict[str, object]) -> List[str]:
    """Gate the viewport oracle phase: the three audits must be empty.

    Timings (throughput, per-zoom latencies) are trajectory data, never
    gated; the oracle facts must hold on any hardware.
    """
    failures: List[str] = []
    if viewport.get("disposed") != viewport.get("offered"):
        failures.append(
            f"viewport: {viewport.get('offered')} requests offered but "
            f"{viewport.get('disposed')} disposed — requests lost or double-counted"
        )
    for key in ("oracle_mismatches", "rows_outside_viewport", "certified_violations"):
        problems = viewport.get(key) or []
        if problems:
            failures.append(
                f"viewport: {len(problems)} {key} (first: {problems[0]})"
            )
    valid_guarantees = {"certified", "downgraded", "void"}
    bad = set(viewport.get("guarantees", {})) - valid_guarantees
    if bad:
        failures.append(f"viewport: unknown guarantee(s) {sorted(bad)}")
    return failures


def _check_sharded_section(sharded: Dict[str, object]) -> List[str]:
    """Gate the sharded tier's chaos criterion and (where live) scaling.

    Gated everywhere: per-phase accounting, chaos phase raised zero
    exceptions (the never-500 contract), every chaos guarantee is a
    valid status, the killed shard recovered to CERTIFIED answers.
    Gated only when ``scaling_gate.enforced``: N-shard throughput is
    >= 1.5x the single-shard baseline.
    """
    valid_outcomes = {"ok", "degraded", "shed", "deadline_exceeded", "circuit_open"}
    valid_guarantees = {"certified", "downgraded", "void"}
    failures: List[str] = []
    for name, phase in sharded.get("phases", {}).items():
        label = f"sharded/{name}"
        outcomes = phase.get("outcomes", {})
        unknown = set(outcomes) - valid_outcomes
        if unknown:
            failures.append(f"{label}: unknown outcome(s) {sorted(unknown)}")
        guarantees = phase.get("guarantees", {})
        bad = set(guarantees) - valid_guarantees
        if bad:
            failures.append(f"{label}: unknown guarantee(s) {sorted(bad)}")
        disposed = sum(outcomes.values()) + len(phase.get("errors", []))
        if disposed != phase.get("offered"):
            failures.append(
                f"{label}: {phase.get('offered')} requests offered but "
                f"{disposed} disposed — requests lost or double-counted"
            )
        if phase.get("errors"):
            failures.append(
                f"{label}: {len(phase['errors'])} request(s) raised instead of "
                f"degrading (first: {phase['errors'][0]}) — never-500 contract broken"
            )
    chaos = sharded.get("phases", {}).get("chaos", {})
    if chaos and chaos.get("killed_pid") is None:
        failures.append("sharded/chaos: no worker was actually killed")
    recovery = sharded.get("recovery", {})
    if not recovery.get("recovered"):
        failures.append(
            f"sharded/recovery: shard {recovery.get('victim_shard')} did not "
            f"return to CERTIFIED answers within the recovery window"
        )
    gate = sharded.get("scaling_gate", {})
    speedup = sharded.get("speedup_vs_single_shard", 0.0)
    if gate.get("enforced") and speedup < gate.get("required_speedup", 1.5):
        failures.append(
            f"sharded: speedup_vs_single_shard={speedup:.3f} < "
            f"{gate.get('required_speedup', 1.5)} on a "
            f"{gate.get('cpu_count')}-core machine — sharding is a regression"
        )
    return failures


def write_bench_doc(doc: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write a bench document as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _environment() -> Dict[str, object]:
    import multiprocessing

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": multiprocessing.cpu_count(),
    }


def compare_runs(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """Compare two ``bench cube`` documents from the same settings.

    Invariant drift is reported as failures; timing movement is reported
    as ratios (after/before) for the trajectory, never as a failure.
    """
    failures: List[str] = []
    b_inv = before.get("parallel", {}).get("invariants", {})
    a_inv = after.get("parallel", {}).get("invariants", {})
    if before.get("settings") != after.get("settings"):
        failures.append("settings differ; timings are not comparable")
    for key in ("iceberg_cells", "num_samples", "total_sample_tuples", "content_digest"):
        if b_inv.get(key) != a_inv.get(key):
            failures.append(
                f"invariant {key!r} drifted: {b_inv.get(key)} -> {a_inv.get(key)}"
            )
    ratios = {}
    for side in ("serial", "parallel"):
        b = before.get(side, {}).get("wall_seconds")
        a = after.get(side, {}).get("wall_seconds")
        if b and a:
            ratios[side] = a / b
    return {"failures": failures, "wall_ratio_after_over_before": ratios}
