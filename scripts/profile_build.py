#!/usr/bin/env python
"""Profile the cube build phase and dump a cProfile artifact.

Runs ``Tabula.initialize()`` under cProfile over a synthetic NYC-taxi
table and writes two artifacts:

- ``<out>.prof``  — binary cProfile stats (load with ``pstats`` or snakeviz)
- ``<out>.txt``   — top functions by cumulative time, plain text

The default is the build the benchmark of record times (``perf/``'s
cube M): serial, five cubed attributes, mean loss, θ = 0.05 — thirty-odd
iceberg cuboids, so per-cuboid work in the real run and the SamGraph
join over a few thousand cells both show. With ``--workers N`` the
profile is coordinator-side only: pool workers are separate processes,
so what shows up is the serial residue of the build — partition
fan-out, shared-memory publication, merge fold, selection.

Usage:
    PYTHONPATH=src python scripts/profile_build.py --rows 20000 --out build_profile
"""

import argparse
import cProfile
import io
import pstats
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="profile initialize(workers=N) instead of the serial build")
    parser.add_argument("--theta", type=float, default=0.05)
    parser.add_argument("--top", type=int, default=40,
                        help="rows of the text report")
    parser.add_argument("--out", default="build_profile",
                        help="artifact basename (writes <out>.prof and <out>.txt)")
    args = parser.parse_args()

    from repro.core.loss import MeanLoss
    from repro.core.tabula import Tabula, TabulaConfig
    from repro.data import generate_nyctaxi

    table = generate_nyctaxi(num_rows=args.rows, seed=args.seed)
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=(
                "payment_type", "rate_code", "passenger_count", "pickup_weekday", "vendor_name",
            ),
            threshold=args.theta,
            loss=MeanLoss("fare_amount"),
            seed=args.seed,
        ),
    )

    profiler = cProfile.Profile()
    profiler.enable()
    report = tabula.initialize(workers=args.workers)
    profiler.disable()

    prof_path = f"{args.out}.prof"
    text_path = f"{args.out}.txt"
    profiler.dump_stats(prof_path)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    with open(text_path, "w") as handle:
        handle.write(buffer.getvalue())

    executions = [
        ("dry_run", report.dry_run_execution),
        ("real_run", report.real_run_execution),
    ]
    how = f"workers={args.workers}" if args.workers else ""
    print(f"profiled initialize({how}) over {args.rows} rows")
    for stage, execution in executions:
        if execution is None:
            print(f"  {stage}: no execution record (nothing fanned out)")
            continue
        print(
            f"  {stage}: mode={execution.mode} "
            f"effective_workers={execution.effective_workers} "
            f"fallback_kind={execution.fallback_kind or '-'} "
            f"shm={execution.used_shared_memory}"
        )
        if execution.degraded:
            print(f"    WARNING: pool degraded: {execution.fallback_reason}",
                  file=sys.stderr)
    print(f"wrote {prof_path} and {text_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
