#!/usr/bin/env python
"""Profile the cube build phase and dump a cProfile artifact.

Runs ``Tabula.initialize()`` under cProfile over a synthetic NYC-taxi
table and writes two artifacts:

- ``<out>.prof``  — binary cProfile stats (load with ``pstats`` or snakeviz)
- ``<out>.txt``   — top functions by cumulative time, plain text

The default is the build the benchmark of record times (``perf/``'s
cube M): serial, five cubed attributes, mean loss, θ = 0.05 — thirty-odd
iceberg cuboids, so per-cuboid work in the real run and the SamGraph
join over a few thousand cells both show. ``--cube heatmap`` profiles
``perf/``'s cube H instead (the same five attributes, heat-map loss on
the pickup coordinates, θ = 0.006 unless ``--theta`` says otherwise),
where the distance kernel of the dry run and of the SamGraph's exact
checks shows. With ``--workers N`` the profile is coordinator-side
only: pool workers are separate processes, so what shows up is the
serial residue of the build — partition fan-out, merge fold, selection.

Usage:
    PYTHONPATH=src python scripts/profile_build.py --rows 20000 --out build_profile
    PYTHONPATH=src python scripts/profile_build.py --cube heatmap --out heatmap_profile
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
    parser.add_argument("--cube", choices=("mean", "heatmap"), default="mean",
                        help="mean: perf's cube M; heatmap: perf's cube H")
    parser.add_argument("--theta", type=float, default=None,
                        help="default: 0.05 for mean, 0.006 for heatmap")
    parser.add_argument("--top", type=int, default=40,
                        help="rows of the text report")
    parser.add_argument("--out", default="build_profile",
                        help="artifact basename (writes <out>.prof and <out>.txt)")
    args = parser.parse_args()

    from repro.core.loss import HeatmapLoss, MeanLoss
    from repro.core.tabula import Tabula, TabulaConfig
    from repro.data import generate_nyctaxi

    default_theta, make_loss = {
        "mean": (0.05, lambda: MeanLoss("fare_amount")),
        "heatmap": (0.006, lambda: HeatmapLoss("pickup_x", "pickup_y")),
    }[args.cube]
    table = generate_nyctaxi(num_rows=args.rows, seed=args.seed)
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=(
                "payment_type", "rate_code", "passenger_count", "pickup_weekday", "vendor_name",
            ),
            threshold=default_theta if args.theta is None else args.theta,
            loss=make_loss(),
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
    print(f"profiled initialize({how}) of the {args.cube} cube over {args.rows} rows")
    for stage, execution in executions:
        if execution is None:
            print(f"  {stage}: no execution record (nothing fanned out)")
            continue
        print(
            f"  {stage}: mode={execution.mode} "
            f"effective_workers={execution.effective_workers} "
            f"fallback_kind={execution.fallback_kind or '-'}"
        )
        if execution.degraded:
            print(f"    WARNING: pool degraded: {execution.fallback_reason}",
                  file=sys.stderr)
    print(f"wrote {prof_path} and {text_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
