"""Run one workload of the benchmark of record (see perf/README.md).

    python3 perf/run.py --workload http_cell --seed 0 --seconds 10 --trace 0

prints every end-to-end metric by name with unit, sample count and regression
bound, then one JSON object as the last line. ``--trace 1`` is the separate
traced run: the same inputs replayed in-process with timing wrappers around
each layer's public functions; it prints the per-layer metrics and writes the
spans to ``perf/out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: {ROOT / 'src' / 'repro'} not found - the benchmark runs "
             "the program from source and needs a full checkout")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy  # noqa: E402

from perf import definition, inputs, reaper, traced, workloads  # noqa: E402

DEFINITION = definition()

# main() handles SIGTERM in Python, and a forked pool worker would inherit that.
# A Python handler runs only once the process is back in the interpreter: a
# SIGTERM from Pool.terminate() that lands just before the worker blocks on the
# task queue's lock is never acted on, and terminate() joins the worker for
# ever (seen once in ~70 build_parallel runs). In forked children SIGTERM
# kills, as the pool expects.
os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))


def environment() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
    }


def run_one(name: str, args: argparse.Namespace) -> Dict[str, object]:
    """Run one workload, print its report, return the contract's result object."""
    options = workloads.Options(seed=args.seed, seconds=args.seconds)
    if args.smoke:
        options.rows = inputs.SMOKE_ROWS
        options.setup_repetitions = 1
        options.warmup_seconds = 0.2
    if args.trace:
        result = traced.WORKLOADS[name](options)
        declared = DEFINITION["per_layer"]
    else:
        result = workloads.WORKLOADS[name](options)
        declared = DEFINITION["end_to_end"]

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"({'traced, in-process' if args.trace else 'untraced'})")
    metrics = {}
    for metric in declared:
        value = float(result.metrics[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        detail = [f"{metric['better']} is better"]
        if metric["name"] in result.samples:
            detail.append(f"n={result.samples[metric['name']]}")
        if "bound" in metric:
            detail.append(f"may worsen by {metric['bound']:.0%}")
        print(f"  {metric['name']:<40} {value:>16.6f} {metric['unit']:<8} {', '.join(detail)}")
    print(f"  attempted {result.attempted}  failed {result.failed}  "
          f"failed_share {result.failed / max(1, result.attempted):.6f}")
    for key, value in sorted(result.notes.items()):
        print(f"  note {key}: {value}")
    for reason in result.failures:
        print(f"  FAILED: {reason}")

    outcome = {
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }
    if args.out:
        record = dict(outcome, workload=name, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, smoke=args.smoke, notes=result.notes,
                      environment=environment())
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, default=str) + "\n")
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    names = [w["name"] for w in DEFINITION["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the request and feed streams; tables are fixed")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed window (default {DEFINITION['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the traced in-process run that prints per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{inputs.SMOKE_ROWS}-row tables, one set-up, 1.5 s windows")
    parser.add_argument("--out", help="append one JSON record per workload (for compare.py)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(DEFINITION["run_seconds"])

    # SIGTERM unwinds like Ctrl-C, so child servers and scratch dirs are cleaned up
    # (in this process only: see the at-fork hook above).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    reaper.adopt_orphans()
    selected = names if args.workload == "all" else [args.workload]
    try:
        outcomes = {name: run_one(name, args) for name in selected}
    finally:
        # Every process the run started (server child, pool workers, the
        # shared-memory resource tracker) has ended before this one does.
        killed = reaper.reap_all()
        if killed:
            print(f"perf/run.py: killed {killed} process(es) that outstayed the run",
                  file=sys.stderr)
    last_line = outcomes[selected[0]] if len(selected) == 1 else {"workloads": outcomes}
    print(json.dumps(last_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
