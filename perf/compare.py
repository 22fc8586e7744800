"""Compare two sets of benchmark runs, or show the spread of one.

    python3 perf/compare.py A.jsonl            # medians and run-to-run spread
    python3 perf/compare.py A.jsonl B.jsonl    # B against A, one row per (workload, metric)

The files are what ``perf/run.py --out FILE`` appends. With two files the
verdict per row is ``better`` / ``same`` / ``worse`` by the metric's bound in
``BENCHMARK.json``, or ``unresolved`` when either side's own spread (distance
between quartiles over its median) is wider than that bound. Runs whose
``inputs_digest`` differ are refused: they did not measure the same traffic.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf import definition  # noqa: E402
from perf.stats import relative_spread  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Tuple[Dict[Key, List[float]], Dict[str, set]]:
    """``({(workload, metric): values}, {workload: inputs digests})`` of one file."""
    values: Dict[Key, List[float]] = defaultdict(list)
    digests: Dict[str, set] = defaultdict(set)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            workload = record["workload"]
            digests[workload].add(record.get("notes", {}).get("inputs_digest"))
            for name, metric in record["metrics"].items():
                values[(workload, name)].append(metric["value"])
    return values, digests


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, relative change of B's median against A's)``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    if max(relative_spread(a), relative_spread(b)) > bound:
        return "unresolved", change
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "same", change


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    declared = {m["name"]: m for m in definition()["end_to_end"] + definition()["per_layer"]}
    a_values, a_digests = load(argv[0])
    if len(argv) == 1:
        print(f"{'workload':<16}{'metric':<40}{'median':>16} {'unit':<8}{'spread':>9}{'bound':>8}  n")
        for (workload, name), values in sorted(a_values.items()):
            metric = declared[name]
            spread = relative_spread(values)
            bound = metric.get("bound")
            flag = "  > bound/3" if bound and spread > bound / 3 else ""
            print(f"{workload:<16}{name:<40}{statistics.median(values):>16.6g} "
                  f"{metric['unit']:<8}{spread:>9.2%}{bound if bound else '-':>8}  "
                  f"{len(values)}{flag}")
        return 0

    b_values, b_digests = load(argv[1])
    for workload in sorted(set(a_digests) & set(b_digests)):
        if a_digests[workload] != b_digests[workload]:
            print(f"refusing to compare: inputs_digest of workload {workload!r} differs "
                  f"({sorted(map(str, a_digests[workload]))} vs "
                  f"{sorted(map(str, b_digests[workload]))})")
            return 2
    print(f"{'workload':<16}{'metric':<40}{'A median':>16}{'B median':>16} "
          f"{'unit':<8}{'change':>9}{'bound':>8}  verdict")
    worse = 0
    for key in sorted(set(a_values) & set(b_values)):
        workload, name = key
        metric = declared[name]
        bound = metric.get("bound")
        if bound is None:  # per-layer metrics carry no bound: shown, not judged
            change = verdict(a_values[key], b_values[key], metric["better"], float("inf"))[1]
            outcome = "-"
        else:
            outcome, change = verdict(a_values[key], b_values[key], metric["better"], bound)
        worse += outcome == "worse"
        print(f"{workload:<16}{name:<40}{statistics.median(a_values[key]):>16.6g}"
              f"{statistics.median(b_values[key]):>16.6g} {metric['unit']:<8}{change:>+9.2%}"
              f"{bound if bound else '-':>8}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
