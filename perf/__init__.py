"""The benchmark of record: end-to-end workloads plus a per-layer traced run.

See ``perf/README.md``. ``BENCHMARK.json`` at the repository root is the
single definition of metric names, units, directions and regression bounds.
"""

import json
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent


def definition() -> Dict[str, object]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
