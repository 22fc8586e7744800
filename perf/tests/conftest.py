"""Self-tests of the benchmark harness: ``python -m pytest perf/tests -q``.

Not part of tier-1 (``testpaths = tests``). Makes ``perf`` and ``repro``
importable without an install.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
