"""Concurrency & resource-lifecycle static analysis (``repro check``).

The TAB600-range sibling of the SQL analyzer: instead of loss bodies,
it walks the *Python source of this repository* and enforces the
conventions the runtime depends on — lock discipline around annotated
shared state, file lifecycles, deadline propagation,
and fork safety. :mod:`repro.sanitizer` is the dynamic counterpart;
``docs/static_analysis.md`` documents both.
"""

from repro.analysis.concurrency.checker import (
    CheckResult,
    check_paths,
    check_source,
)
from repro.analysis.concurrency.codes import CODES, all_codes, info

__all__ = [
    "CODES",
    "CheckResult",
    "all_codes",
    "check_paths",
    "check_source",
    "info",
]
