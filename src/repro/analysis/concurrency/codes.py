"""The TAB600-range catalog: concurrency & resource-lifecycle codes.

This is a *separate* catalog from :mod:`repro.analysis.codes` on
purpose: the TAB0–4xx codes diagnose the SQL dialect and are rendered
into ``docs/sql_dialect.md``; the TAB6xx codes diagnose the *Python
source of this repository itself* and are rendered into
``docs/static_analysis.md``. Each catalog has its own completeness
guard in the test suite (every code must have a golden test and a doc
entry), and merging them would force SQL golden tests for Python-level
codes and vice versa.

Severity philosophy: a code is an ``ERROR`` only when the flagged
pattern is wrong under every convention this repo uses (an unguarded
write to ``# guard:`` state, a lock-order cycle, a lock shipped to a
process pool). Lifecycle codes are ``WARNING``\\ s — the analyzer can
miss an exotic cleanup path, and ``--strict`` already promotes
warnings to failures. The heuristic I/O-name rule of TAB603 emits a
``NOTE`` so that a deliberate, commented call under a lock (e.g. cube
verification under the reload lock, which is *why* reloads don't race)
doesn't fail CI.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.codes import CodeInfo, _info
from repro.diagnostics import Severity

CODES: Dict[str, CodeInfo] = dict(
    (
        _info(
            "TAB600", Severity.ERROR, "unparseable-source",
            "The Python file could not be parsed, so none of the "
            "concurrency checks ran over it.",
            "fix the syntax error; `python -m py_compile <file>` shows it",
        ),
        # -- lock discipline ---------------------------------------------
        _info(
            "TAB601", Severity.ERROR, "guarded-access-outside-lock",
            "An attribute annotated `# guard: <lock>` is accessed (or one "
            "annotated `# guard-writes: <lock>` is mutated) outside a "
            "`with self.<lock>:` block and outside any @guarded_by method.",
            "wrap the access in `with self.<lock>:`, mark the method "
            "@guarded_by(\"<lock>\") if the caller holds it, or relax the "
            "annotation to guard-writes if lock-free reads are the protocol",
        ),
        _info(
            "TAB602", Severity.ERROR, "lock-order-cycle",
            "Two or more locks are acquired in both orders somewhere in "
            "the codebase — a latent deadlock the moment the two paths "
            "run concurrently.",
            "pick one global order for the locks in the cycle and release "
            "before re-acquiring against it",
        ),
        _info(
            "TAB603", Severity.WARNING, "blocking-call-under-lock",
            "A known-blocking call (time.sleep, os.fsync, subprocess, "
            "queue put/get, future result/join) runs while a lock is "
            "held, stalling every thread contending for that lock.",
            "move the blocking work outside the `with` block and publish "
            "its result under the lock afterwards",
        ),
        # -- resource lifecycle (TAB604 is retired, not reused) ------------
        _info(
            "TAB605", Severity.WARNING, "unmanaged-file-handle",
            "open() is called outside a `with` statement and the handle "
            "is never closed, returned or stored — the descriptor leaks "
            "until garbage collection gets around to it.",
            "use `with open(...) as fh:` (or close() in a finally block)",
        ),
        _info(
            "TAB606", Severity.WARNING, "replace-without-fsync",
            "os.replace() publishes a file that was never fsync'd in "
            "this function — after a crash the rename can survive while "
            "the data does not, leaving a corrupt 'atomic' file.",
            "fsync the temp file (and ideally the directory) before "
            "os.replace; see repro.resilience.atomic",
        ),
        _info(
            "TAB609", Severity.WARNING, "unjoined-background-thread",
            "A thread stored on `self` is started but no method of the "
            "class ever joins it (a zero-positional-arg `.join()` call) "
            "— close/stop can return while the worker thread still "
            "mutates shared state.",
            "join the thread in the class's close/stop path "
            "(`thread.join(timeout=...)` — keyword timeout, so the call "
            "is recognizably a thread join, not str.join)",
        ),
        # -- deadline propagation ----------------------------------------
        _info(
            "TAB607", Severity.WARNING, "dropped-deadline",
            "A function that received a `deadline` parameter calls "
            "another deadline-aware function without forwarding it — "
            "everything below the call site runs unbounded.",
            "pass deadline=deadline (or a derived budget) through the call",
        ),
        # -- fork safety --------------------------------------------------
        _info(
            "TAB608", Severity.ERROR, "fork-unsafe-capture",
            "A closure shipped to a process pool captures a lock, file "
            "handle or socket from the parent — the child's "
            "copy is a different object (or a dead descriptor), so the "
            "'synchronization' silently synchronizes nothing.",
            "pass plain data (names, paths, indices) to the worker "
            "and re-open inside it",
        ),
    )
)


def info(code: str) -> CodeInfo:
    """Catalog entry for ``code`` (raises ``KeyError`` if unknown)."""
    return CODES[code]


def all_codes() -> List[str]:
    """Every TAB6xx code, sorted."""
    return sorted(CODES)
