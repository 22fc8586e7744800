"""``repro check`` — run the concurrency checks over Python sources.

Mirrors the shape of :mod:`repro.analysis.lint` (``LintResult`` ↔
:class:`CheckResult`) so the CLI and CI treat both passes uniformly.
Two global passes ride on top of the per-file checks: the lock-order
graph (TAB602 cycles only exist *across* functions and files) and the
deadline index (a callee's signature usually lives in another module
than the call site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

from repro.analysis.concurrency import codes
from repro.analysis.concurrency.deadlines import check_dropped_deadlines, deadline_index
from repro.analysis.concurrency.forksafety import check_fork_safety
from repro.analysis.concurrency.locks import (
    OrderGraph,
    check_blocking_under_lock,
    check_guarded_access,
)
from repro.analysis.concurrency.model import ModuleModel
from repro.analysis.concurrency.resources import (
    check_file_handles,
    check_replace_without_fsync,
)
from repro.analysis.concurrency.threads import check_thread_lifecycle
from repro.diagnostics import Diagnostic, Severity, Span, sort_diagnostics


@dataclass
class CheckResult:
    """All findings of one ``repro check`` invocation."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files: int = 0

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity >= Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.WARNING)

    @property
    def note_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == Severity.NOTE)

    def extend(self, other: "CheckResult") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.files += other.files

    def summary(self) -> str:
        return (
            f"{self.files} file(s): {self.error_count} error(s), "
            f"{self.warning_count} warning(s), {self.note_count} note(s)"
        )


def _parse(text: str, filename: str) -> Tuple[ModuleModel, List[Diagnostic]]:
    try:
        return ModuleModel(text, filename), []
    except SyntaxError as exc:
        entry = codes.info("TAB600")
        offset = 0
        if exc.lineno is not None:
            offset = sum(
                len(line) + 1 for line in text.split("\n")[: exc.lineno - 1]
            ) + max((exc.offset or 1) - 1, 0)
        diag = Diagnostic(
            code="TAB600",
            severity=entry.severity,
            message=f"file could not be parsed: {exc.msg}",
            span=Span.point(offset),
            hint=entry.hint,
            source=text,
            filename=filename,
        )
        return None, [diag]  # type: ignore[return-value]


def check_source(text: str, filename: str = "<python>") -> CheckResult:
    """Run every per-file check over one source string.

    The global passes (lock-order graph, deadline index) see only this
    file; use :func:`check_paths` for whole-tree analysis.
    """
    return _check_models([(text, filename)])


def check_paths(paths: Sequence[Path]) -> CheckResult:
    """Check every ``*.py`` under the given files/directories."""
    sources: List[Tuple[str, str]] = []
    for path in paths:
        if path.is_dir():
            files: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            files = [path]
        for file in files:
            sources.append((file.read_text(), str(file)))
    return _check_models(sources)


def _check_models(sources: List[Tuple[str, str]]) -> CheckResult:
    result = CheckResult(files=len(sources))
    models: List[ModuleModel] = []
    for text, filename in sources:
        model, parse_diags = _parse(text, filename)
        result.diagnostics.extend(parse_diags)
        if model is not None:
            models.append(model)

    graph = OrderGraph()
    for model in models:
        graph.collect(model)
        result.diagnostics.extend(check_guarded_access(model))
        result.diagnostics.extend(check_blocking_under_lock(model))
        result.diagnostics.extend(check_file_handles(model))
        result.diagnostics.extend(check_replace_without_fsync(model))
        result.diagnostics.extend(check_fork_safety(model))
        result.diagnostics.extend(check_thread_lifecycle(model))
    result.diagnostics.extend(graph.diagnostics())

    index = deadline_index(models)
    for model in models:
        result.diagnostics.extend(check_dropped_deadlines(model, index))

    result.diagnostics = _sorted_by_file(result.diagnostics)
    return result


def _sorted_by_file(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    by_file: dict = {}
    for diag in diagnostics:
        by_file.setdefault(diag.filename, []).append(diag)
    ordered: List[Diagnostic] = []
    for filename in sorted(by_file):
        ordered.extend(sort_diagnostics(by_file[filename]))
    return ordered
