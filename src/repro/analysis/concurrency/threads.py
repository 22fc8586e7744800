"""Thread-lifecycle check: TAB609.

Ownership analysis in the spirit of the TAB605 resource check,
specialized to background threads: a class that *stores* a
``threading.Thread`` on ``self`` (directly, or by appending it to a
``self`` collection) and starts it has claimed ownership of that
thread's lifetime — so some method of the class must join it, or the
"owner" can return from ``close()`` while its worker is still mutating
shared state (the exact bug class the streaming-ingest WAL writer and
maintainer threads exist to avoid).

Join evidence is any ``<expr>.join()`` call in the class with **no
positional arguments** (``t.join()`` / ``t.join(timeout=...)``). The
no-positional rule is what separates a thread join from ``str.join``
and ``os.path.join``, which always take a positional iterable — pass
the timeout by keyword, as ``threading.Thread.join`` intends.

Fire-and-forget threads that are started but *not* stored on ``self``
are deliberately out of scope: a daemon thread wrapping
``serve_forever`` has no owner to join it, and flagging those would
teach people to stash references they never manage.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.concurrency import codes
from repro.analysis.concurrency.model import ModuleModel, dotted_name
from repro.diagnostics import Diagnostic


def _diag(
    model: ModuleModel, code: str, node: ast.AST, message: str
) -> Optional[Diagnostic]:
    if model.suppressed(code, node.lineno):
        return None
    entry = codes.info(code)
    return Diagnostic(
        code=code,
        severity=entry.severity,
        message=message,
        span=model.span(node),
        hint=entry.hint,
        source=model.text,
        filename=model.filename,
    )


def _is_thread_create(call: ast.Call) -> bool:
    name = dotted_name(call.func)
    return name is not None and name.split(".")[-1] == "Thread"


def _self_attr_of(expr: ast.expr) -> Optional[str]:
    """``X`` for a ``self.X`` expression, else ``None``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _owned_thread_creations(node: ast.ClassDef) -> Dict[ast.Call, str]:
    """Thread constructions the class takes ownership of.

    Maps each ``Thread(...)`` call to the ``self`` attribute it lands
    on, covering the two idioms this repo uses:

    - ``self._writer = threading.Thread(...)``
    - ``t = threading.Thread(...)`` … ``self._workers.append(t)``
      (or ``self._worker = t``)
    """
    owned: Dict[ast.Call, str] = {}
    for func in ast.walk(node):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_threads: Dict[str, ast.Call] = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if not _is_thread_create(call):
                    continue
                for target in stmt.targets:
                    attr = _self_attr_of(target)
                    if attr is not None:
                        owned[call] = attr
                    elif isinstance(target, ast.Name):
                        local_threads[target.id] = call
            elif isinstance(stmt, ast.Call):
                # self.<attr>.append(t) — ownership transfer of a local.
                func_attr = stmt.func
                if (
                    isinstance(func_attr, ast.Attribute)
                    and func_attr.attr in {"append", "add"}
                    and _self_attr_of(func_attr.value) is not None
                ):
                    for arg in stmt.args:
                        if isinstance(arg, ast.Name) and arg.id in local_threads:
                            owned[local_threads[arg.id]] = _self_attr_of(
                                func_attr.value
                            )
        # self.<attr> = t  (assignment of a previously created local)
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
                if stmt.value.id in local_threads:
                    for target in stmt.targets:
                        attr = _self_attr_of(target)
                        if attr is not None:
                            owned[local_threads[stmt.value.id]] = attr
    return owned


def _started_names(node: ast.ClassDef) -> Set[str]:
    """Names (self attrs and locals) on which ``.start()`` is called."""
    started: Set[str] = set()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "start"):
            continue
        attr = _self_attr_of(func.value)
        if attr is not None:
            started.add(attr)
        elif isinstance(func.value, ast.Name):
            started.add(func.value.id)
    return started


def _has_join_evidence(node: ast.ClassDef) -> bool:
    """Any zero-positional ``.join()`` call in the class body."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "join" and not call.args:
            return True
    return False


def _creation_local_names(node: ast.ClassDef, call: ast.Call) -> Set[str]:
    """Local names bound to ``call`` (for matching ``t.start()``)."""
    names: Set[str] = set()
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and stmt.value is call:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def check_thread_lifecycle(model: ModuleModel) -> List[Diagnostic]:
    """TAB609: a class-owned thread is started but never joined."""
    findings: List[Diagnostic] = []
    for cls in model.classes:
        owned = _owned_thread_creations(cls.node)
        if not owned:
            continue
        if _has_join_evidence(cls.node):
            continue
        started = _started_names(cls.node)
        for call, attr in owned.items():
            if attr not in started and not (
                _creation_local_names(cls.node, call) & started
            ):
                continue
            diag = _diag(
                model,
                "TAB609",
                call,
                f"`{cls.name}` stores this thread on `self.{attr}` and "
                f"starts it, but no method of the class ever joins it — "
                f"close/stop can return while the worker still runs",
            )
            if diag is not None:
                findings.append(diag)
    return findings
