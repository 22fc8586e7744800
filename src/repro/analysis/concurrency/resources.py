"""Resource-lifecycle checks: TAB605, TAB606.

TAB605 is a per-function escape analysis: a resource-creating call is
fine if the resource provably reaches a cleanup path — entered as a
context manager, returned to the caller (ownership transfers), stored
on ``self`` (a lifecycle method owns it), or explicitly
closed/unlinked later in the same function. Anything else leaks.

The checks are deliberately *syntactic*: they prove the easy 95% and
leave the genuinely dynamic cases to the runtime sanitizer's fd
accounting. A false positive is silenced with ``# noqa: TAB60x`` plus
a comment saying who owns the cleanup.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.concurrency import codes
from repro.analysis.concurrency.model import ModuleModel, dotted_name
from repro.diagnostics import Diagnostic

#: Methods that release a file handle.
_FILE_CLEANUP = {"close"}


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


def _functions(model: ModuleModel) -> Iterable[ast.AST]:
    for node in ast.walk(model.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_open_call(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id == "open"


def _inside(model: ModuleModel, node: ast.AST, kinds: tuple) -> Optional[ast.AST]:
    for ancestor in model.ancestors(node):
        if isinstance(ancestor, kinds):
            return ancestor
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
    return None


def _in_with_item(model: ModuleModel, call: ast.Call) -> bool:
    """Whether the call is (part of) a ``with`` statement's item expr."""
    previous: ast.AST = call
    for ancestor in model.ancestors(call):
        if isinstance(ancestor, ast.With):
            # parents chain goes Call -> withitem -> With, so the item
            # itself is what we see as `previous` here.
            if any(
                item is previous or item.context_expr is previous
                for item in ancestor.items
            ):
                return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        previous = ancestor
    return False


def _in_return(model: ModuleModel, call: ast.Call) -> bool:
    for ancestor in model.ancestors(call):
        if isinstance(ancestor, ast.Return):
            return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


def _bound_name(model: ModuleModel, call: ast.Call) -> Optional[str]:
    """The local name the call result is assigned to, if any.

    Handles ``x = create(...)`` and tuple unpacking is out of scope —
    a tuple element is treated as escaped (no finding).
    """
    parent = model.parents.get(call)
    if isinstance(parent, ast.Assign) and parent.value is call:
        if len(parent.targets) == 1 and isinstance(parent.targets[0], ast.Name):
            return parent.targets[0].id
        return None
    if isinstance(parent, ast.AnnAssign) and parent.value is call:
        if isinstance(parent.target, ast.Name):
            return parent.target.id
    return None


def _escapes_locally(model: ModuleModel, call: ast.Call) -> bool:
    """Result stored on self, passed to a constructor, or unpacked."""
    parent = model.parents.get(call)
    if isinstance(parent, ast.Assign) and parent.value is call:
        return not (
            len(parent.targets) == 1 and isinstance(parent.targets[0], ast.Name)
        )
    if isinstance(parent, ast.Call):
        return True  # wrapped: Wrapper(handle, ...) — wrapper owns it
    return False


def _name_cleaned_up(
    function: ast.AST, name: str, cleanup_methods: set, model: ModuleModel
) -> bool:
    """``name.<cleanup>()`` appears anywhere later in the function, or
    ``name`` is used as a ``with`` item / returned / re-exported."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            value = node.func.value
            if (
                isinstance(value, ast.Name)
                and value.id == name
                and node.func.attr in cleanup_methods
            ):
                return True
        if isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == name:
                    return True
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
        # self.x = name / other.x = name: ownership moves to the object
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Name) and node.value.id == name:
                return True
        # passed onward to a callee that takes ownership
        if isinstance(node, ast.Call):
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name) and kw.value.id == name:
                    return True
    return False


def _check_lifecycle(
    model: ModuleModel,
    code: str,
    is_create,
    cleanup_methods: set,
    what: str,
) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for function in _functions(model):
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and is_create(node)):
                continue
            # Nested functions are visited via their own _functions pass.
            inner = None
            for ancestor in model.ancestors(node):
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = ancestor
                    break
            if inner is not function:
                continue
            if _in_with_item(model, node):
                continue
            parent = model.parents.get(node)
            if isinstance(parent, ast.Attribute):
                # open(p).read(): the temporary is consumed by a method
                # call and then dropped — nobody can ever close it, no
                # matter what surrounds the expression.
                diag = _diag(
                    model, code, node,
                    f"{what} created here is consumed as a temporary "
                    "and never released — no name holds it, so nothing "
                    "can close it",
                )
                if diag is not None:
                    findings.append(diag)
                continue
            if _in_return(model, node):
                continue
            if _escapes_locally(model, node):
                continue
            name = _bound_name(model, node)
            if name is not None and _name_cleaned_up(
                function, name, cleanup_methods, model
            ):
                continue
            if name is None:
                # Bare expression statement or attribute chain like
                # open(p).read(): nothing ever holds the resource.
                diag = _diag(
                    model, code, node,
                    f"{what} created here is never released — no name "
                    "holds it, so nothing can close it",
                )
            else:
                diag = _diag(
                    model, code, node,
                    f"{what} bound to `{name}` is never released in "
                    f"`{getattr(function, 'name', '<fn>')}` "
                    f"(no {'/'.join(sorted(cleanup_methods))}, with, "
                    "return, or ownership transfer)",
                )
            if diag is not None:
                findings.append(diag)
    return findings


def check_file_handles(model: ModuleModel) -> List[Diagnostic]:
    return _check_lifecycle(
        model, "TAB605", _is_open_call, _FILE_CLEANUP, "file handle"
    )


def check_replace_without_fsync(model: ModuleModel) -> List[Diagnostic]:
    """TAB606: ``os.replace`` in a function with no preceding fsync."""
    findings: List[Diagnostic] = []
    for function in _functions(model):
        fsync_lines: List[int] = []
        replaces: List[ast.Call] = []
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            last = name.split(".")[-1]
            if last == "fsync" or last == "fsync_directory":
                fsync_lines.append(node.lineno)
            elif name in {"os.replace", "os.rename"}:
                replaces.append(node)
        for call in replaces:
            if any(line < call.lineno for line in fsync_lines):
                continue
            diag = _diag(
                model, "TAB606", call,
                "os.replace publishes a file with no fsync anywhere "
                f"before it in `{getattr(function, 'name', '<fn>')}` — "
                "a crash can keep the rename and lose the bytes",
            )
            if diag is not None:
                findings.append(diag)
    return findings
