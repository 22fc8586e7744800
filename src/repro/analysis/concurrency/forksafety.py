"""Fork-safety check: TAB608.

A closure handed to a *process* pool is pickled (spawn) or copied
(fork); either way, a captured lock, file handle or socket in the
child is a different object from the parent's. A lock that
"synchronizes" across the boundary synchronizes nothing; a captured
handle is a dead or aliased descriptor.

Detection is deliberately conservative to stay quiet on thread pools
(where capturing locks is exactly right): the check only fires when it
can see a *process* pool constructed in the same function
(``ProcessPoolExecutor(...)``, ``multiprocessing.Pool(...)``,
``ctx.Pool(...)``) and a lambda/nested function with suspicious free
variables passed to that pool's ``submit``/``map``/``apply_async``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.concurrency import codes
from repro.analysis.concurrency.model import ModuleModel, dotted_name
from repro.diagnostics import Diagnostic

_POOL_CONSTRUCTORS = {"ProcessPoolExecutor", "Pool"}
_SUBMIT_METHODS = {"submit", "map", "apply", "apply_async", "starmap", "imap"}
#: Free-variable name fragments that indicate an unpicklable/unsharable
#: resource: locks, handles, sockets.
_SUSPECT_FRAGMENTS = ("lock", "file", "handle", "sock", "conn", "_fh", "fd")


def _diag(
    model: ModuleModel, node: ast.AST, message: str
) -> Optional[Diagnostic]:
    if model.suppressed("TAB608", node.lineno):
        return None
    entry = codes.info("TAB608")
    return Diagnostic(
        code="TAB608",
        severity=entry.severity,
        message=message,
        span=model.span(node),
        hint=entry.hint,
        source=model.text,
        filename=model.filename,
    )


def _pool_names(function: ast.AST) -> Set[str]:
    """Local names bound to a process-pool in ``function``."""
    pools: Set[str] = set()
    for node in ast.walk(function):
        value = None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            value, target = node.context_expr, node.optional_vars
        if value is None or not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Call):
            name = dotted_name(value.func) or ""
            if name.split(".")[-1] in _POOL_CONSTRUCTORS:
                pools.add(target.id)
    return pools


def _free_variables(closure: ast.AST) -> Set[str]:
    """Names loaded in ``closure`` that it does not bind itself."""
    bound: Set[str] = set()
    args = getattr(closure, "args", None)
    if args is not None:
        for a in args.args + args.kwonlyargs + args.posonlyargs:
            bound.add(a.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    loaded: Set[str] = set()
    body = closure.body if isinstance(closure.body, list) else [closure.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                else:
                    loaded.add(node.id)
    return loaded - bound


def _suspects(names: Set[str]) -> List[str]:
    return sorted(
        name for name in names
        if any(frag in name.lower() for frag in _SUSPECT_FRAGMENTS)
    )


def check_fork_safety(model: ModuleModel) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for function in ast.walk(model.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pools = _pool_names(function)
        if not pools:
            continue
        local_defs: Dict[str, ast.AST] = {
            node.name: node
            for node in ast.walk(function)
            if isinstance(node, ast.FunctionDef) and node is not function
        }
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _SUBMIT_METHODS:
                continue
            receiver = node.func.value
            if not (isinstance(receiver, ast.Name) and receiver.id in pools):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                closure: Optional[ast.AST] = None
                label = "<lambda>"
                if isinstance(arg, ast.Lambda):
                    closure = arg
                elif isinstance(arg, ast.Name) and arg.id in local_defs:
                    closure = local_defs[arg.id]
                    label = arg.id
                if closure is None:
                    continue
                suspects = _suspects(_free_variables(closure))
                if not suspects:
                    continue
                diag = _diag(
                    model, arg,
                    f"`{label}` shipped to process pool "
                    f"`{receiver.id}.{node.func.attr}` captures "
                    f"{', '.join(f'`{s}`' for s in suspects)} from the "
                    "parent process — the child's copy is a different "
                    "object, so the resource does not actually cross",
                )
                if diag is not None:
                    findings.append(diag)
    return findings
