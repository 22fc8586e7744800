"""Compile ``CREATE AGGREGATE ... BEGIN expr END`` into a loss function.

The body is a scalar expression over aggregate calls (Section II).
Compilation enforces the paper's restriction — every aggregate involved
must be distributive or algebraic — and produces a
:class:`CompiledLoss` that supports all three evaluation modes of the
:class:`~repro.core.loss.base.LossFunction` contract: direct, algebraic
(dry run) and greedy (Algorithm 1).

Aggregate vocabulary of the dialect:

- every algebraic-or-better engine aggregate — ``AVG``, ``SUM``,
  ``COUNT``, ``MIN``, ``MAX``, ``STD_DEV``, ``DISTINCT``, ``TOPK`` —
  applied to one dataset parameter (``AVG(Raw)``);
- ``ANGLE(dataset)`` — the regression-line angle of Function 3
  (requires two target attributes);
- ``AVG_MIN_DIST(Raw, Sam)`` / ``AVG_MIN_DIST_MANHATTAN(Raw, Sam)`` —
  the visualization-aware loss of Function 2;
- ``MEDIAN`` (holistic) is recognized and **rejected** with
  :class:`~repro.errors.NotAlgebraicError`.

Scalar functions: ``ABS``, ``SQRT``, ``LOG``, ``EXP``, ``POW``.

Performance note: compiled losses take the *generic* paths everywhere —
the Python merge loop in the dry run, and a representation join with no
bounds, so every pair is an exact check (batched per source sample, but
each one a direct evaluation). They are correct for any algebraic body
but slower than the hand-vectorized built-ins; prefer the built-in
equivalents (``mean_loss``, ``heatmap_loss``, ``regression_loss``,
``histogram_loss``, ``stddev_loss``) when one matches.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.analyzer import LossAnalysisResult, analyze_loss
from repro.analysis.loss_passes import CROSS_AGGS as _CROSS_AGGS
from repro.core.loss.base import GreedyLossState, LossFunction, pairwise_min_distance
from repro.core.loss.distance import AvgMinDistanceGreedyState
from repro.core.loss.regression import regression_angle
from repro.core.loss.registry import LossSpec
from repro.engine import aggregates as agg
from repro.engine.sql import ast
from repro.errors import LossFunctionError, NotAlgebraicError

_SCALAR_FUNCS = {
    "ABS": lambda a: abs(a),
    "SQRT": lambda a: math.sqrt(a) if a >= 0 else math.nan,
    "LOG": lambda a: math.log(a) if a > 0 else math.nan,
    "EXP": lambda a: math.exp(a),
    "POW": lambda a, b: math.pow(a, b),
}


def compile_loss(stmt: ast.CreateAggregate, source: Optional[str] = None) -> "CompiledLossSpec":
    """Validate and compile a parsed CREATE AGGREGATE statement.

    The statement first goes through the static analyzer
    (:func:`repro.analysis.analyze_loss`) as a mandatory gate: any
    error-severity diagnostic aborts compilation with the matching
    legacy exception (:class:`~repro.errors.NotAlgebraicError` for a
    holistic aggregate, :class:`~repro.errors.LossFunctionError`
    otherwise), carrying the offending span, the loss name and the full
    diagnostic list. Warnings and notes ride along on the returned
    spec's ``diagnostics`` for the session/linter to surface.
    """
    analysis = analyze_loss(stmt, source=source)
    errors = analysis.errors()
    if errors:
        first = errors[0]
        exc_type = NotAlgebraicError if first.code == "TAB101" else LossFunctionError
        raise exc_type(
            first.message,
            span=first.span,
            loss_name=stmt.name,
            diagnostics=analysis.diagnostics,
        )
    raw_param, sam_param = stmt.params
    return CompiledLossSpec(
        stmt.name, analysis.arity, stmt.body, raw_param, sam_param, analysis=analysis
    )


def _collect_agg_calls(expr: ast.ScalarExpr) -> List[ast.AggCall]:
    calls: List[ast.AggCall] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.AggCall):
            calls.append(node)
        elif isinstance(node, ast.FuncCall):
            stack.extend(node.args)
        elif isinstance(node, ast.BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, ast.UnaryOp):
            stack.append(node.operand)
    return calls


class CompiledLossSpec(LossSpec):
    """An unbound compiled loss; binds to concrete target attributes.

    Carries the analyzer's verdict: ``diagnostics`` (warnings/notes that
    survived the error gate), ``sufficient_stats`` (the inferred
    per-cell state layout) and ``uses_angle``. ``exact_arity`` is False
    because compiled losses accept *extra* target attributes beyond
    their minimum arity.
    """

    exact_arity = False

    def __init__(
        self,
        name: str,
        arity: int,
        body: ast.ScalarExpr,
        raw_param: str,
        sam_param: str,
        analysis: Optional["LossAnalysisResult"] = None,
    ):
        self.name = name
        self.arity = arity
        self.body = body
        self.raw_param = raw_param
        self.sam_param = sam_param
        self.analysis = analysis
        self.diagnostics = analysis.diagnostics if analysis is not None else ()
        self.sufficient_stats = analysis.sufficient_stats if analysis is not None else None
        self.uses_angle = analysis.uses_angle if analysis is not None else False

    def bind(self, target_attrs: Tuple[str, ...]) -> "CompiledLoss":
        if len(target_attrs) < self.arity:
            raise LossFunctionError(
                f"loss {self.name!r} needs at least {self.arity} target attribute(s), "
                f"got {target_attrs!r}"
            )
        return CompiledLoss(self, tuple(target_attrs))


class CompiledLoss(LossFunction):
    """A loss function materialized from a CREATE AGGREGATE body.

    The algebraic state is a tuple with one component per distinct
    aggregate call in the body: engine-aggregate states for raw-side
    calls, ``(n, Σx, Σy, Σxy, Σx²)`` for ``ANGLE(Raw)`` and
    ``(count, Σ min-dist)`` for the cross aggregates. Sample-side calls
    are folded into the sample summary.
    """

    def __init__(self, spec: CompiledLossSpec, target_attrs: Tuple[str, ...]):
        self.name = spec.name
        self.target_attrs = target_attrs
        self.target_arity = len(target_attrs)
        self._body = spec.body
        self._raw_param = spec.raw_param
        self._sam_param = spec.sam_param
        calls = _collect_agg_calls(spec.body)
        # Preserve first-mention order, deduplicated.
        seen: Dict[ast.AggCall, None] = {}
        for call in calls:
            seen.setdefault(call)
        self._raw_calls = [c for c in seen if self._side(c) == "raw"]
        self._sam_calls = [c for c in seen if self._side(c) == "sam"]
        self._cross_calls = [c for c in seen if self._side(c) == "cross"]

    # ------------------------------------------------------------------
    def _side(self, call: ast.AggCall) -> str:
        if call.func in _CROSS_AGGS:
            return "cross"
        return "raw" if call.args[0] == self._raw_param else "sam"

    def _primary(self, values: np.ndarray) -> np.ndarray:
        """First target attribute as a 1-D array (the AVG/SUM input)."""
        return values if values.ndim == 1 else values[:, 0]

    def _agg_value(self, call: ast.AggCall, values: np.ndarray, other: np.ndarray = None) -> float:
        if call.func in _CROSS_AGGS:
            if len(values) == 0:
                return 0.0
            if other is None or len(other) == 0:
                return math.inf
            dmin = pairwise_min_distance(values, other, _CROSS_AGGS[call.func])
            return float(np.mean(dmin))
        if call.func == "ANGLE":
            pts = values if values.ndim == 2 else values.reshape(-1, 1)
            if pts.shape[1] < 2 or len(pts) == 0:
                return 0.0
            x, y = pts[:, 0], pts[:, 1]
            return regression_angle(
                float(len(pts)), float(x.sum()), float(y.sum()),
                float((x * y).sum()), float((x * x).sum()),
            )
        engine_agg = agg.resolve(call.func)
        data = self._primary(values)
        if len(data) == 0:
            return math.nan
        return engine_agg(data)

    def _evaluate(self, env: Dict[ast.AggCall, float]) -> float:
        return _eval_expr(self._body, env)

    # -- direct -----------------------------------------------------------
    def loss(self, raw: np.ndarray, sample: np.ndarray) -> float:
        if len(raw) == 0:
            return 0.0
        if len(sample) == 0:
            return math.inf
        env: Dict[ast.AggCall, float] = {}
        for call in self._raw_calls:
            env[call] = self._agg_value(call, raw)
        for call in self._sam_calls:
            env[call] = self._agg_value(call, sample)
        for call in self._cross_calls:
            env[call] = self._agg_value(call, raw, sample)
        return self._evaluate(env)

    # -- algebraic ----------------------------------------------------------
    def prepare_sample(self, sample: np.ndarray) -> tuple:
        values = tuple(self._agg_value(call, sample) for call in self._sam_calls)
        return (float(len(sample)),) + values

    def stats(self, raw: np.ndarray, sample: np.ndarray) -> tuple:
        parts: List[tuple] = [(float(len(raw)),)]
        data = self._primary(raw)
        for call in self._raw_calls:
            if call.func == "ANGLE":
                pts = raw if raw.ndim == 2 else raw.reshape(-1, 1)
                if len(pts) == 0:
                    parts.append((0.0, 0.0, 0.0, 0.0, 0.0))
                else:
                    x, y = pts[:, 0], pts[:, 1]
                    parts.append((
                        float(len(pts)), float(x.sum()), float(y.sum()),
                        float((x * y).sum()), float((x * x).sum()),
                    ))
            else:
                parts.append(agg.resolve(call.func).init_state(data))
        for call in self._cross_calls:
            if len(raw) == 0:
                parts.append((0.0, 0.0))
            elif len(sample) == 0:
                parts.append((float(len(raw)), math.inf))
            else:
                dmin = pairwise_min_distance(raw, sample, _CROSS_AGGS[call.func])
                parts.append((float(len(raw)), float(np.sum(dmin))))
        return tuple(parts)

    def merge_stats(self, left: tuple, right: tuple) -> tuple:
        merged: List[tuple] = [(left[0][0] + right[0][0],)]
        pos = 1
        for call in self._raw_calls:
            a, b = left[pos], right[pos]
            if call.func == "ANGLE":
                merged.append(tuple(u + v for u, v in zip(a, b)))
            else:
                merged.append(agg.resolve(call.func).merge(a, b))
            pos += 1
        for _ in self._cross_calls:
            a, b = left[pos], right[pos]
            merged.append((a[0] + b[0], a[1] + b[1]))
            pos += 1
        return tuple(merged)

    def loss_from_stats(self, stats: tuple, sample_summary: tuple) -> float:
        raw_count = stats[0][0]
        if raw_count == 0:
            return 0.0
        sam_count = sample_summary[0]
        if sam_count == 0:
            return math.inf
        env: Dict[ast.AggCall, float] = {}
        pos = 1
        for call in self._raw_calls:
            state = stats[pos]
            if call.func == "ANGLE":
                env[call] = regression_angle(*state)
            else:
                env[call] = agg.resolve(call.func).finalize(state)
            pos += 1
        for call in self._cross_calls:
            count, dist_sum = stats[pos]
            env[call] = dist_sum / count if count else 0.0
            pos += 1
        for j, call in enumerate(self._sam_calls):
            env[call] = sample_summary[1 + j]
        return self._evaluate(env)

    # -- greedy -----------------------------------------------------------
    def greedy_state(self, raw: np.ndarray) -> "CompiledGreedyState":
        return CompiledGreedyState(self, np.asarray(raw, dtype=float))


class CompiledGreedyState(GreedyLossState):
    """Generic incremental evaluator for compiled losses.

    Sample-side engine aggregates update in O(1) per candidate via a
    state merge; cross aggregates reuse the d_min machinery of the
    built-in distance loss. This path favours generality over raw speed
    — the built-in losses keep their hand-vectorized states.
    """

    def __init__(self, loss: CompiledLoss, raw: np.ndarray):
        self._loss = loss
        self._raw = raw
        self._n_raw = len(raw)
        self._raw_env: Dict[ast.AggCall, float] = {
            call: loss._agg_value(call, raw) for call in loss._raw_calls
        }
        primary = loss._primary(raw)
        self._primary = primary
        self._points = raw if raw.ndim == 2 else raw.reshape(-1, 1)
        self._sam_states: Dict[ast.AggCall, tuple] = {}
        self._sam_aggs: Dict[ast.AggCall, agg.AggregateFunction] = {}
        self._angle_state: Dict[ast.AggCall, tuple] = {}
        for call in loss._sam_calls:
            if call.func == "ANGLE":
                self._angle_state[call] = (0.0, 0.0, 0.0, 0.0, 0.0)
            else:
                engine_agg = agg.resolve(call.func)
                self._sam_aggs[call] = engine_agg
                self._sam_states[call] = engine_agg.init_state(np.empty(0))
        self._cross_states: Dict[ast.AggCall, AvgMinDistanceGreedyState] = {
            call: AvgMinDistanceGreedyState(raw, _CROSS_AGGS[call.func])
            for call in loss._cross_calls
        }
        self._count = 0

    def _env_for(self, index: int = -1) -> Dict[ast.AggCall, float]:
        """Aggregate environment; ``index >= 0`` simulates adding that row."""
        env = dict(self._raw_env)
        for call in self._loss._sam_calls:
            if call.func == "ANGLE":
                n, sx, sy, sxy, sxx = self._angle_state[call]
                if index >= 0:
                    x, y = self._points[index, 0], (
                        self._points[index, 1] if self._points.shape[1] > 1 else 0.0
                    )
                    n, sx, sy, sxy, sxx = n + 1, sx + x, sy + y, sxy + x * y, sxx + x * x
                env[call] = regression_angle(n, sx, sy, sxy, sxx)
            else:
                engine_agg = self._sam_aggs[call]
                state = self._sam_states[call]
                if index >= 0:
                    state = engine_agg.merge(
                        state, engine_agg.init_state(self._primary[index:index + 1])
                    )
                env[call] = engine_agg.finalize(state)
        for call, cross in self._cross_states.items():
            if index >= 0:
                env[call] = float(cross.losses_if_added(np.asarray([index]))[0])
            else:
                env[call] = cross.current_loss()
        return env

    def current_loss(self) -> float:
        if self._n_raw == 0:
            return 0.0
        if self._count == 0:
            return math.inf
        return self._loss._evaluate(self._env_for())

    def losses_if_added(self, candidates: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidates)
        if self._n_raw == 0:
            return np.zeros(len(candidates))
        return np.asarray(
            [self._loss._evaluate(self._env_for(int(i))) for i in candidates]
        )

    def add(self, index: int) -> None:
        for call in self._loss._sam_calls:
            if call.func == "ANGLE":
                n, sx, sy, sxy, sxx = self._angle_state[call]
                x = self._points[index, 0]
                y = self._points[index, 1] if self._points.shape[1] > 1 else 0.0
                self._angle_state[call] = (n + 1, sx + x, sy + y, sxy + x * y, sxx + x * x)
            else:
                engine_agg = self._sam_aggs[call]
                self._sam_states[call] = engine_agg.merge(
                    self._sam_states[call],
                    engine_agg.init_state(self._primary[index:index + 1]),
                )
        for cross in self._cross_states.values():
            cross.add(index)
        self._count += 1


def _eval_expr(expr: ast.ScalarExpr, env: Dict[ast.AggCall, float]) -> float:
    """Evaluate the scalar body; division by zero yields ``inf``."""
    if isinstance(expr, ast.NumberLit):
        return expr.value
    if isinstance(expr, ast.AggCall):
        value = env[expr]
        if isinstance(value, float) and math.isnan(value):
            return math.inf
        return value
    if isinstance(expr, ast.UnaryOp):
        return -_eval_expr(expr.operand, env)
    if isinstance(expr, ast.BinOp):
        left = _eval_expr(expr.left, env)
        right = _eval_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if 0.0 in (left, right) and (math.isinf(left) or math.isinf(right)):
                return 0.0
            return left * right
        if right == 0.0:
            return math.inf
        return left / right
    if isinstance(expr, ast.FuncCall):
        try:
            func = _SCALAR_FUNCS[expr.func]
        except KeyError:
            raise LossFunctionError(f"unknown scalar function: {expr.func!r}") from None
        args = [_eval_expr(a, env) for a in expr.args]
        try:
            result = func(*args)
        except (ValueError, OverflowError):
            return math.inf
        if isinstance(result, float) and math.isnan(result):
            return math.inf
        return result
    raise LossFunctionError(f"cannot evaluate expression node: {expr!r}")
