"""The correctness check: an answer audit against perf's own view of the raw table.

For every audited answer: ``CERTIFIED`` implies ``loss(raw cell, returned
rows) <= theta`` where the raw cell is selected here with plain numpy masks
(not by ``Tabula.actual_loss``), and every row of a viewport answer lies inside
its geometry. The two losses are re-implemented here from their definitions so
the oracle shares no code with the cube under test.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from perf.inputs import Cell, CubeSpec, Query
from repro.engine.table import Table

#: Slack for float round-off when comparing against theta or a boundary.
_REL_TOL = 1e-9
_GEOMETRY_TOL = 1e-9


def mean_loss(raw: np.ndarray, sample: np.ndarray) -> float:
    """Relative error of the sample mean."""
    if len(raw) == 0:
        return 0.0
    if len(sample) == 0:
        return math.inf
    raw_mean, sample_mean = float(np.mean(raw)), float(np.mean(sample))
    if raw_mean == 0.0:
        return 0.0 if sample_mean == 0.0 else math.inf
    return abs((raw_mean - sample_mean) / raw_mean)


def heatmap_loss(raw: np.ndarray, sample: np.ndarray) -> float:
    """Average Euclidean distance from each raw point to its nearest sample point."""
    if len(raw) == 0:
        return 0.0
    if len(sample) == 0:
        return math.inf
    total = 0.0
    chunk = max(1, 2_000_000 // len(sample))
    for start in range(0, len(raw), chunk):
        block = raw[start:start + chunk]
        deltas = block[:, None, :] - sample[None, :, :]
        total += float(np.sqrt((deltas * deltas).sum(axis=2)).min(axis=1).sum())
    return total / len(raw)


_LOSSES = {"mean_loss": mean_loss, "heatmap_loss": heatmap_loss}


def inside(geometry: Mapping[str, object], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boolean mask of the points inside a generated geometry (boundary inclusive)."""
    kind = geometry["type"]
    tol = _GEOMETRY_TOL
    if kind == "bbox":
        return (
            (xs >= geometry["xmin"] - tol) & (xs <= geometry["xmax"] + tol)
            & (ys >= geometry["ymin"] - tol) & (ys <= geometry["ymax"] + tol)
        )
    if kind == "radius":
        dx, dy = xs - geometry["x"], ys - geometry["y"]
        return dx * dx + dy * dy <= geometry["radius"] ** 2 + tol
    points = np.asarray(geometry["points"], dtype=float)  # counter-clockwise
    mask = np.ones(len(xs), dtype=bool)
    for (x1, y1), (x2, y2) in zip(points, np.roll(points, -1, axis=0)):
        mask &= (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1) >= -tol
    return mask


class Oracle:
    """perf's own selection of raw cells, for one table and one cube definition."""

    def __init__(self, table: Table, spec: CubeSpec, check_loss: bool = True):
        self.spec = spec
        #: False while the raw table is changing under the answers (mid-feed).
        self.check_loss = check_loss
        self._codes = [np.asarray(table.column(a).data) for a in spec.attrs]
        self._code_of = [
            {label: code for code, label in enumerate(table.column(a).dictionary)}
            for a in spec.attrs
        ]
        targets = [np.asarray(table.column(t).data, dtype=float) for t in spec.targets]
        self._values = targets[0] if len(targets) == 1 else np.column_stack(targets)
        self._loss = _LOSSES[spec.loss]
        self.max_certified_loss = 0.0

    def raw_values(self, cell: Cell) -> np.ndarray:
        mask = np.ones(len(self._values), dtype=bool)
        for codes, code_of, value in zip(self._codes, self._code_of, cell):
            if value is not None:
                mask &= codes == code_of.get(value, -1)
        return self._values[mask]

    def check(
        self,
        cell: Cell,
        geometry: Optional[Mapping[str, object]],
        guarantee: str,
        columns: Mapping[str, Sequence[float]],
    ) -> Optional[str]:
        """``None`` when the answer passes, else why it fails.

        ``columns`` holds at least the loss's target columns of the returned
        rows, plus ``pickup_x``/``pickup_y`` when there is a geometry.
        """
        targets = [np.asarray(columns[t], dtype=float) for t in self.spec.targets]
        if geometry is not None:
            xs = np.asarray(columns["pickup_x"], dtype=float)
            ys = np.asarray(columns["pickup_y"], dtype=float)
            outside = int((~inside(geometry, xs, ys)).sum())
            if outside:
                return f"{outside} returned row(s) lie outside the viewport"
        if guarantee != "CERTIFIED" or not self.check_loss:
            return None
        sample = targets[0] if len(targets) == 1 else np.column_stack(targets)
        loss = self._loss(self.raw_values(cell), sample)
        if not loss <= self.spec.theta * (1.0 + _REL_TOL):
            return f"CERTIFIED but loss {loss:.6g} > theta {self.spec.theta}"
        self.max_certified_loss = max(self.max_certified_loss, loss)
        return None

    def check_answer(self, query: Query, answer: object) -> Optional[str]:
        """Audit one decoded ``/query`` answer against the query that asked for it."""
        try:
            rows: Dict[str, list] = answer["rows"]
            if list(answer["cell"]) != list(query.cell):
                return f"answer is for cell {answer['cell']}, asked {list(query.cell)}"
            if any(len(values) != answer["num_rows"] for values in rows.values()):
                return "answer was truncated: fewer rows than num_rows"
            return self.check(query.cell, query.geometry, answer["guarantee"], rows)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed answer: {type(exc).__name__}: {exc}"

    def check_http(self, query: Query, body: bytes) -> Optional[str]:
        """Audit one ``POST /query`` response body."""
        try:
            answer = json.loads(body)
        except ValueError as exc:
            return f"malformed answer: {exc}"
        return self.check_answer(query, answer)
