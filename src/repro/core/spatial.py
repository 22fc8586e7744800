"""Spatial predicates for viewport queries — the sample is the index.

The paper's dashboards are *geospatial*: a map client pans and zooms,
and every viewport is a spatial range filter over the pickup location
(``pickup_x``/``pickup_y``, normalized to [0, 1]) layered on top of the
categorical cube cell the widget is bound to. This module supplies the
**geometries** — bbox, radius and convex-polygon predicates with an
exact vectorized point-in-geometry test (:meth:`Geometry.mask`) — and
:func:`filter_table`, which applies one to a sample.

There is deliberately no spatial index: a sample is Serfling-sized
(~1 k rows) or a θ-bounded handful, and one numpy mask over it is
faster than any candidate-pruning structure until ~10⁵ points per
sample (docs/architecture.md, "Why there is no index").

``mask ⊆ bounds`` holds for every geometry — no point outside
:meth:`Geometry.bounds` satisfies the mask. Bbox and radius satisfy it
arithmetically; the polygon mask intersects with its own bounding box
explicitly so that degenerate (collinear) polygons cannot accept
points on the carrier line beyond the hull.

Guarantee semantics under spatial filtering live in
:mod:`repro.core.tabula`: a θ-certified sample stays CERTIFIED only
when the geometry retains *every* sample row (the certified estimator
is unchanged); any strict subset is an honest ``DOWNGRADED``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.engine.table import Table
from repro.errors import InvalidQueryError

__all__ = [
    "SPATIAL_X",
    "SPATIAL_Y",
    "TAB701_MALFORMED_GEOMETRY",
    "TAB702_NOT_SPATIAL",
    "BBox",
    "ConvexPolygon",
    "GeometryError",
    "Geometry",
    "Radius",
    "filter_table",
    "has_spatial_columns",
    "oracle_rows",
    "parse_geometry",
]

#: The spatial columns viewport queries filter on (NYC-taxi layout).
SPATIAL_X = "pickup_x"
SPATIAL_Y = "pickup_y"

# TAB7xx — spatial / HTTP request error codes (docs/architecture.md).
TAB701_MALFORMED_GEOMETRY = "TAB701"
TAB702_NOT_SPATIAL = "TAB702"


class GeometryError(InvalidQueryError):
    """A geometry spec is malformed, or the table is not spatial.

    Subclasses :class:`~repro.errors.InvalidQueryError` so every layer
    that maps invalid queries to typed 400s (gateway, router, HTTP)
    handles geometry errors the same way. ``code`` is the TAB7xx class.
    """

    def __init__(self, message: str, *, code: str = TAB701_MALFORMED_GEOMETRY):
        super().__init__(f"[{code}] {message}")
        self.code = code


# ---------------------------------------------------------------------------
# Geometries
# ---------------------------------------------------------------------------


class Geometry:
    """A spatial predicate over (x, y) points.

    Contract: :meth:`mask` is the exact membership test; :meth:`bounds`
    is a bounding box with ``mask ⊆ bounds``.
    """

    kind = ""

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounds(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)``; may be inverted (empty bbox)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


def _finite(value: Any, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise GeometryError(f"geometry field {name!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise GeometryError(f"geometry field {name!r} must be finite, got {number!r}")
    return number


@dataclass(frozen=True)
class BBox(Geometry):
    """Axis-aligned box; all four edges inclusive.

    Degenerate boxes are meaningful: zero area (``xmin == xmax``)
    selects points exactly on the line, inverted corners
    (``xmin > xmax``) select nothing — no corner normalization.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    kind = "bbox"

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (xs >= self.xmin) & (xs <= self.xmax) & (ys >= self.ymin) & (ys <= self.ymax)

    def bounds(self) -> Tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "bbox",
            "xmin": self.xmin,
            "ymin": self.ymin,
            "xmax": self.xmax,
            "ymax": self.ymax,
        }


@dataclass(frozen=True)
class Radius(Geometry):
    """Closed disk: distance to ``(x, y)`` at most ``radius`` (≥ 0).

    ``radius == 0`` selects points exactly at the center.
    """

    x: float
    y: float
    radius: float

    kind = "radius"

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        dx = xs - self.x
        dy = ys - self.y
        return dx * dx + dy * dy <= self.radius * self.radius

    def bounds(self) -> Tuple[float, float, float, float]:
        return (self.x - self.radius, self.y - self.radius,
                self.x + self.radius, self.y + self.radius)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "radius", "x": self.x, "y": self.y, "radius": self.radius}


@dataclass(frozen=True)
class ConvexPolygon(Geometry):
    """Convex polygon (≥ 3 vertices), boundary inclusive.

    Vertices are normalized to counter-clockwise order at construction;
    collinear (zero-cross) vertices are allowed, mixed turn directions
    are rejected. Membership is the half-plane test against every edge
    *intersected with the vertex bounding box* — the explicit bounds
    term is what keeps fully-collinear (zero-area) polygons from
    accepting points on the carrier line outside the hull, preserving
    ``mask ⊆ bounds``.
    """

    points: Tuple[Tuple[float, float], ...]

    kind = "polygon"

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise GeometryError(
                f"polygon needs at least 3 vertices, got {len(self.points)}"
            )
        crosses = self._edge_crosses(self.points)
        if (crosses > 0).any() and (crosses < 0).any():
            raise GeometryError("polygon is not convex (mixed turn directions)")
        if crosses.sum() < 0:  # clockwise: normalize to counter-clockwise
            object.__setattr__(self, "points", tuple(reversed(self.points)))

    @staticmethod
    def _edge_crosses(points: Sequence[Tuple[float, float]]) -> np.ndarray:
        arr = np.asarray(points, dtype=float)
        nxt = np.roll(arr, -1, axis=0)
        after = np.roll(arr, -2, axis=0)
        first = nxt - arr
        second = after - nxt
        return first[:, 0] * second[:, 1] - first[:, 1] * second[:, 0]

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xmin, ymin, xmax, ymax = self.bounds()
        inside = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        arr = np.asarray(self.points, dtype=float)
        nxt = np.roll(arr, -1, axis=0)
        for (x1, y1), (x2, y2) in zip(arr, nxt):
            inside &= (x2 - x1) * (ys - y1) - (y2 - y1) * (xs - x1) >= 0.0
        return inside

    def bounds(self) -> Tuple[float, float, float, float]:
        arr = np.asarray(self.points, dtype=float)
        return (
            float(arr[:, 0].min()),
            float(arr[:, 1].min()),
            float(arr[:, 0].max()),
            float(arr[:, 1].max()),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "polygon", "points": [[x, y] for x, y in self.points]}


GeometrySpec = Union[str, Mapping[str, Any], Geometry]


def parse_geometry(spec: GeometrySpec) -> Geometry:
    """Validate a geometry spec into a :class:`Geometry`.

    Accepts (feature-service style):

    - the compact bbox string ``"xmin,ymin,xmax,ymax"``;
    - ``{"type": "bbox", "xmin": ..., "ymin": ..., "xmax": ..., "ymax": ...}``
      (``type`` optional when the four corner keys are present);
    - ``{"type": "radius", "x": ..., "y": ..., "radius": ...}``;
    - ``{"type": "polygon", "points": [[x, y], ...]}`` (convex);
    - an already-parsed :class:`Geometry` (returned as-is).

    Raises :class:`GeometryError` (TAB701) for anything else.
    """
    if isinstance(spec, Geometry):
        return spec
    if isinstance(spec, str):
        parts = spec.split(",")
        if len(parts) != 4:
            raise GeometryError(
                f"bbox string must be 'xmin,ymin,xmax,ymax', got {spec!r}"
            )
        xmin, ymin, xmax, ymax = (_finite(p, "bbox") for p in parts)
        return BBox(xmin, ymin, xmax, ymax)
    if isinstance(spec, Mapping):
        kind = spec.get("type")
        if kind is None:
            if {"xmin", "ymin", "xmax", "ymax"} <= set(spec):
                kind = "bbox"
            else:
                raise GeometryError(
                    f"geometry object needs a 'type' (bbox/radius/polygon) or "
                    f"bbox corner keys; got keys {sorted(map(str, spec))}"
                )
        if kind == "bbox":
            return BBox(
                _finite(spec.get("xmin"), "xmin"),
                _finite(spec.get("ymin"), "ymin"),
                _finite(spec.get("xmax"), "xmax"),
                _finite(spec.get("ymax"), "ymax"),
            )
        if kind == "radius":
            radius = _finite(spec.get("radius"), "radius")
            if radius < 0:
                raise GeometryError(f"radius must be >= 0, got {radius}")
            return Radius(_finite(spec.get("x"), "x"), _finite(spec.get("y"), "y"), radius)
        if kind == "polygon":
            points = spec.get("points")
            if not isinstance(points, (list, tuple)):
                raise GeometryError("polygon needs a 'points' list of [x, y] pairs")
            parsed = []
            for point in points:
                if not isinstance(point, (list, tuple)) or len(point) != 2:
                    raise GeometryError(
                        f"polygon points must be [x, y] pairs, got {point!r}"
                    )
                parsed.append((_finite(point[0], "x"), _finite(point[1], "y")))
            return ConvexPolygon(tuple(parsed))
        raise GeometryError(f"unknown geometry type {kind!r} (bbox/radius/polygon)")
    raise GeometryError(
        f"geometry must be a bbox string, an object, or a Geometry; got "
        f"{type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Table plumbing
# ---------------------------------------------------------------------------


def has_spatial_columns(table: Table) -> bool:
    return SPATIAL_X in table.column_names and SPATIAL_Y in table.column_names


def table_points(table: Table) -> Tuple[np.ndarray, np.ndarray]:
    if not has_spatial_columns(table):
        raise GeometryError(
            f"table has no spatial columns ({SPATIAL_X!r}, {SPATIAL_Y!r}); "
            "geometry filters need both",
            code=TAB702_NOT_SPATIAL,
        )
    return (
        np.asarray(table.column(SPATIAL_X).data, dtype=float),
        np.asarray(table.column(SPATIAL_Y).data, dtype=float),
    )


def oracle_rows(table: Table, geometry: Geometry) -> np.ndarray:
    """Rows of ``table`` inside ``geometry``: one vectorized mask scan."""
    xs, ys = table_points(table)
    return np.nonzero(geometry.mask(xs, ys))[0]


def filter_table(table: Table, geometry: Geometry, index: None = None) -> Tuple[Table, bool]:
    """``(filtered, covers_all)`` — the spatially filtered sample.

    ``covers_all`` is True when the geometry retains every row; the
    table is then returned as-is (same object), which is what lets a
    θ-certified answer stay CERTIFIED — the certified estimator is
    untouched. ``index`` is unused; it is accepted only because
    ``perf/traced.py`` still forwards the keyword.
    """
    if table.num_rows == 0:
        return table, True
    rows = oracle_rows(table, geometry)
    if rows.size == table.num_rows:
        return table, True
    return table.take(rows), False
