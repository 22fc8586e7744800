"""Property-based spatial suite (``-m spatial``).

The exact mask is the only spatial filter, so the properties pin the
mask itself and :func:`~repro.core.spatial.filter_table` on the
adversarial corners:

- degenerate bboxes: zero area (a line, a point) and inverted corners
  (selects nothing — no silent normalization); all four edges inclusive;
- radius ≈ 0 (down to exactly 0: the center always matches);
- clockwise input normalizes to the counter-clockwise polygon;
- collinear-vertex polygons, including fully collinear (zero-area)
  hulls whose carrier line must not leak points beyond the hull
  (``mask ⊆ bounds``);
- ``filter_table`` keeps exactly the masked rows, in order, and hands
  back the *same* table object when the geometry keeps every row.

Run explicitly (kept out of the default fast tier)::

    python -m pytest -m spatial -q
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spatial import BBox, ConvexPolygon, Radius, filter_table
from repro.engine.table import Table

pytestmark = pytest.mark.spatial

# Coordinates from a coarse lattice plus continuous values: the lattice
# makes exact boundary coincidences (point == bbox edge) likely instead
# of measure-zero.
LATTICE = st.sampled_from([round(v * 0.125, 3) for v in range(-8, 17)])
CONTINUOUS = st.floats(
    min_value=-1.0, max_value=2.0, allow_nan=False, allow_infinity=False, width=32
)
COORD = st.one_of(LATTICE, CONTINUOUS)

POINTS = st.lists(st.tuples(COORD, COORD), min_size=0, max_size=120)

BBOXES = st.builds(BBox, COORD, COORD, COORD, COORD)  # inverted/degenerate included

RADII = st.builds(
    Radius,
    COORD,
    COORD,
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),  # radius ≈ 0
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    ),
)


@st.composite
def convex_polygons(draw):
    """Convex polygons via angle-sorted points on an ellipse, plus
    degenerate fully-collinear hulls."""
    if draw(st.booleans()):
        # Collinear: n points on a segment (zero-area hull).
        x0, y0 = draw(LATTICE), draw(LATTICE)
        dx, dy = draw(LATTICE), draw(LATTICE)
        ts = sorted(draw(st.lists(LATTICE, min_size=3, max_size=5)))
        return ConvexPolygon(tuple((x0 + t * dx, y0 + t * dy) for t in ts))
    cx, cy = draw(CONTINUOUS), draw(CONTINUOUS)
    rx = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    ry = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    n = draw(st.integers(min_value=3, max_value=8))
    angles = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    return ConvexPolygon(
        tuple((cx + rx * np.cos(a), cy + ry * np.sin(a)) for a in angles)
    )


GEOMETRIES = st.one_of(BBOXES, RADII, convex_polygons())


def with_boundary_points(points, geometry):
    """Adversarially append points exactly on the geometry's boundary."""
    extra = []
    if isinstance(geometry, BBox):
        extra = [
            (geometry.xmin, geometry.ymin),
            (geometry.xmax, geometry.ymax),
            (geometry.xmin, geometry.ymax),
            ((geometry.xmin + geometry.xmax) / 2.0, geometry.ymin),
        ]
    elif isinstance(geometry, Radius):
        extra = [
            (geometry.x, geometry.y),
            (geometry.x + geometry.radius, geometry.y),
            (geometry.x, geometry.y - geometry.radius),
        ]
    elif isinstance(geometry, ConvexPolygon):
        extra = list(geometry.points)
    return list(points) + extra


def coordinates(points):
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    return xs, ys


class TestMaskSemantics:
    @settings(max_examples=200, deadline=None)
    @given(points=POINTS, bbox=BBOXES)
    def test_bbox_edges_inclusive_unless_inverted(self, points, bbox):
        """Corner and edge points are in; an inverted box selects nothing."""
        xs, ys = coordinates(with_boundary_points(points, bbox))
        accepted = bbox.mask(xs, ys)
        if bbox.xmin > bbox.xmax or bbox.ymin > bbox.ymax:
            assert not accepted.any()
        else:
            assert accepted[len(points):].all()

    @settings(max_examples=200, deadline=None)
    @given(radius=RADII)
    def test_closed_disk_always_holds_its_center(self, radius):
        xs, ys = coordinates([(radius.x, radius.y)])
        assert radius.mask(xs, ys).all()

    @settings(max_examples=200, deadline=None)
    @given(points=POINTS, polygon=convex_polygons())
    def test_clockwise_input_is_the_same_polygon(self, points, polygon):
        xs, ys = coordinates(with_boundary_points(points, polygon))
        flipped = ConvexPolygon(tuple(reversed(polygon.points)))
        assert (flipped.mask(xs, ys) == polygon.mask(xs, ys)).all()


class TestFilterTableIsTheMask:
    @settings(max_examples=200, deadline=None)
    @given(points=POINTS, geometry=GEOMETRIES)
    def test_keeps_exactly_the_masked_rows_in_order(self, points, geometry):
        xs, ys = coordinates(with_boundary_points(points, geometry))
        table = Table.from_pydict(
            {"pickup_x": xs.tolist(), "pickup_y": ys.tolist(), "row": list(range(xs.size))}
        )
        expected = np.nonzero(geometry.mask(xs, ys))[0]
        filtered, covers_all = filter_table(table, geometry)
        assert filtered.to_pydict()["row"] == expected.tolist()
        assert covers_all == (expected.size == xs.size)
        assert (filtered is table) == covers_all


class TestMaskBoundsInvariant:
    """No geometry accepts a point outside its own bounding box."""

    @settings(max_examples=200, deadline=None)
    @given(points=POINTS, geometry=GEOMETRIES)
    def test_no_accepted_point_outside_bounds(self, points, geometry):
        xs, ys = coordinates(with_boundary_points(points, geometry))
        accepted = geometry.mask(xs, ys)
        xmin, ymin, xmax, ymax = geometry.bounds()
        inside_bounds = (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        assert not (accepted & ~inside_bounds).any()
