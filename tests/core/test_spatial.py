"""Fast-tier tests for spatial geometries, the mask filter and the query path.

The property-based suite lives in ``test_spatial_oracle.py`` behind
``-m spatial``; these tests pin the API contracts (parse errors,
guarantee semantics, persistence) on small fixed inputs so the default
tier stays fast.
"""

import json

import numpy as np
import pytest

from repro.core import spatial
from repro.core.loss import HeatmapLoss, MeanLoss
from repro.core.persistence import _section_crc, load_cube, save_cube, verify_cube_file
from repro.core.spatial import (
    BBox,
    ConvexPolygon,
    GeometryError,
    Radius,
    filter_table,
    oracle_rows,
    parse_geometry,
)
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.engine.table import Table

ATTRS = ("passenger_count", "payment_type")

WHOLE_EXTENT = BBox(-1.0, -1.0, 2.0, 2.0)


def make_tabula(table, **kwargs):
    config = TabulaConfig(
        cubed_attrs=ATTRS, threshold=0.05, loss=MeanLoss("fare_amount"), **kwargs
    )
    tabula = Tabula(table, config)
    tabula.initialize()
    return tabula


@pytest.fixture(scope="module")
def cube(rides_small):
    return make_tabula(rides_small)


class TestParseGeometry:
    def test_bbox_string(self):
        geom = parse_geometry("0.1,0.2,0.3,0.4")
        assert geom == BBox(0.1, 0.2, 0.3, 0.4)

    def test_bbox_dict_type_optional(self):
        corners = {"xmin": 0.0, "ymin": 0.0, "xmax": 1.0, "ymax": 1.0}
        assert parse_geometry(corners) == parse_geometry({"type": "bbox", **corners})

    def test_radius_dict(self):
        geom = parse_geometry({"type": "radius", "x": 0.5, "y": 0.5, "radius": 0.1})
        assert geom == Radius(0.5, 0.5, 0.1)

    def test_polygon_dict(self):
        geom = parse_geometry(
            {"type": "polygon", "points": [[0, 0], [1, 0], [0.5, 1]]}
        )
        assert isinstance(geom, ConvexPolygon)

    def test_geometry_passthrough(self):
        geom = BBox(0, 0, 1, 1)
        assert parse_geometry(geom) is geom

    @pytest.mark.parametrize(
        "bad",
        [
            "0.1,0.2,0.3",  # three fields
            "a,b,c,d",  # non-numeric
            {"type": "bbox", "xmin": float("nan"), "ymin": 0, "xmax": 1, "ymax": 1},
            {"type": "circle", "x": 0, "y": 0, "radius": 1},
            {"type": "radius", "x": 0, "y": 0, "radius": -0.1},
            {"type": "polygon", "points": [[0, 0], [1, 1]]},  # too few
            {"type": "polygon", "points": [[0, 0], [2, 0], [2, 2], [1, 0.2]]},  # concave
            {"wrong": "keys"},
            42,
        ],
    )
    def test_malformed_specs_raise_tab701(self, bad):
        with pytest.raises(GeometryError) as excinfo:
            parse_geometry(bad)
        assert excinfo.value.code == spatial.TAB701_MALFORMED_GEOMETRY
        assert "[TAB701]" in str(excinfo.value)

    def test_to_dict_round_trips(self):
        for geom in (
            BBox(0.1, 0.2, 0.3, 0.4),
            Radius(0.5, 0.5, 0.25),
            ConvexPolygon(((0, 0), (1, 0), (0.5, 1))),
        ):
            assert parse_geometry(json.loads(json.dumps(geom.to_dict()))) == geom


class TestGeometrySemantics:
    def test_bbox_edges_inclusive(self):
        xs = np.array([0.0, 0.5, 1.0, 1.0000001])
        ys = np.array([0.0, 0.5, 1.0, 0.5])
        assert BBox(0, 0, 1, 1).mask(xs, ys).tolist() == [True, True, True, False]

    def test_zero_area_bbox_selects_on_line(self):
        xs = np.array([0.5, 0.5, 0.4])
        ys = np.array([0.2, 0.9, 0.2])
        assert BBox(0.5, 0.0, 0.5, 1.0).mask(xs, ys).tolist() == [True, True, False]

    def test_inverted_bbox_selects_nothing(self):
        xs = ys = np.linspace(0, 1, 50)
        assert not BBox(0.9, 0.0, 0.1, 1.0).mask(xs, ys).any()

    def test_zero_radius_selects_center_only(self):
        xs = np.array([0.5, 0.5000001])
        ys = np.array([0.5, 0.5])
        assert Radius(0.5, 0.5, 0.0).mask(xs, ys).tolist() == [True, False]

    def test_polygon_normalizes_clockwise_input(self):
        ccw = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
        cw = ConvexPolygon(((0, 0), (0, 1), (1, 1), (1, 0)))
        xs = np.linspace(-0.2, 1.2, 41)
        ys = np.linspace(-0.2, 1.2, 41)
        assert (ccw.mask(xs, ys) == cw.mask(xs, ys)).all()

    def test_collinear_polygon_confined_to_hull(self):
        # A zero-area "polygon" on y = x must not accept carrier-line
        # points beyond its vertex hull (mask ⊆ bounds).
        degenerate = ConvexPolygon(((0.2, 0.2), (0.5, 0.5), (0.8, 0.8)))
        xs = np.array([0.5, 0.9, 0.1])
        ys = np.array([0.5, 0.9, 0.1])
        assert degenerate.mask(xs, ys).tolist() == [True, False, False]


class TestFilterTable:
    def test_filter_table_covers_all_returns_same_object(self, rides_tiny):
        filtered, covers = filter_table(rides_tiny, WHOLE_EXTENT)
        assert covers and filtered is rides_tiny

    def test_filter_table_strict_subset(self, rides_tiny):
        geom = BBox(0.0, 0.0, 0.5, 0.5)
        filtered, covers = filter_table(rides_tiny, geom)
        assert not covers
        assert filtered.num_rows == oracle_rows(rides_tiny, geom).size

    def test_non_spatial_table_raises_tab702(self):
        table = Table.from_pydict({"a": [1.0, 2.0]})
        with pytest.raises(GeometryError) as excinfo:
            oracle_rows(table, WHOLE_EXTENT)
        assert excinfo.value.code == spatial.TAB702_NOT_SPATIAL


class TestQueryGuarantees:
    def test_whole_extent_stays_certified(self, cube):
        result = cube.query({"payment_type": "cash"}, geometry=WHOLE_EXTENT)
        assert result.guarantee is GuaranteeStatus.CERTIFIED
        assert result.spatial_filtered

    def test_strict_subset_downgrades_sampled_answer(self, cube):
        base = cube.query({"payment_type": "cash"})
        geom = BBox(0.0, 0.0, 0.4, 0.4)
        result = cube.query({"payment_type": "cash"}, geometry=geom)
        assert result.spatial_filtered
        assert result.sample.num_rows < base.sample.num_rows
        assert result.guarantee is GuaranteeStatus.DOWNGRADED
        assert "certificate" in result.detail
        # Every surviving row is inside the viewport.
        xs, ys = spatial.table_points(result.sample)
        assert geom.mask(xs, ys).all()

    def test_filtered_rows_match_oracle_filter_of_unfiltered(self, cube):
        geom = Radius(0.5, 0.5, 0.3)
        base = cube.query({"payment_type": "credit"})
        result = cube.query({"payment_type": "credit"}, geometry=geom)
        expected, _ = filter_table(base.sample, geom)
        assert result.sample.to_pydict() == expected.to_pydict()

    def test_non_spatial_cube_raises_tab702(self, rides_tiny):
        kept = {
            name: values
            for name, values in rides_tiny.to_pydict().items()
            if name not in ("pickup_x", "pickup_y")
        }
        types = {name: rides_tiny.column(name).ctype for name in kept}
        tabula = make_tabula(Table.from_pydict(kept, types=types))
        with pytest.raises(GeometryError) as excinfo:
            tabula.query({}, geometry=WHOLE_EXTENT)
        assert excinfo.value.code == spatial.TAB702_NOT_SPATIAL


def legacy_index_section(document):
    """The ``spatial_index`` section files saved before the indexes were
    removed carry: one grid record per sample plus one for the global
    sample (resolution 1 bins every row into cell 0, so the records are
    consistent with the samples for a loader that still verifies them)."""

    def record(table_json):
        rows = table_json["num_rows"]
        return {"kind": "grid", "num_points": rows, "resolution": 1, "cells": [0] * rows}

    return {
        "backend": "grid",
        "resolution": None,
        "columns": ["pickup_x", "pickup_y"],
        "samples": {sid: record(t) for sid, t in sorted(document["sample_table"].items())},
        "global": record(document["global_sample"]["table"]),
    }


class TestPersistence:
    @pytest.mark.parametrize("section_crc_intact", [True, False])
    def test_older_file_with_index_section_still_loads(
        self, rides_tiny, tmp_path, section_crc_intact
    ):
        """The section is skipped, checksum and all — never restored, never fatal."""
        config = TabulaConfig(
            cubed_attrs=ATTRS, threshold=0.01, loss=HeatmapLoss("pickup_x", "pickup_y")
        )
        fresh = Tabula(rides_tiny, config)
        fresh.initialize()
        path = tmp_path / "cube.json"
        save_cube(fresh, path)
        document = json.loads(path.read_text())
        section = legacy_index_section(document)
        document["spatial_index"] = section
        document["envelope"]["checksums"]["spatial_index"] = (
            _section_crc(section) + (0 if section_crc_intact else 1)
        )
        path.write_text(json.dumps(document))

        restored = load_cube(path, rides_tiny, on_corruption="raise")
        assert verify_cube_file(path).ok
        assert restored.store.content_digest() == fresh.store.content_digest()
        geom = BBox(0.0, 0.0, 0.5, 0.5)
        expected = fresh.query({"payment_type": "cash"}, geometry=geom)
        loaded = restored.query({"payment_type": "cash"}, geometry=geom)
        assert loaded.sample.to_pydict() == expected.sample.to_pydict()
        assert loaded.guarantee is expected.guarantee
