"""Unit tests for repro.engine.table."""

import numpy as np
import pytest

from repro.engine.column import Column
from repro.engine.schema import ColumnType
from repro.engine.table import Table
from repro.errors import SchemaError, UnknownColumnError


@pytest.fixture()
def table():
    return Table.from_pydict(
        {"m": ["cash", "credit", "cash", "dispute"], "fare": [5.0, 9.0, 3.5, 7.0]}
    )


class TestConstruction:
    def test_ragged_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            Table([Column.from_values("a", [1, 2]), Column.from_values("b", [1])])

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Table([Column.from_values("a", [1]), Column.from_values("a", [2])])

    def test_empty_table(self):
        table = Table([])
        assert table.num_rows == 0
        assert table.num_columns == 0

    def test_empty_like_preserves_schema_and_dictionary(self, table):
        empty = Table.empty_like(table)
        assert empty.num_rows == 0
        assert empty.schema == table.schema
        assert empty.column("m").dictionary == table.column("m").dictionary


class TestAccess:
    def test_basic_properties(self, table):
        assert table.num_rows == 4
        assert table.num_columns == 2
        assert table.column_names == ("m", "fare")
        assert len(table) == 4

    def test_column_lookup(self, table):
        assert table["fare"].to_list() == [5.0, 9.0, 3.5, 7.0]
        with pytest.raises(UnknownColumnError):
            table.column("nope")

    def test_row(self, table):
        assert table.row(1) == {"m": "credit", "fare": 9.0}

    def test_iter_rows(self, table):
        rows = list(table.iter_rows())
        assert len(rows) == 4
        assert rows[0]["m"] == "cash"

    def test_to_pydict_round_trip(self, table):
        data = table.to_pydict()
        again = Table.from_pydict(data)
        assert again.to_pydict() == data

    def test_nbytes_positive(self, table):
        assert table.nbytes > 0

    def test_format_contains_values(self, table):
        text = table.format()
        assert "cash" in text
        assert "fare" in text

    def test_format_truncates(self, table):
        text = table.format(limit=2)
        assert "more rows" in text


class TestRowSetOps:
    def test_take(self, table):
        taken = table.take(np.asarray([3, 0]))
        assert taken.column("m").to_list() == ["dispute", "cash"]

    def test_filter(self, table):
        mask = np.asarray([True, False, True, False])
        assert table.filter(mask).num_rows == 2

    def test_filter_requires_bool(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.asarray([1, 0, 1, 0]))

    def test_filter_requires_matching_length(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.asarray([True]))

    def test_project(self, table):
        projected = table.project(["fare"])
        assert projected.column_names == ("fare",)

    def test_rename(self, table):
        renamed = table.rename({"m": "payment"})
        assert renamed.column_names == ("payment", "fare")

    def test_with_column_appends(self, table):
        extra = Column.from_values("tip", [1.0, 2.0, 0.5, 1.5])
        extended = table.with_column(extra)
        assert extended.column_names == ("m", "fare", "tip")

    def test_with_column_replaces(self, table):
        replacement = Column.from_values("fare", [0.0, 0.0, 0.0, 0.0])
        replaced = table.with_column(replacement)
        assert replaced.column("fare").to_list() == [0.0] * 4

    def test_concat(self, table):
        doubled = table.concat(table)
        assert doubled.num_rows == 8

    def test_concat_schema_mismatch(self, table):
        other = Table.from_pydict({"z": [1]})
        with pytest.raises(SchemaError):
            table.concat(other)

    def test_head(self, table):
        assert table.head(2).num_rows == 2
        assert table.head(100).num_rows == 4

    def test_sample_rows(self, table):
        rng = np.random.default_rng(0)
        sample = table.sample_rows(3, rng)
        assert sample.num_rows == 3
        # without replacement: all rows distinct
        fares = sample.column("fare").to_list()
        assert len(set(fares)) == 3

    def test_sample_rows_caps_at_population(self, table):
        rng = np.random.default_rng(0)
        assert table.sample_rows(100, rng).num_rows == 4


class TestSliceViews:
    """``Table.slice`` is how a dry-run partition reads the raw table:
    zero-copy views, identical to ``take`` over the same range."""

    def test_table_slice_matches_take(self, table):
        sliced = table.slice(1, 4)
        taken = table.take(np.arange(1, 4, dtype=np.int64))
        assert sliced.to_pydict() == taken.to_pydict()

    def test_slice_shares_buffers(self, table):
        sliced = table.slice(0, 3)
        for name in table.column_names:
            assert np.shares_memory(sliced[name].data, table[name].data)

    def test_empty_and_full_slices(self, table):
        assert table.slice(2, 2).num_rows == 0
        assert table.slice(0, table.num_rows).to_pydict() == table.to_pydict()

    def test_out_of_range_rejected(self):
        col = Column("x", ColumnType.INT64, np.arange(4))
        with pytest.raises(SchemaError):
            col.slice(2, 9)
        with pytest.raises(SchemaError):
            col.slice(-1, 2)
        with pytest.raises(SchemaError):
            col.slice(3, 1)
