"""Unit + property tests for the GroupBy operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import aggregates as agg
from repro.engine import groupby
from repro.engine.column import Column
from repro.engine.groupby import aggregate, group_keys, group_rows
from repro.engine.schema import ColumnType
from repro.engine.sql.executor import SQLSession
from repro.engine.table import Table
from repro.errors import UnknownColumnError


@pytest.fixture()
def table():
    return Table.from_pydict(
        {
            "m": ["cash", "credit", "cash", "credit", "cash"],
            "c": [1, 1, 2, 1, 1],
            "fare": [5.0, 9.0, 3.0, 11.0, 7.0],
        }
    )


class TestGroupRows:
    def test_single_key(self, table):
        groups = group_rows(table, ["m"])
        assert groups.num_groups == 2
        keys = {groups.decode_key(g) for g in range(groups.num_groups)}
        assert keys == {("cash",), ("credit",)}

    def test_groups_partition_all_rows(self, table):
        groups = group_rows(table, ["m", "c"])
        all_indices = np.concatenate(groups.group_indices)
        assert sorted(all_indices.tolist()) == list(range(table.num_rows))

    def test_composite_key(self, table):
        groups = group_rows(table, ["m", "c"])
        keys = {groups.decode_key(g) for g in range(groups.num_groups)}
        assert keys == {("cash", 1), ("cash", 2), ("credit", 1)}

    def test_group_table_materialization(self, table):
        groups = group_rows(table, ["m"])
        for g in range(groups.num_groups):
            sub = groups.group_table(g)
            label = groups.decode_key(g)[0]
            assert all(v == label for v in sub.column("m").to_list())

    def test_zero_keys_single_group(self, table):
        groups = group_rows(table, [])
        assert groups.num_groups == 1
        assert len(groups.group_indices[0]) == table.num_rows

    def test_empty_table(self):
        empty = Table.from_pydict({"m": [], "x": []})
        groups = group_rows(empty, ["m"])
        assert groups.num_groups == 0

    def test_unknown_key_raises(self, table):
        with pytest.raises(UnknownColumnError):
            group_rows(table, ["nope"])

    def test_zero_keys_and_empty_table_shapes(self, table):
        assert group_rows(table, []).key_codes.shape == (1, 0)
        empty = Table.from_pydict({"m": [], "c": []})
        groups = group_rows(empty, ["m", "c"])
        assert groups.key_codes.shape == (0, 2)
        assert groups.group_indices == ()


class TestFloatKeys:
    """A FLOAT64 key groups by value — it used to be truncated to int64,
    which merged 1.2 with 1.7 and -0.5 with 0.5."""

    X = [1.2, 1.7, 2.5, -0.5, 0.5]

    def test_group_rows_keeps_distinct_floats_apart(self):
        table = Table.from_pydict({"x": self.X, "y": [0, 1, 2, 3, 4]})
        groups = group_rows(table, ["x"])
        assert groups.num_groups == 5
        assert [groups.decode_key(g) for g in range(5)] == [(v,) for v in sorted(self.X)]
        assert [idx.tolist() for idx in groups.group_indices] == [[3], [4], [0], [1], [2]]

    def test_equal_floats_share_a_group_and_nans_form_one(self):
        x = [0.25, float("nan"), 0.25, float("nan"), -1.5]
        groups = group_rows(Table.from_pydict({"x": x, "k": list("abcab")}), ["x"])
        assert [idx.tolist() for idx in groups.group_indices] == [[4], [0, 2], [1, 3]]
        assert groups.decode_key(1) == (0.25,)
        assert np.isnan(groups.decode_key(2)[0])
        # Behind a more significant key the float still splits groups.
        both = group_rows(Table.from_pydict({"x": x, "k": list("abcab")}), ["k", "x"])
        assert both.num_groups == 5

    def test_sql_group_by_float_column(self):
        session = SQLSession()
        session.register_table(
            "t", Table.from_pydict({"x": self.X, "y": [0, 1, 2, 3, 4]})
        )
        out = session.execute("SELECT x, SUM(y) FROM t GROUP BY x")
        got = dict(zip(out.column("x").to_list(), out.column(out.column_names[1]).to_list()))
        assert got == {-0.5: 3.0, 0.5: 4.0, 1.2: 0.0, 1.7: 1.0, 2.5: 2.0}


class TestAggregate:
    def test_sum_per_group(self, table):
        out = aggregate(table, ["m"], [("total", agg.Sum(), "fare")])
        data = dict(zip(out.column("m").to_list(), out.column("total").to_list()))
        assert data == {"cash": 15.0, "credit": 20.0}

    def test_multiple_aggregations(self, table):
        out = aggregate(
            table, ["m"],
            [("n", agg.Count(), "fare"), ("avg", agg.Avg(), "fare")],
        )
        rows = {r["m"]: r for r in out.iter_rows()}
        assert rows["cash"]["n"] == 3.0
        assert rows["cash"]["avg"] == pytest.approx(5.0)

    def test_grand_total_with_no_keys(self, table):
        out = aggregate(table, [], [("total", agg.Sum(), "fare")])
        assert out.num_rows == 1
        assert out.column("total").to_list() == [35.0]


@given(
    labels=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=50),
)
@settings(max_examples=30, deadline=None)
def test_property_group_sizes_sum_to_total(labels):
    table = Table.from_pydict({"k": labels, "v": list(range(len(labels)))})
    groups = group_rows(table, ["k"])
    assert sum(len(idx) for idx in groups.group_indices) == len(labels)
    assert groups.num_groups == len(set(labels))


@given(
    labels=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=40),
    values=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
)
@settings(max_examples=30, deadline=None)
def test_property_groupby_sum_matches_python(labels, values):
    n = min(len(labels), len(values))
    labels, values = labels[:n], values[:n]
    table = Table.from_pydict({"k": labels, "v": values})
    out = aggregate(table, ["k"], [("s", agg.Sum(), "v")])
    got = dict(zip(out.column("k").to_list(), out.column("s").to_list()))
    expected = {}
    for k, v in zip(labels, values):
        expected[k] = expected.get(k, 0) + v
    assert got == {k: float(v) for k, v in expected.items()}


# ----------------------------------------------------------------------
# Packed-key grouping == the row-wise reference it replaced
# ----------------------------------------------------------------------
_WIDE = 1 << 40


@st.composite
def key_tables(draw):
    """0-300 rows x 1-6 key columns of CATEGORY / BOOL / INT64.

    ``wide`` INT64 columns take values near ±2**40: three of them have a
    radix product past 2**62 and force the re-rank branch.
    """
    n = draw(st.integers(min_value=0, max_value=300))
    kinds = draw(
        st.lists(st.sampled_from(["cat", "bool", "small", "wide"]), min_size=1, max_size=6)
    )
    columns = []
    for j, kind in enumerate(kinds):
        if kind == "cat":
            labels = draw(st.lists(st.sampled_from("abcde"), min_size=n, max_size=n))
            columns.append(Column.from_values(f"k{j}", labels, ColumnType.CATEGORY))
            continue
        if kind == "bool":
            elements, ctype = st.booleans(), ColumnType.BOOL
        elif kind == "small":
            elements, ctype = st.integers(-3, 3), ColumnType.INT64
        else:
            elements = st.builds(
                lambda sign, jitter: sign * _WIDE + jitter,
                st.sampled_from([-1, 1]),
                st.integers(-2, 2),
            )
            ctype = ColumnType.INT64
        values = draw(st.lists(elements, min_size=n, max_size=n))
        columns.append(Column(f"k{j}", ctype, np.asarray(values, dtype=ctype.numpy_dtype)))
    return Table(columns), kinds


def _assert_matches_rowwise_reference(table):
    keys = table.column_names
    groups = group_rows(table, keys)
    assert groups.key_codes.shape[1] == len(keys)
    if table.num_rows == 0:
        assert groups.key_codes.shape == (0, len(keys))
        assert groups.group_indices == ()
        return
    stacked = np.column_stack([table.column(k).data.astype(np.int64) for k in keys])
    uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    assert np.array_equal(groups.key_codes, uniq)
    assert groups.num_groups == len(uniq)
    for g, idx in enumerate(groups.group_indices):
        assert np.array_equal(idx, np.nonzero(inverse == g)[0])
    assert np.array_equal(groups.row_groups, inverse)
    assert np.array_equal(groups.first_rows, [idx[0] for idx in groups.group_indices])


@given(key_tables())
@settings(max_examples=75, deadline=None)
def test_property_packed_grouping_matches_rowwise_reference(drawn):
    table, _ = drawn
    _assert_matches_rowwise_reference(table)


def test_rerank_branch_is_exercised(monkeypatch):
    """Three wide columns overflow the radix and still group exactly."""
    reranks = []
    rank = groupby._rank
    monkeypatch.setattr(
        groupby, "_rank", lambda values: (reranks.append(len(values)), rank(values))[1]
    )
    rng = np.random.default_rng(0)
    wide = lambda: rng.choice([-1, 1], 200) * _WIDE + rng.integers(-2, 3, 200)  # noqa: E731
    table = Table.from_pydict(
        {"a": wide(), "b": wide(), "c": wide(), "d": rng.integers(0, 3, 200)}
    )
    _assert_matches_rowwise_reference(table)
    assert reranks, "the radix product never passed 2**62"
    # A single column spanning more than 2**62 is ranked, not shifted.
    huge = Table.from_pydict({"a": [2**62, -(2**62), 0, 2**62], "b": [1, 1, 0, 1]})
    _assert_matches_rowwise_reference(huge)


def test_group_keys_orders_groups_lexicographically():
    first, inverse = group_keys([np.array([2, 1, 2, 1]), np.array([0.5, 9.0, -1.0, 9.0])])
    assert first.tolist() == [1, 2, 0]
    assert inverse.tolist() == [2, 0, 1, 0]
