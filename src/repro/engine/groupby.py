"""Sort-based GroupBy over one or more key columns.

The grouping machinery returns, for every distinct key combination, the
row indices belonging to that group. Aggregation is layered on top via
the :mod:`repro.engine.aggregates` framework; Tabula's dry run uses the
raw index groups directly to compute loss-function sufficient
statistics per cell.

Every grouping in the engine — raw rows here, base-cell key matrices in
the dry and real runs — goes through :func:`group_keys`: the key columns
are packed into **one** ``int64`` per row whose ascending order is the
rows' lexicographic order, and that 1-D key is sorted. (Sorting rows of
a 2-D array instead costs an order of magnitude more: numpy compares
them as opaque byte strings.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.aggregates import AggregateFunction
from repro.engine.column import Column
from repro.engine.schema import ColumnType
from repro.engine.table import Table

#: The packed key stays below this, so ``packed * cardinality + codes``
#: cannot wrap an ``int64``.
_RADIX_LIMIT = 1 << 62


def _rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense order-preserving codes ``0..D-1`` and ``D`` (NaNs share one code)."""
    distinct, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), len(distinct)


def _dense_codes(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Non-negative codes ordered like ``values`` and their exclusive bound."""
    if values.dtype.kind not in "biu":
        return _rank(values)
    values = values.astype(np.int64, copy=False)
    if not len(values):
        return values, 1
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= _RADIX_LIMIT:
        return _rank(values)
    return values - lo, hi - lo + 1


def group_keys(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Group the rows of a key matrix given as one or more equal-length columns.

    Returns ``(first, inverse)``: groups are numbered in ascending
    lexicographic key order (first column most significant, floats by
    value with NaNs as one last group); ``first[g]`` is the smallest row
    of group ``g`` and ``inverse[i]`` the group of row ``i``.

    Columns are combined mixed-radix into one ``int64``; whenever the
    radix product would pass ``2**62`` the partial key is re-ranked to
    dense ids (``< len(column)``) first, so any number of columns of any
    span packs without a row-wise fallback.
    """
    packed, radix = _dense_codes(np.asarray(columns[0]))
    for column in columns[1:]:
        codes, cardinality = _dense_codes(np.asarray(column))
        if radix * cardinality > _RADIX_LIMIT:
            packed, radix = _rank(packed)
            if radix * cardinality > _RADIX_LIMIT:
                codes, cardinality = _rank(codes)
        packed = packed * cardinality + codes
        radix *= cardinality
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    return first, inverse


@dataclass(frozen=True)
class Groups:
    """The result of grouping ``table`` by ``keys``.

    Attributes:
        table: the grouped input table.
        keys: the grouping column names.
        key_codes: ``(G, len(keys))`` array of *physical* key codes, one
            row per group, in ascending lexicographic order. A FLOAT64
            key column contributes the dense rank of its value among the
            column's distinct values (its physical value is not an
            integer). For zero keys this has shape ``(1, 0)``: the
            single all-rows group (the "All" cuboid of the lattice).
        group_indices: for each group, the row indices in ``table``,
            ascending.
        first_rows: for each group, its smallest row index — the row
            logical key values are read from.
        row_groups: for each row of ``table``, its group.
    """

    table: Table
    keys: Tuple[str, ...]
    key_codes: np.ndarray
    group_indices: Tuple[np.ndarray, ...]
    first_rows: np.ndarray
    row_groups: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.group_indices)

    def decode_key(self, group: int) -> Tuple:
        """Logical key values of ``group`` (dictionary labels, ints, ...)."""
        row = int(self.first_rows[group])
        values = []
        for name in self.keys:
            value = self.table.column(name).value_at(row)
            # A BOOL key has always decoded to 0 / 1; persisted cell keys
            # (and so cube digests) depend on it.
            values.append(int(value) if isinstance(value, bool) else value)
        return tuple(values)

    def group_table(self, group: int) -> Table:
        """Materialize the rows of ``group`` as a table."""
        return self.table.take(self.group_indices[group])


def split_by_group(row_groups: np.ndarray, num_groups: int) -> Tuple[np.ndarray, ...]:
    """Row indices of every group ``0..num_groups-1``, ascending inside each."""
    # A stable sort of 16-bit keys is a radix sort: O(N) instead of O(N log N).
    if num_groups <= 1 << 16:
        row_groups = row_groups.astype(np.uint16)
    order = np.argsort(row_groups, kind="stable")
    ends = np.cumsum(np.bincount(row_groups, minlength=num_groups)).tolist()
    return tuple(order[lo:hi] for lo, hi in zip([0] + ends, ends))


def group_rows(table: Table, keys: Sequence[str]) -> Groups:
    """Group ``table`` rows by the key columns, returning index groups.

    One sort-based pass (``O(N log N)``) over a packed integer key
    (:func:`group_keys`); the engine's analogue of a hash aggregate.
    """
    keys = tuple(keys)
    table.schema.require(keys)
    n = table.num_rows
    if not keys:
        return Groups(
            table=table,
            keys=(),
            key_codes=np.empty((1, 0), dtype=np.int64),
            group_indices=(np.arange(n, dtype=np.int64),),
            first_rows=np.zeros(1, dtype=np.int64),
            row_groups=np.zeros(n, dtype=np.int64),
        )
    columns = [table.column(k).data for k in keys]
    first, inverse = group_keys(columns)
    key_codes = np.column_stack(
        [
            data[first] if data.dtype.kind in "biu" else _rank(data[first])[0]
            for data in columns
        ]
    ).astype(np.int64, copy=False)
    return Groups(
        table=table,
        keys=keys,
        key_codes=key_codes,
        group_indices=split_by_group(inverse, len(first)),
        first_rows=first,
        row_groups=inverse,
    )


def aggregate(
    table: Table,
    keys: Sequence[str],
    aggregations: Sequence[Tuple[str, AggregateFunction, str]],
) -> Table:
    """GroupBy-aggregate: ``SELECT keys, agg(input) ... GROUP BY keys``.

    Args:
        table: input table.
        keys: grouping columns.
        aggregations: ``(output_name, aggregate, input_column)`` triples.

    Returns:
        A table with one row per group: the key columns followed by one
        float column per aggregation.
    """
    groups = group_rows(table, keys)
    key_columns = _key_columns(groups)
    agg_columns: List[Column] = []
    value_cache: Dict[str, np.ndarray] = {}
    for out_name, func, in_name in aggregations:
        if in_name not in value_cache:
            value_cache[in_name] = table.column(in_name).data.astype(float)
        values = value_cache[in_name]
        results = np.fromiter(
            (func.finalize(func.init_state(values[idx])) for idx in groups.group_indices),
            dtype=float,
            count=groups.num_groups,
        )
        agg_columns.append(Column(out_name, ColumnType.FLOAT64, results))
    return Table(key_columns + agg_columns)


def _key_columns(groups: Groups) -> List[Column]:
    """Output key columns (one row per group): each group's first row."""
    return [groups.table.column(name).take(groups.first_rows) for name in groups.keys]
