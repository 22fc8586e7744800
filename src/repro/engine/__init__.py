"""Columnar in-memory SQL engine substrate.

The paper runs Tabula on top of Apache Spark SQL; any data system that
supports scans, GroupBy/CUBE and equi-joins works. This subpackage is a
from-scratch, numpy-backed columnar engine providing exactly that
surface:

- :mod:`repro.engine.schema` / :mod:`repro.engine.column` /
  :mod:`repro.engine.table` — typed columnar storage,
- :mod:`repro.engine.expressions` — predicate trees for WHERE clauses,
- :mod:`repro.engine.aggregates` — the aggregate-function framework with
  the paper's distributive / algebraic / holistic classification,
- :mod:`repro.engine.groupby`, :mod:`repro.engine.cube` — the
  relational operators Tabula needs,
- :mod:`repro.engine.catalog` — a named-table catalog standing in for the
  "underlying data system",
- :mod:`repro.engine.sql` — lexer/parser/executor for the Tabula SQL
  dialect of Section II.
"""

from repro.engine.catalog import Catalog
from repro.engine.column import Column
from repro.engine.schema import ColumnType, Schema
from repro.engine.table import Table

__all__ = ["Catalog", "Column", "ColumnType", "Schema", "Table"]
