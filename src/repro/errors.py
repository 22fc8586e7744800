"""Exception hierarchy for the Tabula reproduction.

Every error raised by :mod:`repro` derives from :class:`TabulaError` so
applications embedding the middleware can catch a single base class.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.diagnostics import Span, line_col, render_span


class TabulaError(Exception):
    """Base class for all errors raised by this package."""


class EngineError(TabulaError):
    """Base class for errors raised by the columnar SQL engine substrate."""


class SchemaError(EngineError):
    """A table/column definition is invalid or violated."""


class UnknownTableError(EngineError):
    """A statement referenced a table that is not in the catalog."""

    def __init__(self, name: str):
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(EngineError):
    """A statement referenced a column that does not exist."""

    def __init__(self, name: str, table: str = ""):
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {name!r}{where}")
        self.name = name
        self.table = table


class TypeMismatchError(EngineError):
    """An operation was applied to a column of an incompatible type."""


class SQLSyntaxError(EngineError):
    """The SQL text could not be parsed.

    Carries the offending position (and, when available, the source
    text) so callers can render a caret diagnostic. Line/column math is
    delegated to :func:`repro.diagnostics.line_col`, which clamps
    positions past end-of-text and on a final unterminated line.
    """

    def __init__(self, message: str, position: int = -1, text: str = "", span: Optional[Span] = None):
        self.position = position
        self.text = text
        self.span = span
        self.snippet = ""
        if span is None and position >= 0:
            self.span = Span.point(min(max(position, 0), len(text)) if text else max(position, 0))
        if position >= 0 and text:
            line, col = line_col(text, position)
            message = f"{message} (line {line}, column {col})"
            self.snippet = render_span(text, self.span)
        super().__init__(message)


class LossFunctionError(TabulaError):
    """A user-defined accuracy loss function is invalid.

    ``span`` (the offending range in the declaration's SQL text),
    ``loss_name`` and ``diagnostics`` are attached when the static
    analyzer produced the error, so callers can render carets; all three
    default to empty for plain message-only raises (backward
    compatible).
    """

    def __init__(
        self,
        message: str,
        *,
        span: Optional[Span] = None,
        loss_name: str = "",
        diagnostics: Tuple = (),
    ):
        super().__init__(message)
        self.span = span
        self.loss_name = loss_name
        self.diagnostics = tuple(diagnostics)


class NotAlgebraicError(LossFunctionError):
    """The declared loss function uses a holistic aggregate.

    Tabula requires the loss function to be algebraic (Section II of the
    paper) so the dry-run stage can derive every cuboid from the base
    cuboid.
    """


class SamplingError(TabulaError):
    """The accuracy-loss-aware sampler could not satisfy its contract."""


class DeadlineExceeded(TabulaError):
    """A request's deadline expired before an answer could be produced.

    Raised by the query path when the budget is spent before the cube
    lookup, or before a degraded cell's rebind scan when no other rung
    can answer, and by the serving gateway when a waiting request times
    out. ``elapsed`` is the
    seconds the request had been running when the deadline cut it off.
    """

    def __init__(self, message: str, *, elapsed: float = 0.0):
        super().__init__(message)
        self.elapsed = elapsed


class CubeNotInitializedError(TabulaError):
    """A dashboard query was issued before the sampling cube was built."""


class InvalidQueryError(TabulaError):
    """A dashboard query does not fit the sampling cube.

    Raised, for example, when the WHERE clause references attributes that
    are not a subset of the cubed attributes chosen at initialization
    time, or when the static analyzer rejects a ``CREATE TABLE ...
    GROUPBY CUBE`` statement (``diagnostics`` then carries the findings).
    """

    def __init__(self, message: str, *, diagnostics: Tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)
