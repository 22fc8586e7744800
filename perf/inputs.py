"""Seeded inputs: the tables, the three cube definitions and the request/feed streams.

Table seeds and cube parameters are part of the workload definition and never
change with ``--seed``; ``--seed`` drives only the request and feed streams.
Every stream is a pure function of (table, seed), and ``inputs_digest`` pins
both so that a later edit to ``repro.data`` cannot silently change the traffic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.loss.registry import LossRegistry
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi
from repro.engine.table import Table

TABLE_ROWS = 50_000
SMOKE_ROWS = 2_000
TABLE_SEED = 0
FEED_TABLE_SEED = 2
FEED_BATCH_ROWS = 50
ZIPF_EXPONENT = 1.1
#: Every /query asks for the whole sample: the dashboard renders all of it.
ROW_LIMIT = 100_000

_ATTRS = ("payment_type", "rate_code", "passenger_count", "pickup_weekday", "vendor_name")


@dataclass(frozen=True)
class CubeSpec:
    attrs: Tuple[str, ...]
    loss: str
    targets: Tuple[str, ...]
    theta: float


#: Tiny answers (a few hundred bytes): per-request fixed cost is everything.
CUBE_M = CubeSpec(_ATTRS, "mean_loss", ("fare_amount",), 0.05)
#: Non-iceberg cells answer with the ~1 k-point global sample (tens of KB of
#: JSON). Do not lower theta: below ~0.0046 the whole-table cells turn iceberg
#: and one build takes minutes (see README, "the heat-map theta cliff").
CUBE_H = CubeSpec(_ATTRS, "heatmap_loss", ("pickup_x", "pickup_y"), 0.006)
#: Few cells, so each ingested micro-batch touches most of them.
CUBE_I = CubeSpec(_ATTRS[:3], "mean_loss", ("fare_amount",), 0.05)


def make_table(rows: int) -> Table:
    return generate_nyctaxi(rows, seed=TABLE_SEED)


def make_tabula(table: Table, spec: CubeSpec) -> Tabula:
    loss = LossRegistry().bind(spec.loss, spec.targets)
    return Tabula(table, TabulaConfig(cubed_attrs=spec.attrs, threshold=spec.theta, loss=loss))


# ----------------------------------------------------------------------
# Cells of the lattice
# ----------------------------------------------------------------------
Cell = Tuple[Optional[str], ...]


def lattice_cells(table: Table, attrs: Sequence[str]) -> List[Cell]:
    """Every non-empty cell of the cube lattice, partially specified ones included.

    Canonical order (by grouping set, then by dictionary codes), computed from
    the table's own code arrays rather than from the cube under test.
    """
    codes = [np.asarray(table.column(a).data) for a in attrs]
    labels = [table.column(a).dictionary for a in attrs]
    cells: List[Cell] = []
    for size in range(len(attrs) + 1):
        for subset in itertools.combinations(range(len(attrs)), size):
            if not subset:
                cells.append(tuple([None] * len(attrs)))
                continue
            combos = np.unique(np.column_stack([codes[j] for j in subset]), axis=0)
            for combo in combos:
                cell: List[Optional[str]] = [None] * len(attrs)
                for j, code in zip(subset, combo):
                    cell[j] = labels[j][int(code)]
                cells.append(tuple(cell))
    return cells


def where_of(attrs: Sequence[str], cell: Cell) -> Dict[str, str]:
    return {a: v for a, v in zip(attrs, cell) if v is not None}


def zipf_cell_indices(num_cells: int, seed: int, length: int) -> np.ndarray:
    """``length`` cell indices, Zipf(s=1.1) over a seed-chosen popularity order."""
    rng = np.random.default_rng([seed, 1])
    popularity = rng.permutation(num_cells)
    weights = np.arange(1, num_cells + 1, dtype=float) ** -ZIPF_EXPONENT
    probabilities = np.empty(num_cells)
    probabilities[popularity] = weights / weights.sum()
    return rng.choice(num_cells, size=length, p=probabilities)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    """One dashboard interaction: a cell and, on viewport workloads, a geometry."""

    cell: Cell
    where: Dict[str, str]
    geometry: Optional[Dict[str, object]]
    body: bytes  # the POST /query JSON, byte-identical for equal seeds


def make_query(attrs: Sequence[str], cell: Cell, geometry: Optional[Dict[str, object]]) -> Query:
    where = where_of(attrs, cell)
    document: Dict[str, object] = {"where": where, "limit": ROW_LIMIT}
    if geometry is not None:
        document["geometry"] = geometry
    return Query(cell, where, geometry, json.dumps(document, sort_keys=True).encode())


def cell_stream(attrs: Sequence[str], cells: Sequence[Cell], seed: int, length: int) -> List[Query]:
    """Filter clicks: Zipf-distributed cells, no geometry."""
    return [make_query(attrs, cells[i], None) for i in zipf_cell_indices(len(cells), seed, length)]


#: One map session drills from the whole extent down to zoom 4 and back out.
#: Fixed, so the share of whole-extent (certificate-keeping) viewports does not
#: depend on the seed; the seed picks the anchor, the pans, the cell and the shape.
ZOOM_SCRIPT = (0, 1, 2, 3, 4, 3, 2, 1)
#: Shape of each session's viewport, ten sessions at a time: 70 % bbox,
#: 20 % radius, 10 % convex polygon.
_SHAPE_BLOCK = ("bbox",) * 7 + ("radius",) * 2 + ("polygon",)


def _viewport(shape: str, cx: float, cy: float, half: float) -> Dict[str, object]:
    if shape == "bbox":
        return {
            "type": "bbox",
            "xmin": max(0.0, cx - half),
            "ymin": max(0.0, cy - half),
            "xmax": min(1.0, cx + half),
            "ymax": min(1.0, cy + half),
        }
    if shape == "radius":
        return {"type": "radius", "x": cx, "y": cy, "radius": half}
    corners = [
        [cx + half * math.cos(k * math.pi / 3), cy + half * math.sin(k * math.pi / 3)]
        for k in range(6)
    ]
    return {"type": "polygon", "points": corners}


def viewport_stream(
    table: Table, attrs: Sequence[str], cells: Sequence[Cell], seed: int, length: int
) -> List[Query]:
    """Pan/zoom sessions: each anchors on a data point and walks ``ZOOM_SCRIPT``."""
    rng = np.random.default_rng([seed, 2])
    xs = np.asarray(table.column("pickup_x").data, dtype=float)
    ys = np.asarray(table.column("pickup_y").data, dtype=float)
    sessions = -(-length // len(ZOOM_SCRIPT))
    cell_indices = zipf_cell_indices(len(cells), seed, sessions)
    queries: List[Query] = []
    shapes: List[str] = []
    for session in range(sessions):
        if not shapes:
            shapes = list(rng.permutation(_SHAPE_BLOCK))
        shape = shapes.pop()
        anchor = int(rng.integers(table.num_rows))
        cx, cy = float(xs[anchor]), float(ys[anchor])
        cell = cells[cell_indices[session]]
        for zoom in ZOOM_SCRIPT:
            half = 0.5 / 2**zoom
            # Zoom 0 shows the whole map whatever the session is anchored on.
            vx, vy = (0.5, 0.5) if zoom == 0 else (cx, cy)
            queries.append(make_query(attrs, cell, _viewport(shape, vx, vy, half)))
            cx = float(np.clip(cx + rng.normal(0.0, half / 2), 0.0, 1.0))
            cy = float(np.clip(cy + rng.normal(0.0, half / 2), 0.0, 1.0))
    return queries[:length]


def feed_batches(num_batches: int, seed: int) -> List[bytes]:
    """POST /ingest bodies: fresh rows (table seed 2) in a seed-chosen order."""
    feed = generate_nyctaxi(num_batches * FEED_BATCH_ROWS, seed=FEED_TABLE_SEED)
    order = np.random.default_rng([seed, 3]).permutation(num_batches)
    bodies = []
    for position, batch in enumerate(order):
        rows = feed.slice(int(batch) * FEED_BATCH_ROWS, (int(batch) + 1) * FEED_BATCH_ROWS)
        # The idempotency seed is the position in the feed: unique per batch.
        document = {"rows": rows.to_pydict(), "seed": position + 1}
        bodies.append(json.dumps(document, sort_keys=True).encode())
    return bodies


# ----------------------------------------------------------------------
# Pinning
# ----------------------------------------------------------------------
def inputs_digest(table: Table, streams: Sequence[Sequence[bytes]]) -> str:
    """blake2b over the table's bytes and every request/feed body, in order."""
    digest = hashlib.blake2b(digest_size=16)
    for column in table.columns():
        digest.update(column.name.encode())
        digest.update(np.ascontiguousarray(column.data).tobytes())
        if column.dictionary is not None:
            digest.update("\x1f".join(column.dictionary).encode())
    for stream in streams:
        digest.update(len(stream).to_bytes(8, "big"))
        for body in stream:
            digest.update(body)
    return digest.hexdigest()
