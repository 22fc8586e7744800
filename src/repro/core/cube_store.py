"""Physical sampling-cube storage — the cube table and sample table.

Figure 4 of the paper: the cube table stores one row per *iceberg cell*
(cell coordinates plus a sample id); the sample table stores the
representative samples themselves. Many cells share a sample id thanks
to representative sample selection. Queries hitting non-iceberg cells
are answered by the global sample, which is the third physical
component (Section V-B's memory breakdown: global sample, cube table,
sample table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import spatial
from repro.core.global_sample import GlobalSample
from repro.sanitizer import create_lock, guarded_by
from repro.engine.column import Column
from repro.engine.cube import CellKey, format_cell
from repro.engine.schema import ColumnType
from repro.engine.table import Table


def _foreign_cell_reason(owner: int) -> str:
    return (
        f"cell owned by shard {owner}; this shard holds only the "
        "replicated global sample for it"
    )


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes per physical component (the Figure 9 breakdown)."""

    global_sample_bytes: int
    cube_table_bytes: int
    sample_table_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.global_sample_bytes + self.cube_table_bytes + self.sample_table_bytes


class SamplingCubeStore:
    """The materialized sampling cube as held in the data system."""

    def __init__(
        self,
        attrs: Sequence[str],
        global_sample: GlobalSample,
        cell_to_sample_id: Dict[CellKey, int],
        samples: Dict[int, Table],
        known_cells: frozenset,
        degraded_cells: Optional[Dict[CellKey, str]] = None,
    ):
        self.attrs = tuple(attrs)
        self.global_sample = global_sample
        self._cell_to_sample_id = dict(cell_to_sample_id)  # guard-writes: _swap_lock
        self._samples = dict(samples)  # guard-writes: _swap_lock
        self._known_cells = set(known_cells)  # guard-writes: _swap_lock
        self._degraded_cells: Dict[CellKey, str] = dict(degraded_cells or {})  # guard-writes: _swap_lock
        self._next_sample_id = max(self._samples, default=-1) + 1  # guard-writes: _swap_lock
        # Swap guard: every mutation of the cell→sample pointers or the
        # sample table happens under this lock and bumps the generation,
        # so a reader that raced a swap (pointer resolved, sample gone)
        # can distinguish "concurrent maintenance moved it" (generation
        # advanced → re-resolve) from "genuinely dangling" (degrade).
        # Readers are deliberately lock-free (stale-pointer retry
        # protocol), hence guard-writes rather than guard above.
        self._swap_lock = create_lock("cube_store._swap_lock", rlock=True)
        self._generation = 0  # guard-writes: _swap_lock

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped under the swap lock)."""
        return self._generation

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def lookup(self, cell: CellKey) -> Optional[Table]:
        """The materialized sample for ``cell``, or ``None`` if the cell
        is not an iceberg cell (caller then uses the global sample)."""
        sample_id = self._cell_to_sample_id.get(cell)
        if sample_id is None:
            return None
        return self._samples[sample_id]

    def sample_id_of(self, cell: CellKey) -> Optional[int]:
        return self._cell_to_sample_id.get(cell)

    def sample_for_id(self, sample_id: int) -> Optional[Table]:
        """The sample rows for an id, or ``None`` if the bytes are gone
        (dropped at load after a checksum failure, or a dangling id)."""
        return self._samples.get(sample_id)

    def is_known_cell(self, cell: CellKey) -> bool:
        """Whether the cell's population is non-empty in the raw table."""
        return cell in self._known_cells

    # ------------------------------------------------------------------
    # Viewport filtering (one exact mask scan; the sample is the index)
    # ------------------------------------------------------------------
    def filtered_global(self, geometry: spatial.Geometry) -> Tuple[Table, bool]:
        """``(filtered, covers_all)`` of the global sample."""
        return spatial.filter_table(self.global_sample.table, geometry)

    def spatial_filter(self, sample: Table, geometry: spatial.Geometry) -> Tuple[Table, bool]:
        """``(filtered, covers_all)`` for one sample (lock-free: samples are immutable)."""
        return spatial.filter_table(sample, geometry)

    # ------------------------------------------------------------------
    # Degraded cells (corruption survivors served via the fallback ladder)
    # ------------------------------------------------------------------
    def is_degraded(self, cell: CellKey) -> bool:
        return cell in self._degraded_cells

    def degraded_reason(self, cell: CellKey) -> str:
        return self._degraded_cells.get(cell, "")

    @property
    def degraded_cells(self) -> Dict[CellKey, str]:
        return dict(self._degraded_cells)

    def mark_degraded(self, cell: CellKey, reason: str) -> None:
        """An iceberg cell whose certified sample is unavailable.

        Its cube-table row is dropped (there is nothing to look up) but
        the cell stays *known* and is remembered here so the query path
        answers it via the fallback ladder with an honest
        :class:`~repro.core.tabula.GuaranteeStatus` instead of raising.
        """
        with self._swap_lock:
            self._generation += 1
            old = self._cell_to_sample_id.pop(cell, None)
            if old is not None:
                self._collect_if_orphaned(old)
            self._degraded_cells[cell] = reason
            self._known_cells.add(cell)

    def drop_sample(self, sample_id: int, reason: str) -> List[CellKey]:
        """Remove a (corrupt) sample; every cell it served degrades."""
        with self._swap_lock:
            affected = [c for c, sid in self._cell_to_sample_id.items() if sid == sample_id]
            for cell in affected:
                self.mark_degraded(cell, reason)
            self._generation += 1
            self._samples.pop(sample_id, None)
            return affected

    def reassign(self, cell: CellKey, sample_id: int) -> None:
        """Bind a degraded cell to an existing (re-verified) sample."""
        with self._swap_lock:
            if sample_id not in self._samples:
                raise KeyError(f"no sample with id {sample_id}")
            self._generation += 1
            self._cell_to_sample_id[cell] = sample_id
            self._degraded_cells.pop(cell, None)
            self._known_cells.add(cell)

    # ------------------------------------------------------------------
    # Shard slicing (the sharded serving tier's per-worker store)
    # ------------------------------------------------------------------
    def shard_slice(
        self, owner_of: Callable[[CellKey], int], shard_id: Optional[int]
    ) -> "SamplingCubeStore":
        """A new store holding only the iceberg samples this shard owns.

        ``owner_of`` is the placement function (cell → shard id).  The
        slice keeps the cube-table rows and sample bytes of owned cells
        only, but retains full knowledge of the cube: the global sample
        (shared by reference — it is replicated to every worker anyway),
        the complete known-cell set, and the *existence* of every
        foreign iceberg cell, recorded as degraded with a reason naming
        its owning shard.  A query landing on the wrong shard (replica
        failover) therefore still answers — from the global sample, with
        ``GuaranteeStatus.DOWNGRADED`` — instead of lying with a
        CERTIFIED global answer or raising.

        ``shard_id=None`` produces the router's own slice: it owns
        nothing, so every iceberg cell degrades to the global sample
        (the universal last rung when all workers are unreachable).
        """
        with self._swap_lock:
            owned = {
                cell: sid
                for cell, sid in self._cell_to_sample_id.items()
                if owner_of(cell) == shard_id
            }
            kept_ids = set(owned.values())
            samples = {sid: tbl for sid, tbl in self._samples.items() if sid in kept_ids}
            degraded: Dict[CellKey, str] = {}
            for cell, reason in self._degraded_cells.items():
                if owner_of(cell) == shard_id:
                    degraded[cell] = reason
                else:
                    degraded[cell] = _foreign_cell_reason(owner_of(cell))
            for cell in self._cell_to_sample_id:
                if cell not in owned:
                    degraded[cell] = _foreign_cell_reason(owner_of(cell))
            return SamplingCubeStore(
                attrs=self.attrs,
                global_sample=self.global_sample,
                cell_to_sample_id=owned,
                samples=samples,
                known_cells=frozenset(self._known_cells),
                degraded_cells=degraded,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_iceberg_cells(self) -> int:
        return len(self._cell_to_sample_id)

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    def sample_sizes(self) -> Dict[int, int]:
        return {sid: tbl.num_rows for sid, tbl in self._samples.items()}

    def memory_breakdown(self) -> MemoryBreakdown:
        return MemoryBreakdown(
            global_sample_bytes=self.global_sample.nbytes,
            cube_table_bytes=self._estimate_cube_table_bytes(),
            sample_table_bytes=sum(t.nbytes for t in self._samples.values()),
        )

    def _estimate_cube_table_bytes(self) -> int:
        """Cube-table footprint: per row, one slot per attribute + the id.

        Matches the physical layout of Figure 4a — fixed-width encoded
        cell coordinates (dictionary codes / null marker) plus a sample
        id, 8 bytes each.
        """
        row_bytes = (len(self.attrs) + 1) * 8
        return len(self._cell_to_sample_id) * row_bytes

    # ------------------------------------------------------------------
    # Incremental maintenance support
    # ------------------------------------------------------------------
    def add_known_cell(self, cell: CellKey) -> None:
        """Record a newly non-empty cell (appends can create cells)."""
        with self._swap_lock:
            self._known_cells.add(cell)

    def assign_new_sample(self, cell: CellKey, sample: Table) -> int:
        """Materialize a fresh local sample for ``cell``; returns its id.

        Orphaned samples (no longer referenced by any cell) are garbage
        collected so repeated maintenance cannot leak memory.
        """
        with self._swap_lock:
            self._generation += 1
            sample_id = self._next_sample_id
            self._next_sample_id += 1
            self._samples[sample_id] = sample
            old = self._cell_to_sample_id.get(cell)
            self._cell_to_sample_id[cell] = sample_id
            if old is not None:
                self._collect_if_orphaned(old)
            self._known_cells.add(cell)
            self._degraded_cells.pop(cell, None)
            return sample_id

    def demote_to_global(self, cell: CellKey) -> None:
        """Stop materializing ``cell`` (its loss fell back under θ)."""
        with self._swap_lock:
            self._generation += 1
            old = self._cell_to_sample_id.pop(cell, None)
            if old is not None:
                self._collect_if_orphaned(old)

    @guarded_by("_swap_lock")
    def _collect_if_orphaned(self, sample_id: int) -> None:
        if sample_id not in self._cell_to_sample_id.values():
            self._samples.pop(sample_id, None)

    # ------------------------------------------------------------------
    # Physical layout (Figure 4), for display and the SQL surface
    # ------------------------------------------------------------------
    def cube_table(self) -> Table:
        """The cube table as an engine table (Figure 4a)."""
        cells = list(self._cell_to_sample_id)
        data: Dict[str, List] = {attr: [] for attr in self.attrs}
        ids: List[int] = []
        for cell in cells:
            for attr, value in zip(self.attrs, cell):
                data[attr].append("(null)" if value is None else str(value))
            ids.append(self._cell_to_sample_id[cell])
        columns = [
            Column.from_values(attr, values, ColumnType.CATEGORY)
            for attr, values in data.items()
        ]
        columns.append(Column("sample_id", ColumnType.INT64, np.asarray(ids, dtype=np.int64)))
        return Table(columns)

    def sample_table_entries(self) -> List[Tuple[int, Table]]:
        """The sample table as (id, rows) pairs (Figure 4b)."""
        return sorted(self._samples.items())

    def content_digest(self) -> str:
        """Digest of the store's *logical* content.

        Sample ids are an internal allocation detail (replaying a
        journaled batch re-allocates them), so equality is defined on
        what queries can observe: each cell's answer rows, the known and
        degraded cell sets, and the global sample. Two stores with equal
        digests answer every dashboard query identically.
        """
        import hashlib
        import json

        def cell_key(cell: CellKey) -> str:
            return repr(cell)

        payload = {
            "attrs": list(self.attrs),
            "cells": {
                cell_key(cell): self._samples[sid].to_pydict()
                for cell, sid in self._cell_to_sample_id.items()
                if sid in self._samples
            },
            "known": sorted(cell_key(c) for c in self._known_cells),
            "degraded": {cell_key(c): r for c, r in self._degraded_cells.items()},
            "global_sample": self.global_sample.table.to_pydict(),
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self, limit: int = 10) -> str:
        """Human-readable summary used by examples and debugging."""
        lines = [
            f"sampling cube over {self.attrs}",
            f"  iceberg cells: {self.num_iceberg_cells}",
            f"  persisted samples: {self.num_samples}",
            f"  global sample: {self.global_sample.size} tuples",
        ]
        for cell in list(self._cell_to_sample_id)[:limit]:
            lines.append(
                f"  {format_cell(cell)} -> sample {self._cell_to_sample_id[cell]}"
            )
        return "\n".join(lines)
