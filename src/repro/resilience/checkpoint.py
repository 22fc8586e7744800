"""Resumable-initialization checkpoints.

``Tabula.initialize(checkpoint_dir=...)`` journals its progress here so
a build killed at any point resumes from the last completed cell
instead of restarting — the paper-scale build is on the order of an
hour, so losing it to a crash is the single most expensive failure the
middleware has.

Checkpoint directory layout::

    meta.json    fingerprint of (config, table) — a resumed build must
                 be byte-compatible with the one that started it
    dryrun.json  the global-sample indices + every cell's partition
                 statistics and loss from the dry run (stage 1)
    cells.log    append-only, CRC-framed: one record per materialized
                 iceberg cell (sample row indices + θ-certificate)

All single-file writes are atomic (:mod:`repro.resilience.atomic`);
``cells.log`` tolerates a torn tail (:class:`AppendOnlyLog`). Combined
with per-cell seeded randomness in the real run, a resumed build
produces a cube store *identical* to an uninterrupted one — a property
the fault-injection suite asserts at every registered fault point.
"""

from __future__ import annotations

import json
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.dryrun import DryRunResult
from repro.core.global_sample import GlobalSample
from repro.core.lattice import CuboidLattice, LatticeNode
from repro.engine.cube import CellKey, grouping_sets
from repro.engine.table import Table
from repro.errors import TabulaError
from repro.resilience.atomic import atomic_write_text
from repro.resilience.faults import fault_point, register_fault_point
from repro.resilience.journal import AppendOnlyLog, canonical_json

FP_META = register_fault_point(
    "init.checkpoint.meta", "before the checkpoint meta file is written"
)
FP_DRYRUN_SAVE = register_fault_point(
    "init.checkpoint.dryrun", "dry run finished, before its snapshot is persisted"
)
FP_CELL_RECORD = register_fault_point(
    "init.checkpoint.cell", "cell sampled, before its record is journaled"
)


class CheckpointError(TabulaError):
    """The checkpoint directory does not match the requested build."""


# ---------------------------------------------------------------------------
# JSON codecs for cells and nested statistics tuples
# ---------------------------------------------------------------------------


def cell_to_json(cell: CellKey) -> list:
    return list(cell)


def cell_from_json(values) -> CellKey:
    return tuple(values)


def stats_to_json(stats: tuple):
    """Nested tuples of floats → nested lists (JSON)."""
    if isinstance(stats, tuple):
        return [stats_to_json(s) for s in stats]
    return stats


def stats_from_json(payload) -> tuple:
    if isinstance(payload, list):
        return tuple(stats_from_json(p) for p in payload)
    return payload


def table_fingerprint(table: Table) -> dict:
    """Cheap content digest used to detect a mismatched resume."""
    crc = 0
    for col in table.columns():
        crc = zlib.crc32(col.name.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(col.data).tobytes(), crc)
    return {"num_rows": table.num_rows, "crc32": crc}


def rng_for_cell(seed: int, cell: CellKey) -> np.random.Generator:
    """Per-cell generator: sampling order no longer matters, so a build
    resumed mid-real-run draws exactly what the uninterrupted build
    would have drawn for each remaining cell."""
    cell_crc = zlib.crc32(repr(cell).encode("utf-8"))
    return np.random.default_rng([seed & 0xFFFFFFFF, cell_crc])


@dataclass(frozen=True)
class CellRecord:
    """One completed cell: its sample and its θ-certificate."""

    cell: CellKey
    sample_indices: np.ndarray  # raw-table row indices
    achieved_loss: float
    rounds: int
    evaluations: int


# ---------------------------------------------------------------------------
# Dry-run snapshot
# ---------------------------------------------------------------------------


def dryrun_to_snapshot(dry: DryRunResult) -> dict:
    """Serialize the partition statistics the dry run certified.

    Iteration order of ``cell_stats`` is preserved: the real run's
    per-cuboid cell order (and therefore representative selection)
    must match between a fresh and a resumed build.
    """
    return {
        "attrs": list(dry.attrs),
        "threshold": dry.threshold,
        "cells": [
            {
                "cell": cell_to_json(cell),
                "stats": stats_to_json(stats),
                "loss": dry.cell_losses[cell],
            }
            for cell, stats in dry.cell_stats.items()
        ],
        "seconds": dry.seconds,
    }


def dryrun_from_snapshot(snapshot: dict) -> DryRunResult:
    """Rebuild a :class:`DryRunResult` equivalent to the original."""
    attrs = tuple(snapshot["attrs"])
    threshold = snapshot["threshold"]
    cell_stats: Dict[CellKey, tuple] = {}
    cell_losses: Dict[CellKey, float] = {}
    iceberg_stats: Dict[CellKey, tuple] = {}
    iceberg_by_cuboid: Dict[Tuple[str, ...], list] = {g: [] for g in grouping_sets(attrs)}
    cell_counts: Dict[Tuple[str, ...], int] = {g: 0 for g in grouping_sets(attrs)}
    for entry in snapshot["cells"]:
        cell = cell_from_json(entry["cell"])
        stats = stats_from_json(entry["stats"])
        loss = entry["loss"]
        gset = tuple(a for a, v in zip(attrs, cell) if v is not None)
        cell_stats[cell] = stats
        cell_losses[cell] = loss
        cell_counts[gset] += 1
        if loss > threshold:
            iceberg_stats[cell] = stats
            iceberg_by_cuboid[gset].append(cell)
    nodes = {
        gset: LatticeNode(
            grouping_set=gset,
            total_cells=cell_counts[gset],
            iceberg_cells=len(iceberg_by_cuboid[gset]),
        )
        for gset in grouping_sets(attrs)
    }
    return DryRunResult(
        attrs=attrs,
        threshold=threshold,
        lattice=CuboidLattice(attrs, nodes),
        iceberg_stats=iceberg_stats,
        iceberg_cells_by_cuboid=iceberg_by_cuboid,
        cell_counts=cell_counts,
        known_cells=frozenset(cell_stats),
        cell_losses=cell_losses,
        cell_stats=cell_stats,
        seconds=snapshot.get("seconds", 0.0),
    )


# ---------------------------------------------------------------------------
# The checkpoint itself
# ---------------------------------------------------------------------------


class InitCheckpoint:
    """Progress journal for one ``initialize()`` build."""

    META = "meta.json"
    DRYRUN = "dryrun.json"
    CELLS = "cells.log"

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self._cells_log = AppendOnlyLog(self.directory / self.CELLS)

    # -- lifecycle ----------------------------------------------------------
    def open(self, fingerprint: dict) -> None:
        """Create the checkpoint, or validate it matches ``fingerprint``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        meta_path = self.directory / self.META
        if meta_path.exists():
            try:
                existing = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint meta {meta_path}: {exc}"
                ) from None
            if canonical_json(existing.get("fingerprint")) != canonical_json(fingerprint):
                raise CheckpointError(
                    f"checkpoint at {self.directory} belongs to a different build "
                    "(config or table changed); discard it or use a fresh directory"
                )
            return
        fault_point(FP_META)
        atomic_write_text(meta_path, json.dumps({"version": 1, "fingerprint": fingerprint}))

    def discard(self) -> None:
        """Remove the checkpoint (call once the built cube is durable)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- dry run ------------------------------------------------------------
    def save_dryrun(self, global_sample: GlobalSample, dry: DryRunResult) -> None:
        fault_point(FP_DRYRUN_SAVE)
        payload = {
            "global_sample": {
                "indices": global_sample.indices.tolist(),
                "epsilon": global_sample.epsilon,
                "delta": global_sample.delta,
            },
            "dryrun": dryrun_to_snapshot(dry),
        }
        atomic_write_text(self.directory / self.DRYRUN, json.dumps(payload))

    def load_dryrun(self, table: Table) -> Optional[Tuple[GlobalSample, DryRunResult]]:
        path = self.directory / self.DRYRUN
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            # An atomic write can't produce this; treat a hand-damaged
            # snapshot as absent so the build redoes stage 1.
            return None
        gs = payload["global_sample"]
        indices = np.asarray(gs["indices"], dtype=np.int64)
        global_sample = GlobalSample(
            table=table.take(indices),
            indices=indices,
            epsilon=gs["epsilon"],
            delta=gs["delta"],
        )
        return global_sample, dryrun_from_snapshot(payload["dryrun"])

    # -- real run -----------------------------------------------------------
    def record_entry(self, entry) -> None:
        """Durably record one completed cell (sample + certificate) —
        ``real_run``'s ``on_cell`` hook; ``entry`` is its
        :class:`~repro.core.realrun.IcebergCellEntry`."""
        fault_point(FP_CELL_RECORD)
        self._cells_log.append(
            {
                "cell": cell_to_json(entry.key),
                "sample_indices": np.asarray(entry.sample_indices, dtype=np.int64).tolist(),
                "achieved_loss": entry.sampling.achieved_loss,
                "rounds": entry.sampling.rounds,
                "evaluations": entry.sampling.evaluations,
            }
        )

    def completed_cells(self) -> Dict[CellKey, CellRecord]:
        """Every durably recorded cell (later records win on duplicates)."""
        completed: Dict[CellKey, CellRecord] = {}
        for record in self._cells_log.read().records:
            cell = cell_from_json(record["cell"])
            completed[cell] = CellRecord(
                cell=cell,
                sample_indices=np.asarray(record["sample_indices"], dtype=np.int64),
                achieved_loss=record["achieved_loss"],
                rounds=record["rounds"],
                evaluations=record["evaluations"],
            )
        return completed
