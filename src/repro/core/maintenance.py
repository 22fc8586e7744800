"""Incremental cube maintenance — append new data without a rebuild.

The paper initializes the sampling cube once; real dashboards sit on
tables that grow. This extension folds a batch of appended rows into an
initialized — or loaded — :class:`~repro.core.tabula.Tabula` while
*preserving the deterministic θ-guarantee*:

1. one pass over the delta computes its base-cuboid loss statistics and
   derives every affected cell's delta statistics (the same algebraic
   trick as the dry run — the raw table is never re-read);
2. each affected cell's loss against the (unchanged) global sample is
   recomputed from merged statistics:
   - loss ≤ θ and not materialized → nothing to do (global sample
     still valid — verified, not assumed);
   - loss ≤ θ but materialized → the cell is demoted to the global
     sample (its old sample is garbage-collected when orphaned);
   - loss > θ → the currently assigned sample (if any) is re-checked
     against the cell's *new* population; on violation — or if the cell
     was not materialized — a fresh local sample is drawn from the
     combined data.

Unaffected cells keep their previous certificates: their populations
did not change. The global sample itself is kept; Serfling's bound ties
its size to the relative-error target, not the table cardinality, so a
growing table does not invalidate it (the per-cell re-checks above are
what carry the guarantee).

Crash safety (the plan/apply split): maintenance is structured as a
pure planner — :func:`plan_append` computes every cell-level decision
*including the drawn sample indices* without touching the instance —
followed by an idempotent, convergent :func:`apply_plan`. With a
:class:`~repro.resilience.journal.MaintenanceJournal`,
:func:`append_rows` logs the full plan (post-states, not deltas)
before mutating and a commit marker after, so a crash at any point is
recoverable by :func:`recover_journal`: uncommitted plans are
re-applied (convergent — applying a plan twice yields the same cube),
and committed batch ids make re-submitting the same delta a no-op — a
batch is never double-applied.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.sampling import sample_with_pool
from repro.core.tabula import Tabula
from repro.engine.cube import CellKey, align_cell_key, grouping_sets
from repro.engine.groupby import group_rows
from repro.engine.table import Table
from repro.errors import TabulaError
from repro.resilience.checkpoint import (
    cell_from_json,
    cell_to_json,
    stats_from_json,
    stats_to_json,
)
from repro.resilience.faults import fault_point, register_fault_point
from repro.resilience.journal import MaintenanceJournal, canonical_json

FP_PLAN_LOGGED = register_fault_point(
    "maintain.journal.planned", "plan durably journaled, store untouched"
)
FP_APPLY_CONCAT = register_fault_point(
    "maintain.apply.concat", "before the delta is concatenated onto the raw table"
)
FP_APPLY_DECISION = register_fault_point(
    "maintain.apply.decision", "before applying one cell-level decision"
)
FP_COMMIT = register_fault_point(
    "maintain.commit", "store fully mutated, commit marker not yet journaled"
)


@dataclass(frozen=True)
class MaintenanceReport:
    """What one append did to the cube."""

    appended_rows: int
    affected_cells: int
    new_cells: int
    promoted_cells: int      # newly iceberg, fresh local sample drawn
    repaired_cells: int      # iceberg whose sample no longer satisfied θ
    retained_cells: int      # iceberg whose sample still satisfies θ
    demoted_cells: int       # fell back under θ, now served globally
    seconds: float


@dataclass(frozen=True)
class CellDecision:
    """The planned post-state of one affected cell.

    ``action`` is one of ``"demote"`` / ``"retain"`` / ``"resample"`` /
    ``"none"`` (loss ≤ θ, nothing materialized). ``stats`` and ``loss``
    are the cell's *merged* (post-append) statistics and loss — stored
    as absolutes so replaying the decision is convergent, never
    additive. ``sample_indices`` index into the combined (base + delta)
    table for ``"resample"`` decisions.
    """

    cell: CellKey
    action: str
    stats: tuple
    loss: float
    newly_known: bool
    #: whether the cell had a materialized sample when planned — splits
    #: ``"resample"`` into *repaired* (it did) vs *promoted* (it did not)
    #: in the report.
    was_materialized: bool = False
    sample_indices: Optional[Tuple[int, ...]] = None


@dataclass
class MaintenancePlan:
    """Everything :func:`apply_plan` needs, computed without mutation."""

    batch_id: str
    base_rows: int
    delta: Table
    seed: int
    decisions: List[CellDecision]

    @property
    def delta_rows(self) -> int:
        return self.delta.num_rows


def _batch_id(seed: int, delta: Table) -> str:
    """Content hash identifying one delta batch.

    Deliberately independent of the current table state: a client
    re-submitting the same batch after a crash-and-recover (when the
    base has already grown by exactly this delta) must land on the same
    id so the committed-batch ledger can de-duplicate it. Appending the
    same rows again *on purpose* through the same journal requires a
    fresh ``seed`` (or no journal).
    """
    from repro.core.persistence import table_to_json

    text = canonical_json({"seed": seed, "delta": table_to_json(delta)})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def batch_id_for(seed: int, delta: Table) -> str:
    """Public content-hash id of one (seed, delta) batch.

    The streaming-ingest recovery path uses this to ask the journal
    "is this WAL batch already committed?" *without* paying for a full
    :func:`plan_append` on a batch that will be skipped anyway.
    """
    return _batch_id(seed, delta)


def plan_append(tabula: Tabula, new_rows: Table, seed: int = 0) -> MaintenancePlan:
    """Compute the full maintenance plan for ``new_rows`` — pure.

    Nothing on ``tabula`` is mutated: the plan carries each affected
    cell's post-state (merged statistics, new loss, and — for cells
    needing a fresh sample — the drawn sample's row indices into the
    combined table), so applying it requires no further randomness.

    A restored (persisted) instance derives its dry-run statistics on
    this first call (:attr:`Tabula.dry_run_result`).

    Raises:
        CubeNotInitializedError: neither initialized nor restored.
        TabulaError: schema mismatch.
    """
    store = tabula.store  # raises CubeNotInitializedError when missing
    if new_rows.schema.names != tabula.table.schema.names:
        raise TabulaError(
            f"appended rows schema {new_rows.schema.names} does not match "
            f"the table schema {tabula.table.schema.names}"
        )
    config = tabula.config
    loss = config.loss
    attrs = config.cubed_attrs
    dry = tabula.dry_run_result
    rng = np.random.default_rng(seed)

    sample_values = loss.extract(store.global_sample.table)
    sample_summary = loss.prepare_sample(sample_values)

    # Stage 1: delta statistics, derived exactly like the dry run.
    delta_values = loss.extract(new_rows)
    base = group_rows(new_rows, attrs)
    base_keys = [base.decode_key(g) for g in range(base.num_groups)]
    base_stats = loss.group_stats(delta_values, sample_values, base.group_indices)
    positions = {attr: i for i, attr in enumerate(attrs)}
    delta_stats: Dict[CellKey, tuple] = {}
    for gset in grouping_sets(attrs):
        projector = [positions[a] for a in gset]
        for key, stats in zip(base_keys, base_stats):
            cell = align_cell_key(gset, tuple(key[p] for p in projector), attrs)
            if cell in delta_stats:
                delta_stats[cell] = loss.merge_stats(delta_stats[cell], stats)
            else:
                delta_stats[cell] = stats

    # Stage 2: decide per cell (no mutation; RNG consumed in the same
    # deterministic order the decisions are listed).
    combined = tabula.table.concat(new_rows)
    combined_values = loss.extract(combined)
    known: Set[CellKey] = set(dry.known_cells)
    decisions: List[CellDecision] = []
    for cell, delta in delta_stats.items():
        previous = dry.cell_stats.get(cell)
        merged = delta if previous is None else loss.merge_stats(previous, delta)
        cell_loss = loss.loss_from_stats(merged, sample_summary)
        newly_known = cell not in known
        if newly_known:
            known.add(cell)
        materialized = store.sample_id_of(cell) is not None
        if cell_loss <= config.threshold:
            action = "demote" if materialized else "none"
            decisions.append(
                CellDecision(cell, action, merged, cell_loss, newly_known, materialized)
            )
            continue
        # Iceberg (now or still): the materialized answer must be valid.
        cell_rows = _cell_population(combined, attrs, cell)
        cell_data = combined_values[cell_rows]
        assigned = store.lookup(cell)
        if assigned is not None and (
            loss.loss(cell_data, loss.extract(assigned)) <= config.threshold
        ):
            decisions.append(
                CellDecision(cell, "retain", merged, cell_loss, newly_known, materialized)
            )
            continue
        result = sample_with_pool(
            loss, cell_data, config.threshold, rng, pool_size=config.pool_size,
            lazy=config.lazy_sampling,
        )
        decisions.append(
            CellDecision(
                cell,
                "resample",
                merged,
                cell_loss,
                newly_known,
                materialized,
                sample_indices=tuple(int(i) for i in cell_rows[result.indices]),
            )
        )
    return MaintenancePlan(
        batch_id=_batch_id(seed, new_rows),
        base_rows=tabula.table.num_rows,
        delta=new_rows,
        seed=seed,
        decisions=decisions,
    )


def apply_plan(tabula: Tabula, plan: MaintenancePlan) -> None:
    """Apply a maintenance plan — idempotent and convergent.

    Safe to re-run after a crash at any point: the delta concat is
    guarded by row counts, statistics are written as absolutes, demotes
    are no-ops when already demoted, and re-drawing a planned sample
    re-materializes identical rows (sample ids may differ; logical
    content — what queries observe — does not).

    Raises:
        CubeNotInitializedError: neither initialized nor restored.
        TabulaError: the instance's table matches neither the plan's
            pre- nor post-state (the plan belongs to a different base).
    """
    store = tabula.store
    dry = tabula.dry_run_result  # before the delta concat below
    with tabula.write_lock:
        fault_point(FP_APPLY_CONCAT)
        if tabula.table.num_rows == plan.base_rows:
            tabula.table = tabula.table.concat(plan.delta)
        elif tabula.table.num_rows != plan.base_rows + plan.delta_rows:
            raise TabulaError(
                f"maintenance plan {plan.batch_id} expects a base of "
                f"{plan.base_rows} rows (or {plan.base_rows + plan.delta_rows} "
                f"after concat); the table has {tabula.table.num_rows}"
            )
        known: Set[CellKey] = set(dry.known_cells)
        for decision in plan.decisions:
            fault_point(FP_APPLY_DECISION)
            cell = decision.cell
            dry.cell_stats[cell] = decision.stats
            dry.cell_losses[cell] = decision.loss
            if decision.newly_known:
                known.add(cell)
                store.add_known_cell(cell)
            if decision.action == "demote":
                store.demote_to_global(cell)
            elif decision.action == "resample":
                indices = np.asarray(decision.sample_indices, dtype=np.int64)
                store.assign_new_sample(cell, tabula.table.take(indices))
            # "retain"/"none": certificates unchanged.
        dry.known_cells = frozenset(known)


def _report_from(plan: MaintenancePlan, seconds: float) -> MaintenanceReport:
    new_cells = promoted = repaired = retained = demoted = 0
    for d in plan.decisions:
        if d.newly_known:
            new_cells += 1
        if d.action == "demote":
            demoted += 1
        elif d.action == "retain":
            retained += 1
        elif d.action == "resample":
            if d.was_materialized:
                repaired += 1
            else:
                promoted += 1
    return MaintenanceReport(
        appended_rows=plan.delta_rows,
        affected_cells=len(plan.decisions),
        new_cells=new_cells,
        promoted_cells=promoted,
        repaired_cells=repaired,
        retained_cells=retained,
        demoted_cells=demoted,
        seconds=seconds,
    )


def append_rows(
    tabula: Tabula,
    new_rows: Table,
    seed: int = 0,
    journal: Optional[MaintenanceJournal] = None,
) -> MaintenanceReport:
    """Fold ``new_rows`` into an initialized or restored middleware instance.

    After this returns, ``tabula.table`` is the concatenation and every
    cube cell again satisfies ``loss(raw answer, returned sample) <= θ``.

    With a ``journal``, the append is crash-safe: the plan is durably
    logged before any mutation and committed after, and re-submitting a
    batch whose id is already committed returns the recorded report
    without touching the store (exactly-once application).

    Raises:
        CubeNotInitializedError: neither initialized nor restored.
        TabulaError: schema mismatch.
    """
    started = time.perf_counter()
    # One writer at a time: planning reads the table/store state that
    # apply mutates, so plan+apply must be atomic against other writers
    # (readers are unaffected — they ride the store's generation
    # counter). The RLock keeps direct apply_plan calls re-entrant.
    with tabula.write_lock:
        plan = plan_append(tabula, new_rows, seed)
        if journal is not None:
            if journal.is_committed(plan.batch_id):
                recorded = journal.committed_report(plan.batch_id)
                if recorded:
                    return MaintenanceReport(**recorded)
                return _report_from(plan, 0.0)
            journal.log_plan(plan.batch_id, _plan_payload(plan))
            fault_point(FP_PLAN_LOGGED)
        apply_plan(tabula, plan)
        report = _report_from(plan, time.perf_counter() - started)
        if journal is not None:
            fault_point(FP_COMMIT)
            journal.commit(plan.batch_id, asdict(report))
        return report


def recover_journal(tabula: Tabula, journal: MaintenanceJournal) -> List[MaintenanceReport]:
    """Replay logged-but-uncommitted maintenance batches after a crash.

    Each uncommitted plan is re-applied from its journaled post-states
    (no randomness is consumed) and then committed; the result converges
    to exactly the cube an uninterrupted :func:`append_rows` would have
    produced, whether the crash hit before, during, or after the
    original apply.

    Interior journal damage is *reported, never swallowed*: a plan whose
    batch id is journaled but whose payload fails its CRC (or any bad
    frame with durable records after it) raises a typed
    :class:`~repro.resilience.journal.JournalCorruptionError` (TAB509)
    naming the offending segment path — replaying a truncated prefix
    could silently drop a committed batch or half of one. A torn final
    line (the normal residue of a crash mid-append) still truncates
    benignly.

    Raises:
        JournalCorruptionError: the journal file is damaged beyond a
            torn tail; nothing is replayed.
    """
    journal.check_readable()
    reports: List[MaintenanceReport] = []
    with tabula.write_lock:
        for batch_id, payload in journal.uncommitted_plans():
            plan = _plan_from_payload(payload)
            apply_plan(tabula, plan)
            report = _report_from(plan, 0.0)
            journal.commit(batch_id, asdict(report))
            reports.append(report)
    return reports


def _plan_payload(plan: MaintenancePlan) -> dict:
    from repro.core.persistence import table_to_json

    return {
        "batch_id": plan.batch_id,
        "base_rows": plan.base_rows,
        "seed": plan.seed,
        "delta": table_to_json(plan.delta),
        "decisions": [
            {
                "cell": cell_to_json(d.cell),
                "action": d.action,
                "stats": stats_to_json(d.stats),
                "loss": d.loss,
                "newly_known": d.newly_known,
                "was_materialized": d.was_materialized,
                "sample_indices": list(d.sample_indices) if d.sample_indices else None,
            }
            for d in plan.decisions
        ],
    }


def _plan_from_payload(payload: dict) -> MaintenancePlan:
    from repro.core.persistence import table_from_json

    return MaintenancePlan(
        batch_id=payload["batch_id"],
        base_rows=payload["base_rows"],
        delta=table_from_json(payload["delta"]),
        seed=payload["seed"],
        decisions=[
            CellDecision(
                cell=cell_from_json(d["cell"]),
                action=d["action"],
                stats=stats_from_json(d["stats"]),
                loss=d["loss"],
                newly_known=d["newly_known"],
                was_materialized=d["was_materialized"],
                sample_indices=tuple(d["sample_indices"]) if d["sample_indices"] else None,
            )
            for d in payload["decisions"]
        ],
    )


def _cell_population(table: Table, attrs, cell: CellKey) -> np.ndarray:
    """Row indices of a cell's population in ``table``."""
    mask = np.ones(table.num_rows, dtype=bool)
    for attr, value in zip(attrs, cell):
        if value is None:
            continue
        col = table.column(attr)
        mask &= col.data == col.encode(value)
    return np.nonzero(mask)[0]
