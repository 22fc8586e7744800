"""The Tabula middleware facade.

Ties the pipeline together: global sample → dry run → real run →
representative sample selection → physical cube store, then serves
dashboard queries by direct lookup with the deterministic guarantee
``loss(raw answer, returned sample) <= θ`` (100 % confidence).

``Tabula*`` — the paper's no-sample-selection variant — is this class
with ``TabulaConfig.sample_selection=False``.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import parallel, spatial
from repro.core.cube_store import MemoryBreakdown, SamplingCubeStore
from repro.core.dryrun import DryRunResult, dry_run
from repro.core.global_sample import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    draw_global_sample,
)
from repro.core.lattice import CuboidLattice
from repro.core.loss.base import LossFunction
from repro.core.realrun import RealRunResult, real_run
from repro.core.samgraph import build_samgraph
from repro.core.selection import select_representatives
from repro.engine.cube import CellKey
from repro.engine.expressions import (
    Predicate,
    conjunction_to_equalities,
    conjunction_to_equality_sets,
)
from repro.engine.table import Table
from repro.errors import CubeNotInitializedError, DeadlineExceeded, InvalidQueryError
from repro.resilience.checkpoint import InitCheckpoint, table_fingerprint
from repro.resilience.deadline import Deadline
from repro.resilience.faults import fault_point, register_fault_point

FP_GLOBAL_SAMPLE = register_fault_point(
    "init.global_sample.drawn", "global sample drawn, dry run not started"
)
FP_SELECTION_DONE = register_fault_point(
    "init.selection.done", "representatives selected, store not yet assembled"
)
FP_REBIND_SCAN = register_fault_point(
    "query.rebind.raw_scan",
    "before the single-cell raw scan that re-verifies a surviving "
    "representative for a degraded cell",
)


@dataclass
class TabulaConfig:
    """User-facing initialization parameters (Section II).

    Attributes:
        cubed_attrs: attributes queries will filter on.
        threshold: the accuracy loss threshold θ.
        loss: the bound user-defined accuracy loss function.
        epsilon / delta: Serfling parameters for the global sample size.
        lazy_sampling: lazy-forward (default) vs naive greedy sampling.
        sample_selection: disable to get the paper's Tabula* variant.
        pool_size: candidate-pool cap for greedy sampling on large cells.
        seed: randomness seed (global sample; per-cell candidate pools).
        degraded_rebind: when a cell's sample is missing/corrupt, try to
            re-verify a surviving representative against the cell's raw
            population before downgrading (self-healing; costs one raw
            scan of the affected cell only). A cell the rebind cannot
            heal answers from the global sample (``DOWNGRADED``).
    """

    cubed_attrs: Tuple[str, ...]
    threshold: float
    loss: LossFunction
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA
    lazy_sampling: bool = True
    sample_selection: bool = True
    pool_size: Optional[int] = 2000
    seed: int = 0
    degraded_rebind: bool = True

    def __post_init__(self):
        # ``not > 0`` also rejects NaN, which every ``loss > θ`` iceberg
        # test would read as "no cell is iceberg".
        if not self.threshold > 0:
            raise ValueError(f"threshold θ must be > 0, got {self.threshold}")


@dataclass
class InitializationReport:
    """Timings and counts for the three initialization stages (Figure 8)."""

    dry_run_seconds: float
    real_run_seconds: float
    selection_seconds: float
    total_seconds: float
    num_cells: int
    num_iceberg_cells: int
    num_iceberg_cuboids: int
    num_local_samples: int
    num_representatives: int
    global_sample_size: int
    lattice: CuboidLattice
    #: per-stage fan-out records (:class:`~repro.core.parallel.PoolExecution`)
    #: of a ``workers=`` build; ``None`` when the stage ran in this process
    #: without a pool (or was loaded from a checkpoint).
    dry_run_execution: Optional[object] = None
    real_run_execution: Optional[object] = None


class GuaranteeStatus(enum.Enum):
    """Whether the θ-certificate held for one query's answer.

    The query path *never* silently returns an unguaranteed answer: any
    fallback below a certified sample is recorded here.

    - ``CERTIFIED`` — ``loss(raw answer, returned sample) <= θ`` holds
      by construction (materialized sample, a representative re-verified
      against the cell's rows, the global sample for a certified
      non-iceberg cell, or an exact empty answer for an empty
      population);
    - ``DOWNGRADED`` — the certificate is void but an honest approximate
      answer was still served (e.g. the global sample for an iceberg
      cell whose local sample was lost to corruption);
    - ``VOID`` — no answer could be produced; the returned table is a
      placeholder and must not be trusted.
    """

    CERTIFIED = "certified"
    DOWNGRADED = "downgraded"
    VOID = "void"

    @property
    def rank(self) -> int:
        return ("certified", "downgraded", "void").index(self.value)

    @classmethod
    def worst(cls, statuses) -> "GuaranteeStatus":
        """The weakest status in an iterable (for union answers)."""
        worst = cls.CERTIFIED
        for status in statuses:
            if status.rank > worst.rank:
                worst = status
        return worst


@dataclass
class QueryResult:
    """One dashboard interaction's answer.

    ``source`` is ``"local"`` (a materialized representative sample),
    ``"global"`` (the global sample), ``"representative"`` (a surviving
    representative re-verified for a degraded cell), ``"empty"`` (the
    selected population has no rows), or ``"void"`` (degraded cell with
    every fallback exhausted). ``guarantee`` records whether the
    θ-certificate held for this answer; ``detail`` carries the
    degradation reason when it did not.
    ``spatial_filtered`` records that a geometry predicate was applied
    to the returned sample (viewport queries); an answer that could not
    honor a requested filter never sets it silently — it raises instead.
    """

    sample: Table
    source: str
    cell: CellKey
    data_system_seconds: float
    guarantee: GuaranteeStatus = GuaranteeStatus.CERTIFIED
    detail: str = ""
    spatial_filtered: bool = False


#: Why a spatially filtered certified sample loses its certificate.
_SPATIAL_DETAIL = (
    "spatial filter selects a strict subset of the certified sample; "
    "the θ-certificate does not cover the filtered estimator"
)


def _cartesian_queries(sets: Mapping[str, list]):
    """Expand ``{attr: [values]}`` into one equality query per cube cell."""
    from itertools import product

    attrs = list(sets)
    return [
        dict(zip(attrs, combo)) for combo in product(*(sets[a] for a in attrs))
    ]


class Tabula:
    """Middleware between a SQL data system and a visualization dashboard."""

    def __init__(self, table: Table, config: TabulaConfig):
        config.loss.extract(table.head(0))  # fail fast on bad target attrs
        table.schema.require(config.cubed_attrs)
        self.table = table
        self.config = config
        self._store: Optional[SamplingCubeStore] = None
        self._report: Optional[InitializationReport] = None
        self._dry: Optional[DryRunResult] = None
        self._real: Optional[RealRunResult] = None
        # Serializes mutating maintenance (append_rows / apply_plan /
        # recover_journal) against each other; readers stay lock-free
        # and rely on the store's generation counter instead.
        self.write_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Initialization (the CREATE TABLE ... GROUPBY CUBE ... query)
    # ------------------------------------------------------------------
    def initialize(
        self,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        workers: Optional[int] = None,
    ) -> InitializationReport:
        """Build the partially materialized sampling cube.

        One pipeline — global sample, dry run, real run (Algorithm 2),
        representative selection — whatever the arguments. The cube is
        a function of ``(table, config)``: the global sample is drawn
        from ``default_rng(seed)`` and every iceberg cell from its own
        ``rng_for_cell(seed, cell)`` stream, so a plain, a checkpointed
        and a killed-and-resumed build have equal ``content_digest()``,
        as do ``workers=`` builds for any count.

        Args:
            checkpoint_dir: when given, the build journals its progress
                there (the dry-run result, then one record per sampled
                cell) and a killed build *resumes* from the last
                completed cell on the next call with the same
                directory: the global sample and dry run are loaded
                instead of redone and recorded cells are adopted instead
                of re-drawn. Discard the directory once the cube is
                persisted
                (:meth:`repro.resilience.checkpoint.InitCheckpoint.discard`).
            workers: ``None`` (default) runs both stages in this
                process. Any integer ``>= 1`` hands their decomposable
                halves — the dry run's partition map over the fixed
                16-partition grid, the real run's per-cell sampling — to
                a worker pool (:mod:`repro.core.parallel`).
                ``workers=1`` and ``workers=8`` persist byte-identical
                cubes, and a checkpoint written under one count resumes
                under any other. Against ``workers=None`` only the grid
                differs (1 partition vs 16), which may move a float sum
                by its last ulp.
        """
        cfg = self.config
        started = time.perf_counter()

        # The two hooks. ``workers`` binds a pool into the stage
        # functions; ``checkpoint_dir`` supplies finished work and
        # records new work. Neither changes what is computed.
        run_dry, run_real = dry_run, real_run
        if workers is not None:
            parallel.check_workers(workers)
            run_dry = partial(parallel.parallel_dry_run, workers=workers)
            run_real = partial(parallel.parallel_real_run, workers=workers)
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = InitCheckpoint(checkpoint_dir)
            checkpoint.open(self._checkpoint_fingerprint())

        loaded = checkpoint.load_dryrun(self.table) if checkpoint else None
        if loaded is not None:
            global_sample, dry = loaded
        else:
            global_sample = draw_global_sample(
                self.table, np.random.default_rng(cfg.seed), cfg.epsilon, cfg.delta
            )
            fault_point(FP_GLOBAL_SAMPLE)
            dry = run_dry(self.table, cfg.cubed_attrs, cfg.loss, cfg.threshold, global_sample)
            if checkpoint:
                checkpoint.save_dryrun(global_sample, dry)
        real = run_real(
            self.table,
            dry,
            cfg.loss,
            cfg.seed,
            lazy=cfg.lazy_sampling,
            pool_size=cfg.pool_size,
            completed=checkpoint.completed_cells() if checkpoint else None,
            on_cell=checkpoint.record_entry if checkpoint else None,
        )

        selection_seconds = 0.0
        if cfg.sample_selection and real.cells:
            graph = build_samgraph(self.table, real.cells, cfg.loss, cfg.threshold)
            selection = select_representatives(graph)
            selection_seconds = graph.seconds + selection.seconds
            sample_ids = {rep: sid for sid, rep in enumerate(selection.representatives)}
            cell_to_sample = {
                real.cells[v].key: sample_ids[selection.assignment[v]]
                for v in range(len(real.cells))
            }
            samples = {
                sid: self.table.take(real.cells[rep].sample_indices)
                for rep, sid in sample_ids.items()
            }
        else:
            cell_to_sample = {
                cell.key: sid for sid, cell in enumerate(real.cells)
            }
            samples = {
                sid: self.table.take(cell.sample_indices)
                for sid, cell in enumerate(real.cells)
            }
        fault_point(FP_SELECTION_DONE)

        self._store = SamplingCubeStore(
            attrs=cfg.cubed_attrs,
            global_sample=global_sample,
            cell_to_sample_id=cell_to_sample,
            samples=samples,
            known_cells=dry.known_cells,
        )
        self._dry = dry
        self._real = real
        self._report = InitializationReport(
            dry_run_seconds=dry.seconds,
            real_run_seconds=real.seconds,
            selection_seconds=selection_seconds,
            total_seconds=time.perf_counter() - started,
            num_cells=len(dry.known_cells),
            num_iceberg_cells=dry.num_iceberg_cells,
            num_iceberg_cuboids=len(dry.lattice.iceberg_cuboids()),
            num_local_samples=len(real.cells),
            num_representatives=len(samples),
            global_sample_size=global_sample.size,
            lattice=dry.lattice,
            dry_run_execution=dry.execution,
            real_run_execution=real.execution,
        )
        return self._report

    def _checkpoint_fingerprint(self) -> Dict[str, object]:
        """What must match for a checkpointed build to be resumable."""
        cfg = self.config
        return {
            "attrs": list(cfg.cubed_attrs),
            "threshold": cfg.threshold,
            "loss": cfg.loss.name,
            "target_attrs": list(cfg.loss.target_attrs),
            "epsilon": cfg.epsilon,
            "delta": cfg.delta,
            "lazy_sampling": cfg.lazy_sampling,
            "sample_selection": cfg.sample_selection,
            "pool_size": cfg.pool_size,
            "seed": cfg.seed,
            "table": table_fingerprint(self.table),
        }

    def attach_store(self, store: SamplingCubeStore) -> None:
        """Adopt an externally built (e.g. persisted) sampling cube.

        Used by :mod:`repro.core.persistence` to restore a middleware
        instance without re-running initialization. Stage-level
        diagnostics (:attr:`report`, :attr:`real_run_result`) remain
        unavailable on a restored instance; :attr:`dry_run_result` is
        derived on first use.
        """
        if tuple(store.attrs) != tuple(self.config.cubed_attrs):
            raise InvalidQueryError(
                f"store attrs {store.attrs} do not match config "
                f"{self.config.cubed_attrs}"
            )
        self._store = store

    # ------------------------------------------------------------------
    # Query path (SELECT sample FROM cube WHERE ...)
    # ------------------------------------------------------------------
    def query(
        self,
        where: Union[Predicate, Mapping[str, object], None],
        deadline: Optional[Deadline] = None,
        geometry: Optional[spatial.GeometrySpec] = None,
    ) -> QueryResult:
        """Answer one dashboard interaction from the materialized cube.

        Args:
            where: either a mapping ``{attr: value}`` over (a subset of)
                the cubed attributes, or an equality-conjunction
                predicate, or ``None`` for the whole table.
            deadline: optional request budget, checked before the
                cube lookup. The cheap rungs (sample / global lookups)
                always run; a degraded cell's rebind scan is skipped once
                the budget is spent — the answer then falls to the global
                sample with an honest downgrade, or the query raises
                :class:`~repro.errors.DeadlineExceeded` when no rung is
                left.
            geometry: optional spatial predicate (viewport) applied to
                the answer rows — a :class:`~repro.core.spatial.Geometry`,
                a bbox string ``"xmin,ymin,xmax,ymax"`` or a geometry
                dict (:func:`~repro.core.spatial.parse_geometry`). The
                answer keeps its :class:`GuaranteeStatus` only when the
                geometry retains every row of the certified sample (or
                the answer is exact); a strict subset downgrades —
                the θ-certificate does not cover filtered estimators.

        Raises:
            CubeNotInitializedError: before :meth:`initialize`.
            InvalidQueryError: when the WHERE clause is not a pure
                equality conjunction over the cubed attributes, the
                geometry is malformed (TAB701) or the table carries no
                spatial columns (TAB702).
            DeadlineExceeded: the deadline expired and no fallback rung
                could answer within it.
        """
        store = self._require_store()
        geom = self._parse_viewport(geometry) if geometry is not None else None
        if isinstance(where, Predicate):
            flattened = conjunction_to_equalities(where)
            if flattened is None:
                sets = conjunction_to_equality_sets(where)
                if sets is not None:
                    return self.query_union(
                        _cartesian_queries(sets),
                        deadline=deadline,
                        geometry=geom,
                    )
        started = time.perf_counter()
        if deadline is not None:
            deadline.check("before the cube lookup")
        cell = self._cell_for(where)
        sample_id = store.sample_id_of(cell)
        if sample_id is not None:
            generation = store.generation
            sample = store.sample_for_id(sample_id)
            if sample is None:
                # Concurrent maintenance may have swapped the cell's
                # sample between the two reads (pointer updated, old
                # sample collected). Re-resolve once before concluding
                # the store is damaged: a cell with a valid pre-swap
                # sample must never degrade because of a racing append
                # (maintenance has one writer, the write lock). An
                # unchanged pointer in an unchanged generation is
                # genuinely dangling, not racing; a vanished pointer
                # (demoted/degraded mid-read) leaves it to the ladder.
                refreshed = store.sample_id_of(cell)
                if refreshed is not None and (
                    refreshed != sample_id or store.generation != generation
                ):
                    sample_id = refreshed
                    sample = store.sample_for_id(refreshed)
            if sample is not None:
                return self._answer(cell, started, "local", sample, geom)
            # Dangling sample id (corruption survivor): degrade rather
            # than raise — the dashboard still gets an honest answer.
            store.mark_degraded(cell, f"sample {sample_id} is missing from the store")
        if store.is_degraded(cell):
            return self._degraded_answer(cell, started, deadline=deadline, geometry=geom)
        if store.is_known_cell(cell):
            return self._answer(cell, started, "global", store.global_sample.table, geom)
        return self._answer(cell, started, "empty", Table.empty_like(self.table), geom)

    def query_many(
        self,
        wheres: Sequence[Union[Predicate, Mapping[str, object], None]],
        deadline: Optional[Deadline] = None,
        geometry: Optional[spatial.GeometrySpec] = None,
    ) -> List[QueryResult]:
        """Answer a batch of dashboard interactions (a viewport's cells).

        Exactly ``[self.query(w, ...) for w in wheres]`` — the same
        per-cell ladder, so samples, sources, :class:`GuaranteeStatus`
        values, retries, downgrades and exceptions are those of
        :meth:`query` by construction. The batch shares one ``deadline``
        and one ``geometry`` (the viewport all cells are fetched for),
        which is parsed and validated once, before the first item.
        """
        self._require_store()
        geom = self._parse_viewport(geometry) if geometry is not None else None
        return [
            self.query(where, deadline=deadline, geometry=geom)
            for where in wheres
        ]

    def _answer(
        self,
        cell: CellKey,
        started: float,
        source: str,
        sample: Table,
        geometry: Optional[spatial.Geometry],
        guarantee: GuaranteeStatus = GuaranteeStatus.CERTIFIED,
        detail: str = "",
    ) -> QueryResult:
        """The one place a rung's ``(sample, source)`` becomes a result.

        With a ``geometry`` the sample is filtered here. A strict subset
        voids a certified sample's θ-certificate.
        """
        if geometry is not None and source not in ("empty", "void"):
            store = self._require_store()
            if source == "global":
                sample, covers = store.filtered_global(geometry)
            else:
                sample, covers = store.spatial_filter(sample, geometry)
            if not covers and guarantee is GuaranteeStatus.CERTIFIED:
                guarantee = GuaranteeStatus.DOWNGRADED
                detail = f"{detail}; {_SPATIAL_DETAIL}" if detail else _SPATIAL_DETAIL
        return QueryResult(
            sample=sample,
            source=source,
            cell=cell,
            data_system_seconds=time.perf_counter() - started,
            guarantee=guarantee,
            detail=detail,
            spatial_filtered=geometry is not None,
        )

    def _degraded_answer(
        self,
        cell: CellKey,
        started: float,
        deadline: Optional[Deadline] = None,
        geometry: Optional[spatial.Geometry] = None,
    ) -> QueryResult:
        """The fallback ladder for a cell whose certified sample is gone.

        Rebind (when ``degraded_rebind``) → global sample → ``VOID``,
        with :class:`GuaranteeStatus` recording how far the answer fell.
        The rebind re-verifies a surviving representative against the
        cell's raw rows and answers CERTIFIED; it is skipped once the
        ``deadline`` has expired, and a raw-backend failure (``OSError``)
        is noted in the detail rather than raised. The global sample
        answers honestly but ``DOWNGRADED``. The ladder only raises when
        the deadline (not the data) is what prevented an answer;
        otherwise the worst outcome is an explicit ``VOID``.
        """
        store = self._require_store()
        reason = store.degraded_reason(cell) or "sample unavailable"
        notes: List[str] = []
        deadline_cut = False
        if self.config.degraded_rebind:
            if deadline is not None and deadline.expired:
                deadline_cut = True
                notes.append("rebind scan skipped: deadline expired")
            else:
                try:
                    fault_point(FP_REBIND_SCAN)
                    raw_indices = self._cell_row_indices(cell)
                except OSError as exc:
                    notes.append(f"rebind scan failed: {exc}")
                else:
                    rebound = self._rebind(store, cell, raw_indices)
                    if rebound is not None:
                        sid, sample = rebound
                        return self._answer(
                            cell,
                            started,
                            "representative",
                            sample,
                            geometry,
                            detail=f"rebound to re-verified sample {sid} after: {reason}",
                        )
        if store.global_sample.size:
            return self._answer(
                cell,
                started,
                "global",
                store.global_sample.table,
                geometry,
                guarantee=GuaranteeStatus.DOWNGRADED,
                detail="; ".join([f"θ-certificate void for this cell: {reason}", *notes]),
            )
        if deadline_cut:
            raise DeadlineExceeded(
                f"deadline expired before any fallback rung could answer "
                f"cell {cell!r} ({reason})",
                elapsed=time.perf_counter() - started,
            )
        return self._answer(
            cell,
            started,
            "void",
            Table.empty_like(self.table),
            geometry,
            guarantee=GuaranteeStatus.VOID,
            detail="; ".join([f"no fallback could answer this cell: {reason}", *notes]),
        )

    def _rebind(
        self, store: SamplingCubeStore, cell: CellKey, raw_indices: np.ndarray
    ) -> Optional[Tuple[int, Table]]:
        """Point ``cell`` at the first stored sample that is within θ of
        its raw rows (``raw_indices``); ``None`` when none is."""
        cfg = self.config
        if not raw_indices.size:
            return None
        cell_values = cfg.loss.extract(self.table.take(raw_indices))
        for sid, sample in store.sample_table_entries():
            if cfg.loss.loss(cell_values, cfg.loss.extract(sample)) <= cfg.threshold:
                store.reassign(cell, sid)
                return sid, sample
        return None

    def query_union(
        self,
        cell_queries,
        deadline: Optional[Deadline] = None,
        geometry: Optional[spatial.GeometrySpec] = None,
    ) -> QueryResult:
        """Answer a query covering several cube cells at once (extension).

        ``IN`` predicates over cubed attributes select a *union* of cube
        cells; when the loss function is union-safe (the average-min-
        distance family) the concatenation of the per-cell answers is
        itself a θ-bounded sample of the union. Other losses reject the
        query — their per-cell bounds do not compose.

        Args:
            cell_queries: equality mappings, one per covered cell.
        """
        store = self._require_store()
        if not self.config.loss.union_safe:
            raise InvalidQueryError(
                f"loss {self.config.loss.name!r} does not support IN-queries: a "
                "union of per-cell samples carries no θ bound for this loss"
            )
        started = time.perf_counter()
        pieces = []
        cells = []
        statuses = []
        details = []
        spatial_filtered = False
        for query in cell_queries:
            result = self.query(query, deadline=deadline, geometry=geometry)
            spatial_filtered = spatial_filtered or result.spatial_filtered
            cells.append(result.cell)
            statuses.append(result.guarantee)
            if result.detail:
                details.append(result.detail)
            if result.source not in ("empty", "void"):
                pieces.append(result.sample)
        if pieces:
            combined = pieces[0]
            for piece in pieces[1:]:
                combined = combined.concat(piece)
            source = "union"
        else:
            combined = Table.empty_like(self.table)
            source = "empty"
        return QueryResult(
            sample=combined,
            source=source,
            cell=cells[0] if len(cells) == 1 else tuple(cells),
            data_system_seconds=time.perf_counter() - started,
            guarantee=GuaranteeStatus.worst(statuses),
            detail="; ".join(details),
            spatial_filtered=spatial_filtered,
        )

    def explain(self, where: Union[Predicate, Mapping[str, object], None]) -> Dict[str, object]:
        """Describe how a query would be answered, without answering it.

        Returns a dict with the resolved ``cell``, the answer ``source``
        (local/global/empty), the ``sample_id`` for local answers, the
        returned sample size, and — when initialization diagnostics are
        available — the ``certified_loss`` the dry run recorded for the
        cell against the global sample (the quantity compared to θ when
        deciding iceberg-ness).
        """
        store = self._require_store()
        cell = self._cell_for(where)
        sample_id = store.sample_id_of(cell)
        sample = store.sample_for_id(sample_id) if sample_id is not None else None
        if sample is not None:
            source = "local"
            rows = sample.num_rows
        elif sample_id is not None or store.is_degraded(cell):
            source = "degraded"
            rows = None
        elif store.is_known_cell(cell):
            source = "global"
            rows = store.global_sample.size
        else:
            source = "empty"
            rows = 0
        certified = None
        if self._dry is not None:
            certified = self._dry.cell_losses.get(cell)
        return {
            "cell": cell,
            "source": source,
            "sample_id": sample_id,
            "answer_rows": rows,
            "threshold": self.config.threshold,
            "certified_loss": certified,
            "degraded_reason": store.degraded_reason(cell) or None,
        }

    def raw_answer(self, where: Union[Predicate, Mapping[str, object], None]) -> Table:
        """The exact query result from the raw table (for accuracy checks).

        This is what the dashboard *would* get without Tabula — a full
        scan; benchmarks use it to compute the actual accuracy loss of
        returned samples.
        """
        cell = self._cell_for(where)
        return self.table.take(self._cell_row_indices(cell))

    def _cell_row_indices(self, cell: CellKey) -> np.ndarray:
        """Raw-table row indices of a cell's population."""
        mask = np.ones(self.table.num_rows, dtype=bool)
        for attr, value in zip(self.config.cubed_attrs, cell):
            if value is None:
                continue
            col = self.table.column(attr)
            mask &= col.data == col.encode(value)
        return np.nonzero(mask)[0]

    def actual_loss(self, where: Union[Predicate, Mapping[str, object], None]) -> float:
        """The realized ``loss(raw answer, returned sample)`` for a query."""
        result = self.query(where)
        raw = self.raw_answer(where)
        return self.config.loss.loss_tables(raw, result.sample)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> SamplingCubeStore:
        return self._require_store()

    @property
    def report(self) -> InitializationReport:
        if self._report is None:
            raise CubeNotInitializedError("call initialize() first")
        return self._report

    @property
    def dry_run_result(self) -> DryRunResult:
        """The dry run's per-cell statistics. A loaded instance derives them
        on first use: they are algebraic over the raw table and the global
        sample (Section III-B1)."""
        if self._dry is None:
            store = self._require_store()
            with self.write_lock:
                if self._dry is None:
                    cfg = self.config
                    self._dry = dry_run(
                        self.table, cfg.cubed_attrs, cfg.loss, cfg.threshold,
                        store.global_sample,
                    )
        return self._dry

    @property
    def real_run_result(self) -> RealRunResult:
        if self._real is None:
            raise CubeNotInitializedError("call initialize() first")
        return self._real

    def memory_breakdown(self) -> MemoryBreakdown:
        return self._require_store().memory_breakdown()

    def _parse_viewport(self, geometry: spatial.GeometrySpec) -> spatial.Geometry:
        """Parse a geometry (TAB701) for a table that has the spatial columns (TAB702)."""
        geom = spatial.parse_geometry(geometry)
        missing = [
            c
            for c in (spatial.SPATIAL_X, spatial.SPATIAL_Y)
            if c not in self.table.column_names
        ]
        if missing:
            raise spatial.GeometryError(
                f"table has no spatial columns {missing}; geometry queries "
                f"require {spatial.SPATIAL_X!r} and {spatial.SPATIAL_Y!r}",
                code=spatial.TAB702_NOT_SPATIAL,
            )
        return geom

    # ------------------------------------------------------------------
    def _require_store(self) -> SamplingCubeStore:
        if self._store is None:
            raise CubeNotInitializedError(
                "the sampling cube has not been initialized; run the "
                "CREATE TABLE ... GROUPBY CUBE(...) query (initialize()) first"
            )
        return self._store

    def cell_for(self, where: Union[Predicate, Mapping[str, object], None]) -> CellKey:
        """Resolve (and validate) the cube cell a WHERE clause addresses.

        Public for the serving router, which must place a request on a
        shard — :meth:`Placement.shard_of(cell) <repro.serving.placement.Placement.shard_of>`
        — before any store lookup happens.  Raises
        :class:`~repro.errors.InvalidQueryError` exactly as a query
        would, so the router can reject bad requests without an RPC.
        """
        return self._cell_for(where)

    def _cell_for(self, where: Union[Predicate, Mapping[str, object], None]) -> CellKey:
        if where is None:
            equalities: Mapping[str, object] = {}
        elif isinstance(where, Predicate):
            flattened = conjunction_to_equalities(where)
            if flattened is None:
                raise InvalidQueryError(
                    "Tabula dashboard queries must be conjunctions of equality "
                    f"predicates on cubed attributes; got {where!r}"
                )
            equalities = flattened
        else:
            equalities = dict(where)
        extra = set(equalities) - set(self.config.cubed_attrs)
        if extra:
            raise InvalidQueryError(
                f"WHERE clause references non-cubed attributes {sorted(extra)}; "
                f"cubed attributes are {list(self.config.cubed_attrs)}"
            )
        for attr, value in equalities.items():
            # Type-check the literal against the column (a str-vs-int mixup
            # must be an error, not a silently empty answer).
            self.table.column(attr).encode(value)
        return tuple(equalities.get(attr) for attr in self.config.cubed_attrs)
