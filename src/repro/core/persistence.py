"""Persist and restore a materialized sampling cube — crash-safely.

A middleware restart should not force re-initialization — the cube (the
expensive artifact) serializes to a single JSON document: the cubed
attributes, θ, the loss binding, the build parameters, the global
sample, the cube table (cell → sample id), the sample table, and the
known-cell set. Loading re-binds the loss function from a
:class:`LossRegistry` (user-declared losses must be re-registered first,
e.g. by replaying their CREATE AGGREGATE statement — the declaration is
stored alongside when known).

This module is the only reader of a cube file, through one audit
(:func:`_audit`). A loaded cube is the saved cube: it answers, maintains
and repairs with the build's ``seed``, ``pool_size``, ``lazy_sampling``
and ``sample_selection``.

Durability contract (format version 2):

- **Atomic writes** — :func:`save_cube` goes through temp file + fsync +
  ``os.replace`` (:mod:`repro.resilience.atomic`): a crash mid-save
  leaves the previous good cube file untouched, never a torn one.
- **Versioned envelope with checksums** — the document carries a CRC32
  per top-level section plus one per individual sample, so corruption
  is *detected* on load, and detected at the granularity that decides
  recoverability: a bad ``cube_table`` or ``global_sample`` is fatal
  (TAB504/TAB505), a bad individual sample is recoverable (TAB506) —
  the affected cells can be degraded to the global sample or their
  samples re-drawn from raw data (``on_corruption="degrade"/"repair"``).
- **Section-named errors** — every :class:`PersistenceError` reports
  which section failed, at which path, with a TAB5xx code.

Version-1 files (pre-envelope) still load; they simply have no
checksums to verify.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.cube_store import SamplingCubeStore
from repro.core.global_sample import GlobalSample
from repro.core.loss.registry import LossRegistry
from repro.core.realrun import sample_cell
from repro.core.tabula import Tabula, TabulaConfig
from repro.engine.column import Column
from repro.engine.io import read_csv
from repro.engine.schema import ColumnType
from repro.engine.table import Table
from repro.errors import SamplingError, TabulaError
from repro.resilience.atomic import atomic_write_text

FORMAT_VERSION = 2
#: Versions this loader accepts (1 = legacy, no checksums).
SUPPORTED_VERSIONS = (1, 2)

# TAB5xx — persistence / corruption-detection error codes (see
# docs/architecture.md "Fault tolerance & recovery semantics").
TAB501_MISSING_FILE = "TAB501"
TAB502_UNREADABLE = "TAB502"
TAB503_BAD_VERSION = "TAB503"
TAB504_MISSING_SECTION = "TAB504"
TAB505_SECTION_CORRUPT = "TAB505"
TAB506_SAMPLE_CORRUPT = "TAB506"
TAB507_LOSS_UNREGISTERED = "TAB507"

#: Sections whose loss is fatal: without them there is no cube to serve.
#: Sections this loader does not name are ignored, checksum and all —
#: notably the ``spatial_index`` section older files carry (per-sample
#: indexes, since removed: viewport filters scan the sample directly).
_FATAL_SECTIONS = (
    "cubed_attrs",
    "threshold",
    "loss",
    "global_sample",
    "cube_table",
    "known_cells",
)
#: The build parameters a restored cube maintains and repairs with (ε and
#: δ travel with the global sample). Checksummed like a fatal section when
#: present; files written before it load with ``TabulaConfig``'s defaults.
_BUILD_FIELDS = ("seed", "lazy_sampling", "sample_selection", "pool_size")


class PersistenceError(TabulaError):
    """The cube file is missing, corrupt, or from an unknown version.

    Attributes:
        code: the TAB5xx error code of the failure class.
        section: the document section that failed validation (or "").
        path: the cube file involved (or "").
        failures: every ``(section, code)`` that failed in this pass.
            Validation reports *all* corrupt sections at once rather
            than stopping at the first, so an operator repairs a damaged
            file in one round trip; ``code``/``section`` above remain
            the first (most severe) entry.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "",
        section: str = "",
        path: Union[str, Path, None] = None,
        failures: Optional[List[Tuple[str, str]]] = None,
    ):
        prefix = f"[{code}] " if code else ""
        where = f" (section {section!r} of {path})" if section else ""
        super().__init__(f"{prefix}{message}{where}")
        self.code = code
        self.section = section
        self.path = str(path) if path is not None else ""
        if failures is not None:
            self.failures = tuple(failures)
        elif section:
            self.failures = ((section, code),)
        else:
            self.failures = ()


# ---------------------------------------------------------------------------
# Table <-> JSON
# ---------------------------------------------------------------------------

def table_to_json(table: Table) -> dict:
    """Serialize a table column-wise (dictionaries kept for categories)."""
    columns = []
    for col in table.columns():
        entry = {
            "name": col.name,
            "type": col.ctype.value,
            "data": col.data.tolist(),
        }
        if col.dictionary is not None:
            entry["dictionary"] = list(col.dictionary)
        columns.append(entry)
    return {"columns": columns, "num_rows": table.num_rows}


def table_from_json(payload: dict) -> Table:
    """Inverse of :func:`table_to_json`."""
    columns = []
    for entry in payload["columns"]:
        ctype = ColumnType(entry["type"])
        data = np.asarray(entry["data"], dtype=ctype.numpy_dtype)
        dictionary = tuple(entry["dictionary"]) if "dictionary" in entry else None
        columns.append(Column(entry["name"], ctype, data, dictionary))
    return Table(columns)


# ---------------------------------------------------------------------------
# Checksums
# ---------------------------------------------------------------------------

def _section_crc(payload) -> int:
    """CRC32 over the canonical JSON serialization of a section."""
    return zlib.crc32(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


# ---------------------------------------------------------------------------
# Cube <-> file
# ---------------------------------------------------------------------------

def _cell_to_list(cell) -> list:
    return [None if v is None else v for v in cell]


def _cell_from_list(values) -> tuple:
    return tuple(None if v is None else v for v in values)


def save_cube(
    tabula: Tabula,
    path: Union[str, Path],
    loss_declaration: Optional[str] = None,
) -> None:
    """Atomically write an initialized Tabula's cube to ``path`` (JSON).

    The write is crash-safe: the document lands in a temp file which is
    fsynced and then atomically swapped over ``path``, so a previously
    saved cube survives a crash at any point of the save.

    Args:
        tabula: an initialized middleware instance.
        loss_declaration: optional CREATE AGGREGATE source stored for
            provenance (replayed manually on load when the loss is
            user-declared rather than built-in).
    """
    store = tabula.store
    config = tabula.config
    samples = {
        str(sid): table_to_json(sample)
        for sid, sample in store.sample_table_entries()
    }
    cube_cells = [
        {"cell": _cell_to_list(cell), "sample_id": store.sample_id_of(cell)}
        for cell in store._cell_to_sample_id  # physical layout, Figure 4a
    ]
    document = {
        "format_version": FORMAT_VERSION,
        "cubed_attrs": list(config.cubed_attrs),
        "threshold": config.threshold,
        "loss": {
            "name": config.loss.name,
            "target_attrs": list(config.loss.target_attrs),
            "declaration": loss_declaration,
        },
        "global_sample": {
            "table": table_to_json(store.global_sample.table),
            "indices": store.global_sample.indices.tolist(),
            "epsilon": store.global_sample.epsilon,
            "delta": store.global_sample.delta,
        },
        "cube_table": cube_cells,
        "sample_table": samples,
        "known_cells": [_cell_to_list(c) for c in sorted(store._known_cells, key=str)],
        "build": {name: getattr(config, name) for name in _BUILD_FIELDS},
    }
    document["envelope"] = {
        "checksums": {
            name: _section_crc(document[name]) for name in _FATAL_SECTIONS + ("build",)
        },
        "sample_checksums": {sid: _section_crc(payload) for sid, payload in samples.items()},
    }
    atomic_write_text(path, json.dumps(document))


@dataclass
class LoadReport:
    """What corruption handling did during one :func:`load_cube`."""

    #: sample id -> TAB code, for samples that failed validation.
    corrupt_samples: Dict[int, str] = field(default_factory=dict)
    #: cells degraded to the fallback ladder (``on_corruption="degrade"``).
    degraded_cells: List[tuple] = field(default_factory=list)
    #: cells whose samples were re-drawn from raw data (``"repair"``).
    repaired_cells: List[tuple] = field(default_factory=list)


def _read_document(path: Union[str, Path]) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise PersistenceError(
            f"no cube file at {path}", code=TAB501_MISSING_FILE, path=path
        ) from None
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"corrupt cube file {path}: {exc}", code=TAB502_UNREADABLE, path=path
        ) from None
    version = document.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise PersistenceError(
            f"unsupported cube format version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})",
            code=TAB503_BAD_VERSION,
            path=path,
        )
    return document


# ---------------------------------------------------------------------------
# The audit: one walk over a document's sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionStatus:
    """Validation outcome for one document section."""

    section: str
    ok: bool
    code: str = ""
    detail: str = ""


@dataclass(frozen=True)
class CubeVerifyReport:
    """Outcome of :func:`verify_cube_file`."""

    path: str
    format_version: Optional[int]
    sections: Tuple[SectionStatus, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    @property
    def failures(self) -> Tuple[SectionStatus, ...]:
        return tuple(s for s in self.sections if not s.ok)


def _audit(document: dict) -> List[SectionStatus]:
    """The one walk over a cube document's sections.

    A missing required section or v2 envelope is TAB504, a checksummed
    section failing its CRC is TAB505 (fatal), a sample failing its own
    is TAB506 (recoverable). Each CRC is computed once; every finding is
    returned, none raised, so a damaged file is repaired in one round trip.
    """
    statuses = [
        SectionStatus(name, False, TAB504_MISSING_SECTION, "required section is missing")
        for name in _FATAL_SECTIONS + ("sample_table",)
        if name not in document
    ]
    envelope = document.get("envelope")
    if document["format_version"] == 1:
        return statuses + [SectionStatus("envelope", True, detail="legacy v1: no checksums")]
    if not isinstance(envelope, dict) or "checksums" not in envelope:
        return statuses + [
            SectionStatus("envelope", False, TAB504_MISSING_SECTION, "no checksum envelope")
        ]
    checksums, sample_checksums = envelope["checksums"], envelope.get("sample_checksums", {})
    # A stripped ``build`` section whose checksum is recorded reads as
    # corrupt; files written before the section have neither.
    checked = [
        (name, document.get(name), checksums.get(name), TAB505_SECTION_CORRUPT, "fatal")
        for name in _FATAL_SECTIONS + ("build",)
        if name in document or (name == "build" and name in checksums)
    ] + [
        (f"sample_table/{sid}", payload, sample_checksums.get(sid), TAB506_SAMPLE_CORRUPT,
         "recoverable")
        for sid, payload in document.get("sample_table", {}).items()
    ]
    for section, payload, expected, code, severity in checked:
        actual = _section_crc(payload)
        if expected == actual:
            statuses.append(SectionStatus(section, True, detail=f"crc32 {actual}"))
        else:
            detail = f"recorded crc32 {expected}, computed {actual} ({severity})"
            statuses.append(SectionStatus(section, False, code, detail))
    return statuses


def _raise_collected(
    failures: List[SectionStatus], path: Union[str, Path], hint: str = ""
) -> None:
    """Raise one PersistenceError naming every failed section.

    ``code``/``section`` stay the first failure (the stable
    single-failure API); ``failures`` carries them all.
    """
    summary = "; ".join(f"{s.section} [{s.code}]: {s.detail}" for s in failures)
    raise PersistenceError(
        f"{len(failures)} failure(s): {summary}{hint}",
        code=failures[0].code,
        section=failures[0].section,
        path=path,
        failures=[(s.section, s.code) for s in failures],
    )


def _audited(document: dict, path: Union[str, Path]) -> Dict[str, SectionStatus]:
    """Raise on the audit's fatal failures; return the failed samples by id."""
    failures = [status for status in _audit(document) if not status.ok]
    fatal = [status for status in failures if status.code != TAB506_SAMPLE_CORRUPT]
    if fatal:
        _raise_collected(fatal, path)
    return {status.section.rpartition("/")[2]: status for status in failures}


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def load_cube(
    path: Union[str, Path],
    table: Table,
    registry: Optional[LossRegistry] = None,
    on_corruption: str = "raise",
) -> Tabula:
    """Restore a ready-to-query Tabula from a saved cube.

    The instance is the one :func:`save_cube` wrote: it answers,
    maintains and repairs with the build's parameters.

    Args:
        path: file written by :func:`save_cube`.
        table: the raw table (needed for ``raw_answer``/``actual_loss``
            and maintenance; queries themselves run purely on the
            restored cube).
        registry: loss registry to re-bind the loss from; defaults to
            the built-ins.
        on_corruption: what to do when an individual sample fails its
            checksum (the *recoverable* corruption class):

            - ``"raise"`` (default) — fail with TAB506 naming the sample;
            - ``"degrade"`` — drop the bad sample; its cells are served
              by the query-time fallback ladder with an explicit
              ``GuaranteeStatus``;
            - ``"repair"`` — re-draw a fresh θ-certified sample from the
              raw ``table`` for each affected cell (falls back to
              degrading a cell when θ cannot be met).

            Fatal corruption (cube table, global sample, loss binding,
            known cells, build parameters) always raises, whatever this
            is set to.

    Raises:
        PersistenceError: missing file, unknown format, checksum
            failure (per ``on_corruption``), or missing loss function —
            always naming the failing section and path.
    """
    if on_corruption not in ("raise", "degrade", "repair"):
        raise ValueError(
            f"on_corruption must be 'raise', 'degrade' or 'repair', got {on_corruption!r}"
        )
    return _load(_read_document(path), path, table, registry, on_corruption)


def open_cube(
    cube_path: Union[str, Path],
    table_csv: Union[str, Path],
    loss_sql: Optional[str] = None,
) -> Tabula:
    """Load a saved cube over its raw CSV, as the CLI and the shard worker do.

    One read of the cube file; the CSV's cubed attributes are typed
    CATEGORY (as ``repro build`` typed them), and the CREATE AGGREGATE
    in file ``loss_sql`` is registered before the loss is bound.
    """
    document = _read_document(cube_path)
    attrs = document.get("cubed_attrs", [])
    table = read_csv(table_csv, types={a: ColumnType.CATEGORY for a in attrs})
    return _load(document, cube_path, table, loss_registry(loss_sql), "raise")


def loss_registry(loss_sql: Optional[str] = None) -> LossRegistry:
    """The built-in losses, plus the CREATE AGGREGATE in file ``loss_sql``."""
    # Deferred: the SQL front end imports the core, not the other way round.
    from repro.core.loss.compiler import compile_loss
    from repro.engine.sql import ast as sql_ast
    from repro.engine.sql.parser import parse_statement

    registry = LossRegistry()
    if loss_sql:
        with open(loss_sql) as handle:
            statement = parse_statement(handle.read())
        if not isinstance(statement, sql_ast.CreateAggregate):
            raise TabulaError(f"{loss_sql}: expected a CREATE AGGREGATE statement")
        registry.register(compile_loss(statement), replace=True)
    return registry


def _load(
    document: dict,
    path: Union[str, Path],
    table: Table,
    registry: Optional[LossRegistry],
    on_corruption: str,
) -> Tabula:
    corrupt = _audited(document, path)

    registry = registry if registry is not None else LossRegistry()
    loss_info = document["loss"]
    if loss_info["name"] not in registry:
        raise PersistenceError(
            f"loss function {loss_info['name']!r} is not registered; replay its "
            "CREATE AGGREGATE declaration before loading"
            + (f":\n{loss_info['declaration']}" if loss_info.get("declaration") else ""),
            code=TAB507_LOSS_UNREGISTERED,
            section="loss",
            path=path,
        )
    loss = registry.bind(loss_info["name"], tuple(loss_info["target_attrs"]))

    gs_payload = document["global_sample"]
    global_sample = GlobalSample(
        table=table_from_json(gs_payload["table"]),
        indices=np.asarray(gs_payload["indices"], dtype=np.int64),
        epsilon=gs_payload["epsilon"],
        delta=gs_payload["delta"],
    )

    samples: Dict[int, Table] = {}
    for sid, payload in document["sample_table"].items():
        if sid in corrupt:
            continue  # degrade/repair: handled below, after the store exists
        try:
            samples[int(sid)] = table_from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            corrupt[sid] = SectionStatus(
                f"sample_table/{sid}",
                False,
                TAB506_SAMPLE_CORRUPT,
                f"sample payload is undecodable: {exc}",
            )
    if corrupt and on_corruption == "raise":
        _raise_collected(
            list(corrupt.values()),
            path,
            "; reload with on_corruption='degrade' or 'repair' to recover",
        )

    cell_to_sample = {
        _cell_from_list(entry["cell"]): entry["sample_id"]
        for entry in document["cube_table"]
    }
    known = frozenset(_cell_from_list(c) for c in document["known_cells"])

    build = document.get("build", {})
    config = TabulaConfig(
        cubed_attrs=tuple(document["cubed_attrs"]),
        threshold=document["threshold"],
        loss=loss,
        epsilon=global_sample.epsilon,
        delta=global_sample.delta,
        **{name: build[name] for name in _BUILD_FIELDS if name in build},
    )
    tabula = Tabula(table, config)
    store = SamplingCubeStore(
        attrs=config.cubed_attrs,
        global_sample=global_sample,
        cell_to_sample_id=cell_to_sample,
        samples=samples,
        known_cells=known,
    )
    report = LoadReport(corrupt_samples={int(s): TAB506_SAMPLE_CORRUPT for s in corrupt})
    for sid_text in corrupt:
        sid = int(sid_text)
        affected = store.drop_sample(
            sid, f"sample {sid} failed validation ({TAB506_SAMPLE_CORRUPT}) in {path}"
        )
        if on_corruption == "repair":
            for cell in affected:
                if _repair_cell(tabula, store, cell):
                    report.repaired_cells.append(cell)
                else:
                    report.degraded_cells.append(cell)
        else:
            report.degraded_cells.extend(affected)
    tabula.attach_store(store)
    tabula.last_load_report = report
    return tabula


def _repair_cell(tabula: Tabula, store: SamplingCubeStore, cell) -> bool:
    """Re-draw a θ-certified sample for ``cell`` from the raw table."""
    config = tabula.config
    raw_indices = tabula._cell_row_indices(cell)
    if raw_indices.size == 0:
        return False
    values = config.loss.extract(tabula.table.take(raw_indices))
    try:
        result = sample_cell(
            config.loss,
            values,
            config.threshold,
            config.seed,
            cell,
            pool_size=config.pool_size,
            lazy=config.lazy_sampling,
        )
    except SamplingError:
        return False
    store.assign_new_sample(cell, tabula.table.take(raw_indices[result.indices]))
    return True


def cube_info(path: Union[str, Path]) -> Dict[str, object]:
    """What ``repro info`` prints about a saved cube, label → value.

    Audited like a load, but needs neither the raw table nor the loss.
    """
    document = _read_document(path)
    _audited(document, path)
    samples = document["sample_table"].values()
    loss = document["loss"]
    build = ", ".join(f"{k}={v}" for k, v in document.get("build", {}).items())
    return {
        "cubed attributes": ", ".join(document["cubed_attrs"]),
        "threshold θ": document["threshold"],
        "loss function": f"{loss['name']} on {loss['target_attrs']}",
        "build": build or "not recorded (loads with the defaults)",
        "iceberg cells": len(document["cube_table"]),
        "known cells": len(document["known_cells"]),
        "samples": f"{len(samples)} ({sum(p['num_rows'] for p in samples)} tuples)",
        "global sample": f"{document['global_sample']['table']['num_rows']} tuples",
    }


def verify_cube_file(path: Union[str, Path]) -> CubeVerifyReport:
    """Checksum/version audit of a persisted cube, without loading it.

    Needs neither the raw table nor the loss registry, so it can run as
    a deploy gate wherever the file lives. Never raises on corruption —
    every finding lands in the report (the CLI turns it into an exit
    code).
    """
    try:
        document = _read_document(path)
    except PersistenceError as exc:
        return CubeVerifyReport(
            path=str(path),
            format_version=None,
            sections=(SectionStatus("document", False, exc.code, str(exc)),),
        )
    return CubeVerifyReport(str(path), document["format_version"], tuple(_audit(document)))
