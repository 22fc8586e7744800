"""Persist and restore a materialized sampling cube — crash-safely.

A middleware restart should not force re-initialization — the cube (the
expensive artifact) serializes to a single JSON document: the cubed
attributes, θ, the loss binding, the global sample, the cube table
(cell → sample id), the sample table, and the known-cell set. Loading
re-binds the loss function from a :class:`LossRegistry` (user-declared
losses must be re-registered first, e.g. by replaying their CREATE
AGGREGATE statement — the declaration is stored alongside when known).

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
    }
    document["envelope"] = {
        "checksums": {name: _section_crc(document[name]) for name in _FATAL_SECTIONS},
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


def _raise_collected(
    problems: List[Tuple[str, str, str]], path: Union[str, Path]
) -> None:
    """Raise one PersistenceError naming every (section, code, detail).

    ``code``/``section`` of the raised error stay the first failure (the
    stable single-failure API); ``failures`` carries the complete list so
    an operator fixes a damaged file in one round trip instead of
    replaying load-fail-fix cycles section by section.
    """
    first_section, first_code, _ = problems[0]
    summary = "; ".join(
        f"{section} [{code}]: {detail}" for section, code, detail in problems
    )
    raise PersistenceError(
        f"{len(problems)} unrecoverable failure(s): {summary}",
        code=first_code,
        section=first_section,
        path=path,
        failures=[(section, code) for section, code, _ in problems],
    )


def _verify_sections(document: dict, path: Union[str, Path]) -> Dict[str, str]:
    """Validate the envelope; returns {sample_id: TAB code} for samples
    that failed their checksum. Fatal-section failures raise — after the
    whole document has been audited, so the error names *every* corrupt
    section, not just the first one encountered."""
    problems: List[Tuple[str, str, str]] = []  # (section, code, detail)
    missing = set()
    for name in _FATAL_SECTIONS + ("sample_table",):
        if name not in document:
            missing.add(name)
            problems.append(
                (name, TAB504_MISSING_SECTION, "required section is missing")
            )
    if document.get("format_version") == 1:
        if problems:
            _raise_collected(problems, path)
        return {}  # legacy file: nothing to verify against
    envelope = document.get("envelope")
    if not isinstance(envelope, dict) or "checksums" not in envelope:
        problems.append(
            ("envelope", TAB504_MISSING_SECTION, "version-2 document has no checksum envelope")
        )
        _raise_collected(problems, path)
    for name in _FATAL_SECTIONS:
        if name in missing:
            continue
        expected = envelope["checksums"].get(name)
        actual = _section_crc(document[name])
        if expected != actual:
            problems.append(
                (
                    name,
                    TAB505_SECTION_CORRUPT,
                    f"checksum mismatch: recorded {expected}, computed {actual}",
                )
            )
    if problems:
        _raise_collected(problems, path)
    corrupt: Dict[str, str] = {}
    sample_checksums = envelope.get("sample_checksums", {})
    for sid, payload in document["sample_table"].items():
        expected = sample_checksums.get(sid)
        if expected != _section_crc(payload):
            corrupt[sid] = TAB506_SAMPLE_CORRUPT
    return corrupt


def load_cube(
    path: Union[str, Path],
    table: Table,
    registry: Optional[LossRegistry] = None,
    on_corruption: str = "raise",
) -> Tabula:
    """Restore a ready-to-query Tabula from a saved cube.

    Args:
        path: file written by :func:`save_cube`.
        table: the raw table (needed for ``raw_answer``/``actual_loss``;
            queries themselves run purely on the restored cube).
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
            known cells) always raises, whatever this is set to.

    Raises:
        PersistenceError: missing file, unknown format, checksum
            failure (per ``on_corruption``), or missing loss function —
            always naming the failing section and path.
    """
    if on_corruption not in ("raise", "degrade", "repair"):
        raise ValueError(
            f"on_corruption must be 'raise', 'degrade' or 'repair', got {on_corruption!r}"
        )
    document = _read_document(path)
    corrupt_samples = _verify_sections(document, path)

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
    bad_samples: List[Tuple[str, str, str]] = []  # (section, code, detail)
    for sid, payload in document["sample_table"].items():
        if sid in corrupt_samples:
            bad_samples.append(
                (
                    f"sample_table/{sid}",
                    TAB506_SAMPLE_CORRUPT,
                    "sample failed its checksum",
                )
            )
            continue  # degrade/repair: handled below, after the store exists
        try:
            samples[int(sid)] = table_from_json(payload)
        except (KeyError, TypeError, ValueError) as exc:
            bad_samples.append(
                (
                    f"sample_table/{sid}",
                    TAB506_SAMPLE_CORRUPT,
                    f"sample payload is undecodable: {exc}",
                )
            )
            corrupt_samples[sid] = TAB506_SAMPLE_CORRUPT
    if bad_samples and on_corruption == "raise":
        # One pass, every corrupt sample named — then the recovery hint.
        summary = "; ".join(
            f"{section} [{code}]: {detail}" for section, code, detail in bad_samples
        )
        raise PersistenceError(
            f"{len(bad_samples)} corrupt sample(s): {summary}; reload with "
            "on_corruption='degrade' or 'repair' to recover",
            code=bad_samples[0][1],
            section=bad_samples[0][0],
            path=path,
            failures=[(section, code) for section, code, _ in bad_samples],
        )

    cell_to_sample = {
        _cell_from_list(entry["cell"]): entry["sample_id"]
        for entry in document["cube_table"]
    }
    known = frozenset(_cell_from_list(c) for c in document["known_cells"])

    config = TabulaConfig(
        cubed_attrs=tuple(document["cubed_attrs"]),
        threshold=document["threshold"],
        loss=loss,
    )
    tabula = Tabula(table, config)
    store = SamplingCubeStore(
        attrs=config.cubed_attrs,
        global_sample=global_sample,
        cell_to_sample_id=cell_to_sample,
        samples=samples,
        known_cells=known,
    )
    report = LoadReport(corrupt_samples={int(s): c for s, c in corrupt_samples.items()})
    for sid_text in corrupt_samples:
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


# ---------------------------------------------------------------------------
# Offline verification (the `repro cube verify` deploy gate)
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


def verify_cube_file(path: Union[str, Path]) -> CubeVerifyReport:
    """Checksum/version audit of a persisted cube, without loading it.

    Needs neither the raw table nor the loss registry, so it can run as
    a deploy gate wherever the file lives. Never raises on corruption —
    every finding lands in the report (the CLI turns it into an exit
    code).
    """
    statuses: List[SectionStatus] = []
    try:
        document = _read_document(path)
    except PersistenceError as exc:
        return CubeVerifyReport(
            path=str(path),
            format_version=None,
            sections=(SectionStatus("document", False, exc.code, str(exc)),),
        )
    version = document["format_version"]
    for name in _FATAL_SECTIONS + ("sample_table",):
        if name not in document:
            statuses.append(
                SectionStatus(name, False, TAB504_MISSING_SECTION, "section missing")
            )
    if version == 1:
        statuses.append(
            SectionStatus(
                "envelope", True, "", "legacy v1 file: no checksums to verify"
            )
        )
        return CubeVerifyReport(str(path), version, tuple(statuses))
    envelope = document.get("envelope")
    if not isinstance(envelope, dict) or "checksums" not in envelope:
        statuses.append(
            SectionStatus("envelope", False, TAB504_MISSING_SECTION, "no checksum envelope")
        )
        return CubeVerifyReport(str(path), version, tuple(statuses))
    for name in _FATAL_SECTIONS:
        if name not in document:
            continue  # already reported missing
        expected = envelope["checksums"].get(name)
        actual = _section_crc(document[name])
        if expected == actual:
            statuses.append(SectionStatus(name, True, detail=f"crc32 {actual}"))
        else:
            statuses.append(
                SectionStatus(
                    name,
                    False,
                    TAB505_SECTION_CORRUPT,
                    f"recorded crc32 {expected}, computed {actual} (fatal)",
                )
            )
    sample_checksums = envelope.get("sample_checksums", {})
    for sid, payload in document.get("sample_table", {}).items():
        expected = sample_checksums.get(sid)
        actual = _section_crc(payload)
        if expected == actual:
            statuses.append(SectionStatus(f"sample_table/{sid}", True, detail=f"crc32 {actual}"))
        else:
            statuses.append(
                SectionStatus(
                    f"sample_table/{sid}",
                    False,
                    TAB506_SAMPLE_CORRUPT,
                    f"recorded crc32 {expected}, computed {actual} (recoverable)",
                )
            )
    return CubeVerifyReport(str(path), version, tuple(statuses))
