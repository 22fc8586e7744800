"""Checksummed append-only logs and the maintenance write-ahead journal.

Two layers:

- :class:`AppendOnlyLog` — a JSONL file where every line carries a
  CRC32 of its canonical payload. Appends are flushed and fsynced per
  record; reads stop at the first unparseable/CRC-failing line. The
  *reason* the tail was dropped is classified, not discarded: a torn
  final line (the signature of a mid-append crash) is benign and
  truncates silently, while **interior corruption** — a bad line with
  durable records after it, or a line whose frame parses but whose CRC
  does not match its payload (bit rot, not a torn write) — is reported
  per line as a :class:`LogCorruption` so callers can refuse to replay
  over it.

- :class:`MaintenanceJournal` — the write-ahead journal for
  :func:`repro.core.maintenance.append_rows`. A delta batch is logged
  (with every cell-level decision *and* the drawn sample indices, so
  replay needs no randomness) **before** the store is mutated, and a
  commit marker is logged after. Replay applies logged-but-uncommitted
  plans; committed batch ids make re-submission of the same batch a
  no-op — a batch is never double-applied.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import TabulaError
from repro.resilience.faults import fault_point, register_fault_point

#: Typed persistence code for interior journal corruption (continues the
#: TAB5xx range owned by :mod:`repro.core.persistence`; 508 is retired).
TAB509_JOURNAL_CORRUPT = "TAB509"

FP_LOG_BEFORE_APPEND = register_fault_point(
    "journal.before_append", "record serialized, nothing written yet"
)
FP_LOG_APPENDED = register_fault_point(
    "journal.appended", "record written+fsynced to the log"
)


def canonical_json(payload: object) -> str:
    """Deterministic JSON used for checksums (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def crc_of(payload: object) -> int:
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


@dataclass(frozen=True)
class LogCorruption:
    """One unreadable log line, classified.

    ``kind`` is ``"torn_tail"`` (the final non-empty line did not parse
    — the expected residue of a crash mid-append, safe to truncate) or
    ``"interior"`` (a bad line *followed by durable records*, or a
    frame that parsed but failed its CRC — on-disk corruption that
    replay must not silently skip). ``batch_id`` is recovered from the
    frame when the JSON parsed but the checksum did not match, so the
    error can name the poisoned batch.
    """

    kind: str
    line_number: int
    detail: str
    batch_id: str = ""


@dataclass(frozen=True)
class LogReadResult:
    """Records recovered from a log plus how much tail was dropped."""

    records: Tuple[dict, ...]
    dropped_lines: int
    corruptions: Tuple[LogCorruption, ...] = ()

    @property
    def interior_corruptions(self) -> Tuple[LogCorruption, ...]:
        """Corruptions that are *not* a benign torn tail."""
        return tuple(c for c in self.corruptions if c.kind == "interior")


class JournalCorruptionError(TabulaError):
    """Interior corruption in a journal segment (typed ``TAB509``).

    Raised instead of silently truncating when a journaled record fails
    its CRC mid-file (or a torn line is followed by durable records):
    replaying past the damage could drop a committed batch or re-apply
    a partial one. Carries the offending segment ``path``, the 1-based
    ``line_number`` of the first damaged frame and — when the frame's
    JSON still parsed — the ``batch_id`` whose payload is poisoned.
    """

    def __init__(self, path: Union[str, Path], corruptions: Sequence[LogCorruption]):
        self.code = TAB509_JOURNAL_CORRUPT
        self.path = str(path)
        self.corruptions = tuple(corruptions)
        first = self.corruptions[0]
        self.line_number = first.line_number
        self.batch_id = first.batch_id
        batch = f" (batch {first.batch_id})" if first.batch_id else ""
        super().__init__(
            f"[{self.code}] journal segment {self.path} is corrupt at line "
            f"{first.line_number}{batch}: {first.detail}; "
            f"{len(self.corruptions)} damaged frame(s) total — refusing to "
            "replay past interior damage"
        )


class AppendOnlyLog:
    """A crash-tolerant JSONL log with per-record CRC32 framing."""

    def __init__(self, path: Union[str, Path], fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        line = json.dumps({"crc": crc_of(record), "rec": record}) + "\n"
        fault_point(FP_LOG_BEFORE_APPEND)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        fault_point(FP_LOG_APPENDED)

    def append_many(self, records: Sequence[dict]) -> None:
        """Durably append a group of records with a *single* fsync.

        The group-commit primitive for streaming ingest: every record
        is framed and written in one buffered pass, then flushed and
        fsynced once, amortizing the sync over the whole micro-batch. A
        crash mid-call leaves at most a torn tail (a prefix of the
        group is durable), which :meth:`read` truncates benignly.
        """
        if not records:
            return
        lines = [
            json.dumps({"crc": crc_of(record), "rec": record}) + "\n"
            for record in records
        ]
        fault_point(FP_LOG_BEFORE_APPEND)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.writelines(lines)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        fault_point(FP_LOG_APPENDED)

    def read(self) -> LogReadResult:
        """All durable records up to the first torn/corrupt line.

        Replay never proceeds past damage (everything after an
        unreadable line is untrusted), but the damage itself is
        classified in ``corruptions``: a torn final line is the normal
        residue of a mid-append crash, while interior damage — a bad
        line with durable lines after it, or a parseable frame whose
        CRC fails — means the file was corrupted in place and callers
        like :func:`repro.core.maintenance.recover_journal` must
        surface it rather than quietly dropping the tail.
        """
        if not self.path.exists():
            return LogReadResult((), 0)
        records: List[dict] = []
        corruptions: List[LogCorruption] = []
        dropped = 0
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for i, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            batch_id = ""
            crc_mismatch = False
            try:
                frame = json.loads(stripped)
                record = frame["rec"]
                if frame.get("crc") != crc_of(record):
                    crc_mismatch = True
                    if isinstance(record, dict):
                        batch_id = str(record.get("batch_id", ""))
                    raise ValueError("crc mismatch")
            except (ValueError, KeyError, TypeError) as exc:
                dropped = sum(1 for rest in lines[i:] if rest.strip())
                has_successors = dropped > 1
                if crc_mismatch or has_successors:
                    # A frame that parses but fails its checksum is bit
                    # rot, not a torn write — torn writes truncate the
                    # JSON. A bad line with lines after it cannot be a
                    # crash tail either.
                    kind = "interior"
                else:
                    kind = "torn_tail"
                corruptions.append(
                    LogCorruption(
                        kind=kind,
                        line_number=i + 1,
                        detail=str(exc) if str(exc) else type(exc).__name__,
                        batch_id=batch_id,
                    )
                )
                break
            records.append(record)
        return LogReadResult(tuple(records), dropped, tuple(corruptions))


# ---------------------------------------------------------------------------
# Maintenance write-ahead journal
# ---------------------------------------------------------------------------


class MaintenanceJournal:
    """Idempotent WAL for incremental cube maintenance.

    Protocol per batch: ``log_plan`` (everything needed to redo the
    mutation deterministically) → mutate the store → ``commit``. After a
    crash, :meth:`uncommitted_plans` yields exactly the batches whose
    effects may be partial; re-applying a plan is convergent because the
    plan stores post-states (merged statistics, drawn sample indices),
    not deltas.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True):
        self.path = Path(path)
        self._log = AppendOnlyLog(path, fsync=fsync)

    def log_plan(self, batch_id: str, payload: dict) -> None:
        self._log.append({"kind": "plan", "batch_id": batch_id, "payload": payload})

    def commit(self, batch_id: str, report: Optional[dict] = None) -> None:
        self._log.append({"kind": "commit", "batch_id": batch_id, "report": report or {}})

    def _scan(self) -> Tuple[Dict[str, dict], Dict[str, dict], List[str]]:
        plans: Dict[str, dict] = {}
        commits: Dict[str, dict] = {}
        order: List[str] = []
        for record in self._log.read().records:
            batch_id = record.get("batch_id", "")
            if record.get("kind") == "plan":
                if batch_id not in plans:
                    order.append(batch_id)
                plans[batch_id] = record.get("payload", {})
            elif record.get("kind") == "commit":
                commits[batch_id] = record.get("report", {})
        return plans, commits, order

    def is_committed(self, batch_id: str) -> bool:
        _, commits, _ = self._scan()
        return batch_id in commits

    def committed_report(self, batch_id: str) -> Optional[dict]:
        _, commits, _ = self._scan()
        return commits.get(batch_id)

    def uncommitted_plans(self) -> List[Tuple[str, dict]]:
        """(batch_id, payload) of logged batches with no commit marker."""
        plans, commits, order = self._scan()
        return [(b, plans[b]) for b in order if b not in commits]

    def plan_payloads(self) -> Dict[str, dict]:
        """batch_id -> plan payload for *every* logged plan.

        Unlike :meth:`uncommitted_plans` this includes committed
        batches: ingest recovery onto a cube snapshot *older* than the
        ledger re-applies a committed batch from its journaled
        post-states rather than trusting the commit marker, so the
        payloads must stay reachable.
        """
        plans, _, _ = self._scan()
        return plans

    def interior_corruptions(self) -> Tuple[LogCorruption, ...]:
        """Damage in this journal that is *not* a benign torn tail."""
        return self._log.read().interior_corruptions

    def check_readable(self) -> None:
        """Raise :class:`JournalCorruptionError` on interior damage.

        A torn final line (crash mid-append) passes: the partially
        written record was never acknowledged, so truncating it is the
        contract. A CRC-failing frame mid-file — or a bad line with
        durable records after it — does not: replaying a prefix of a
        damaged journal could silently drop a committed batch.
        """
        damaged = self.interior_corruptions()
        if damaged:
            raise JournalCorruptionError(self.path, damaged)
