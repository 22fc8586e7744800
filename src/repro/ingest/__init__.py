"""Crash-safe streaming ingest with backpressure and progressive answers.

The package closes the ROADMAP's "streaming ingest" gap: rows arrive
continuously, are micro-batched into a CRC-framed WAL with group-commit
fsync, and are folded into the sampling cube by a background maintainer
thread through the journaled plan/apply protocol — bounded queue with
typed backpressure on the way in, ``durable_seq``/``applied_seq``
watermarks on the way out, and ``kill -9`` survivable at every stage.

- :mod:`repro.ingest.wal` — the durable micro-batch log;
- :mod:`repro.ingest.stream` — :class:`StreamIngestor` (the pipeline)
  and :func:`recover_ingest` (exactly-once WAL replay);
- :mod:`repro.ingest.progressive` — monotone progressive answers.
"""

from repro.ingest.progressive import ProgressiveFrame, progressive_query
from repro.ingest.stream import (
    IngestConfig,
    IngestOutcome,
    IngestRecovery,
    StreamIngestor,
    SubmitResult,
    recover_ingest,
)
from repro.ingest.wal import IngestWAL, WalBatch, WalReadResult

__all__ = [
    "IngestConfig",
    "IngestOutcome",
    "IngestRecovery",
    "IngestWAL",
    "ProgressiveFrame",
    "StreamIngestor",
    "SubmitResult",
    "WalBatch",
    "WalReadResult",
    "progressive_query",
    "recover_ingest",
]
