"""Bulk offline scoring: streaming JSONL pipelines over the serving stack.

The serving subsystem answers interactive traffic; this package re-scores
whole corpora — nightly evaluation sweeps, candidate-set precompute, dataset
migrations — as a unix-composable batch pipeline:

* :mod:`repro.batch.records` — the JSONL record codec (one prescription per
  input line, decoded to its id and a :class:`~repro.io.catalog.Query`; one
  result/error line per record, NaN-free, byte-deterministic);
* :mod:`repro.batch.checkpoint` — the atomic progress sidecar (fsync
  watermark; SIGKILL-safe resume);
* :mod:`repro.batch.runner` — bounded-window streaming through a
  :class:`~repro.io.catalog.ModelCatalog`, per-record error isolation,
  per-file fan-out across worker fleets.

The CLI front door is ``repro batch`` (see ``docs/BATCH.md``); the library
front door is :meth:`repro.api.Pipeline.recommend_stream`.
"""

from ..io.catalog import Query
from .checkpoint import BatchCheckpoint, CheckpointStateError, checkpoint_path_for
from .records import RecordError, decode_record, encode_error, encode_result
from .runner import (
    BatchError,
    BatchStats,
    FileResult,
    run_batch_file,
    run_batch_files,
    score_lines,
    stream_results,
)

__all__ = [
    "BatchCheckpoint",
    "BatchError",
    "BatchStats",
    "CheckpointStateError",
    "FileResult",
    "Query",
    "RecordError",
    "checkpoint_path_for",
    "decode_record",
    "encode_error",
    "encode_result",
    "run_batch_file",
    "run_batch_files",
    "score_lines",
    "stream_results",
]
