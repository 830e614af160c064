"""Micro-batched, multi-model serving subsystem.

Aggregates concurrent requests — from TCP connections or a piped stdin burst —
into batches that flush through one
:meth:`~repro.inference.engine.InferenceEngine.score_batch` pooling matmul
per catalog entry, with per-request futures, model routing, error isolation
and live stats:

* :class:`MicroBatcher` — size/timeout-triggered request aggregation;
* :class:`RecommendationHandler` — line/JSON protocol parsing, per-request
  ``model=NAME`` routing over a :class:`~repro.io.catalog.ModelCatalog`,
  batched scoring, canary mirroring;
* :class:`CatalogControl` — ``models`` / ``reload`` / ``canary`` control
  lines (zero-downtime rollout from a client connection);
* :class:`AsyncSocketServer` / :class:`AdmissionController` — the TCP
  front-end, one single-threaded event loop: thousands of multiplexed
  connections with explicit admission control — connection caps,
  per-client quotas, bounded pending queue with ``error: overloaded`` load
  shedding, idle timeouts, bounded slow-client write buffers;
* :func:`serve_lines` — the stdin front-end;
* :class:`ServerStats` — requests, batches, mean batch size, latency
  percentiles (p50/p95/p99), live connection gauge, shed/reject counters,
  per-model request/error breakdown.

Responses are bit-identical to sequential
:meth:`~repro.api.Pipeline.recommend` calls: the scoring path runs on a
fixed tile grid (:data:`repro.models.base.SCORING_BLOCK` rows ×
:data:`repro.models.base.HERB_BLOCK` herb columns), so a request's answer
depends neither on its batchmates, nor on how the vocabulary is sharded,
nor on rollouts of *other* catalog entries.  The full protocol and
operational reference lives in ``docs/SERVING.md``.
"""

from .batcher import MicroBatcher
from .control import CatalogControl
from .eventloop import AdmissionController, AsyncSocketServer, OVERLOADED_RESPONSE
from .handler import RecommendationHandler
from .server import LINE_TOO_LONG_RESPONSE, MAX_LINE_BYTES, serve_lines
from .stats import ServerStats

__all__ = [
    "AdmissionController",
    "AsyncSocketServer",
    "CatalogControl",
    "LINE_TOO_LONG_RESPONSE",
    "MAX_LINE_BYTES",
    "MicroBatcher",
    "OVERLOADED_RESPONSE",
    "RecommendationHandler",
    "ServerStats",
    "serve_lines",
]
