"""Cached-propagation inference engine for the neural graph recommenders.

``Evaluator`` and the serving CLI both need the same hot path: score many
symptom sets against every herb without re-running the full-graph propagation
per batch.  :class:`InferenceEngine` wraps a :class:`GraphHerbRecommender`,
keeps the propagated symptom/herb embeddings cached (delegating staleness
tracking to the model's parameter-version fingerprint) and answers

* :meth:`score_batch` — the ``(num_sets, num_herbs)`` score matrix,
* :meth:`recommend_batch` / :meth:`recommend` — top-k herb ids,

chunking large requests so the CSR pooling matrices stay small.

Every request scores through one path: the model induces each chunk's
syndrome embeddings (``encode_syndrome``) and a
:class:`~repro.inference.sharding.ShardedHerbIndex` scores them against the
herb embeddings.  The index cuts the herb matrix into tile-aligned column
shards (one by default; ``num_shards`` asks for more) scored through a
pluggable :class:`~repro.inference.backends.ComputeBackend`: serially by
default, across a thread pool (``backend="threads"``), or fanned out to
remote shard-worker servers (``"remote"`` + ``worker_addrs``).  Top-k
answers merge per-shard candidates without ever materialising the full score
matrix, and a wide shard's top-k goes through the certified float32 screen.
Every backend runs the same fixed scoring-tile grid and the same canonical
ranking, so answers are bit-identical to ``model.score_sets`` whatever the
shard count or placement: both are purely operational knobs.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..models.base import GraphHerbRecommender
from ..utils.cache import MAX_CACHED_VERSIONS, VersionedCache
from .backends import get_backend
from .options import EngineOptions
from .retrieval import ApproxHerbIndex, RetrievalReport
from .sharding import ShardedHerbIndex

__all__ = ["InferenceEngine", "Recommendation", "MAX_CACHED_INDEX_VERSIONS"]

#: How many parameter versions of the shard index the engine keeps: the
#: shared :data:`~repro.utils.cache.MAX_CACHED_VERSIONS` bound.  Anything
#: older is evicted and its snapshot released from the backend.
MAX_CACHED_INDEX_VERSIONS = MAX_CACHED_VERSIONS


@dataclass(frozen=True)
class Recommendation:
    """Top-k herbs for one symptom set, with their scores."""

    herb_ids: Tuple[int, ...]
    scores: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.herb_ids)


def ranked_prefixes(
    ids: np.ndarray, scores: np.ndarray, ks: Sequence[int]
) -> List[Recommendation]:
    """One :class:`Recommendation` per row: the first ``ks[row]`` of its ranking.

    ``ids``/``scores`` are ``(rows, k_max)`` canonical rankings selected once
    at ``max(ks)``; their prefixes are exactly what ``top_k_indices`` returns
    at each smaller ``k``, so one selection answers a whole mixed-``k`` batch.
    """
    return [
        Recommendation(herb_ids=tuple(row_ids[:kk]), scores=tuple(row_scores[:kk]))
        for row_ids, row_scores, kk in zip(ids.tolist(), scores.tolist(), ks)
    ]


class InferenceEngine:
    """Serve herb scores and top-k recommendations from cached embeddings.

    Every serving knob lives in one :class:`~repro.inference.options.
    EngineOptions`, kept as :attr:`options`: pass ``options=``, or its field
    names as keywords (``InferenceEngine(model, num_shards=4)``), which are
    folded in and validated once.  Scores come from the shard index, which
    computes the base formula of ``GraphHerbRecommender.score_sets`` (the
    syndrome embedding's inner product with each herb embedding); a model
    that overrides ``score_sets`` defines some other score, so it is refused
    with ``TypeError`` rather than served a formula it does not use.
    ``retrieval="approx"`` serves top-k through the two-stage
    :class:`~repro.inference.retrieval.ApproxHerbIndex`, with per-request
    fallback to the exact index whenever the candidate pool cannot certify
    ``k`` results.  ``retrieval="exact"`` is the oracle and stays
    bit-identical whatever the other knobs say.
    """

    def __init__(
        self, model: GraphHerbRecommender, options: Optional[EngineOptions] = None, **knobs: Any
    ) -> None:
        if not isinstance(model, GraphHerbRecommender):
            raise TypeError(
                f"InferenceEngine requires a GraphHerbRecommender, got {type(model).__name__}"
            )
        if type(model).score_sets is not GraphHerbRecommender.score_sets:
            raise TypeError(
                f"{type(model).__name__} overrides score_sets; InferenceEngine scores only "
                "the base formula (syndrome embedding . herb embedding) through its shard index"
            )
        self.model = model
        options = self.options = dataclasses.replace(options or EngineOptions(), **knobs)
        self.backend = get_backend(options.backend, options.num_workers, options.worker_addrs)
        backend = self.backend
        #: parameter version -> ``(shard index, approx index or None)``; the
        #: approx index is built with its shard index iff
        #: :attr:`retrieval_active`.  An evicted version's backend snapshot
        #: is released by the *last* scoring call leased on it; its float32
        #: herb copy goes with the snapshot.
        self.index_cache: VersionedCache = VersionedCache(
            MAX_CACHED_INDEX_VERSIONS,
            on_retire=lambda _, indexes: backend.release_snapshot(indexes[0].snapshot.key),
        )
        #: Cumulative approximate-retrieval counters (the ``stats`` line).
        self._retrieval_counters = RetrievalReport()
        self._counters_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Cache handling
    # ------------------------------------------------------------------
    @property
    def retrieval_active(self) -> bool:
        """Whether top-k requests take the approximate two-stage path."""
        return self.options.retrieval == "approx"

    def warm_up(self) -> "InferenceEngine":
        """Force the propagation, index builds and backend start now, before traffic.

        One zero row block runs through the leased index on the backend, so
        a thread pool starts its threads, and a remote backend pushes the
        snapshot to its workers, here rather than on the first request.  On
        the exact path the block runs through ``topk``, so a shard wide
        enough to screen also makes the float32 herb copy the top-k screen
        needs, in the snapshot (a shard worker's too; see
        :func:`~repro.inference.backends.execute_shard_task`); the approx
        path scores it.
        """
        self.model.cached_encode()
        with self._lease_index() as (index, approx):
            zeros = np.zeros((index.row_block, index.snapshot.dim), dtype=np.float64)
            if approx is not None:
                index.score(zeros, backend=self.backend)
            else:
                index.topk(zeros, 1, 1, backend=self.backend)
        return self

    def refresh(self) -> "InferenceEngine":
        """Drop and recompute the cached propagation."""
        self.model.invalidate_cache()
        self.model.precompute()
        return self

    def close(self) -> None:
        """Release backend workers and attachments (a no-op for the serial default).

        Terminal with respect to in-flight work: callers must drain scoring
        calls first (the serving layer does).  The engine itself stays
        usable — the next request rebuilds its index and re-opens pooled
        backends lazily.
        """
        self.index_cache.close()
        self.backend.close()

    def herb_index(self) -> ShardedHerbIndex:
        """The column-sharded herb matrix for the model's *current* parameters.

        Cached per parameter version (the same staleness fingerprint as the
        propagation cache) in :attr:`index_cache`: weight updates produce new
        versions, and entries beyond :data:`MAX_CACHED_INDEX_VERSIONS` are
        evicted with their weight snapshots released from the backend — so
        the cache cannot grow across training/serving cycles.  Scoring paths
        must not call this directly but go through :meth:`_lease_index`,
        which defers the release of an evicted snapshot until the last
        in-flight call on it finishes.
        """
        return self.index_cache.get(self.model.parameter_version(), self._build_indexes)[0]

    def _build_indexes(self) -> Tuple[ShardedHerbIndex, Optional[ApproxHerbIndex]]:
        index = ShardedHerbIndex.from_model(self.model, num_shards=self.options.num_shards)
        if not self.retrieval_active:
            return index, None
        return index, ApproxHerbIndex(
            index.snapshot,
            candidate_factor=self.options.candidate_factor,
            num_lists=self.options.num_lists,
            nprobe=self.options.nprobe,
        )

    def _lease_index(self) -> ContextManager[Tuple[ShardedHerbIndex, Optional[ApproxHerbIndex]]]:
        """The current ``(shard index, approx index or None)`` pair, both
        wrapping one snapshot, pinned for the duration of one scoring call.

        While leased, an eviction of this version defers the backend
        ``release_snapshot`` to the last checkin — so concurrent weight
        rollouts can never release a snapshot that live requests still score
        against.
        """
        # keyed by the pre-build version: a parameter bump landing mid-build
        # must leave the new index looking stale, not fresh
        return self.index_cache.lease(self.model.parameter_version(), self._build_indexes)

    def backend_status(self) -> Dict[str, Any]:
        """Topology/liveness for the serving ``stats`` line.

        Reports the active backend's own status (name, worker counts — a
        remote backend pings its shard workers) plus the effective shard
        count: the built index's if one exists, otherwise the configured
        request.
        """
        status = dict(self.backend.status())
        newest = self.index_cache.peek()
        status["shards"] = newest[0].num_shards if newest is not None else self.options.num_shards
        status["cached_index_versions"] = len(self.index_cache)
        draining = self.index_cache.draining
        if draining:
            status["draining_index_versions"] = draining
        status["retrieval"] = "approx" if self.retrieval_active else "exact"
        if self.retrieval_active:
            if newest is not None:
                approx = newest[1]  # its lists and probes, not the configured ones
                status["num_lists"] = approx.num_lists
                status["nprobe"] = approx.nprobe
            status["candidate_factor"] = self.options.candidate_factor
            with self._counters_lock:
                counters = self._retrieval_counters
                status["approx_requests"] = counters.rows
                status["approx_fallbacks"] = counters.fallback_rows
                approx_rows = counters.rows - counters.fallback_rows
                status["approx_pool_mean"] = round(
                    counters.candidates / approx_rows if approx_rows else 0.0, 1
                )
        return status

    @property
    def embeddings(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cached ``(symptom, herb)`` embedding arrays (refreshed if stale)."""
        return self.model.cached_encode()

    @property
    def num_herbs(self) -> int:
        return self.model.num_herbs

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_batch(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        """Herb scores for every symptom set, one propagation total.

        Every chunk is served from the cached propagation (refreshed here
        once if stale), so only the syndrome induction (sparse CSR pooling +
        MLP) runs per chunk; its syndrome then scores every herb shard
        through the configured backend.  Shards run the fixed-tile matmul
        grid of ``model.score_sets``, so the scores equal it bit for bit.
        """
        if len(symptom_sets) == 0:
            return np.zeros((0, self.model.num_herbs), dtype=np.float64)
        self.model.cached_encode()
        rows: List[np.ndarray] = []
        with self._lease_index() as (index, _):
            for start in range(0, len(symptom_sets), self.options.batch_size):
                chunk = symptom_sets[start : start + self.options.batch_size]
                syndrome = self.model.encode_syndrome(chunk)
                rows.append(index.score(syndrome, backend=self.backend)[: len(chunk)])
        return np.asarray(np.vstack(rows), dtype=np.float64)

    def recommend_batch(
        self, symptom_sets: Sequence[Sequence[int]], k: Union[int, Sequence[int]] = 20
    ) -> List[Recommendation]:
        """Top-``k`` recommendations for every symptom set.

        ``k`` may be one integer for the whole batch or one per symptom set,
        so requests asking for different list lengths can share a single
        scoring matmul.  Rankings follow the canonical order of
        ``top_k_indices`` (score descending, herb id ascending), which keeps
        batched answers bit-identical to single-request ones even for tied
        scores — and, since per-shard candidates merge under the same order,
        identical across ``num_shards`` settings too.

        Each chunk's syndrome takes one of two top-k routes; the full score
        matrix never exists on either:

        * exact — per-shard top-k and candidate merge, selected once at
          ``max(ks)``; each row keeps its own ``k`` prefix (see
          :func:`ranked_prefixes`);
        * approx — float32 first pass, exact re-rank, exact fallback.  Every
          returned score comes from the exact path's fixed-shape gemms, so
          approximation only affects which herbs make the list, never a
          listed herb's score or order.  Rows whose candidate pool cannot
          certify ``k`` results fall back to the exact index one by one; the
          counters feed ``backend_status()`` and the serving ``stats`` line.
        """
        ks = [k] * len(symptom_sets) if isinstance(k, (int, np.integer)) else list(k)
        if len(ks) != len(symptom_sets):
            raise ValueError(f"got {len(ks)} k values for {len(symptom_sets)} symptom sets")
        if any(kk <= 0 for kk in ks):
            raise ValueError("k must be positive")
        if len(symptom_sets) == 0:
            return []
        self.model.cached_encode()
        k_max = min(max(ks), self.model.num_herbs)
        results: List[Recommendation] = []
        report = RetrievalReport()
        with self._lease_index() as (index, approx):
            for start in range(0, len(symptom_sets), self.options.batch_size):
                chunk = symptom_sets[start : start + self.options.batch_size]
                chunk_ks = ks[start : start + len(chunk)]
                syndrome = self.model.encode_syndrome(chunk)
                if approx is None:
                    ids, scores = index.topk(syndrome, len(chunk), k_max, backend=self.backend)
                    results.extend(ranked_prefixes(ids, scores, chunk_ks))
                    continue
                rows, chunk_report = approx.topk(
                    syndrome, chunk_ks, backend=self.backend, exact_index=index
                )
                report.merge(chunk_report)
                results.extend(
                    Recommendation(herb_ids=tuple(ids.tolist()), scores=tuple(scores.tolist()))
                    for ids, scores in rows
                )
        if approx is not None:
            with self._counters_lock:
                self._retrieval_counters.merge(report)
        return results

    def recommend(self, symptom_set: Sequence[int], k: int = 20) -> Recommendation:
        """Top-``k`` recommendation for one symptom set."""
        return self.recommend_batch([tuple(symptom_set)], k=k)[0]
