"""Two-stage approximate top-k retrieval: float32 first pass + exact re-rank.

Exact serving (:class:`~repro.inference.sharding.ShardedHerbIndex`) is linear
in vocabulary size: every request scores every herb and ranks the full row.
:class:`ApproxHerbIndex` makes top-k sub-linear with the classic
retrieve-then-re-rank shape.  Both stages rest on one BLAS property: a
fixed-shape ``(rows, dim) @ (dim, HERB_BLOCK)`` gemm gives each output
element the same bits whatever herbs fill the other columns and whatever
rows fill the other rows of the block.

1. **First pass (approximate, cheap).**  A float32 copy of the herb
   embeddings is scored in float32.  An IVF-style coarse partition (seeded
   k-means over the same copy, ``nprobe`` lists probed per query) restricts
   the scan to a fraction of the vocabulary: each probed list is scored only
   for the rows that probe it, gathered into zero-padded groups of
   :data:`PROBE_ROW_BLOCK` rows.  By default :func:`partition_size` sizes
   the partition from the vocabulary; one too small to gain from it gets no
   lists, and every request takes the exact fallback.  Each request keeps a
   ``candidate_factor * k`` survivor pool, selected without gathering every
   probed score: the request's nearest list sets a floor the pool's
   boundary cannot be below, each list keeps only the members reaching it,
   and a probed list whose centroid and radius bound every member below it
   is not scored at all (see :meth:`ApproxHerbIndex.candidates`).
2. **Re-rank (exact, bit-faithful, float64).**  The survivor union is packed
   into zero-padded ``HERB_BLOCK``-wide synthetic tiles and scored in the
   engine process with the same gemm shape as the exact tile grid; survivors
   in the vocabulary's narrower trailing tile are scored through that real
   tile.  Every returned score is therefore bit-identical to the exact
   oracle's score for the same ``(request, herb)`` pair, and the final
   ranking applies the canonical tie-break (score descending, id
   ascending).  Whether packing is bit-faithful is a property of the host's
   BLAS, so each index checks it at build
   (:func:`~repro.inference.backends.gather_invariant`).  Where the check
   fails the index builds no lists and every request takes the exact
   fallback, which on such a host scans in float64, as the exact screen
   does.

Determinism invariants (pinned by ``tests/inference/test_retrieval.py``):

* A request's candidate pool is a function of that request alone — first-pass
  matmuls run over fixed row groups against per-list matrices whose shapes
  are frozen at build time, and pool-boundary ties resolve canonically (keep
  ids scoring strictly above the boundary value, fill with boundary-tied ids
  in ascending order) — so batching never changes an answer.
* Re-ranked scores come from the same gemm shape as the exact path:
  approximation can only affect *which* herbs survive to the re-rank (the
  recall dimension), never the score or relative order of survivors.
* Any request whose scanned pool cannot certify ``k`` results (``k`` larger
  than the probed candidate pool, an index without lists, a pool so large
  pruning is pointless, or a query float32 cannot hold) falls back to the
  exact index on the configured backend for that request alone, so answers
  are always full-length.

Recall is certified offline: the test harness and
``benchmarks/bench_approx_topk.py`` hard-gate recall@k >= 0.99 against the
exact oracle; serving surfaces the partition and the fallback/pool counters
through ``InferenceEngine.backend_status()`` into the ``stats`` control line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..evaluation.metrics import top_k_indices
from ..models.base import WeightSnapshot, _pad_rows, score_herb_tiles
from . import backends
from .backends import ComputeBackend, NumpyBackend, gathered_scores
from .options import check_minimum
from .sharding import ShardedHerbIndex

__all__ = [
    "MIN_PARTITIONED_HERBS",
    "PROBE_ROW_BLOCK",
    "ApproxHerbIndex",
    "RetrievalReport",
    "kmeans_partition",
    "partition_size",
]

#: Row group of the IVF first pass: a probed list is scored only for the
#: rows probing it, packed into zero-padded groups of this many rows.  A
#: fixed shape keeps each row's scores independent of its group-mates; a
#: small one keeps the work proportional to the probes, not to the block.
PROBE_ROW_BLOCK = 4

#: Smallest vocabulary :func:`partition_size` partitions by default.  On a
#: 2-core x86 host, 64-row calls on a clustered 64-dim vocabulary, IVF
#: 256/16 against exact ran 1.5x (one BLAS thread) and 1.0x (two) at this
#: size, 1.1x and 0.7x at 50k herbs.  Below it the index builds no lists and
#: every request takes the exact fallback.
MIN_PARTITIONED_HERBS = 65_536

#: Fewest rows a k-means assignment chunk holds (see
#: :func:`_nearest_centroids`); well above the row counts at which the host
#: BLAS takes a small-matrix sgemm path.
MIN_CHUNK_ROWS = 64


def partition_size(
    num_herbs: int, num_lists: Optional[int] = None, nprobe: Optional[int] = None
) -> Tuple[int, int]:
    """``(num_lists, nprobe)`` for a vocabulary; explicit values are returned as given.

    A derived ``num_lists`` is 0 below :data:`MIN_PARTITIONED_HERBS` herbs,
    else the power of two nearest ``sqrt(num_herbs)`` (256 at the minimum,
    1024 at 1M herbs).  A derived ``nprobe`` is ``num_lists // 16``, at
    least 1: the ratio of perfbench's 256/16 and the 1M gate's.
    """
    if num_lists is None:
        num_lists = 0 if num_herbs < MIN_PARTITIONED_HERBS else 2 ** round(math.log2(num_herbs) / 2)
    if nprobe is None:
        nprobe = max(1, num_lists // 16)
    return num_lists, nprobe


def _nearest_centroids(data: np.ndarray, centroids: np.ndarray, chunk: int = 8192) -> np.ndarray:
    """Index of the L2-nearest centroid per row (chunked, deterministic).

    A chunk's ``(chunk, centroids)`` distance matrix is the build's largest
    temporary, made three times over: 24 MiB at 8192 rows and 256
    centroids, so the build peaks near the index's settled size.  A
    remainder under :data:`MIN_CHUNK_ROWS` joins the chunk before it, so no
    chunk is a sliver of a few rows: x86 OpenBLAS rounds a 1-4 row sgemm
    differently from a wider one, which could move a near-tied row to
    another list.  On the shapes ``tests/inference/test_retrieval.py`` pins,
    the assignments match one chunk covering every row byte for byte.
    """
    centroid_norms = np.einsum("ij,ij->i", centroids, centroids)
    nearest = np.empty(data.shape[0], dtype=np.int64)
    edges = list(range(0, data.shape[0], chunk)) + [data.shape[0]]
    if len(edges) > 2 and edges[-1] - edges[-2] < MIN_CHUNK_ROWS:
        del edges[-2]
    for start, stop in zip(edges[:-1], edges[1:]):
        # argmin over ||x - c||^2 == argmin over ||c||^2 - 2 x.c (drop ||x||^2)
        distances = centroid_norms[None, :] - 2.0 * (data[start:stop] @ centroids.T)
        nearest[start:stop] = np.argmin(distances, axis=1)
    return nearest


def kmeans_partition(
    matrix: np.ndarray,
    num_lists: int,
    seed: int = 0,
    iterations: int = 10,
    sample_size: int = 100_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded L2 k-means over embedding rows — the IVF coarse quantizer.

    Fully deterministic for a given ``(matrix, num_lists, seed)``: seeded
    init, argmin assignment (ties to the lowest centroid id), fixed iteration
    count.  Training runs on a seeded subsample beyond ``sample_size`` rows;
    the final assignment always covers every row.  Returns
    ``(assignments, centroids)`` with float32 centroids; empty clusters keep
    their previous centroid (callers drop lists that end up empty).
    """
    data = np.ascontiguousarray(np.asarray(matrix), dtype=np.float32)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("kmeans_partition expects a non-empty (rows, dim) matrix")
    k = max(1, min(int(num_lists), data.shape[0]))
    rng = np.random.default_rng(seed)
    if data.shape[0] > sample_size:
        train = data[np.sort(rng.choice(data.shape[0], sample_size, replace=False))]
    else:
        train = data
    centroids = train[np.sort(rng.choice(train.shape[0], k, replace=False))].copy()
    for _ in range(iterations):
        assignments = _nearest_centroids(train, centroids)
        # per-column bincount sums each cluster's rows in row order in
        # float64, exactly as np.add.at does, at a fraction of its cost
        sums = np.stack(
            [
                np.bincount(assignments, weights=train[:, column], minlength=k)
                for column in range(train.shape[1])
            ],
            axis=1,
        )
        counts = np.bincount(assignments, minlength=k)
        populated = counts > 0
        centroids[populated] = (sums[populated] / counts[populated, None]).astype(np.float32)
    return _nearest_centroids(data, centroids), centroids


def _by_list(lists: np.ndarray, rows: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """``(list id, rows ascending)`` groups of ``(row, list)`` probe pairs."""
    order = np.lexsort((rows, lists))
    lists, rows = lists[order], rows[order]
    starts = np.flatnonzero(np.diff(lists, prepend=-1))
    stops = np.append(starts[1:], lists.size)
    return [(int(lists[start]), rows[start:stop]) for start, stop in zip(starts, stops)]


@dataclass(frozen=True, eq=False)
class _InvertedList:
    """One coarse partition: its members' float32 rows plus their global ids."""

    #: ``(size,)`` int64 global herb ids, ascending.
    ids: np.ndarray = field(repr=False)
    #: ``(size, dim)`` float32 embeddings of those herbs, the first-pass operand.
    herbs32: np.ndarray = field(repr=False)


@dataclass
class RetrievalReport:
    """Counters for one :meth:`ApproxHerbIndex.topk` call."""

    #: Requests answered (approx + fallback).
    rows: int = 0
    #: Requests that fell back to the exact index.
    fallback_rows: int = 0
    #: Sum of survivor-pool sizes over the approx-answered requests.
    candidates: int = 0

    def merge(self, other: "RetrievalReport") -> None:
        self.rows += other.rows
        self.fallback_rows += other.fallback_rows
        self.candidates += other.candidates


class ApproxHerbIndex:
    """Float32 first pass + exact re-rank over one weight snapshot.

    Built from a :class:`~repro.models.base.WeightSnapshot` (or a bare matrix,
    wrapped like :class:`~repro.inference.sharding.ShardedHerbIndex` does) and
    therefore parameter-version-stamped: the engine caches one instance per
    parameter version, in the same cache entry as its shard index, so a
    stale float32 copy can never outlive its weights.

    ``candidate_factor`` sizes the survivor pool (``candidate_factor * k``
    per request).  ``num_lists`` (>= 2) k-means lists are built and
    ``nprobe`` probed per query; ``None`` derives either from the vocabulary
    (:func:`partition_size`).  Empty lists are dropped, fewer than two lists
    are not kept (one would be a full scan, which exact beats), ``nprobe`` is
    clamped to the lists kept, and without lists every request falls back
    to exact.  On a host whose BLAS fails
    :func:`~repro.inference.backends.gather_invariant` no lists are built.
    Herb embeddings that are NaN, inf or beyond float32 range are refused.
    """

    def __init__(
        self,
        source: Union[np.ndarray, WeightSnapshot],
        candidate_factor: int = 4,
        num_lists: Optional[int] = None,
        nprobe: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if isinstance(source, WeightSnapshot):
            snapshot = source
        else:
            matrix = np.asarray(source)
            if matrix.ndim != 2 or matrix.shape[0] == 0:
                raise ValueError("herb_embeddings must be a non-empty (num_herbs, dim) matrix")
            snapshot = WeightSnapshot.from_matrix(matrix)
        check_minimum("candidate_factor", candidate_factor)
        check_minimum("num_lists", num_lists)
        check_minimum("nprobe", nprobe)
        self.snapshot = snapshot
        self.num_herbs = snapshot.num_herbs
        self.dim = snapshot.dim
        self.row_block = int(snapshot.row_block)
        self.candidate_factor = int(candidate_factor)
        self.seed = int(seed)
        # one float32 copy feeds k-means and the lists; a value float32
        # cannot hold becomes inf here and is refused with NaN and inf
        with np.errstate(over="ignore"):
            herbs32 = np.ascontiguousarray(snapshot.herb_embeddings, dtype=np.float32)
        if not np.isfinite(herbs32).all():
            raise ValueError("approx retrieval needs finite herb embeddings (in float32 range)")
        num_lists, nprobe = partition_size(self.num_herbs, num_lists, nprobe)
        self.lists: Tuple[_InvertedList, ...] = ()
        self.centroids32 = np.zeros((0, self.dim), dtype=np.float32)
        if num_lists and backends.gather_invariant(self.dim, self.row_block):
            assignments, centroids = kmeans_partition(herbs32, num_lists, seed=seed)
            counts = np.bincount(assignments, minlength=centroids.shape[0])
            populated = np.flatnonzero(counts)
            if populated.size >= 2:
                # a stable sort keeps each list's members in ascending id order
                order = np.argsort(assignments, kind="stable")
                members = np.split(order, np.cumsum(counts[populated])[:-1])
                self.lists = tuple(_InvertedList(ids=ids, herbs32=herbs32[ids]) for ids in members)
                self.centroids32 = centroids[populated]
        #: Per list, the largest distance of a member from its centroid.
        self.radii = np.array(
            [
                np.sqrt(np.square(inverted.herbs32 - centroid.astype(np.float64)).sum(1).max())
                for inverted, centroid in zip(self.lists, self.centroids32)
            ]
        )
        self.num_lists = len(self.lists)
        self._list_sizes = np.array([inverted.ids.size for inverted in self.lists], dtype=np.int64)
        self.nprobe = min(int(nprobe), self.num_lists)
        self._exact_index: Optional[ShardedHerbIndex] = None

    # ------------------------------------------------------------------
    # First pass
    # ------------------------------------------------------------------
    def _probed_lists(self, syndrome32: np.ndarray, num_rows: int) -> np.ndarray:
        """``(num_rows, nprobe)`` list ids per request, canonically ordered.

        Probing ranks lists by the query-centroid inner product (the IVF-IP
        convention) under the canonical tie-break of ``top_k_indices``: ties
        fall to the lower list id.
        """
        centroid_scores = score_herb_tiles(
            syndrome32, self.centroids32, row_block=self.row_block
        )[:num_rows]
        return top_k_indices(centroid_scores, self.nprobe)

    @staticmethod
    def _select_pool(scores: np.ndarray, ids: np.ndarray, pool: int) -> np.ndarray:
        """The canonical ``pool``-sized survivor set of one request.

        ``argpartition`` finds the boundary value in O(n); the boundary is
        then resolved canonically — every id scoring strictly above the
        boundary survives, and the remaining slots fill with boundary-tied
        ids in ascending order — so the survivor *set* never depends on the
        partition's internal (unspecified) ordering, and float32 ties
        across the pool boundary resolve exactly like exact-path score ties.
        """
        boundary_pick = np.argpartition(-scores, pool - 1)[:pool]
        boundary = scores[boundary_pick].min()
        above = ids[scores > boundary]
        tied = np.sort(ids[scores == boundary])
        return np.concatenate([above, tied[: pool - above.size]])

    def _list_scores(self, syndrome32: np.ndarray, list_id: int, rows: np.ndarray) -> np.ndarray:
        """``(rows.size, list size)`` first-pass scores of one list, for ``rows``.

        The rows are packed into zero-padded groups of
        :data:`PROBE_ROW_BLOCK`, so each row's scores come from the same
        gemm shape whichever rows share its group.
        """
        group = PROBE_ROW_BLOCK
        block = np.zeros((-(-rows.size // group) * group, self.dim), dtype=np.float32)
        block[: rows.size] = syndrome32[rows]
        herbs32 = self.lists[list_id].herbs32
        return score_herb_tiles(block, herbs32, row_block=group)[: rows.size]

    def candidates(
        self, syndrome: np.ndarray, ks: Sequence[int]
    ) -> Tuple[List[Optional[np.ndarray]], List[int]]:
        """First-pass survivor pools: ``(per-row id arrays, fallback rows)``.

        ``syndrome`` is the float64 row-padded block from
        ``encode_syndrome``; ``ks`` holds one requested k per real row.  A
        row's entry is ``None`` (and its index appears in the fallback list)
        when the index has no lists, when the scanned pool cannot certify
        ``min(k, num_herbs)`` results, when pruning is pointless
        (``candidate_factor * k`` reaches the whole vocabulary), or when its
        float32 query is not finite.

        A row's pool is ``_select_pool`` over every herb it probes, but that
        ranking only ever looks at herbs scoring at least the pool's
        boundary, the ``pool``-th best first-pass score.  The ``pool``-th
        best score within the row's nearest list cannot exceed it, so each
        list keeps, per row, only the herbs reaching that floor, and the
        pool is selected from those: the same pool, without gathering every
        probed score of the row.  The nearest lists are scored first to set
        the floors.
        """
        num_rows = len(ks)
        if not self.num_lists:  # nothing to probe: every row falls back
            return [None] * num_rows, list(range(num_rows))
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows fall back
            syndrome32 = np.ascontiguousarray(syndrome, dtype=np.float32)
            probes = self._probed_lists(syndrome32, num_rows)
        pools = self.candidate_factor * np.asarray(ks, dtype=np.int64)
        probed = self._list_sizes[probes].sum(axis=1)
        fallback = (
            (probed < np.minimum(np.asarray(ks, dtype=np.int64), self.num_herbs))
            | (pools >= self.num_herbs)
            | ~np.isfinite(syndrome32[:num_rows]).all(axis=1)
        )
        survivors: List[Optional[np.ndarray]] = [None] * num_rows
        for row in np.flatnonzero(~fallback & (pools >= probed)):
            # the pool holds every probed herb: nothing to score
            survivors[row] = np.sort(np.concatenate([self.lists[i].ids for i in probes[row]]))
        pruned = np.flatnonzero(~fallback & (pools < probed))
        if pruned.size:
            self._select_pools(syndrome32, probes, pools, pruned, survivors)
        return survivors, np.flatnonzero(fallback).tolist()

    def _select_pools(
        self,
        syndrome32: np.ndarray,
        probes: np.ndarray,
        pools: np.ndarray,
        pruned: np.ndarray,
        survivors: List[Optional[np.ndarray]],
    ) -> None:
        """Fill ``survivors`` for the ``pruned`` rows (see :meth:`candidates`).

        Each row's nearest list is scored first and sets the row's floor.
        Its other probed lists are then scored only where
        :meth:`_may_reach` cannot rule out a member reaching that floor.
        """
        floors = np.full(probes.shape[0], -np.inf, dtype=np.float32)
        kept: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for list_id, rows in _by_list(probes[pruned, 0], pruned):
            scores = self._list_scores(syndrome32, list_id, rows)
            for position, row in enumerate(rows):
                if scores.shape[1] >= pools[row]:
                    # the pool-th best, NaN ranking below every number
                    floor = -np.partition(-scores[position], pools[row] - 1)[pools[row] - 1]
                    floors[row] = floor if floor == floor else -np.inf
            kept.append(self._reaching(list_id, rows, scores, floors))
        rows = np.repeat(pruned, probes.shape[1] - 1)
        lists = probes[pruned, 1:].ravel()
        reach = self._may_reach(syndrome32, rows, lists, floors[rows])
        for list_id, list_rows in _by_list(lists[reach], rows[reach]):
            scores = self._list_scores(syndrome32, list_id, list_rows)
            kept.append(self._reaching(list_id, list_rows, scores, floors))
        row_of, kept_scores, kept_ids = (np.concatenate(part) for part in zip(*kept))
        order = np.argsort(row_of, kind="stable")
        row_of, kept_scores, kept_ids = row_of[order], kept_scores[order], kept_ids[order]
        bounds = np.searchsorted(row_of, np.append(pruned, probes.shape[0]))
        for row, start, stop in zip(pruned, bounds[:-1], bounds[1:]):
            scores, ids = kept_scores[start:stop], kept_ids[start:stop]
            pool = int(pools[row])
            if ids.size > pool:
                ids = self._select_pool(scores, ids, pool)
            survivors[row] = np.sort(ids)

    def _reaching(
        self, list_id: int, rows: np.ndarray, scores: np.ndarray, floors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, scores, ids)`` of the list members reaching each row's floor."""
        # flatnonzero, not a 2-D nonzero: the same hits, several times faster
        hit_rows, hit_columns = np.divmod(
            np.flatnonzero(scores >= floors[rows][:, None]), scores.shape[1]
        )
        return rows[hit_rows], scores[hit_rows, hit_columns], self.lists[list_id].ids[hit_columns]

    def _may_reach(
        self, syndrome32: np.ndarray, rows: np.ndarray, lists: np.ndarray, floors: np.ndarray
    ) -> np.ndarray:
        """Per ``(row, list)`` pair, whether a member may score at least ``floor``.

        Every member ``h`` of a list lies within its radius ``R`` of the
        centroid ``c``, so ``q·h <= q·c + ‖q‖·R``.  A first-pass score is
        within :func:`~repro.inference.backends.float32_score_error` of
        ``q·h`` (with ``‖c‖ + R`` bounding ``‖h‖``), so a pair whose bound
        plus that error stays below the floor has no member reaching it.
        Pairs whose norms near float32's range are kept.
        """
        if rows.size == 0:
            return np.zeros(0, dtype=bool)
        queries = syndrome32[rows].astype(np.float64)
        centroids = self.centroids32[lists].astype(np.float64)
        query_norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
        radii = self.radii[lists]
        herb_norms = np.sqrt(np.einsum("ij,ij->i", centroids, centroids)) + radii
        upper = (
            np.einsum("ij,ij->i", queries, centroids)
            + query_norms * radii
            + backends.float32_score_error(query_norms, herb_norms, self.dim)
        )
        return ~(upper < floors) | ~(query_norms * herb_norms <= backends.SCREEN_NORM_LIMIT)

    # ------------------------------------------------------------------
    # Exact re-rank + fallback
    # ------------------------------------------------------------------
    def _rerank(
        self,
        syndrome: np.ndarray,
        survivors: List[Optional[np.ndarray]],
        rows: List[int],
        ks: Sequence[int],
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]],
    ) -> None:
        """Score survivors exactly and rank them canonically.

        The survivor union is scored once, in packed tiles
        (:func:`~repro.inference.backends.gathered_scores`), which give every
        survivor the bits the exact oracle gives it: an index has lists only
        where the host passes the gather probe.
        """
        union = np.unique(np.concatenate([survivors[row] for row in rows]))
        union_scores = gathered_scores(
            syndrome, self.snapshot.herb_embeddings, union, self.row_block
        )
        for row in rows:
            ids = survivors[row]
            exact = union_scores[row, np.searchsorted(union, ids)]
            order = np.lexsort((ids, -exact))[: min(int(ks[row]), ids.size)]
            results[row] = (ids[order], exact[order])

    def _fallback(
        self,
        syndrome: np.ndarray,
        rows: List[int],
        ks: Sequence[int],
        backend: ComputeBackend,
        exact_index: ShardedHerbIndex,
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]],
    ) -> None:
        """Answer ``rows`` through the exact index (full scan, canonical rank)."""
        block = _pad_rows(syndrome[rows], self.row_block)
        keeps = np.minimum(np.asarray(ks)[rows], self.num_herbs).tolist()
        ids, scores = exact_index.topk(block, len(rows), max(keeps), backend=backend)
        for row, keep, row_ids, row_scores in zip(rows, keeps, ids, scores):
            results[row] = (row_ids[:keep], row_scores[:keep])

    def topk(
        self,
        syndrome: np.ndarray,
        ks: Sequence[int],
        backend: Optional[ComputeBackend] = None,
        exact_index: Optional[ShardedHerbIndex] = None,
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], RetrievalReport]:
        """Two-stage top-k for one row-padded syndrome block.

        ``syndrome`` comes from ``encode_syndrome`` (float64, rows padded to
        ``row_block``); ``ks`` holds the requested k for each real row.
        Returns one ``(ids, scores)`` pair per row — scores exact and
        canonically ordered, arrays of length ``min(k, num_herbs)`` — plus
        the :class:`RetrievalReport` for this call.  ``exact_index`` handles
        fallback rows and must wrap the same snapshot (the engine passes its
        leased shard index); by default a private single-shard exact index is
        built lazily.
        """
        if len(ks) == 0:
            return [], RetrievalReport()
        if any(int(k) <= 0 for k in ks):
            raise ValueError("k must be positive")
        if syndrome.shape[0] < len(ks) or syndrome.shape[0] % self.row_block:
            raise ValueError(
                f"syndrome block of {syndrome.shape[0]} rows does not cover {len(ks)} "
                f"requests padded to row_block={self.row_block}"
            )
        backend = backend if backend is not None else NumpyBackend()
        if exact_index is None:
            if self._exact_index is None:
                self._exact_index = ShardedHerbIndex(self.snapshot, num_shards=1)
            exact_index = self._exact_index
        elif exact_index.snapshot.key != self.snapshot.key:
            raise ValueError(
                f"exact index wraps snapshot {exact_index.snapshot.key!r} but this approx "
                f"index was built from {self.snapshot.key!r} — stale index after a weight "
                "update?"
            )
        survivors, fallback_rows = self.candidates(syndrome, ks)
        report = RetrievalReport(
            rows=len(ks),
            fallback_rows=len(fallback_rows),
            candidates=sum(ids.size for ids in survivors if ids is not None),
        )
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(ks)
        rerank_rows = [row for row in range(len(ks)) if survivors[row] is not None]
        if rerank_rows:
            self._rerank(syndrome, survivors, rerank_rows, ks, results)
        if fallback_rows:
            self._fallback(syndrome, fallback_rows, ks, backend, exact_index, results)
        return results, report  # type: ignore[return-value]
