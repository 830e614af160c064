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
   :data:`PROBE_ROW_BLOCK` rows.  Without a partition the single list is a
   full scan of every row in ``row_block`` groups.  Each request keeps a
   ``candidate_factor * k`` survivor pool.
2. **Re-rank (exact, bit-faithful, float64).**  The survivor union is packed
   into zero-padded ``HERB_BLOCK``-wide synthetic tiles and scored in the
   engine process with the same gemm shape as the exact tile grid; survivors
   in the vocabulary's narrower trailing tile are scored through that real
   tile.  Every returned score is therefore bit-identical to the exact
   oracle's score for the same ``(request, herb)`` pair, and the final
   ranking applies the canonical tie-break (score descending, id
   ascending).  Whether packing is bit-faithful is a property of the host's
   BLAS, so each index checks it at build (:func:`gather_invariant`); where
   the check fails the index re-ranks through ``tiles`` instead: the
   survivors' covering tiles merge into interval
   :class:`~repro.inference.backends.ShardTask`\\ s run on the configured
   :class:`~repro.inference.backends.ComputeBackend`, the arithmetic of
   ``score_sets(herb_range=...)``.  :attr:`ApproxHerbIndex.rerank_mode` and
   :class:`RetrievalReport` name the mode in use.

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
  than the probed candidate pool, or a pool so large pruning is pointless)
  falls back to the exact index on the configured backend for that request
  alone, so answers are always full-length.

Recall is certified offline: the test harness and
``benchmarks/bench_approx_topk.py`` hard-gate recall@k >= 0.99 against the
exact oracle; serving surfaces the re-rank mode and fallback/pool counters
through ``InferenceEngine.backend_status()`` into the ``stats`` control line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..evaluation.metrics import top_k_indices
from ..models.base import HERB_BLOCK, WeightSnapshot, score_herb_tiles
from .backends import ComputeBackend, NumpyBackend, ShardTask
from .options import check_minimum
from .sharding import ShardedHerbIndex

__all__ = [
    "PROBE_ROW_BLOCK",
    "ApproxHerbIndex",
    "RetrievalReport",
    "gather_invariant",
    "kmeans_partition",
]

#: Row group of the IVF first pass: a probed list is scored only for the
#: rows probing it, packed into zero-padded groups of this many rows.  A
#: fixed shape keeps each row's scores independent of its group-mates; a
#: small one keeps the work proportional to the probes, not to the block.
#: (The single-list full scan keeps ``row_block``: every row probes it, and
#: small groups slow that scan down.)
PROBE_ROW_BLOCK = 4

#: Fewest rows a k-means assignment chunk holds (see
#: :func:`_nearest_centroids`); well above the row counts at which the host
#: BLAS takes a small-matrix sgemm path.
MIN_CHUNK_ROWS = 64


def _packed_scores(
    syndrome: np.ndarray, herb_matrix: np.ndarray, ids: np.ndarray, row_block: int
) -> np.ndarray:
    """``(rows, ids.size)`` scores of ``herb_matrix[ids]`` from packed tiles.

    The herb rows are packed into zero-padded ``HERB_BLOCK``-wide synthetic
    tiles, so every score comes out of the same fixed-shape gemm as the
    exact tile grid.
    """
    width = -(-ids.size // HERB_BLOCK) * HERB_BLOCK
    packed = np.zeros((width, herb_matrix.shape[1]), dtype=herb_matrix.dtype)
    np.take(herb_matrix, ids, axis=0, out=packed[: ids.size])
    return score_herb_tiles(syndrome, packed, row_block=row_block)[:, : ids.size]


def gather_invariant(dim: int, row_block: int) -> bool:
    """Whether packed herb tiles score bit-identically to the real tile grid.

    The gathered re-rank relies on the host BLAS computing each element of a
    fixed-shape gemm the same way whatever fills the other columns.  This
    checks it on seeded random data at the given width and row block: a
    shuffled full tile plus a zero-padded partial one, drawn from three real
    tiles, against ``score_herb_tiles`` over the contiguous matrix.
    """
    rng = np.random.default_rng(0)
    herbs = rng.standard_normal((3 * HERB_BLOCK, dim))
    syndrome = rng.standard_normal((row_block, dim))
    picked = rng.choice(herbs.shape[0], size=HERB_BLOCK + HERB_BLOCK // 2, replace=False)
    reference = score_herb_tiles(syndrome, herbs, row_block=row_block)[:, picked]
    return bool(np.array_equal(_packed_scores(syndrome, herbs, picked, row_block), reference))


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
    #: The index's re-rank mode (:attr:`ApproxHerbIndex.rerank_mode`).
    rerank_mode: str = ""

    def merge(self, other: "RetrievalReport") -> None:
        self.rows += other.rows
        self.fallback_rows += other.fallback_rows
        self.candidates += other.candidates
        self.rerank_mode = other.rerank_mode or self.rerank_mode


class ApproxHerbIndex:
    """Float32 first pass + exact re-rank over one weight snapshot.

    Built from a :class:`~repro.models.base.WeightSnapshot` (or a bare matrix,
    wrapped like :class:`~repro.inference.sharding.ShardedHerbIndex` does) and
    therefore parameter-version-stamped: the engine caches one instance per
    parameter version, in the same cache entry as its shard index, so a
    stale float32 copy can never outlive its weights.

    ``candidate_factor`` sizes the survivor pool (``candidate_factor * k``
    per request).  ``num_lists >= 2`` enables the IVF partition with
    ``nprobe`` lists probed per query; ``num_lists in (0, 1)`` keeps a single
    list covering the whole vocabulary (the first pass is then a full
    float32 scan).  ``nprobe`` is clamped to the number of non-empty lists.
    The re-rank mode is fixed at build by :func:`gather_invariant`.  Herb
    embeddings that are NaN, inf or beyond float32 range are refused.
    """

    def __init__(
        self,
        source: Union[np.ndarray, WeightSnapshot],
        candidate_factor: int = 4,
        num_lists: int = 0,
        nprobe: int = 1,
        seed: int = 0,
        row_block: Optional[int] = None,
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
        if row_block is not None and row_block <= 0:
            raise ValueError("row_block must be positive")
        self.snapshot = snapshot
        self.num_herbs = snapshot.num_herbs
        self.dim = snapshot.dim
        self.row_block = int(row_block) if row_block is not None else int(snapshot.row_block)
        self.candidate_factor = int(candidate_factor)
        self.seed = int(seed)
        # one float32 copy feeds k-means and the lists; a value float32
        # cannot hold becomes inf here and is refused with NaN and inf
        with np.errstate(over="ignore"):
            herbs32 = np.ascontiguousarray(snapshot.herb_embeddings, dtype=np.float32)
        if not np.isfinite(herbs32).all():
            raise ValueError("approx retrieval needs finite herb embeddings (in float32 range)")
        if num_lists >= 2 and self.num_herbs >= 2:
            assignments, centroids = kmeans_partition(herbs32, num_lists, seed=seed)
            lists: List[_InvertedList] = []
            kept_centroids: List[np.ndarray] = []
            for list_id in range(centroids.shape[0]):
                member_ids = np.flatnonzero(assignments == list_id).astype(np.int64)
                if member_ids.size == 0:
                    continue
                lists.append(_InvertedList(ids=member_ids, herbs32=herbs32[member_ids]))
                kept_centroids.append(centroids[list_id])
            self.lists: Tuple[_InvertedList, ...] = tuple(lists)
            self.centroids32: Optional[np.ndarray] = np.ascontiguousarray(
                np.vstack(kept_centroids), dtype=np.float32
            )
        else:
            self.lists = (
                _InvertedList(ids=np.arange(self.num_herbs, dtype=np.int64), herbs32=herbs32),
            )
            self.centroids32 = None
        self.num_lists = len(self.lists)
        self.nprobe = min(max(1, int(nprobe)), self.num_lists)
        #: First-pass row group: every row probes a lone list, so it keeps
        #: the full block; partitioned lists see only their probing rows.
        self.probe_row_block = PROBE_ROW_BLOCK if self.num_lists >= 2 else self.row_block
        #: ``"gathered"`` (packed survivor tiles, in process) or ``"tiles"``
        #: (covering tile runs on the backend), from the host probe.
        self.rerank_mode = "gathered" if gather_invariant(self.dim, self.row_block) else "tiles"
        self._exact_index: Optional[ShardedHerbIndex] = None

    @classmethod
    def from_model(
        cls,
        model,
        candidate_factor: int = 4,
        num_lists: int = 0,
        nprobe: int = 1,
        seed: int = 0,
    ) -> "ApproxHerbIndex":
        """Build from a model's snapshot export (triggering propagation if stale)."""
        return cls(
            model.export_snapshot(),
            candidate_factor=candidate_factor,
            num_lists=num_lists,
            nprobe=nprobe,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # First pass
    # ------------------------------------------------------------------
    def _probed_lists(self, syndrome32: np.ndarray, num_rows: int) -> np.ndarray:
        """``(num_rows, nprobe)`` list ids per request, canonically ordered.

        Probing ranks lists by the query-centroid inner product (the IVF-IP
        convention) under the canonical tie-break of ``top_k_indices``: ties
        fall to the lower list id.
        """
        if self.num_lists == 1:
            return np.zeros((num_rows, 1), dtype=np.int64)
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

    def candidates(
        self, syndrome: np.ndarray, ks: Sequence[int]
    ) -> Tuple[List[Optional[np.ndarray]], List[int]]:
        """First-pass survivor pools: ``(per-row id arrays, fallback rows)``.

        ``syndrome`` is the float64 row-padded block from
        ``encode_syndrome``; ``ks`` holds one requested k per real row.  A
        row's entry is ``None`` (and its index appears in the fallback list)
        when the scanned pool cannot certify ``min(k, num_herbs)`` results or
        when pruning is pointless (``candidate_factor * k`` reaches the whole
        vocabulary).
        """
        num_rows = len(ks)
        syndrome32 = np.ascontiguousarray(syndrome, dtype=np.float32)
        probes = self._probed_lists(syndrome32, num_rows)
        # (row, list) probe pairs grouped by list, rows ascending within a list
        flat = probes.ravel()
        order = np.argsort(flat, kind="stable")
        probe_lists, probe_rows = flat[order], order // probes.shape[1]
        starts = np.flatnonzero(np.diff(probe_lists, prepend=-1))
        row_scores: List[List[np.ndarray]] = [[] for _ in range(num_rows)]
        row_ids: List[List[np.ndarray]] = [[] for _ in range(num_rows)]
        group = self.probe_row_block
        for start, stop in zip(starts, [*starts[1:], flat.size]):
            inverted = self.lists[int(probe_lists[start])]
            rows = probe_rows[start:stop]
            block = np.zeros((-(-rows.size // group) * group, self.dim), dtype=np.float32)
            block[: rows.size] = syndrome32[rows]
            scores = score_herb_tiles(block, inverted.herbs32, row_block=group)[: rows.size]
            for position, row in enumerate(rows):
                row_scores[row].append(scores[position])
                row_ids[row].append(inverted.ids)
        survivors: List[Optional[np.ndarray]] = [None] * num_rows
        fallback_rows: List[int] = []
        for row in range(num_rows):
            scores, ids = np.concatenate(row_scores[row]), np.concatenate(row_ids[row])
            pool = self.candidate_factor * int(ks[row])
            if scores.size < min(int(ks[row]), self.num_herbs) or pool >= self.num_herbs:
                fallback_rows.append(row)
                continue
            if pool >= scores.size:
                survivors[row] = np.sort(ids)
            else:
                survivors[row] = np.sort(self._select_pool(scores, ids, pool))
        return survivors, fallback_rows

    # ------------------------------------------------------------------
    # Exact re-rank + fallback
    # ------------------------------------------------------------------
    @staticmethod
    def _tile_runs(candidate_ids: np.ndarray, num_herbs: int) -> List[Tuple[int, int]]:
        """Covering HERB_BLOCK tiles of ``candidate_ids``, merged into runs."""
        tiles = np.unique(candidate_ids // HERB_BLOCK)
        runs: List[Tuple[int, int]] = []
        run_start = previous = int(tiles[0])
        for tile in tiles[1:]:
            tile = int(tile)
            if tile != previous + 1:
                runs.append((run_start * HERB_BLOCK, min(num_herbs, (previous + 1) * HERB_BLOCK)))
                run_start = tile
            previous = tile
        runs.append((run_start * HERB_BLOCK, min(num_herbs, (previous + 1) * HERB_BLOCK)))
        return runs

    def _tile_run_scores(
        self, syndrome: np.ndarray, union: np.ndarray, backend: ComputeBackend
    ) -> np.ndarray:
        """``(rows, union.size)`` exact scores from the survivors' real tiles.

        The covering tiles merge into contiguous intervals; each interval
        becomes one ``op="score"`` ShardTask on ``backend``, so the scores
        come out of the identical tile grid as ``score_sets(herb_range=...)``.
        """
        runs = self._tile_runs(union, self.num_herbs)
        tasks = [
            ShardTask(
                op="score",
                shard_index=index,
                start=start,
                stop=stop,
                snapshot_key=self.snapshot.key,
                row_block=self.row_block,
                num_rows=syndrome.shape[0],
                syndrome=syndrome,
                k=0,
            )
            for index, (start, stop) in enumerate(runs)
        ]
        pieces = backend.run_tasks(self.snapshot, tasks)
        return np.hstack(
            [
                piece[:, union[(union >= start) & (union < stop)] - start]
                for piece, (start, stop) in zip(pieces, runs)
            ]
        )

    def _gathered_scores(self, syndrome: np.ndarray, union: np.ndarray) -> np.ndarray:
        """``(rows, union.size)`` exact scores from packed survivor tiles.

        Survivors in full tiles are packed (:func:`_packed_scores`); those in
        the vocabulary's narrower trailing tile are scored through that real
        tile, whose width no packed tile has.
        """
        herbs = self.snapshot.herb_embeddings
        full_stop = self.num_herbs // HERB_BLOCK * HERB_BLOCK
        split = int(np.searchsorted(union, full_stop))
        pieces = []
        if split:
            pieces.append(_packed_scores(syndrome, herbs, union[:split], self.row_block))
        if split < union.size:
            tail = score_herb_tiles(syndrome, herbs[full_stop:], row_block=self.row_block)
            pieces.append(tail[:, union[split:] - full_stop])
        return np.hstack(pieces)

    def _rerank(
        self,
        syndrome: np.ndarray,
        survivors: List[Optional[np.ndarray]],
        rows: List[int],
        ks: Sequence[int],
        backend: ComputeBackend,
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]],
    ) -> None:
        """Score survivors exactly and rank them canonically.

        The survivor union is scored once, by the mode the host probe chose
        at build (:attr:`rerank_mode`); both give every survivor the bits the
        exact oracle gives it.
        """
        union = np.unique(np.concatenate([survivors[row] for row in rows]))
        if self.rerank_mode == "gathered":
            union_scores = self._gathered_scores(syndrome, union)
        else:
            union_scores = self._tile_run_scores(syndrome, union, backend)
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
        block = np.zeros(
            ((-(-len(rows) // self.row_block)) * self.row_block, syndrome.shape[1]),
            dtype=np.float64,
        )
        block[: len(rows)] = syndrome[rows]
        k_max = max(min(int(ks[row]), self.num_herbs) for row in rows)
        ids, scores = exact_index.topk(block, len(rows), k_max, backend=backend)
        for position, row in enumerate(rows):
            keep = min(int(ks[row]), ids.shape[1])
            results[row] = (ids[position, :keep].copy(), scores[position, :keep].copy())

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
            rerank_mode=self.rerank_mode,
        )
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(ks)
        rerank_rows = [row for row in range(len(ks)) if survivors[row] is not None]
        if rerank_rows:
            self._rerank(syndrome, survivors, rerank_rows, ks, backend, results)
        if fallback_rows:
            self._fallback(syndrome, fallback_rows, ks, backend, exact_index, results)
        return results, report  # type: ignore[return-value]
