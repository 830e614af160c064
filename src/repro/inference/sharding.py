"""Column-sharded herb scoring and exact top-k merging.

One dense ``(num_sets, dim) @ (dim, num_herbs)`` matmul caps the servable
vocabulary at what fits in a single contiguous matrix.
:class:`ShardedHerbIndex` removes that cap: it cuts the herb-embedding matrix
into column shards, turns each scoring request into picklable
:class:`~repro.inference.backends.ShardTask`\\ s against an immutable
:class:`~repro.models.base.WeightSnapshot` (so shards can execute in-process,
on a thread pool, or on remote shard workers — see
:mod:`repro.inference.backends` and :mod:`repro.inference.distributed`), and
merges the per-shard top-k candidates with :func:`merge_topk`.

Two invariants make the sharded results *bit-identical* to the unsharded
path, not merely close:

1. **Tile-aligned shards.**  Shard boundaries fall on
   :data:`~repro.models.base.HERB_BLOCK` multiples, and every shard scores
   through the same fixed ``(SCORING_BLOCK, dim) @ (dim, HERB_BLOCK)`` tile
   grid as the unsharded :meth:`~repro.models.base.GraphHerbRecommender.
   score_sets` — so each score is produced by literally the same sequence of
   floating-point operations in both paths, wherever the task executes.
2. **Canonical ranking.**  :func:`~repro.evaluation.metrics.top_k_indices`
   orders by (score descending, herb id ascending).  Per-shard candidates are
   selected by that same function, so ranking their union on the same
   (score descending, herb id ascending) key reconstructs the global ranking
   exactly — ties at shard boundaries included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..evaluation.metrics import descending_key
from ..models.base import HERB_BLOCK, WeightSnapshot
from .backends import ComputeBackend, NumpyBackend, ShardTask
from .options import check_minimum

__all__ = ["HerbShard", "ShardedHerbIndex", "merge_topk"]


@dataclass(frozen=True, eq=False)
class HerbShard:
    """One contiguous column shard of the herb-embedding matrix.

    Pure layout metadata plus a zero-copy view into the snapshot — the
    weights themselves live in the :class:`~repro.models.base.WeightSnapshot`
    that shard tasks reference by key.
    """

    index: int
    #: Global herb-id interval ``[start, stop)`` this shard scores.
    start: int
    stop: int
    #: ``(stop - start, dim)`` read-only view into the snapshot (no copy).
    matrix: np.ndarray = field(repr=False)

    @property
    def width(self) -> int:
        return self.stop - self.start


def merge_topk(
    shard_ids: Sequence[np.ndarray],
    shard_scores: Sequence[np.ndarray],
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard top-k candidates into the exact global top-k.

    Each ``shard_ids[s]`` / ``shard_scores[s]`` pair holds one shard's
    candidates: ``(rows, k_s)`` arrays whose columns are already sorted by
    (score descending, id ascending).  Any global top-k element is within
    the top-k of its own shard, so ranking the concatenated candidates on
    ``(descending_key(score), id)`` (one row-wise ``np.lexsort``, NaN last;
    ``-score`` for floats) yields exactly
    :func:`~repro.evaluation.metrics.top_k_indices` on the concatenated
    score row, ties at shard boundaries included.  A single shard's
    candidates are already that ranking and come back as they are.

    Returns ``(ids, scores)`` of shape ``(rows, min(k, total candidates))``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if len(shard_ids) != len(shard_scores):
        raise ValueError("shard_ids and shard_scores must pair up")
    if not shard_ids:
        raise ValueError("need at least one shard candidate list")
    if len(shard_ids) == 1:
        return shard_ids[0][:, :k], shard_scores[0][:, :k]
    ids = np.concatenate(shard_ids, axis=1)
    scores = np.concatenate(shard_scores, axis=1)
    order = np.lexsort((ids, descending_key(scores)), axis=-1)[:, :k]
    return np.take_along_axis(ids, order, axis=1), np.take_along_axis(scores, order, axis=1)


class ShardedHerbIndex:
    """The herb-embedding matrix cut into tile-aligned column shards.

    Built from a :class:`~repro.models.base.WeightSnapshot` (or a bare
    matrix, which gets wrapped into an anonymous snapshot).  ``num_shards``
    is a request, not a promise: it is clamped to the number of
    :data:`~repro.models.base.HERB_BLOCK` tiles the vocabulary spans (a
    shard smaller than one tile would break the fixed-tile determinism
    guarantee), and tiles are dealt to shards as evenly as possible.
    """

    def __init__(
        self,
        source: Union[np.ndarray, WeightSnapshot],
        num_shards: int = 1,
        row_block: Optional[int] = None,
    ) -> None:
        if isinstance(source, WeightSnapshot):
            snapshot = source
        else:
            matrix = np.asarray(source)
            if matrix.ndim != 2 or matrix.shape[0] == 0:
                raise ValueError("herb_embeddings must be a non-empty (num_herbs, dim) matrix")
            snapshot = WeightSnapshot.from_matrix(matrix)
        if snapshot.herb_embeddings.ndim != 2 or snapshot.herb_embeddings.shape[0] == 0:
            raise ValueError("herb_embeddings must be a non-empty (num_herbs, dim) matrix")
        check_minimum("num_shards", num_shards)
        if row_block is not None and row_block <= 0:
            raise ValueError("row_block must be positive")
        self.snapshot = snapshot
        self.num_herbs = snapshot.num_herbs
        self.dim = snapshot.dim
        self.row_block = int(row_block) if row_block is not None else int(snapshot.row_block)
        num_tiles = -(-self.num_herbs // HERB_BLOCK)
        actual = min(num_shards, num_tiles)
        base, extra = divmod(num_tiles, actual)
        shards: List[HerbShard] = []
        tile_cursor = 0
        for index in range(actual):
            tiles = base + (1 if index < extra else 0)
            start = tile_cursor * HERB_BLOCK
            tile_cursor += tiles
            stop = min(self.num_herbs, tile_cursor * HERB_BLOCK)
            shards.append(
                HerbShard(
                    index=index,
                    start=start,
                    stop=stop,
                    matrix=snapshot.herb_embeddings[start:stop],
                )
            )
        self.shards: Tuple[HerbShard, ...] = tuple(shards)

    @classmethod
    def from_model(cls, model, num_shards: int = 1) -> "ShardedHerbIndex":
        """Build from a model's snapshot export (triggering propagation if stale)."""
        return cls(model.export_snapshot(), num_shards=num_shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Task construction + scoring
    # ------------------------------------------------------------------
    def tasks(
        self, syndrome: np.ndarray, op: str, num_rows: int = 0, k: int = 0
    ) -> List[ShardTask]:
        """One picklable :class:`~repro.inference.backends.ShardTask` per shard."""
        return [
            ShardTask(
                op=op,
                shard_index=shard.index,
                start=shard.start,
                stop=shard.stop,
                snapshot_key=self.snapshot.key,
                row_block=self.row_block,
                num_rows=num_rows,
                syndrome=syndrome,
                k=k,
            )
            for shard in self.shards
        ]

    def score(
        self, syndrome: np.ndarray, backend: Optional[ComputeBackend] = None
    ) -> np.ndarray:
        """The full ``(rows, num_herbs)`` score matrix, shard by shard.

        ``syndrome`` must already be row-padded to ``row_block`` multiples
        (:meth:`~repro.models.base.GraphHerbRecommender.encode_syndrome`
        returns it that way); rows stay padded in the result so downstream
        tile consumers keep the fixed shapes.
        """
        backend = backend if backend is not None else NumpyBackend()
        pieces = backend.run_tasks(
            self.snapshot, self.tasks(syndrome, "score", num_rows=syndrome.shape[0])
        )
        return np.hstack(pieces)

    def topk(
        self,
        syndrome: np.ndarray,
        num_rows: int,
        k: int,
        backend: Optional[ComputeBackend] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact global top-``k`` without materialising the full score matrix.

        Each shard task scores its columns *and* reduces them to its local
        top-k before returning, so peak memory per task is
        ``rows × shard_width`` scores plus ``rows × k`` candidates — the
        full ``rows × num_herbs`` matrix never exists (and, on the remote
        backend, only the small candidate lists cross the wire back).
        Candidates then merge into the canonical global ranking (see
        :func:`merge_topk`).

        ``num_rows`` trims the row padding; returns ``(ids, scores)`` of
        shape ``(num_rows, min(k, num_herbs))``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        backend = backend if backend is not None else NumpyBackend()
        candidates = backend.run_tasks(
            self.snapshot, self.tasks(syndrome, "topk", num_rows=num_rows, k=k)
        )
        shard_ids = [ids for ids, _ in candidates]
        shard_scores = [scores for _, scores in candidates]
        return merge_topk(shard_ids, shard_scores, k)
