"""Ranking metrics: Precision@K, Recall@K and NDCG@K (paper Eqs. 16-18).

All metrics operate on a score matrix (one row per test prescription, one
column per herb) and the ground-truth herb sets, truncate the ranking at K and
are averaged over prescriptions, exactly as in the paper's evaluation
protocol (truncation at 20, reported at K in {5, 10, 20}).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..models.base import HERB_BLOCK

__all__ = [
    "top_k_indices",
    "descending_key",
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "evaluate_ranking",
]


#: Rows are selected in blocks of about this many bytes of scores.  The
#: block's temporaries then stay cache-sized, and freeing them never returns
#: a large region to the allocator, which would make the caller's next
#: full-size score matrix fault its pages in again: on a 2-core x86 host,
#: tile-scoring 64 x 50,000 herbs right after a whole-matrix selection took
#: ~47 ms instead of ~27 ms.
SELECT_BLOCK_BYTES = 1 << 21

#: Rows are pruned (see :func:`_select_pruned`) when they hold at least this
#: many whole :data:`~repro.models.base.HERB_BLOCK` column groups per
#: requested score; narrower rows gain too little from the group scan and go
#: straight to :func:`_select_block`.
PRUNE_GROUPS_PER_K = 4


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` entries per row, ordered by decreasing score.

    The order is canonical: (score descending, index ascending), with NaN
    ranking after every number — exactly ``np.argsort(descending_key(scores),
    axis=1, kind="stable")[:, :k]``, ties, ``±0.0``, ``±inf`` and NaN
    included, so the ranking is a deterministic function of the score values
    alone.  For floats that is ``np.argsort(-scores, ...)``.
    That canonical order is what lets the sharded top-k path
    (:func:`repro.inference.sharding.merge_topk`) reproduce this function
    exactly from per-shard candidate lists: every prefix of the full ranking
    is well defined even across tied scores at shard boundaries.

    Rows at least ``PRUNE_GROUPS_PER_K * k`` groups of ``HERB_BLOCK``
    columns wide are bounded and pruned (:func:`_select_pruned`): one
    NaN-ignoring max per group, then only the groups that can hold the top
    ``k`` are read again, so a 64 x 50,000 call at ``k = 20`` ranks about
    ``k`` candidates per row instead of partitioning 50,000.  Narrower rows,
    and rows with fewer than ``k`` numeric groups, use :func:`_select_block`
    (O(n + k log k) per row of ``n`` scores).  Either way the only
    temporaries larger than the ``(rows, k)`` result are per block of
    :data:`SELECT_BLOCK_BYTES`.  Scores must be floats or signed integers; a
    signed dtype's minimum ranks last, where ``-scores`` would wrap it first
    (see :func:`descending_key`).
    """
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if k <= 0:
        raise ValueError("k must be positive")
    num_rows, width = scores.shape
    k = min(k, width)
    top = np.empty((num_rows, k), dtype=np.intp)
    if k == 0:
        return top
    select = _select_pruned if width // HERB_BLOCK >= PRUNE_GROUPS_PER_K * k else _select_block
    step = max(1, SELECT_BLOCK_BYTES // (width * scores.itemsize))
    for start in range(0, num_rows, step):
        top[start : start + step] = select(scores[start : start + step], k)
    return top


def descending_key(values: np.ndarray) -> np.ndarray:
    """An order-reversing key of ``values`` that is its own inverse.

    Floats are negated.  Signed integers are bit-inverted (``~x == -x - 1``):
    negation wraps a dtype's minimum onto itself, so it would rank first.
    :func:`top_k_indices` and :func:`~repro.inference.sharding.merge_topk`
    both rank ascending on this key, so they agree on every input.
    """
    return np.invert(values) if values.dtype.kind == "i" else np.negative(values)


def _select_pruned(scores: np.ndarray, k: int) -> np.ndarray:
    """Canonical top-``k`` of a row block, ``1 <= k <= width // HERB_BLOCK``.

    Each row is cut into groups of :data:`~repro.models.base.HERB_BLOCK`
    columns, and the ``k``-th largest group maximum (``np.fmax``, so NaN is
    ignored) bounds the row's ``k``-th best score from below: ``k`` distinct
    groups each hold a score at least that high.  Every member of the
    canonical top ``k``, ties included, therefore scores at or above the
    bound, inside a group whose maximum reaches it or in the narrower
    trailing group; only those columns are read again.  The survivors, which
    arrive in (row, column) order, are ranked by one stable ``lexsort`` on
    (row, score desc), and each row keeps its first ``k``.  A row whose
    bound is NaN (fewer than ``k`` groups hold a number) goes through
    :func:`_select_block`.  The cost is one pass over the scores plus
    O(G + c log c) per row of ``G`` groups and ``c`` survivors.
    """
    num_rows, width = scores.shape
    whole = width - width % HERB_BLOCK
    groups = scores[:, :whole].reshape(num_rows, -1, HERB_BLOCK)
    group_max = np.fmax.reduce(groups, axis=2)
    negated = descending_key(group_max)
    negated.partition(k - 1, axis=1)
    bound = descending_key(negated[:, k - 1 : k])
    rows, kept_groups = np.nonzero(group_max >= bound)
    members = groups[rows, kept_groups]
    hits = np.flatnonzero(members >= bound[rows])
    tail = scores[:, whole:]
    tail_rows, tail_columns = np.nonzero(tail >= bound)
    groups_hit = hits // HERB_BLOCK
    candidate_rows = np.concatenate([rows[groups_hit], tail_rows])
    candidate_columns = np.concatenate(
        [kept_groups[groups_hit] * HERB_BLOCK + hits % HERB_BLOCK, tail_columns + whole]
    )
    candidate_values = np.concatenate([members.ravel()[hits], tail[tail_rows, tail_columns]])
    # stable on (row, score desc): tied scores keep their ascending columns
    order = np.lexsort((descending_key(candidate_values), candidate_rows))
    short = np.isnan(bound[:, 0])
    pruned = np.flatnonzero(~short)
    first = np.searchsorted(candidate_rows[order], pruned)
    top = np.empty((num_rows, k), dtype=np.intp)
    top[pruned] = candidate_columns[order[first[:, None] + np.arange(k)]]
    if short.any():
        top[short] = _select_block(scores[short], k)
    return top


def _select_block(scores: np.ndarray, k: int) -> np.ndarray:
    """Canonical top-``k`` of a row block, ``1 <= k <= width``.

    ``np.partition`` on a :func:`descending_key` copy finds each row's ``k``-th
    best score (NaN partitions last, so it is only the boundary on rows with
    fewer than ``k`` numbers).  Every index scoring at least the boundary
    survives; on rows whose boundary ties overflow ``k``, the highest-index
    ties are dropped.  The ``k`` survivors, already in index order, are then
    stable-sorted by score.  The cost is O(n + k log k) per row of ``n``
    scores, with a negated copy and a mask of the block as temporaries.
    This is the whole path for rows too narrow to prune (training's and
    batch's herb vocabularies, the IVF centroid probe) and the fallback for
    rows :func:`_select_pruned` cannot bound.
    """
    negated = descending_key(scores)
    negated.partition(k - 1, axis=1)
    boundary = descending_key(negated[:, k - 1 : k])
    del negated
    keep = scores >= boundary
    short = np.isnan(boundary[:, 0])
    keep[short] = True  # every number outranks a NaN boundary; NaNs tie at it
    excess = np.count_nonzero(keep, axis=1) - k
    for row in np.flatnonzero(excess):
        tied = np.isnan(scores[row]) if short[row] else scores[row] == boundary[row]
        keep[row, np.flatnonzero(tied)[-excess[row] :]] = False
    columns = np.nonzero(keep)[1].reshape(scores.shape[0], k)
    values = np.take_along_axis(scores, columns, axis=1)
    order = np.argsort(descending_key(values), axis=1, kind="stable")
    return np.take_along_axis(columns, order, axis=1)


def _truth_matrix(truth_sets: Sequence[Sequence[int]], num_items: int) -> np.ndarray:
    """Boolean multi-hot matrix: ``truth[row, item]`` iff ``item`` is relevant."""
    truth = np.zeros((len(truth_sets), num_items), dtype=bool)
    lengths = np.array([len(t) for t in truth_sets], dtype=np.int64)
    if lengths.sum() == 0:
        return truth
    rows = np.repeat(np.arange(len(truth_sets), dtype=np.int64), lengths)
    cols = np.concatenate([np.asarray(t, dtype=np.int64) for t in truth_sets if len(t)])
    if cols.min() < 0 or cols.max() >= num_items:
        raise ValueError(f"truth ids must lie in [0, {num_items}); got range [{cols.min()}, {cols.max()}]")
    truth[rows, cols] = True
    return truth


def _gather_hits(top: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """``hits[row, j]`` is True when the ``j``-th recommendation is relevant."""
    return truth[np.arange(top.shape[0])[:, None], top]


def _precision(top: np.ndarray, truth: np.ndarray) -> float:
    """Eq. 16: hits over the *effective* list length ``min(k, num_herbs)``.

    When fewer than ``k`` herbs exist every herb is recommended, and dividing
    by the requested ``k`` would deflate the score of a perfect ranking.
    """
    return float(_gather_hits(top, truth).sum(axis=1).mean() / top.shape[1])


def _recall(top: np.ndarray, truth: np.ndarray) -> float:
    hits = _gather_hits(top, truth)
    relevant = truth.sum(axis=1)
    valid = relevant > 0
    if not valid.any():
        return 0.0
    return float((hits.sum(axis=1)[valid] / relevant[valid]).mean())


def _ndcg(top: np.ndarray, truth: np.ndarray) -> float:
    hits = _gather_hits(top, truth).astype(np.float64)
    k_eff = top.shape[1]
    discounts = 1.0 / np.log2(np.arange(2, k_eff + 2))
    relevant = truth.sum(axis=1)
    valid = relevant > 0
    if not valid.any():
        return 0.0
    dcg = hits @ discounts
    ideal_hits = np.minimum(relevant, k_eff)
    idcg_table = np.concatenate([[0.0], np.cumsum(discounts)])
    idcg = idcg_table[ideal_hits]
    with np.errstate(divide="ignore", invalid="ignore"):
        ndcgs = np.where(idcg > 0, dcg / np.maximum(idcg, 1e-300), 0.0)
    return float(ndcgs[valid].mean())


def precision_at_k(scores: np.ndarray, truth_sets: Sequence[Sequence[int]], k: int) -> float:
    """Mean fraction of the top-``k`` recommendations that are true herbs (Eq. 16)."""
    _validate(scores, truth_sets)
    return _precision(top_k_indices(scores, k), _truth_matrix(truth_sets, scores.shape[1]))


def recall_at_k(scores: np.ndarray, truth_sets: Sequence[Sequence[int]], k: int) -> float:
    """Mean fraction of true herbs covered by the top-``k`` recommendations (Eq. 17)."""
    _validate(scores, truth_sets)
    return _recall(top_k_indices(scores, k), _truth_matrix(truth_sets, scores.shape[1]))


def ndcg_at_k(scores: np.ndarray, truth_sets: Sequence[Sequence[int]], k: int) -> float:
    """Normalised Discounted Cumulative Gain at ``k`` with binary relevance (Eq. 18)."""
    _validate(scores, truth_sets)
    return _ndcg(top_k_indices(scores, k), _truth_matrix(truth_sets, scores.shape[1]))


def evaluate_ranking(
    scores: np.ndarray,
    truth_sets: Sequence[Sequence[int]],
    ks: Iterable[int] = (5, 10, 20),
) -> Dict[str, float]:
    """All three metrics at every requested ``k``, keyed like ``p@5`` / ``r@10`` / ``ndcg@20``.

    The truth matrix is ``k``-independent, and one selection at the largest
    ``k`` serves every ``k``: prefixes of the canonical ranking are exactly
    the smaller-``k`` answers — this sits on the evaluation hot path.
    """
    _validate(scores, truth_sets)
    ks = list(ks)
    if any(k <= 0 for k in ks):
        raise ValueError("k must be positive")
    truth = _truth_matrix(truth_sets, scores.shape[1])
    ranking = top_k_indices(scores, max(ks, default=1))
    results: Dict[str, float] = {}
    for k in ks:
        top = ranking[:, :k]
        results[f"p@{k}"] = _precision(top, truth)
        results[f"r@{k}"] = _recall(top, truth)
        results[f"ndcg@{k}"] = _ndcg(top, truth)
    return results


def _validate(scores: np.ndarray, truth_sets: Sequence[Sequence[int]]) -> None:
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if scores.shape[0] != len(truth_sets):
        raise ValueError(
            f"scores has {scores.shape[0]} rows but {len(truth_sets)} truth sets were provided"
        )
