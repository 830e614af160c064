"""``top_k_indices`` against an independent full-sort reference.

The selector partitions instead of sorting, and on wide rows reads again
only the column groups that can hold the top ``k``, so every property of
the canonical ranking — (score desc, index asc), NaN last, ties at the
``k``-th place resolved to the lowest index — is checked here against the
plain stable argsort it replaced, bit for bit, on both paths.
"""

import tracemalloc

import numpy as np
import pytest

from repro.evaluation import metrics, top_k_indices
from repro.evaluation.metrics import PRUNE_GROUPS_PER_K, SELECT_BLOCK_BYTES
from repro.inference import ShardedHerbIndex
from repro.models.base import HERB_BLOCK, SCORING_BLOCK

SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
KINDS = ("integers", "specials", "sparse_nan", "float32", "normal")


def argsort_reference(scores: np.ndarray, k: int) -> np.ndarray:
    """The canonical ranking by a full stable sort (NaN sorts last)."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def assert_matches_reference(scores: np.ndarray, k: int) -> None:
    got = top_k_indices(scores, k)
    expected = argsort_reference(scores, k)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def random_matrix(rng: np.random.Generator, kind: str, rows: int, width: int) -> np.ndarray:
    if kind == "integers":  # tie-heavy
        return rng.integers(-2, 3, size=(rows, width)).astype(np.float64)
    if kind == "specials":  # ±0.0, ±inf and NaN only
        return rng.choice(SPECIALS, size=(rows, width))
    if kind == "sparse_nan":  # many rows with fewer than k numbers
        scores = rng.normal(size=(rows, width))
        scores[rng.random((rows, width)) < 0.7] = np.nan
        return scores
    if kind == "float32":
        scores = rng.integers(0, 4, size=(rows, width)).astype(np.float32)
        scores[rng.random((rows, width)) < 0.2] = np.nan
        return scores
    return rng.normal(size=(rows, width))


@pytest.mark.parametrize("kind", KINDS)
def test_randomized_matches_stable_argsort(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for _ in range(300):
        rows = int(rng.integers(0, 7))
        width = int(rng.integers(1, 50))
        scores = random_matrix(rng, kind, rows, width)
        if rows and rng.random() < 0.3:
            scores[int(rng.integers(rows))] = np.nan  # an all-NaN row
        for k in {1, max(width - 1, 1), width, width + 5, int(rng.integers(1, width + 1))}:
            assert_matches_reference(scores, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_column(k):
    scores = np.array([[0.5], [np.nan], [-np.inf], [-0.0]])
    assert_matches_reference(scores, k)


def test_zero_rows():
    for k in (1, 4, 10):
        assert top_k_indices(np.zeros((0, 4)), k).shape == (0, min(k, 4))
        assert_matches_reference(np.zeros((0, 4)), k)


def test_signed_zeros_tie_by_index():
    scores = np.array([[-0.0, 0.0, -0.0, 0.0, -1.0]])
    np.testing.assert_array_equal(top_k_indices(scores, 3), [[0, 1, 2]])


def test_nan_ranks_after_every_number():
    scores = np.array([[np.nan, -np.inf, np.nan, 2.0, np.nan]])
    np.testing.assert_array_equal(top_k_indices(scores, 5), [[3, 1, 0, 2, 4]])
    np.testing.assert_array_equal(top_k_indices(scores, 3), [[3, 1, 0]])


def test_boundary_ties_keep_lowest_indices():
    # more tied scores at the k-th place than free slots
    scores = np.array([[1.0, 3.0, 1.0, 2.0, 1.0, 1.0, 3.0]])
    np.testing.assert_array_equal(top_k_indices(scores, 4), [[1, 6, 3, 0]])


def test_integer_scores():
    scores = np.array([[3, 1, 3, -2, 0]])
    assert_matches_reference(scores, 3)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_integer_minimum_ranks_last(dtype):
    """A signed dtype's minimum has no negation in that dtype; it still ranks last."""
    low = np.iinfo(dtype).min
    scores = np.array([[low, 1, 2], [2, low, low]], dtype=dtype)
    np.testing.assert_array_equal(top_k_indices(scores[:1], 1), [[2]])
    np.testing.assert_array_equal(top_k_indices(scores[:1], 2), [[2, 1]])
    np.testing.assert_array_equal(top_k_indices(scores, 3), [[2, 1, 0], [0, 1, 2]])


def test_integer_minimum_on_the_pruned_path():
    rng = np.random.default_rng(12)
    info = np.iinfo(np.int8)
    scores = rng.integers(info.min, info.max, size=(4, pruned_width(3, 9)), endpoint=True)
    scores = scores.astype(np.int8)
    scores[0] = info.min  # every group maximum at the minimum
    scores[1, ::3] = info.min
    scores[2] = info.min
    scores[2, [5, 3 * HERB_BLOCK + 1]] = [3, -4]  # k = 3 bounds at the minimum
    for k in (1, 3):
        expected = np.argsort(-scores.astype(np.int64), axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(top_k_indices(scores, k), expected)


def test_wide_rows_span_several_row_blocks():
    scores = np.random.default_rng(11).normal(size=(30, 60_000))
    assert scores.nbytes > 4 * SELECT_BLOCK_BYTES
    scores[:, ::997] = scores[0, 0]  # a tie group spread across every row
    scores[7] = np.nan
    scores[12, 5:] = np.nan  # fewer than k numbers
    reference = argsort_reference(scores, 1000)
    for k in (1, 5, 20, 1000):
        np.testing.assert_array_equal(top_k_indices(scores, k), reference[:, :k])


def test_peak_memory_is_a_small_fraction_of_the_matrix():
    # the full stable argsort needs a negated copy plus an int64 index matrix
    # (~2x the scores); selection's temporaries are per row block
    scores = np.random.default_rng(5).normal(size=(64, 50_000))
    tracemalloc.start()
    try:
        top_k_indices(scores, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * scores.nbytes


def pruned_width(k: int, ragged: int) -> int:
    """The narrowest row that :func:`top_k_indices` prunes at ``k``, plus ``ragged``."""
    return PRUNE_GROUPS_PER_K * k * HERB_BLOCK + ragged


@pytest.mark.parametrize("kind", KINDS)
def test_pruned_randomized_matches_stable_argsort(kind):
    rng = np.random.default_rng(100 + KINDS.index(kind))
    for k in (1, 2, 3, 5):
        for _ in range(4):
            rows = int(rng.integers(1, 6))
            width = pruned_width(k, int(rng.integers(1, HERB_BLOCK)))
            scores = random_matrix(rng, kind, rows, width)
            scores[rng.random((rows, width)) < 0.002] = np.nan  # a NaN in some groups
            if rng.random() < 0.3:
                scores[int(rng.integers(rows))] = np.nan  # an all-NaN row
            assert_matches_reference(scores, k)


def test_wide_rows_take_the_pruned_path(monkeypatch):
    def refuse(scores, k):
        raise AssertionError("full-row selection on a row that can be pruned")

    monkeypatch.setattr(metrics, "_select_block", refuse)
    scores = np.random.default_rng(1).normal(size=(3, pruned_width(5, 17)))
    assert_matches_reference(scores, 5)
    with pytest.raises(AssertionError, match="full-row"):
        top_k_indices(scores[:, : pruned_width(5, 0) - 1], 5)  # one group short


def test_pruned_row_with_one_numeric_group():
    k = 3
    scores = np.full((3, pruned_width(k, 40)), np.nan)
    scores[:, 5 * HERB_BLOCK : 6 * HERB_BLOCK] = np.random.default_rng(2).normal(size=HERB_BLOCK)
    scores[1, -3:] = [7.0, np.nan, -7.0]  # numbers in the trailing group only
    scores[2, 5 * HERB_BLOCK + 1 :] = np.nan  # a single number in the whole row
    for k_ in (1, k):
        assert_matches_reference(scores, k_)


def test_pruned_nan_beside_the_best_scores():
    k = 2
    scores = np.random.default_rng(8).normal(size=(2, pruned_width(k, 5)))
    best = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    for row, columns in enumerate(best):
        neighbours = (columns // HERB_BLOCK) * HERB_BLOCK + (columns + 1) % HERB_BLOCK
        scores[row, neighbours[neighbours < scores.shape[1]]] = np.nan
    assert_matches_reference(scores, k)


def test_pruned_row_with_fewer_than_k_numbers():
    k = 5
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(4, pruned_width(k, 9)))
    scores[1] = np.nan
    scores[1, [3, 900, 4000, scores.shape[1] - 1]] = [1.0, 2.0, -np.inf, 0.5]  # 4 numbers
    scores[2, HERB_BLOCK:] = np.nan  # k numbers, all in the first group
    assert_matches_reference(scores, k)


def test_pruned_tie_group_straddles_the_bound_across_groups():
    k = 5
    scores = np.random.default_rng(4).uniform(-2.0, 0.0, size=(2, pruned_width(k, 100)))
    tied = [7, 2 * HERB_BLOCK + 3, 9 * HERB_BLOCK, 11 * HERB_BLOCK + 255, scores.shape[1] - 1]
    scores[:, tied] = 1.0  # more ties than free slots, in different groups and the tail
    scores[:, [4 * HERB_BLOCK + 8, 15 * HERB_BLOCK]] = [3.0, 2.0]
    scores[1, 12 * HERB_BLOCK] = -0.0  # a signed zero among the candidates
    scores[1, tied[1:3]] = 0.0
    for k_ in range(1, k + 1):
        assert_matches_reference(scores, k_)
    expected = [4 * HERB_BLOCK + 8, 15 * HERB_BLOCK] + tied[:3]
    np.testing.assert_array_equal(top_k_indices(scores[:1], k)[0], expected)


def test_pruned_bound_of_minus_inf():
    k = 3
    scores = np.full((2, pruned_width(k, 31)), -np.inf)
    scores[0, [HERB_BLOCK + 1, 2000]] = [0.25, -0.0]  # 2 finite scores, k - 1 groups
    scores[0, 9 * HERB_BLOCK : 10 * HERB_BLOCK] = np.nan  # a NaN group ranks after -inf
    scores[1, ::3] = np.nan
    assert_matches_reference(scores, k)


def test_pruned_non_contiguous_views():
    k = 4
    rng = np.random.default_rng(6)
    width = pruned_width(k, 77)
    strided = rng.integers(-3, 4, size=(5, 2 * width)).astype(np.float64)[:, ::2]
    transposed = np.asfortranarray(rng.normal(size=(5, width)))
    reversed_rows = rng.normal(size=(5, width))[::-1, ::-1]
    for scores in (strided, transposed, reversed_rows):
        assert not scores.flags.c_contiguous
        assert_matches_reference(scores, k)


@pytest.mark.parametrize("num_shards", [1, 3])
def test_sharded_topk_at_50k_herbs_matches_stable_argsort(num_shards):
    rng = np.random.default_rng(7)
    index = ShardedHerbIndex(rng.normal(size=(50_000, 8)), num_shards=num_shards)
    syndrome = rng.normal(size=(SCORING_BLOCK, 8))
    scores = index.score(syndrome)[:5]
    for k in (1, 5, 20):
        ids, values = index.topk(syndrome, 5, k)
        expected = argsort_reference(scores, k)
        np.testing.assert_array_equal(ids, expected)
        np.testing.assert_array_equal(values, np.take_along_axis(scores, expected, axis=1))
