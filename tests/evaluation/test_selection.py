"""``top_k_indices`` against an independent full-sort reference.

The selector partitions instead of sorting, so every property of the
canonical ranking — (score desc, index asc), NaN last, ties at the
``k``-th place resolved to the lowest index — is checked here against the
plain stable argsort it replaced, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.evaluation import top_k_indices
from repro.evaluation.metrics import SELECT_BLOCK_BYTES

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
