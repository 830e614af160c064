"""Tests for column-sharded scoring and the exact top-k merge.

The contract under test: whatever the shard count and backend, sharded
scores and top-k rankings are *bit-identical* to the unsharded path — the
shards cut on the fixed scoring-tile grid, and the merge reproduces
``top_k_indices``'s canonical (score desc, id asc) order, ties included.
"""

import numpy as np
import pytest

from repro.evaluation.metrics import top_k_indices
from repro.inference import NumpyBackend, ShardedHerbIndex, ThreadPoolBackend, merge_topk
from repro.models.base import HERB_BLOCK, SCORING_BLOCK, _pad_rows

DIM = 16
NUM_HERBS = 4 * HERB_BLOCK + 37  # five tiles, the last one partial
NUM_ROWS = 23


@pytest.fixture(scope="module")
def herbs():
    return np.random.default_rng(7).normal(size=(NUM_HERBS, DIM))


@pytest.fixture(scope="module")
def syndrome():
    raw = np.random.default_rng(8).normal(size=(NUM_ROWS, DIM))
    return _pad_rows(raw, SCORING_BLOCK)


@pytest.fixture(scope="module")
def full_scores(herbs, syndrome):
    return ShardedHerbIndex(herbs, num_shards=1).score(syndrome)


class TestShardLayout:
    def test_single_shard_covers_everything(self, herbs):
        index = ShardedHerbIndex(herbs, num_shards=1)
        assert index.num_shards == 1
        (shard,) = index.shards
        assert (shard.start, shard.stop) == (0, NUM_HERBS)
        np.testing.assert_array_equal(shard.matrix, herbs)

    def test_shards_are_contiguous_tile_aligned_and_exhaustive(self, herbs):
        index = ShardedHerbIndex(herbs, num_shards=3)
        assert index.shards[0].start == 0
        assert index.shards[-1].stop == NUM_HERBS
        for left, right in zip(index.shards, index.shards[1:]):
            assert left.stop == right.start
        for shard in index.shards[:-1]:
            assert shard.stop % HERB_BLOCK == 0, "interior boundary off the tile grid"

    def test_more_shards_than_tiles_clamps(self, herbs):
        index = ShardedHerbIndex(herbs, num_shards=1000)
        assert index.num_shards == -(-NUM_HERBS // HERB_BLOCK)

    def test_shard_tile_balance(self, herbs):
        # tiles are dealt as evenly as possible; the trailing shard may also
        # lose the final tile's truncation, hence the 2-tile width bound
        for num_shards in (2, 3, 4):
            tile_counts = [
                -(-s.width // HERB_BLOCK) for s in ShardedHerbIndex(herbs, num_shards).shards
            ]
            assert max(tile_counts) - min(tile_counts) <= 1
            widths = [s.width for s in ShardedHerbIndex(herbs, num_shards).shards]
            assert max(widths) - min(widths) < 2 * HERB_BLOCK

    def test_validation(self, herbs):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedHerbIndex(herbs, num_shards=0)
        with pytest.raises(ValueError, match="non-empty"):
            ShardedHerbIndex(np.zeros((0, DIM)))
        with pytest.raises(ValueError, match="row_block"):
            ShardedHerbIndex(herbs, row_block=0)


class TestShardedScore:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 1000])
    def test_bit_identical_across_shard_counts(self, herbs, syndrome, full_scores, num_shards):
        index = ShardedHerbIndex(herbs, num_shards=num_shards)
        np.testing.assert_array_equal(index.score(syndrome), full_scores)

    def test_thread_backend_bit_identical(self, herbs, syndrome, full_scores):
        index = ShardedHerbIndex(herbs, num_shards=4)
        with ThreadPoolBackend(num_workers=4) as backend:
            np.testing.assert_array_equal(index.score(syndrome, backend=backend), full_scores)

    def test_score_matches_plain_matmul(self, herbs, syndrome, full_scores):
        np.testing.assert_allclose(full_scores, syndrome @ herbs.T, atol=1e-12)


class TestShardedTopk:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    @pytest.mark.parametrize(
        "k",
        [
            1,
            20,
            HERB_BLOCK + 5,  # k larger than one shard's tile
            NUM_HERBS,  # the whole vocabulary
            NUM_HERBS + 50,  # k beyond the vocabulary clamps
        ],
    )
    def test_matches_unsharded_ranking(self, herbs, syndrome, full_scores, num_shards, k):
        index = ShardedHerbIndex(herbs, num_shards=num_shards)
        ids, scores = index.topk(syndrome, NUM_ROWS, k)
        expected = top_k_indices(full_scores[:NUM_ROWS], k)
        np.testing.assert_array_equal(ids, expected)
        rows = np.arange(NUM_ROWS)[:, None]
        np.testing.assert_array_equal(scores, full_scores[:NUM_ROWS][rows, expected])

    def test_k_larger_than_every_shard(self, herbs, syndrome, full_scores):
        # every shard holds fewer herbs than k, so the merge must drain
        # multiple full shard candidate lists
        index = ShardedHerbIndex(herbs, num_shards=1000)
        k = 2 * HERB_BLOCK + 10
        assert all(shard.width < k for shard in index.shards)
        ids, _ = index.topk(syndrome, NUM_ROWS, k)
        np.testing.assert_array_equal(ids, top_k_indices(full_scores[:NUM_ROWS], k))

    def test_thread_backend_matches(self, herbs, syndrome, full_scores):
        index = ShardedHerbIndex(herbs, num_shards=3)
        with ThreadPoolBackend(num_workers=3) as backend:
            ids, _ = index.topk(syndrome, NUM_ROWS, 40, backend=backend)
        np.testing.assert_array_equal(ids, top_k_indices(full_scores[:NUM_ROWS], 40))

    def test_zero_rows(self, herbs, syndrome):
        index = ShardedHerbIndex(herbs, num_shards=2)
        ids, scores = index.topk(syndrome, 0, 5)
        assert ids.shape == (0, 5) and scores.shape == (0, 5)

    def test_k_validation(self, herbs, syndrome):
        with pytest.raises(ValueError, match="positive"):
            ShardedHerbIndex(herbs).topk(syndrome, NUM_ROWS, 0)


class TestTies:
    """Exact ties — including across shard boundaries — keep canonical order."""

    @pytest.fixture(scope="class")
    def tied(self):
        # integer-valued embeddings make exact float ties abundant
        rng = np.random.default_rng(3)
        herbs = rng.integers(0, 3, size=(3 * HERB_BLOCK + 11, 6)).astype(np.float64)
        syndrome = _pad_rows(
            rng.integers(0, 2, size=(9, 6)).astype(np.float64), SCORING_BLOCK
        )
        return herbs, syndrome

    @pytest.mark.parametrize("num_shards", [2, 3, 100])
    def test_tied_scores_merge_in_unsharded_order(self, tied, num_shards):
        herbs, syndrome = tied
        index = ShardedHerbIndex(herbs, num_shards=num_shards)
        full = index.score(syndrome)[:9]
        assert np.unique(full).size < full.size, "fixture no longer produces ties"
        for k in (1, 7, HERB_BLOCK, herbs.shape[0]):
            ids, scores = index.topk(syndrome, 9, k)
            expected = top_k_indices(full, k)
            np.testing.assert_array_equal(ids, expected)

    def test_boundary_tie_prefers_lower_id(self):
        # two shards; the tied candidates straddle the shard boundary
        ids, scores = merge_topk(
            [np.array([[0, 1]]), np.array([[2, 3]])],
            [np.array([[5.0, 5.0]]), np.array([[5.0, 4.0]])],
            k=3,
        )
        np.testing.assert_array_equal(ids, [[0, 1, 2]])
        np.testing.assert_array_equal(scores, [[5.0, 5.0, 5.0]])


def lexsort_reference(scores, k):
    """Canonical (score desc, id asc) ranking, built without ``top_k_indices``.

    The sharded path selects per shard with ``top_k_indices`` itself, so
    comparing it with the unsharded path alone would check nothing about
    the selection; this full lexsort is independent of both.
    """
    ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    return np.lexsort((ids, -scores), axis=-1)[:, :k]


class TestIndependentReference:
    @pytest.fixture(scope="class", params=["normal", "tied"])
    def case(self, request):
        rng = np.random.default_rng(17)
        if request.param == "normal":
            herbs = rng.normal(size=(NUM_HERBS, DIM))
            raw = rng.normal(size=(NUM_ROWS, DIM))
        else:  # integer-valued embeddings: ties everywhere, shard boundaries included
            herbs = rng.integers(0, 3, size=(NUM_HERBS, DIM)).astype(np.float64)
            raw = rng.integers(0, 2, size=(NUM_ROWS, DIM)).astype(np.float64)
        return herbs, _pad_rows(raw, SCORING_BLOCK)

    @pytest.mark.parametrize("num_shards", [1, 3, 1000])
    @pytest.mark.parametrize("k", [1, 20, HERB_BLOCK + 5, NUM_HERBS + 50])
    def test_topk_matches_lexsort_reference(self, case, num_shards, k):
        herbs, syndrome = case
        index = ShardedHerbIndex(herbs, num_shards=num_shards)
        full = index.score(syndrome)[:NUM_ROWS]
        expected = lexsort_reference(full, k)
        ids, scores = index.topk(syndrome, NUM_ROWS, k)
        np.testing.assert_array_equal(ids, expected)
        np.testing.assert_array_equal(scores, np.take_along_axis(full, expected, axis=1))
        np.testing.assert_array_equal(top_k_indices(full, k), expected)


class TestMergeTopk:
    def test_merges_sorted_candidate_lists(self):
        ids, scores = merge_topk(
            [np.array([[4, 0]]), np.array([[7, 9]])],
            [np.array([[3.0, 1.0]]), np.array([[2.5, 0.5]])],
            k=3,
        )
        np.testing.assert_array_equal(ids, [[4, 7, 0]])
        np.testing.assert_array_equal(scores, [[3.0, 2.5, 1.0]])

    def test_k_clamps_to_total_candidates(self):
        ids, _ = merge_topk([np.array([[1]]), np.array([[2]])], [np.array([[1.0]]), np.array([[0.5]])], k=10)
        np.testing.assert_array_equal(ids, [[1, 2]])

    def test_single_shard_trims_to_k(self):
        ids, scores = merge_topk([np.array([[3, 1, 2]])], [np.array([[9.0, 4.0, 4.0]])], k=2)
        np.testing.assert_array_equal(ids, [[3, 1]])
        np.testing.assert_array_equal(scores, [[9.0, 4.0]])

    def test_nan_candidates_rank_last_by_id(self):
        ids, scores = merge_topk(
            [np.array([[0, 2]]), np.array([[5, 1]])],
            [np.array([[1.0, np.nan]]), np.array([[-np.inf, np.nan]])],
            k=4,
        )
        np.testing.assert_array_equal(ids, [[0, 5, 1, 2]])
        np.testing.assert_array_equal(scores, [[1.0, -np.inf, np.nan, np.nan]])

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_integer_minimum_ranks_last_as_in_top_k_indices(self, dtype):
        low = np.iinfo(dtype).min
        row = np.array([[low, 1, 2, low]], dtype=dtype)
        ids, scores = merge_topk(
            [np.array([[0, 1]]), np.array([[2, 3]])], [row[:, :2], row[:, 2:]], k=4
        )
        np.testing.assert_array_equal(ids, top_k_indices(row, 4))
        np.testing.assert_array_equal(ids, [[2, 1, 0, 3]])
        np.testing.assert_array_equal(scores, [[2, 1, low, low]])

    def test_empty_shard_candidates_are_skipped(self):
        ids, _ = merge_topk(
            [np.zeros((1, 0), dtype=np.int64), np.array([[5]])],
            [np.zeros((1, 0)), np.array([[2.0]])],
            k=1,
        )
        np.testing.assert_array_equal(ids, [[5]])

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            merge_topk([np.array([[1]])], [np.array([[1.0]])], k=0)
        with pytest.raises(ValueError, match="pair up"):
            merge_topk([np.array([[1]])], [], k=1)
        with pytest.raises(ValueError, match="at least one"):
            merge_topk([], [], k=1)
