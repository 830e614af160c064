"""The approx first pass selects each row's pool without scanning it whole.

``ApproxHerbIndex.candidates`` keeps, per row, the canonical pool of its
``candidate_factor * k`` best float32 scores over every probed herb.  It
gets there through a floor (the pool-th best score of the row's nearest
list) and a ball bound that skips probed lists no member of which can reach
that floor.  Every test compares the pools with a brute-force reference
that scores every probed herb of the row and ranks them all.
"""

import numpy as np
import pytest

from repro.inference import ApproxHerbIndex, ShardedHerbIndex
from repro.models.base import SCORING_BLOCK, WeightSnapshot


def pad_rows(matrix):
    rows = -(-matrix.shape[0] // SCORING_BLOCK) * SCORING_BLOCK
    block = np.zeros((rows, matrix.shape[1]), dtype=np.float64)
    block[: matrix.shape[0]] = matrix
    return block


def reference_pools(index, syndrome, ks):
    """Each row's pool from all of its probed scores, one row at a time."""
    syndrome32 = syndrome.astype(np.float32)
    probes = index._probed_lists(syndrome32, len(ks))
    pools, fallback = [], []
    for row, k in enumerate(ks):
        lists = [int(list_id) for list_id in probes[row]]
        scores = np.concatenate(
            [index._list_scores(syndrome32, list_id, np.array([row]))[0] for list_id in lists]
        )
        ids = np.concatenate([index.lists[list_id].ids for list_id in lists])
        pool = index.candidate_factor * k
        if (
            scores.size < min(k, index.num_herbs)
            or pool >= index.num_herbs
            or not np.isfinite(syndrome32[row]).all()
        ):
            pools.append(None)
            fallback.append(row)
        elif pool >= scores.size:
            pools.append(np.sort(ids))
        else:
            pools.append(np.sort(index._select_pool(scores, ids, pool)))
    return pools, fallback


def assert_reference_pools(index, queries, ks):
    syndrome = pad_rows(queries)
    pools, fallback = index.candidates(syndrome, ks)
    expected, expected_fallback = reference_pools(index, syndrome, ks)
    assert fallback == expected_fallback
    for got, want in zip(pools, expected):
        assert (got is None and want is None) or np.array_equal(got, want)


def clustered(num_herbs, dim, num_clusters, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(num_clusters, dim))
    herbs = centers[rng.integers(num_clusters, size=num_herbs)]
    herbs += rng.normal(scale=0.4, size=herbs.shape)
    queries = herbs[rng.integers(num_herbs, size=40)] + rng.normal(scale=0.2, size=(40, dim))
    return herbs, queries


class TestPoolsMatchTheFullRanking:
    @pytest.mark.parametrize("num_lists,nprobe", [(8, 8), (8, 3), (32, 6)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_clustered(self, num_lists, nprobe, seed):
        herbs, queries = clustered(4000, 16, 24, seed)
        index = ApproxHerbIndex(herbs, num_lists=num_lists, nprobe=nprobe)
        ks = [1 + (row * 7) % 23 for row in range(queries.shape[0])]
        assert_reference_pools(index, queries, ks)

    @pytest.mark.parametrize("num_lists,nprobe", [(8, 8), (8, 4)])
    def test_ties_and_duplicates_at_the_pool_boundary(self, num_lists, nprobe):
        """Coarse values and duplicated herbs tie across lists and the boundary."""
        rng = np.random.default_rng(3)
        herbs = np.round(rng.normal(size=(3000, 8)), 1)
        herbs[1500:] = herbs[:1500]
        queries = np.round(rng.normal(size=(30, 8)))
        index = ApproxHerbIndex(herbs, num_lists=num_lists, nprobe=nprobe, candidate_factor=3)
        assert_reference_pools(index, queries, [2 + row % 9 for row in range(30)])

    def test_lists_smaller_than_the_pool(self):
        herbs, queries = clustered(600, 8, 40, seed=4)
        index = ApproxHerbIndex(herbs, num_lists=64, nprobe=5, candidate_factor=4)
        assert_reference_pools(index, queries, [30] * queries.shape[0])

    def test_far_lists_are_skipped(self, monkeypatch):
        """The ball bound rules out probed lists on clustered data."""
        herbs, queries = clustered(8000, 16, 64, seed=5)
        index = ApproxHerbIndex(herbs, num_lists=32, nprobe=8)
        scored = []
        real = index._list_scores

        def counting(syndrome32, list_id, rows):
            scored.append(rows.size)
            return real(syndrome32, list_id, rows)

        monkeypatch.setattr(index, "_list_scores", counting)
        index.candidates(pad_rows(queries), [10] * queries.shape[0])
        assert sum(scored) < queries.shape[0] * index.nprobe / 2
        monkeypatch.undo()
        assert_reference_pools(index, queries, [10] * queries.shape[0])


class TestNonFiniteQueries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
    def test_fall_back_to_the_exact_index(self, bad):
        herbs, queries = clustered(3000, 8, 12, seed=6)
        queries[3, 2] = bad
        index = ApproxHerbIndex(herbs, num_lists=8, nprobe=2)
        _, fallback = index.candidates(pad_rows(queries), [5] * queries.shape[0])
        assert fallback == [3]
        with np.errstate(invalid="ignore"):  # inf meets the herbs' zeros and signs
            results, report = index.topk(pad_rows(queries), [5] * queries.shape[0])
            ids, scores = ShardedHerbIndex(herbs).topk(pad_rows(queries[3:4]), 1, 5)
        assert report.fallback_rows == 1
        np.testing.assert_array_equal(results[3][0], ids[0])
        assert results[3][1].tobytes() == scores[0].tobytes()


class TestBallBound:
    """A list whose best member lies exactly on the bound is never skipped."""

    def test_member_on_the_bound_reaching_the_floor_is_kept(self):
        # two segments along e1, centred at +-100 e2: each list's farthest
        # member sits at its radius along e1, so q = s·e1 meets the bound
        # q·c + ‖q‖·R exactly, and the float32 score may round above it
        reach = np.float32(1.1)
        steps = np.array([-1.0, -0.5, 0.0, 0.5, 1.0], dtype=np.float32) * reach
        herbs = np.zeros((10, 4), dtype=np.float32)
        herbs[:5, 0], herbs[:5, 1] = steps, 100.0
        herbs[5:, 0], herbs[5:, 1] = steps, -100.0
        snapshot = WeightSnapshot.from_matrix(herbs.astype(np.float64))
        for seed in range(50):  # a k-means seed that splits the two segments
            index = ApproxHerbIndex(snapshot, num_lists=2, seed=seed)
            upper_list = int(np.argmax(index.centroids32[:, 1]))
            if np.array_equal(index.lists[upper_list].ids, np.arange(5)):
                break
        else:
            pytest.fail("no seed split the segments")
        assert index.centroids32[upper_list].tolist() == [0.0, 100.0, 0.0, 0.0]
        assert index.radii[upper_list] == np.float64(reach)
        scales = np.float32(1.0) + np.arange(64, dtype=np.float32) * np.float32(2.0**-10)
        queries = np.zeros((64, 4), dtype=np.float32)
        queries[:, 0] = scales
        rows = np.arange(64)
        best = index._list_scores(queries, upper_list, rows).max(axis=1)
        # the case the error term is there for: rounding lifted the score
        assert (best.astype(np.float64) > scales.astype(np.float64) * np.float64(reach)).any()
        lists = np.full(64, upper_list)
        assert index._may_reach(queries, rows, lists, best).all()
        assert not index._may_reach(queries, rows, lists, best + np.float32(1.0)).any()
