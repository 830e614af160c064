"""Recall/parity harness for the two-stage approximate retrieval tier.

The contract under test (see :mod:`repro.inference.retrieval`):

* **Recall** — the float32 first pass keeps ``candidate_factor * k`` survivors;
  over synthetic vocabularies (every list probed and a fraction probed,
  matrix-level and through every registered neural model) recall@k against
  the exact oracle must be >= 0.99.
* **Bit-exactness of what is returned** — every survivor's score comes out
  of the identical fixed-tile arithmetic as the exact path, so returned
  scores must equal the exact ``score_sets`` / ``ShardedHerbIndex.score``
  values bit for bit, in the canonical (score desc, id asc) order.
* **Determinism** — a request's answer is independent of its batchmates,
  the shard layout, and the compute backend.
* **Fallback** — any request whose candidate pool cannot certify ``k``
  results is answered by the exact index, full stop; so is every request to
  an index whose vocabulary was too small to partition.
* **Lifecycle** — the approx index is parameter-version-stamped and dies
  with its slot in the engine's ``MAX_CACHED_INDEX_VERSIONS`` LRU; a weight
  update can never be served from a stale index.
"""

import numpy as np
import pytest

from repro.evaluation.metrics import top_k_indices
from repro.experiments.runners import NEURAL_MODEL_NAMES, build_neural_model
from repro.inference import (
    MAX_CACHED_INDEX_VERSIONS,
    ApproxHerbIndex,
    InferenceEngine,
    ShardedHerbIndex,
    backends,
    kmeans_partition,
)
from repro.inference.backends import gather_invariant, gathered_scores, packed_scores
from repro.inference.retrieval import (
    MIN_CHUNK_ROWS,
    MIN_PARTITIONED_HERBS,
    PROBE_ROW_BLOCK,
    _nearest_centroids,
    partition_size,
)
from repro.models.base import HERB_BLOCK, SCORING_BLOCK, WeightSnapshot

SETS = [(0, 3), (1, 2, 4), (2,), (0, 1, 2, 3), (4, 5), (3, 5), (1,), (2, 3, 5)]


def pad_rows(matrix, block=SCORING_BLOCK):
    remainder = (-matrix.shape[0]) % block
    if remainder == 0:
        return matrix
    return np.vstack([matrix, np.zeros((remainder, matrix.shape[1]))])


def clustered_vocab(num_herbs, dim, num_clusters, seed):
    """A mixture-of-Gaussians herb matrix — the shape IVF k-means can exploit."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(num_clusters, dim))
    assignment = rng.integers(num_clusters, size=num_herbs)
    return centers[assignment] + rng.normal(scale=0.4, size=(num_herbs, dim))


def cluster_queries(matrix, num_rows, seed):
    """Queries drawn near vocabulary rows (realistic retrieval geometry)."""
    rng = np.random.default_rng(seed + 1)
    anchors = matrix[rng.integers(matrix.shape[0], size=num_rows)]
    return anchors + rng.normal(scale=0.2, size=anchors.shape)


def assert_canonical(ids, scores):
    for j in range(len(ids) - 1):
        assert scores[j] > scores[j + 1] or (
            scores[j] == scores[j + 1] and ids[j] < ids[j + 1]
        ), "ranking violates the canonical (score desc, id asc) order"


class TestKMeansPartition:
    def test_deterministic_and_covering(self):
        matrix = clustered_vocab(500, 8, 6, seed=0)
        first = kmeans_partition(matrix, 6, seed=0)
        second = kmeans_partition(matrix, 6, seed=0)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        assert first[0].shape == (500,)
        assert first[0].min() >= 0 and first[0].max() < 6

    def test_num_lists_clamped_to_rows(self):
        matrix = np.random.default_rng(1).normal(size=(5, 4))
        assignments, centroids = kmeans_partition(matrix, 64, seed=0)
        assert centroids.shape[0] <= 5

    @pytest.mark.parametrize("num_rows", [3 * 8192 + 517, 2 * 8192 + 3])
    def test_assignments_independent_of_chunk(self, num_rows):
        """Chunks change the sgemm's row count but no assignment, short remainder included."""
        rng = np.random.default_rng(19)
        data = clustered_vocab(num_rows, 64, 40, seed=19).astype(np.float32)
        centroids = data[np.sort(rng.choice(data.shape[0], 256, replace=False))].copy()
        centroids += rng.normal(scale=0.05, size=centroids.shape).astype(np.float32)
        chunked = _nearest_centroids(data, centroids, chunk=8192)
        whole = _nearest_centroids(data, centroids, chunk=data.shape[0])
        assert chunked.tobytes() == whole.tobytes()
        assert chunked.tobytes() == _nearest_centroids(data, centroids).tobytes()

    @pytest.mark.parametrize(
        "num_rows, chunk_rows",
        [
            (2 * 8192 + 3, [8192, 8195]),
            (2 * 8192 + MIN_CHUNK_ROWS, [8192, 8192, MIN_CHUNK_ROWS]),
            (3, [3]),
        ],
    )
    def test_short_remainder_joins_the_chunk_before_it(self, num_rows, chunk_rows):
        """No sgemm runs on a sliver of rows, where BLAS may take another kernel."""
        seen = []

        class RecordingRows(np.ndarray):
            def __matmul__(self, other):
                seen.append(self.shape[0])
                return np.asarray(self) @ other

        data = np.zeros((num_rows, 4), dtype=np.float32).view(RecordingRows)
        _nearest_centroids(data, np.eye(4, dtype=np.float32), chunk=8192)
        assert seen == chunk_rows

    def test_matches_add_at_reference_byte_for_byte(self):
        """The bincount centroid update is the np.add.at one, bit for bit."""
        matrix = clustered_vocab(3000, 16, 20, seed=6)
        data = matrix.astype(np.float32)
        rng = np.random.default_rng(4)
        centroids = data[np.sort(rng.choice(data.shape[0], 24, replace=False))].copy()
        for _ in range(10):
            distances = np.einsum("ij,ij->i", centroids, centroids)[None, :] - 2.0 * (
                data @ centroids.T
            )
            assignments = np.argmin(distances, axis=1)
            sums = np.zeros((24, data.shape[1]), dtype=np.float64)
            np.add.at(sums, assignments, data)
            counts = np.bincount(assignments, minlength=24)
            populated = counts > 0
            centroids[populated] = (sums[populated] / counts[populated, None]).astype(np.float32)
        distances = np.einsum("ij,ij->i", centroids, centroids)[None, :] - 2.0 * (
            data @ centroids.T
        )
        got_assignments, got_centroids = kmeans_partition(matrix, 24, seed=4)
        assert got_assignments.tobytes() == np.argmin(distances, axis=1).tobytes()
        assert got_centroids.tobytes() == centroids.tobytes()


# One wide multi-tile vocabulary (>= 1 wide corpus fixture) and a smaller one.
MATRIX_CASES = [
    # (num_herbs, dim, num_lists, nprobe)
    (2 * HERB_BLOCK + 19, 12, 4, 4),  # every list probed
    (6 * HERB_BLOCK + 13, 16, 8, 8),  # wide vocabulary, every list probed
    (6 * HERB_BLOCK + 13, 16, 16, 6),  # wide vocabulary, a fraction probed
]


class TestListMembers:
    """Each list's members come from one stable argsort of the assignments."""

    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param(clustered_vocab(n, dim, 6, seed=3), id=f"{n}x{dim}")
            for n, dim, _, _ in MATRIX_CASES
        ]
        + [
            pytest.param(clustered_vocab(3 * 8192 + 517, 64, 40, seed=19), id="chunked"),
            # 3 distinct rows: duplicate centroids leave empty lists between full ones
            pytest.param(np.repeat(np.eye(3, 8), [90, 200, 110], axis=0), id="empty-lists"),
        ],
    )
    @pytest.mark.parametrize("num_lists", [8, 256])
    def test_lists_byte_identical_to_per_list_flatnonzero(self, matrix, num_lists):
        if not gather_invariant(matrix.shape[1], SCORING_BLOCK):
            pytest.skip("this host's BLAS is not column-gather invariant: no lists")
        approx = ApproxHerbIndex(WeightSnapshot.from_matrix(matrix), num_lists=num_lists)
        herbs32 = matrix.astype(np.float32)
        assignments, centroids = kmeans_partition(herbs32, num_lists, seed=0)
        populated = np.flatnonzero(np.bincount(assignments, minlength=centroids.shape[0]))
        members = [np.flatnonzero(assignments == list_id) for list_id in populated]
        assert approx.num_lists == len(members) >= 2
        for inverted, ids in zip(approx.lists, members):
            assert inverted.ids.dtype == ids.dtype and inverted.ids.tobytes() == ids.tobytes()
            assert inverted.herbs32.tobytes() == herbs32[ids].tobytes()
        assert approx.centroids32.tobytes() == centroids[populated].tobytes()


class TestMatrixRecallHarness:
    """Property-style recall + bit-identity over synthetic vocabularies."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_herbs,dim,num_lists,nprobe", MATRIX_CASES)
    def test_recall_and_bit_identity(self, num_herbs, dim, num_lists, nprobe, seed):
        matrix = clustered_vocab(num_herbs, dim, num_clusters=12, seed=seed)
        snapshot = WeightSnapshot.from_matrix(matrix)
        exact = ShardedHerbIndex(snapshot, num_shards=3)
        approx = ApproxHerbIndex(
            snapshot, candidate_factor=4, num_lists=num_lists, nprobe=nprobe, seed=seed
        )
        k, rows = 10, 24
        syndrome = pad_rows(cluster_queries(matrix, rows, seed))
        results, report = approx.topk(syndrome, [k] * rows, exact_index=exact)
        exact_ids, exact_scores = exact.topk(syndrome, rows, k)
        full_scores = exact.score(syndrome)

        hits = 0
        for row, (ids, scores) in enumerate(results):
            assert len(ids) == k
            assert_canonical(ids, scores)
            hits += len(set(ids) & set(exact_ids[row]))
            # bit-identity: every returned score is the exact tile-grid score
            np.testing.assert_array_equal(scores, full_scores[row, ids])
        assert hits / (rows * k) >= 0.99, f"recall {hits / (rows * k):.3f} below the gate"
        assert report.rows == rows
        assert report.fallback_rows == 0
        if nprobe == num_lists:
            assert report.candidates == rows * 4 * k  # every herb probed: pool exactly cf*k
        else:
            assert rows * k <= report.candidates <= rows * 4 * k

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("backend", ["numpy", "threads"])
    def test_answers_independent_of_shards_and_backend(self, num_shards, backend):
        from repro.inference import get_backend

        matrix = clustered_vocab(3 * HERB_BLOCK + 5, 12, num_clusters=8, seed=3)
        snapshot = WeightSnapshot.from_matrix(matrix)
        syndrome = pad_rows(cluster_queries(matrix, 9, seed=3))
        baseline, _ = ApproxHerbIndex(snapshot, num_lists=8, nprobe=3).topk(
            syndrome, [7] * 9, exact_index=ShardedHerbIndex(snapshot, num_shards=1)
        )
        chosen = get_backend(backend, num_workers=2)
        try:
            results, _ = ApproxHerbIndex(snapshot, num_lists=8, nprobe=3).topk(
                syndrome,
                [7] * 9,
                backend=chosen,
                exact_index=ShardedHerbIndex(snapshot, num_shards=num_shards),
            )
        finally:
            chosen.close()
        for (base_ids, base_scores), (ids, scores) in zip(baseline, results):
            np.testing.assert_array_equal(base_ids, ids)
            np.testing.assert_array_equal(base_scores, scores)

    def test_requests_independent_of_batchmates(self):
        matrix = clustered_vocab(3 * HERB_BLOCK + 5, 12, num_clusters=8, seed=4)
        snapshot = WeightSnapshot.from_matrix(matrix)
        exact = ShardedHerbIndex(snapshot)
        queries = cluster_queries(matrix, 6, seed=4)
        approx = ApproxHerbIndex(snapshot, num_lists=6, nprobe=2)
        batched, _ = approx.topk(pad_rows(queries), [5] * 6, exact_index=exact)
        for row in range(6):
            solo, _ = approx.topk(pad_rows(queries[row : row + 1]), [5], exact_index=exact)
            np.testing.assert_array_equal(solo[0][0], batched[row][0])
            np.testing.assert_array_equal(solo[0][1], batched[row][1])

    def test_mixed_per_request_k(self):
        matrix = clustered_vocab(2 * HERB_BLOCK, 8, num_clusters=6, seed=5)
        snapshot = WeightSnapshot.from_matrix(matrix)
        exact = ShardedHerbIndex(snapshot)
        syndrome = pad_rows(cluster_queries(matrix, 3, seed=5))
        approx = ApproxHerbIndex(snapshot, num_lists=4, nprobe=4)
        results, report = approx.topk(syndrome, [3, 11, 7], exact_index=exact)
        assert [len(ids) for ids, _ in results] == [3, 11, 7]
        assert report.fallback_rows == 0


class TestGatheredRerank:
    """Packed survivor tiles score exactly like the real tile grid."""

    # trailing tiles 197 wide: a width whose gemm bits differ from a packed
    # 256-wide tile's on common OpenBLAS kernels, so it must take its real tile
    @pytest.mark.parametrize("num_herbs", [4 * HERB_BLOCK, 4 * HERB_BLOCK + 197, 197])
    def test_scores_byte_identical_to_exact_grid(self, num_herbs):
        if not gather_invariant(12, SCORING_BLOCK):
            pytest.skip("this host's BLAS is not column-gather invariant")
        rng = np.random.default_rng(num_herbs)
        snapshot = WeightSnapshot.from_matrix(rng.normal(size=(num_herbs, 12)))
        syndrome = pad_rows(rng.normal(size=(40, 12)))
        full_tiles = num_herbs // HERB_BLOCK * HERB_BLOCK
        ids = np.unique(
            np.concatenate(
                [
                    rng.choice(full_tiles, size=min(full_tiles, 300), replace=False),
                    np.arange(full_tiles, num_herbs)[::3],  # the trailing partial tile
                ]
            )
        )
        expected = ShardedHerbIndex(snapshot, num_shards=3).score(syndrome)[:, ids]
        got = gathered_scores(syndrome, snapshot.herb_embeddings, ids, SCORING_BLOCK)
        assert got.tobytes() == expected.tobytes()

    def test_probe_rejects_a_packer_that_changes_bits(self):
        def nudged(*args):
            scores = packed_scores(*args)
            scores[0, 0] = np.nextafter(scores[0, 0], np.inf)
            return scores

        assert not gather_invariant(16, SCORING_BLOCK, nudged)

    @pytest.mark.parametrize("num_lists,nprobe", [(8, 8), (8, 3)])
    def test_failed_probe_builds_no_lists_and_answers_exactly(
        self, monkeypatch, num_lists, nprobe
    ):
        """Without a bit-faithful packed re-rank every row takes the exact fallback."""
        matrix = clustered_vocab(5 * HERB_BLOCK + 21, 12, num_clusters=8, seed=16)
        snapshot = WeightSnapshot.from_matrix(matrix)
        exact = ShardedHerbIndex(snapshot, num_shards=2)
        syndrome = pad_rows(cluster_queries(matrix, 30, seed=16))
        ks = [6, 11, 3] * 10
        monkeypatch.setattr(backends, "gather_invariant", lambda *args, **kwargs: False)
        approx = ApproxHerbIndex(snapshot, num_lists=num_lists, nprobe=nprobe)
        assert (approx.num_lists, approx.nprobe, approx.lists) == (0, 0, ())
        results, report = approx.topk(syndrome, ks, exact_index=exact)
        assert (report.rows, report.fallback_rows, report.candidates) == (30, 30, 0)
        full_scores = exact.score(syndrome)[:30]
        for row, (ids, scores) in enumerate(results):
            top = top_k_indices(full_scores[row : row + 1], ks[row])[0]
            assert ids.tobytes() == top.tobytes()
            assert scores.tobytes() == full_scores[row, top].tobytes()


class TestPerRowFirstPass:
    """A request's pool depends on that request alone."""

    @pytest.mark.parametrize("num_lists,nprobe", [(16, 16), (16, 4)])
    def test_pool_same_alone_shuffled_and_in_a_full_block(
        self, monkeypatch, num_lists, nprobe
    ):
        import repro.inference.retrieval as retrieval

        matrix = clustered_vocab(6 * HERB_BLOCK + 13, 16, num_clusters=12, seed=17)
        snapshot = WeightSnapshot.from_matrix(matrix)
        approx = ApproxHerbIndex(snapshot, num_lists=num_lists, nprobe=nprobe)
        list_blocks = []
        scorer = retrieval.score_herb_tiles

        def spy(syndrome, herb_matrix, row_block):
            if any(herb_matrix is inverted.herbs32 for inverted in approx.lists):
                list_blocks.append((syndrome.shape[0] % row_block, row_block))
            return scorer(syndrome, herb_matrix, row_block=row_block)

        monkeypatch.setattr(retrieval, "score_herb_tiles", spy)
        queries = cluster_queries(matrix, SCORING_BLOCK, seed=17)
        ks = [5 + row % 7 for row in range(SCORING_BLOCK)]
        full_block, _ = approx.candidates(queries, ks)
        # every list is scored in whole groups of the one fixed shape
        assert list_blocks and set(list_blocks) == {(0, PROBE_ROW_BLOCK)}
        order = np.random.default_rng(17).permutation(SCORING_BLOCK)[:23]
        shuffled, _ = approx.candidates(pad_rows(queries[order]), [ks[row] for row in order])
        for position, row in enumerate(order):
            np.testing.assert_array_equal(shuffled[position], full_block[row])
        for row in order[:5]:
            alone, _ = approx.candidates(pad_rows(queries[row : row + 1]), [ks[row]])
            np.testing.assert_array_equal(alone[0], full_block[row])


class TestEveryNeuralModel:
    """Recall gate + survivor bit-identity through every registered model."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", NEURAL_MODEL_NAMES)
    def test_recall_and_exact_survivor_scores(self, name, seed):
        model = build_neural_model(name, scale="smoke", seed=seed)
        k = 10
        exact = InferenceEngine(model)
        approx = InferenceEngine(
            model, retrieval="approx", candidate_factor=3, num_lists=4, nprobe=4
        )
        assert approx.retrieval_active
        exact_recs = exact.recommend_batch(SETS, k=k)
        approx_recs = approx.recommend_batch(SETS, k=k)
        full_scores = model.score_sets(SETS)
        hits = 0
        for row, rec in enumerate(approx_recs):
            assert len(rec) == k
            assert_canonical(rec.herb_ids, rec.scores)
            hits += len(set(rec.herb_ids) & set(exact_recs[row].herb_ids))
            for herb_id, score in zip(rec.herb_ids, rec.scores):
                assert score == full_scores[row, herb_id], (
                    f"{name}: approx score for herb {herb_id} is not the exact "
                    "score_sets value bit for bit"
                )
        recall = hits / (len(SETS) * k)
        assert recall >= 0.99, f"{name} seed {seed}: recall {recall:.3f} below the gate"


@pytest.fixture(scope="module")
def wide_split():
    """A corpus whose herb vocabulary spans several HERB_BLOCK tiles."""
    from repro.data import SyntheticTCMConfig, generate_corpus

    corpus = generate_corpus(
        SyntheticTCMConfig(
            num_symptoms=40,
            num_herbs=700,
            num_syndromes=8,
            num_prescriptions=250,
            seed=5,
        )
    )
    return corpus.dataset.train_test_split(test_fraction=0.2, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def wide_model(wide_split):
    from repro.models import SMGCN, SMGCNConfig

    train, _ = wide_split
    config = SMGCNConfig(
        embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
    )
    return SMGCN.from_dataset(train, config)


class TestWideCorpusEngine:
    """Engine-level recall/parity on a multi-tile vocabulary."""

    @pytest.mark.parametrize("num_lists,nprobe", [(None, None), (2, 2), (8, 2)])
    def test_wide_corpus_recall(self, wide_split, wide_model, num_lists, nprobe):
        _, test = wide_split
        sets = test.symptom_sets()[:24]
        k = 10
        exact_recs = InferenceEngine(wide_model).recommend_batch(sets, k=k)
        approx = InferenceEngine(
            wide_model,
            retrieval="approx",
            candidate_factor=4,
            num_lists=num_lists,
            nprobe=nprobe,
        )
        approx_recs = approx.recommend_batch(sets, k=k)
        full_scores = wide_model.score_sets(sets)
        hits = 0
        for row, rec in enumerate(approx_recs):
            hits += len(set(rec.herb_ids) & set(exact_recs[row].herb_ids))
            for herb_id, score in zip(rec.herb_ids, rec.scores):
                assert score == full_scores[row, herb_id]
        assert hits / (len(sets) * k) >= 0.99

    def test_batched_equals_single_request(self, wide_split, wide_model):
        _, test = wide_split
        sets = test.symptom_sets()[:12]
        approx = InferenceEngine(
            wide_model, retrieval="approx", candidate_factor=4, num_lists=4, batch_size=5
        )
        batched = approx.recommend_batch(sets, k=8)
        assert batched == [approx.recommend_batch([s], k=8)[0] for s in sets]


class TestEdgeCases:
    def _snapshot(self, seed=7, num_herbs=3 * HERB_BLOCK + 9, dim=10):
        return WeightSnapshot.from_matrix(
            clustered_vocab(num_herbs, dim, num_clusters=6, seed=seed)
        )

    def test_k_larger_than_candidate_pool_falls_back_to_exact(self):
        snapshot = self._snapshot()
        exact = ShardedHerbIndex(snapshot)
        approx = ApproxHerbIndex(snapshot, candidate_factor=1, num_lists=8, nprobe=1)
        largest_list = max(inverted.ids.size for inverted in approx.lists)
        k = largest_list + 1  # beyond every probed list: no pool can certify k
        syndrome = pad_rows(np.random.default_rng(7).normal(size=(16, snapshot.dim)))
        results, report = approx.topk(syndrome, [k] * 16, exact_index=exact)
        assert report.fallback_rows == 16
        exact_ids, exact_scores = exact.topk(syndrome, 16, k)
        for row, (ids, scores) in enumerate(results):
            np.testing.assert_array_equal(ids, exact_ids[row])
            np.testing.assert_array_equal(scores, exact_scores[row])

    def test_k_at_vocabulary_size_matches_exact(self):
        snapshot = self._snapshot(num_herbs=HERB_BLOCK + 40)
        exact = ShardedHerbIndex(snapshot)
        approx = ApproxHerbIndex(snapshot, num_lists=4, nprobe=4)
        syndrome = pad_rows(np.random.default_rng(8).normal(size=(3, snapshot.dim)))
        k = snapshot.num_herbs + 25  # clamps to the vocabulary
        results, report = approx.topk(syndrome, [k] * 3, exact_index=exact)
        assert report.fallback_rows == 3  # pruning is pointless -> exact
        exact_ids, _ = exact.topk(syndrome, 3, k)
        for row, (ids, _) in enumerate(results):
            assert len(ids) == snapshot.num_herbs
            np.testing.assert_array_equal(ids, exact_ids[row])

    def test_empty_symptom_set_fails_identically_to_exact(self, wide_model):
        exact = InferenceEngine(wide_model)
        approx = InferenceEngine(wide_model, retrieval="approx")
        with pytest.raises(ValueError, match="empty"):
            exact.recommend_batch([()], k=5)
        with pytest.raises(ValueError, match="empty"):
            approx.recommend_batch([()], k=5)

    def test_empty_batch(self, wide_model):
        assert InferenceEngine(wide_model, retrieval="approx").recommend_batch([], k=5) == []

    def test_exact_duplicate_rows_tie_break_preserved(self):
        """Bitwise-tied scores across the first-pass pool boundary resolve like exact."""
        rng = np.random.default_rng(9)
        dim = 8
        matrix = rng.normal(size=(2 * HERB_BLOCK + 30, dim))
        anchor = rng.normal(size=dim)
        anchor /= np.linalg.norm(anchor)
        # scatter 60 bitwise-identical top-scoring rows across tiles: the
        # candidate pool boundary (cf*k = 20) lands inside the tied run
        tied_ids = rng.choice(matrix.shape[0], size=60, replace=False)
        matrix[tied_ids] = anchor * 5.0
        snapshot = WeightSnapshot.from_matrix(matrix)
        exact = ShardedHerbIndex(snapshot, num_shards=2)
        approx = ApproxHerbIndex(snapshot, candidate_factor=2, num_lists=4, nprobe=4)
        syndrome = pad_rows(np.tile(anchor, (4, 1)) + rng.normal(scale=0.01, size=(4, dim)))
        results, report = approx.topk(syndrome, [10] * 4, exact_index=exact)
        assert report.fallback_rows == 0
        exact_ids, exact_scores = exact.topk(syndrome, 4, 10)
        for row, (ids, scores) in enumerate(results):
            np.testing.assert_array_equal(ids, exact_ids[row])
            np.testing.assert_array_equal(scores, exact_scores[row])
            # the tie-break genuinely engaged: tied ids appear in ascending order
            listed_tied = [i for i in ids if i in set(tied_ids.tolist())]
            assert listed_tied == sorted(listed_tied)

    def test_nprobe_clamped_to_num_lists_and_equals_full_scan(self):
        snapshot = self._snapshot(seed=11)
        exact = ShardedHerbIndex(snapshot)
        syndrome = pad_rows(np.random.default_rng(11).normal(size=(6, snapshot.dim)))
        everywhere = ApproxHerbIndex(snapshot, num_lists=5, nprobe=99)
        assert everywhere.nprobe == everywhere.num_lists
        probed, report = everywhere.topk(syndrome, [9] * 6, exact_index=exact)
        assert report.fallback_rows == 0
        # brute force: every herb scored, ranked by (score desc, id asc)
        full_scores = exact.score(syndrome)
        for row, (probe_ids, probe_scores) in enumerate(probed):
            order = np.lexsort((np.arange(snapshot.num_herbs), -full_scores[row]))[:9]
            np.testing.assert_array_equal(probe_ids, order)
            assert probe_scores.tobytes() == full_scores[row, order].tobytes()

    def test_zero_and_constant_rows_score_exactly(self):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(HERB_BLOCK + 50, 6))
        matrix[::7] = 0.0  # all-zero rows sprinkled through every tile
        matrix[3] = 2.5  # constant row
        snapshot = WeightSnapshot.from_matrix(matrix)
        exact = ShardedHerbIndex(snapshot)
        syndrome = pad_rows(rng.normal(size=(5, 6)))
        results, report = ApproxHerbIndex(snapshot, num_lists=4, nprobe=4).topk(
            syndrome, [12] * 5, exact_index=exact
        )
        assert report.fallback_rows == 0
        full_scores = exact.score(syndrome)
        for row, (ids, scores) in enumerate(results):
            assert np.isfinite(scores).all()
            np.testing.assert_array_equal(scores, full_scores[row, ids])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
    def test_build_rejects_non_finite(self, monkeypatch, bad):
        """NaN, inf, or a value float32 cannot hold is refused before k-means runs."""
        import repro.inference.retrieval as retrieval

        def refuse(*args, **kwargs):
            raise AssertionError("k-means ran on non-finite embeddings")

        monkeypatch.setattr(retrieval, "kmeans_partition", refuse)
        matrix = clustered_vocab(HERB_BLOCK + 7, 6, num_clusters=4, seed=18)
        matrix[HERB_BLOCK + 3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ApproxHerbIndex(WeightSnapshot.from_matrix(matrix), num_lists=4)

    def test_stale_exact_index_refused(self):
        snapshot = self._snapshot(seed=13)
        other = self._snapshot(seed=14)
        approx = ApproxHerbIndex(snapshot)
        syndrome = pad_rows(np.random.default_rng(13).normal(size=(1, snapshot.dim)))
        with pytest.raises(ValueError, match="stale"):
            approx.topk(syndrome, [5], exact_index=ShardedHerbIndex(other))

    def test_validation(self):
        snapshot = self._snapshot(seed=15)
        with pytest.raises(ValueError, match="candidate_factor"):
            ApproxHerbIndex(snapshot, candidate_factor=0)
        with pytest.raises(ValueError, match="nprobe"):
            ApproxHerbIndex(snapshot, nprobe=0)
        for num_lists in (-1, 0, 1):
            with pytest.raises(ValueError, match="num_lists must be >= 2"):
                ApproxHerbIndex(snapshot, num_lists=num_lists)


class TestDerivedPartition:
    """``num_lists``/``nprobe`` left unset come from the vocabulary size."""

    def test_partition_size(self):
        assert partition_size(MIN_PARTITIONED_HERBS - 1) == (0, 1)
        assert partition_size(MIN_PARTITIONED_HERBS) == (256, 16)
        assert partition_size(1_000_000) == (1024, 64)
        assert partition_size(50, num_lists=4) == (4, 1)
        assert partition_size(1_000_000, num_lists=64) == (64, 4)
        assert partition_size(1_000_000, nprobe=3) == (1024, 3)

    def test_small_vocabulary_builds_no_lists_and_answers_exactly(self):
        snapshot = WeightSnapshot.from_matrix(clustered_vocab(3 * HERB_BLOCK + 9, 10, 6, seed=20))
        approx = ApproxHerbIndex(snapshot)
        assert (approx.num_lists, approx.nprobe, approx.lists) == (0, 0, ())
        exact = ShardedHerbIndex(snapshot, num_shards=2)
        syndrome = pad_rows(cluster_queries(snapshot.herb_embeddings, 12, seed=20))
        results, report = approx.topk(syndrome, [1, 5, 10] * 4, exact_index=exact)
        assert (report.rows, report.fallback_rows, report.candidates) == (12, 12, 0)
        exact_ids, exact_scores = exact.topk(syndrome, 12, 10)
        for row, (ids, scores) in enumerate(results):
            keep = [1, 5, 10][row % 3]
            np.testing.assert_array_equal(ids, exact_ids[row, :keep])
            assert scores.tobytes() == exact_scores[row, :keep].tobytes()

    def test_derived_lists_at_the_minimum(self, monkeypatch):
        import repro.inference.retrieval as retrieval

        monkeypatch.setattr(retrieval, "MIN_PARTITIONED_HERBS", 4096)
        matrix = clustered_vocab(4096, 8, num_clusters=64, seed=21)
        approx = ApproxHerbIndex(matrix)
        assert approx.nprobe == 4 and 32 < approx.num_lists <= 64
        results, report = approx.topk(pad_rows(cluster_queries(matrix, 8, seed=21)), [5] * 8)
        assert report.fallback_rows == 0 and all(len(ids) == 5 for ids, _ in results)

    def test_a_lone_populated_list_is_not_kept(self):
        """Identical herbs fill one k-means list: a full scan, so no list is kept."""
        matrix = np.tile(np.random.default_rng(22).normal(size=(1, 6)), (HERB_BLOCK + 30, 1))
        approx = ApproxHerbIndex(matrix, num_lists=4, nprobe=2)
        assert (approx.num_lists, approx.nprobe) == (0, 0)
        syndrome = pad_rows(np.random.default_rng(22).normal(size=(3, 6)))
        results, report = approx.topk(syndrome, [7] * 3)
        assert report.fallback_rows == 3
        assert [ids.tolist() for ids, _ in results] == [list(range(7))] * 3

    def test_default_engine_on_a_small_vocabulary_matches_exact(self, wide_split, wide_model):
        _, test = wide_split
        sets = test.symptom_sets()[:10]
        engine = InferenceEngine(wide_model, retrieval="approx")
        assert engine.recommend_batch(sets, k=6) == InferenceEngine(wide_model).recommend_batch(
            sets, k=6
        )
        status = engine.backend_status()
        assert (status["num_lists"], status["nprobe"]) == (0, 0)
        assert status["approx_requests"] == status["approx_fallbacks"] == 10


class TestEngineLifecycle:
    def test_backend_status_reports_the_built_partition(self, wide_model):
        engine = InferenceEngine(wide_model, retrieval="approx", num_lists=4, nprobe=99)
        assert "num_lists" not in engine.backend_status()  # nothing built yet
        engine.warm_up()
        built = engine.index_cache.peek()[1]
        status = engine.backend_status()
        assert 2 <= status["num_lists"] == built.num_lists <= 4
        assert status["nprobe"] == built.num_lists  # clamped from 99

    def test_engine_validation(self, wide_model):
        with pytest.raises(ValueError, match="retrieval"):
            InferenceEngine(wide_model, retrieval="fuzzy")
        with pytest.raises(ValueError, match="candidate_factor"):
            InferenceEngine(wide_model, retrieval="approx", candidate_factor=0)
        with pytest.raises(ValueError, match="nprobe"):
            InferenceEngine(wide_model, retrieval="approx", nprobe=0)
        with pytest.raises(ValueError, match="num_lists"):
            InferenceEngine(wide_model, retrieval="approx", num_lists=1)

    def test_approx_cache_keyed_by_version_and_lru_bounded(self, wide_model):
        engine = InferenceEngine(wide_model, retrieval="approx")
        engine.recommend_batch(SETS[:2], k=5)
        assert len(engine.index_cache) == 1
        assert engine.index_cache.peek()[1] is not None
        first_key = engine.index_cache.keys()[0]
        engine.recommend_batch(SETS[:2], k=5)
        assert engine.index_cache.keys() == [first_key], "same version must reuse the cache"
        for _ in range(MAX_CACHED_INDEX_VERSIONS + 2):
            wide_model.load_state_dict(wide_model.state_dict())  # bumps the version
            engine.recommend_batch(SETS[:2], k=5)
        assert len(engine.index_cache) <= MAX_CACHED_INDEX_VERSIONS
        assert first_key not in engine.index_cache.keys(), "stale approx index still cached"

    def test_weight_update_never_served_from_stale_index(self, wide_split):
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        donor = SMGCN.from_dataset(train, SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=9
        ))
        engine = InferenceEngine(model, retrieval="approx", num_lists=4)
        before = engine.recommend_batch(SETS[:4], k=6)
        model.load_state_dict(donor.state_dict())
        after = engine.recommend_batch(SETS[:4], k=6)
        assert before != after
        fresh = InferenceEngine(donor, retrieval="approx", num_lists=4)
        assert after == fresh.recommend_batch(SETS[:4], k=6), (
            "post-update answers must come from the new weights' index"
        )

    def test_close_clears_approx_cache(self, wide_model):
        engine = InferenceEngine(wide_model, retrieval="approx")
        engine.recommend_batch(SETS[:2], k=5)
        engine.close()
        assert len(engine.index_cache) == 0
        # engine stays usable after close
        assert len(engine.recommend_batch(SETS[:1], k=5)[0]) == 5

    def test_counters_flow_to_backend_status(self, wide_model):
        engine = InferenceEngine(
            wide_model, retrieval="approx", candidate_factor=2, num_lists=4, nprobe=4
        )
        engine.recommend_batch(SETS[:5], k=4)
        status = engine.backend_status()
        assert status["retrieval"] == "approx"
        assert status["approx_requests"] == 5
        assert status["approx_fallbacks"] == 0
        assert status["approx_pool_mean"] == pytest.approx(8.0)
        # exact engines advertise exact and no approx counters
        exact_status = InferenceEngine(wide_model).backend_status()
        assert exact_status["retrieval"] == "exact"
        assert "approx_requests" not in exact_status

    def test_fallback_counter_increments(self, wide_model):
        engine = InferenceEngine(wide_model, retrieval="approx", candidate_factor=1)
        engine.recommend_batch(SETS[:3], k=wide_model.num_herbs)  # pool >= vocabulary
        assert engine.backend_status()["approx_fallbacks"] == 3

    def test_warm_up_builds_the_approx_index(self, wide_model):
        engine = InferenceEngine(wide_model, retrieval="approx").warm_up()
        assert len(engine.index_cache) == 1
        assert engine.index_cache.peek()[1] is not None

    def test_exact_engine_ignores_retrieval_knobs(self, wide_split, wide_model):
        """retrieval='exact' stays the oracle no matter the approx knobs."""
        _, test = wide_split
        sets = test.symptom_sets()[:6]
        baseline = InferenceEngine(wide_model).recommend_batch(sets, k=7)
        configured = InferenceEngine(
            wide_model, retrieval="exact", candidate_factor=9, num_lists=4, nprobe=2
        )
        assert not configured.retrieval_active
        assert configured.recommend_batch(sets, k=7) == baseline
