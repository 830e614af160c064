"""The exact top-k screen: a float32 pass that never changes an answer.

``execute_shard_task``'s ``op="topk"`` scores a wide shard once in float32,
keeps every herb within a proven error margin of each row's ``k``-th float32
score, and ranks only those through the float64 tile grid.  Every test here
compares ``ShardedHerbIndex.topk`` with ``top_k_indices`` over the full
float64 score matrix (``index.score``), bit for bit, and checks whether the
screen answered or fell back to the full float64 scan.
"""

import base64
import gc
import weakref

import numpy as np
import pytest

from repro.evaluation.metrics import top_k_indices
from repro.inference import InferenceEngine, ShardedHerbIndex, backends
from repro.models.base import HERB_BLOCK, SCORING_BLOCK, WeightSnapshot

DIM = 16
#: 49 tiles.  One shard screens k <= 12; of three shards (17, 16 and 15 whole
#: tiles plus a partial one), the first two screen k <= 4 and the last k <= 3.
WIDE = 48 * HERB_BLOCK + 77


def pad_rows(matrix):
    rows = -(-matrix.shape[0] // SCORING_BLOCK) * SCORING_BLOCK
    block = np.zeros((rows, matrix.shape[1]), dtype=np.float64)
    block[: matrix.shape[0]] = matrix
    return block


def assert_exact(index, queries, k, backend=None):
    """``index.topk`` equals ``top_k_indices`` over ``index.score``, bit for bit."""
    syndrome = pad_rows(queries)
    num_rows = queries.shape[0]
    ids, scores = index.topk(syndrome, num_rows, k, backend=backend)
    full = index.score(syndrome)[:num_rows]
    top = top_k_indices(full, k)
    np.testing.assert_array_equal(ids, top)
    assert scores.tobytes() == np.take_along_axis(full, top, axis=1).tobytes()


@pytest.fixture()
def screened(monkeypatch):
    """Per shard task, whether the screen answered (True) or fell back."""
    outcomes = []
    real = backends._screened_topk

    def spy(*args):
        result = real(*args)
        outcomes.append(result is not None)
        return result

    monkeypatch.setattr(backends, "_screened_topk", spy)
    return outcomes


def near_tied_vocab(relative, seed=0, group=300):
    """A query direction, ``group`` herbs near-tied along it, the rest far below.

    The near-tied herbs differ by ``relative`` of their norm, at or below
    float32 resolution, so float32 ranks them by rounding noise while the
    float64 scores still order them.
    """
    rng = np.random.default_rng(seed)
    herbs = rng.normal(size=(WIDE, DIM))
    direction = rng.normal(size=DIM)
    direction /= np.linalg.norm(direction)
    ids = rng.choice(WIDE, size=group, replace=False)
    herbs[ids] = 4.0 * direction + relative * 4.0 * rng.normal(size=(group, DIM))
    queries = direction + 1e-3 * rng.normal(size=(20, DIM))
    return herbs, queries


def cancelling_vocab(seed=0, group=300):
    """Near-tied herbs whose float32 scores are off by many float32 ulps.

    The group's herbs share a large component orthogonal to the queries:
    it cancels in every score, but float32 rounds its products, so each
    float32 score is off by tens of ulps, more than the float64 scores of
    the group differ.  Only a margin that bounds that error keeps the
    float64 top ``k`` among the survivors.
    """
    rng = np.random.default_rng(seed)
    herbs = rng.normal(size=(WIDE, DIM))
    direction = rng.normal(size=DIM)
    direction /= np.linalg.norm(direction)
    across = rng.normal(size=DIM)
    across -= (across @ direction) * direction
    across /= np.linalg.norm(across)
    ids = rng.choice(WIDE, size=group, replace=False)
    herbs[ids] = 1e3 * across + 10.0 * direction + 1e-5 * rng.normal(size=(group, DIM))
    queries = direction + 1e-3 * rng.normal(size=(20, DIM))
    return herbs, queries


class TestScreenAnswersExactly:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_float32_error_beyond_an_ulp(self, screened, seed, k):
        herbs, queries = cancelling_vocab(seed)
        assert_exact(ShardedHerbIndex(herbs), queries, k)
        assert screened == [True]

    @pytest.mark.parametrize("relative", [1e-9, 1e-7])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_near_ties_below_float32_resolution(self, screened, relative, k):
        herbs, queries = near_tied_vocab(relative, seed=k)
        index = ShardedHerbIndex(herbs)
        assert_exact(index, queries, k)
        assert screened == [True]

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_duplicated_herbs_tie_across_k(self, screened, num_shards):
        """Copies of one herb straddle k (and shard edges): lowest ids win."""
        rng = np.random.default_rng(3)
        herbs = rng.normal(size=(WIDE, DIM))
        best = 5.0 * rng.normal(size=DIM)
        copies = np.sort(rng.choice(WIDE, size=9, replace=False))
        herbs[copies] = best
        queries = best + 0.01 * rng.normal(size=(7, DIM))
        index = ShardedHerbIndex(herbs, num_shards=num_shards)
        assert_exact(index, queries, 4)
        assert screened and all(screened[:2])  # the last of three is too narrow
        ids, _ = index.topk(pad_rows(queries), 7, 4)
        assert (ids == copies[:4]).all()

    def test_signed_zeros(self, screened):
        rng = np.random.default_rng(4)
        herbs = rng.normal(size=(WIDE, DIM))
        herbs[rng.random(herbs.shape) < 0.5] = 0.0
        herbs[rng.random(herbs.shape) < 0.25] = -0.0
        queries = rng.normal(size=(9, DIM))
        queries[:, ::2] = -0.0
        assert_exact(ShardedHerbIndex(herbs), queries, 6)
        assert screened == [True]

    @pytest.mark.parametrize("scale", [1e-39, 1e-310])
    def test_subnormal_magnitudes(self, scale):
        """Values float32 (or float64) holds only as subnormals rank exactly."""
        rng = np.random.default_rng(5)
        herbs = rng.normal(size=(WIDE, DIM))
        tiny = rng.random(herbs.shape) < 0.3
        herbs[tiny] *= scale
        queries = rng.normal(size=(9, DIM))
        queries[:, :3] *= scale
        assert_exact(ShardedHerbIndex(herbs), queries, 5)
        wholly_tiny = rng.normal(size=(WIDE, DIM)) * scale
        assert_exact(ShardedHerbIndex(wholly_tiny), queries * scale, 5)

    @pytest.mark.parametrize(
        "herb_scale,query_scale", [(1e30, 1.0), (1.0, 1e31), (1e39, 1.0), (1e15, 1e15)]
    )
    def test_magnitudes_near_float32_overflow_fall_back(
        self, screened, herb_scale, query_scale
    ):
        rng = np.random.default_rng(6)
        herbs = rng.normal(size=(WIDE, DIM)) * herb_scale
        queries = rng.normal(size=(9, DIM)) * query_scale
        assert_exact(ShardedHerbIndex(herbs), queries, 5)
        assert screened == [False]

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_herbs_fall_back(self, screened, bad):
        rng = np.random.default_rng(7)
        herbs = rng.normal(size=(WIDE, DIM))
        herbs[[3, 700, WIDE - 1], [0, 5, 9]] = bad
        assert_exact(ShardedHerbIndex(herbs), rng.normal(size=(9, DIM)), 5)
        assert screened == [False]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rows_fall_back(self, screened, bad):
        rng = np.random.default_rng(8)
        queries = rng.normal(size=(9, DIM))
        queries[4, 2] = bad
        assert_exact(ShardedHerbIndex(rng.normal(size=(WIDE, DIM))), queries, 5)
        assert screened == [False]

    @pytest.mark.parametrize("k", [3 * HERB_BLOCK + 5, 3 * HERB_BLOCK + 6, 5000])
    def test_k_at_or_beyond_width(self, screened, k):
        rng = np.random.default_rng(9)
        index = ShardedHerbIndex(rng.normal(size=(3 * HERB_BLOCK + 5, DIM)))
        assert_exact(index, rng.normal(size=(4, DIM)), k)
        assert screened == [False]
        assert index.snapshot.float32_copy.value is None, "a narrow shard makes no copy"

    def test_ties_across_the_whole_row_fall_back(self, screened):
        """Every herb identical: the survivors are the whole shard."""
        herbs = np.tile(np.random.default_rng(10).normal(size=DIM), (WIDE, 1))
        assert_exact(ShardedHerbIndex(herbs), np.ones((3, DIM)), 5)
        assert screened == [False]

    def test_zero_queries(self, screened):
        index = ShardedHerbIndex(np.random.default_rng(11).normal(size=(WIDE, DIM)))
        assert_exact(index, np.zeros((5, DIM)), 5)
        assert screened == [False]

    def test_a_zero_row_skips_the_float32_pass(self, monkeypatch):
        """Every herb ties on a zero row, so the screen could keep none out."""
        rng = np.random.default_rng(11)
        index = ShardedHerbIndex(rng.normal(size=(WIDE, DIM)))
        queries = rng.normal(size=(5, DIM))
        queries[2] = 0.0
        dtypes = []
        real = backends.score_herb_tiles

        def recording(syndrome, herb_matrix, **kwargs):
            dtypes.append(herb_matrix.dtype)
            return real(syndrome, herb_matrix, **kwargs)

        monkeypatch.setattr(backends, "score_herb_tiles", recording)
        index.topk(pad_rows(queries), 5, 5)
        assert dtypes == [np.float64]
        monkeypatch.undo()
        assert_exact(index, queries, 5)

    def test_failed_gather_probe_falls_back(self, screened, monkeypatch):
        monkeypatch.setattr(backends, "gather_invariant", lambda *args: False)
        herbs, queries = near_tied_vocab(1e-7)
        assert_exact(ShardedHerbIndex(herbs), queries, 5)
        assert screened == [False]

    @pytest.mark.parametrize("backend", ["numpy", "threads", "remote"])
    @pytest.mark.parametrize("num_shards,k", [(1, 9), (3, 4), (3, 1)])
    def test_backends_and_shards(self, backend, num_shards, k, request):
        herbs, queries = near_tied_vocab(1e-7, seed=num_shards + k)
        index = ShardedHerbIndex(herbs, num_shards=num_shards)
        addrs = request.getfixturevalue("worker_addrs") if backend == "remote" else None
        with backends.get_backend(backend, num_workers=2, worker_addrs=addrs) as pool:
            assert_exact(index, queries, k, backend=pool)


class TestScreenFloor:
    def test_never_above_the_margin_bound(self):
        """Rounding ``T32 - 2e`` to float32 must not lift it above ``T32 - 2e``."""
        rng = np.random.default_rng(12)
        kth = (rng.normal(size=4096) * 10.0 ** rng.integers(-20, 20, size=4096)).astype(
            np.float32
        )
        # margins from far below to far above one float32 ulp of the bound
        margin = np.abs(kth.astype(np.float64)) * 10.0 ** rng.uniform(-12, -3, size=4096)
        floor = backends.screen_floor(kth, margin)
        assert floor.dtype == np.float32
        assert (floor.astype(np.float64) <= kth.astype(np.float64) - 2.0 * margin).all()

    def test_strictly_below_kth_score_with_zero_margin(self):
        kth = np.array([0.0, 1.0, -3.5, 1e-45], dtype=np.float32)
        assert (backends.screen_floor(kth, np.zeros(4)) < kth).all()


def copy_ref(holder):
    """A weak reference to the float32 herb array a copy holder has built."""
    herbs32, _ = holder.value
    return weakref.ref(herbs32)


def freed(ref):
    gc.collect()
    return ref() is None


class TestFloat32Copy:
    """One float32 copy per snapshot, shared by its threads, made on first topk."""

    def test_not_made_by_index_construction(self):
        snapshot = WeightSnapshot.from_matrix(np.random.default_rng(13).normal(size=(WIDE, DIM)))
        index = ShardedHerbIndex(snapshot, num_shards=3)
        index.score(pad_rows(np.ones((2, DIM))))
        assert snapshot.float32_copy.value is None
        index.topk(pad_rows(np.ones((2, DIM))), 2, 3)
        assert snapshot.float32_copy.value is not None

    def test_made_once_for_concurrent_shards(self, monkeypatch):
        builds = []
        real = backends._float32_herbs

        def counting(matrix):
            builds.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(backends, "_float32_herbs", counting)
        herbs, queries = near_tied_vocab(1e-7)
        index = ShardedHerbIndex(herbs, num_shards=3)
        with backends.get_backend("threads", num_workers=3) as pool:
            for _ in range(3):
                assert_exact(index, queries, 4, backend=pool)
        assert builds == [(WIDE, DIM)]

    def test_thread_pool_keeps_no_reference_to_it(self):
        herbs, queries = near_tied_vocab(1e-7)
        index = ShardedHerbIndex(herbs, num_shards=3)
        with backends.get_backend("threads", num_workers=3) as pool:
            assert_exact(index, queries, 4, backend=pool)
            copy = copy_ref(index.snapshot.float32_copy)
            del index
            assert freed(copy), "the open pool kept a retired snapshot's copy alive"

    def test_engine_warm_up_makes_it_and_retirement_frees_it(self, wide_model):
        engine = InferenceEngine(wide_model, num_shards=2)
        assert engine.herb_index().snapshot.float32_copy.value is None
        engine.warm_up()
        warmed = copy_ref(engine.herb_index().snapshot.float32_copy)
        # two parameter bumps evict the warmed version from the engine's cache
        for _ in range(2):
            wide_model.load_state_dict(wide_model.state_dict())
            engine.herb_index()
        assert freed(warmed)
        engine.warm_up()
        newest = copy_ref(engine.herb_index().snapshot.float32_copy)
        assert not freed(newest)
        engine.close()
        assert freed(newest)

    def test_thread_engine_warm_up_makes_the_one_copy_its_requests_use(
        self, wide_model, monkeypatch
    ):
        sets = [[0, 3], [1, 2, 5], [7]]
        expected = InferenceEngine(wide_model, num_shards=2).recommend_batch(sets, k=1)
        builds = []
        real = backends._float32_herbs

        def counting(matrix):
            builds.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(backends, "_float32_herbs", counting)
        engine = InferenceEngine(wide_model, num_shards=2, backend="threads", num_workers=2)
        try:
            engine.warm_up()
            assert len(builds) == 1
            assert engine.recommend_batch(sets, k=1) == expected
            assert len(builds) == 1, "a request built a second float32 copy"
        finally:
            engine.close()

    @pytest.mark.parametrize("k", [1, 2])
    def test_default_engine_screens_its_one_wide_shard(self, wide_model, screened, k):
        """The default engine is one shard: 8 whole tiles screen k <= 2 like any shard."""
        sets = [[0, 3], [1, 2, 5], [7], [4, 9, 11, 20]]
        engine = InferenceEngine(wide_model)
        recommendations = engine.recommend_batch(sets, k=k)
        assert screened == [True]
        assert engine.herb_index().snapshot.float32_copy.value is not None
        scores = wide_model.score_sets(sets)
        top = top_k_indices(scores, k)
        assert np.array([rec.herb_ids for rec in recommendations]).tobytes() == top.tobytes()
        expected = np.take_along_axis(scores, top, axis=1)
        assert np.array([rec.scores for rec in recommendations]).tobytes() == expected.tobytes()

    def test_approx_engine_warm_up_makes_no_copy(self, wide_model):
        engine = InferenceEngine(wide_model, retrieval="approx", num_lists=4)
        engine.warm_up()
        assert engine.herb_index().snapshot.float32_copy.value is None

    def test_shard_worker_copy_lives_with_its_snapshot(self):
        from repro.inference.distributed import (
            MAX_ATTACHED_SNAPSHOTS,
            ShardWorkerHandler,
            tasks_to_bytes,
        )
        from repro.io.checkpoint import snapshot_to_bytes

        def encode(data):
            return base64.b64encode(data).decode("ascii")

        herbs, queries = near_tied_vocab(1e-7)
        handler = ShardWorkerHandler()
        snapshot = WeightSnapshot.from_matrix(herbs, key="mW-v0.0")
        handler.handle(f"snapshot {encode(snapshot_to_bytes(snapshot))}")
        tasks = ShardedHerbIndex(snapshot, num_shards=3).tasks(pad_rows(queries), "topk", 20, 4)
        assert handler.handle(f"tasks {encode(tasks_to_bytes(tasks))}").startswith("results ")
        copy = copy_ref(handler._snapshots[snapshot.key].float32_copy)
        assert not freed(copy)
        for version in range(1, MAX_ATTACHED_SNAPSHOTS + 1):
            newer = WeightSnapshot.from_matrix(herbs[:300], key=f"mW-v0.{version}")
            handler.handle(f"snapshot {encode(snapshot_to_bytes(newer))}")
        assert snapshot.key not in handler.snapshot_keys
        assert freed(copy)


@pytest.fixture(scope="module")
def worker_addrs():
    from repro.inference import ShardWorkerServer

    with ShardWorkerServer() as first, ShardWorkerServer() as second:
        yield [f"{host}:{port}" for host, port in (first.address, second.address)]


@pytest.fixture(scope="module")
def wide_model():
    """An SMGCN whose 2,100-herb vocabulary screens on two shards at k = 1."""
    from repro.data import SyntheticTCMConfig, generate_corpus
    from repro.models import SMGCN, SMGCNConfig

    corpus = generate_corpus(
        SyntheticTCMConfig(
            num_symptoms=40, num_herbs=2100, num_syndromes=8, num_prescriptions=250, seed=5
        )
    )
    train, _ = corpus.dataset.train_test_split(test_fraction=0.2, rng=np.random.default_rng(5))
    config = SMGCNConfig(
        embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
    )
    return SMGCN.from_dataset(train, config)
