"""Tests for the cached-propagation inference engine and the encode cache.

The regression this guards: the seed evaluator re-ran the full multi-graph
propagation (``encode()``) for every 256-row chunk even with frozen
parameters.  ``Evaluator.evaluate()`` must now trigger exactly one
propagation, the cache must invalidate on any parameter mutation, and the
cached scores must equal the uncached forward pass bit-for-bit.
"""

import threading
import time

import numpy as np
import pytest

from repro.evaluation import Evaluator
from repro.evaluation.metrics import top_k_indices
from repro.inference import InferenceEngine, Recommendation
from repro.inference.engine import ranked_prefixes
from repro.models import SMGCN, SMGCNConfig
from repro.nn import Adam
from repro.training import Trainer, TrainerConfig


@pytest.fixture()
def model(tiny_split):
    train, _ = tiny_split
    config = SMGCNConfig(
        embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
    )
    return SMGCN.from_dataset(train, config)


def oracle_recommendations(model, symptom_sets, k):
    """``top_k_indices`` over ``model.score_sets``: the engine's answers, computed apart."""
    scores = model.score_sets(symptom_sets)
    top = top_k_indices(scores, k)
    return ranked_prefixes(top, np.take_along_axis(scores, top, axis=1), [k] * len(symptom_sets))


def _count_encodes(model):
    """Patch ``model.encode`` to count calls; returns the counter dict."""
    calls = {"n": 0}
    original = model.encode

    def counting_encode():
        calls["n"] += 1
        return original()

    object.__setattr__(model, "encode", counting_encode)
    return calls


def _one_training_step(model, symptom_sets):
    optimizer = Adam(model.parameters(), lr=1e-3)
    model.train()
    optimizer.zero_grad()
    loss = model(symptom_sets).sum()
    loss.backward()
    optimizer.step()
    model.eval()


class TestEncodeCache:
    def test_evaluate_runs_encode_exactly_once(self, tiny_split, model):
        _, test = tiny_split
        calls = _count_encodes(model)
        # small batches force many chunks; the propagation must not scale with them
        evaluator = Evaluator(test, ks=(5,), batch_size=4)
        evaluator.evaluate(model)
        assert calls["n"] == 1
        assert model.propagation_count == 1

    def test_second_evaluate_reuses_cache(self, tiny_split, model):
        _, test = tiny_split
        calls = _count_encodes(model)
        evaluator = Evaluator(test, ks=(5,), batch_size=8)
        first = evaluator.evaluate(model)
        second = evaluator.evaluate(model)
        assert calls["n"] == 1
        assert first.metrics == second.metrics

    def test_optimizer_step_invalidates_cache(self, tiny_split, model):
        train, test = tiny_split
        evaluator = Evaluator(test, ks=(5,), batch_size=8)
        before_scores = evaluator.score_matrix(model)
        version_before = model.parameter_version()
        assert model.propagation_count == 1

        _one_training_step(model, train.symptom_sets()[:16])

        assert model.parameter_version() != version_before
        after_scores = evaluator.score_matrix(model)
        assert model.propagation_count >= 2, "stale cache served after optimizer.step()"
        assert not np.allclose(before_scores, after_scores)

    def test_cached_scores_equal_uncached_forward(self, tiny_split, model):
        _, test = tiny_split
        symptom_sets = test.symptom_sets()
        uncached = model.forward(symptom_sets).data
        cached = InferenceEngine(model, batch_size=7).score_batch(symptom_sets)
        np.testing.assert_allclose(cached, uncached, atol=1e-12)

    def test_train_mode_invalidates(self, model):
        model.cached_encode()
        assert model._encode_cache is not None
        model.train()
        assert model._encode_cache is None

    def test_load_state_dict_invalidates(self, tiny_split, model):
        _, test = tiny_split
        sets = test.symptom_sets()[:8]
        state = {name: value.copy() for name, value in model.state_dict().items()}
        baseline = model.score_sets(sets)
        # perturb every parameter, rescore, then restore the snapshot
        for param in model.parameters():
            param.data = param.data + 0.05
            param.bump_version()
        perturbed = model.score_sets(sets)
        assert not np.allclose(baseline, perturbed)
        model.load_state_dict(state)
        restored = model.score_sets(sets)
        np.testing.assert_allclose(restored, baseline, atol=1e-12)

    def test_invalidate_cache_forces_repropagation(self, model):
        model.cached_encode()
        count = model.propagation_count
        model.cached_encode()
        assert model.propagation_count == count
        model.invalidate_cache()
        model.cached_encode()
        assert model.propagation_count == count + 1


class TestInferenceEngine:
    def test_requires_graph_model(self):
        with pytest.raises(TypeError):
            InferenceEngine(object())

    def test_batch_size_validation(self, model):
        with pytest.raises(ValueError):
            InferenceEngine(model, batch_size=0)

    def test_empty_request(self, model):
        scores = InferenceEngine(model).score_batch([])
        assert scores.shape == (0, model.num_herbs)
        assert InferenceEngine(model).recommend_batch([], k=3) == []

    def test_chunking_is_invisible(self, tiny_split, model):
        _, test = tiny_split
        sets = test.symptom_sets()
        small = InferenceEngine(model, batch_size=3).score_batch(sets)
        large = InferenceEngine(model, batch_size=1024).score_batch(sets)
        np.testing.assert_allclose(small, large, atol=1e-12)

    def test_recommend_batch_sorted_topk(self, model):
        engine = InferenceEngine(model)
        recs = engine.recommend_batch([(0, 1), (2,)], k=5)
        assert len(recs) == 2
        scores = engine.score_batch([(0, 1), (2,)])
        for row, rec in enumerate(recs):
            assert isinstance(rec, Recommendation)
            assert len(rec) == 5
            assert list(rec.scores) == sorted(rec.scores, reverse=True)
            expected_best = int(np.argmax(scores[row]))
            assert rec.herb_ids[0] == expected_best
            assert rec.scores[0] == pytest.approx(scores[row].max())
            assert len(set(rec.herb_ids)) == len(rec.herb_ids)

    def test_recommend_single_matches_batch(self, model):
        engine = InferenceEngine(model)
        single = engine.recommend((1, 4), k=3)
        batch = engine.recommend_batch([(1, 4)], k=3)[0]
        assert single.herb_ids == batch.herb_ids

    def test_scores_bit_identical_across_batchings(self, tiny_split, model):
        """The fixed-block scoring path: batchmates cannot change a row.

        This is the determinism the micro-batched serving layer relies on —
        without it, gemv-vs-gemm summation-order differences flip near-tied
        top-k orderings between batched and sequential requests.
        """
        _, test = tiny_split
        sets = test.symptom_sets()
        engine = InferenceEngine(model)
        batched = engine.score_batch(sets)
        singles = np.vstack([engine.score_batch([s]) for s in sets])
        np.testing.assert_array_equal(batched, singles)
        odd_chunks = np.vstack(
            [engine.score_batch(sets[start : start + 7]) for start in range(0, len(sets), 7)]
        )
        np.testing.assert_array_equal(batched, odd_chunks)

    def test_recommend_batch_bit_identical_to_sequential(self, tiny_split, model):
        _, test = tiny_split
        sets = test.symptom_sets()[:20]
        engine = InferenceEngine(model)
        assert engine.recommend_batch(sets, k=5) == [engine.recommend(s, k=5) for s in sets]

    def test_recommend_batch_per_request_k(self, model):
        engine = InferenceEngine(model)
        sets = [(0, 1), (2,), (1, 3)]
        mixed = engine.recommend_batch(sets, k=[2, 5, 3])
        assert [len(rec) for rec in mixed] == [2, 5, 3]
        for rec, (symptom_set, k) in zip(mixed, [(sets[0], 2), (sets[1], 5), (sets[2], 3)]):
            assert rec == engine.recommend(symptom_set, k=k)

    def test_recommend_batch_k_validation(self, model):
        engine = InferenceEngine(model)
        with pytest.raises(ValueError, match="k values"):
            engine.recommend_batch([(0,), (1,)], k=[3])
        with pytest.raises(ValueError, match="positive"):
            engine.recommend_batch([(0,), (1,)], k=[3, 0])

    def test_k_clamped_to_vocab(self, model):
        rec = InferenceEngine(model).recommend((0,), k=10_000)
        assert len(rec) == model.num_herbs

    def test_invalid_k(self, model):
        with pytest.raises(ValueError):
            InferenceEngine(model).recommend((0,), k=0)

    def test_warm_up_propagates_once(self, model):
        engine = InferenceEngine(model).warm_up()
        assert model.propagation_count == 1
        engine.score_batch([(0,)])
        assert model.propagation_count == 1

    def test_refresh_forces_repropagation(self, model):
        engine = InferenceEngine(model).warm_up()
        engine.refresh()
        assert model.propagation_count == 2

    def test_engine_matches_training_loop_scores(self, tiny_split, model):
        """End to end: train briefly, then cached serving == direct forward."""
        train, test = tiny_split
        Trainer(TrainerConfig(epochs=2, batch_size=64, learning_rate=1e-3, seed=0)).fit(
            model, train
        )
        sets = test.symptom_sets()
        direct = model.forward(sets).data
        served = InferenceEngine(model, batch_size=16).score_batch(sets)
        np.testing.assert_allclose(served, direct, atol=1e-12)


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


class TestShardedEngine:
    """num_shards/backend are operational knobs: answers never change."""

    def test_validation(self, wide_model):
        with pytest.raises(ValueError, match="num_shards"):
            InferenceEngine(wide_model, num_shards=0)
        with pytest.raises(ValueError, match="backend"):
            InferenceEngine(wide_model, backend="not-a-backend")

    def test_index_is_genuinely_sharded(self, wide_model):
        engine = InferenceEngine(wide_model, num_shards=3)
        assert engine.herb_index().num_shards == 3

    @pytest.mark.parametrize("num_shards", [2, 3, 50])
    @pytest.mark.parametrize("backend", ["numpy", "threads"])
    def test_score_batch_bit_identical(self, wide_split, wide_model, num_shards, backend):
        _, test = wide_split
        sets = test.symptom_sets()[:40]
        baseline = wide_model.score_sets(sets)
        engine = InferenceEngine(
            wide_model, batch_size=16, num_shards=num_shards, backend=backend, num_workers=2
        )
        try:
            np.testing.assert_array_equal(engine.score_batch(sets), baseline)
        finally:
            engine.close()

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 50])
    def test_recommend_batch_bit_identical(self, wide_split, wide_model, num_shards):
        _, test = wide_split
        sets = test.symptom_sets()[:30]
        sharded = InferenceEngine(wide_model, batch_size=16, num_shards=num_shards)
        for k in (1, 10, 300, 10_000):
            expected = oracle_recommendations(wide_model, sets, k)
            assert sharded.recommend_batch(sets, k=k) == expected

    def test_recommend_batch_per_request_k(self, wide_split, wide_model):
        _, test = wide_split
        sets = test.symptom_sets()[:12]
        ks = [3, 700, 1, 25] * 3
        baseline = InferenceEngine(wide_model)
        sharded = InferenceEngine(wide_model, num_shards=3, backend="threads", num_workers=2)
        try:
            assert sharded.recommend_batch(sets, k=ks) == baseline.recommend_batch(sets, k=ks)
        finally:
            sharded.close()

    def test_empty_request(self, wide_model):
        engine = InferenceEngine(wide_model, num_shards=3)
        assert engine.score_batch([]).shape == (0, wide_model.num_herbs)
        assert engine.recommend_batch([], k=5) == []

    def test_warm_up_builds_index_once(self, wide_model):
        engine = InferenceEngine(wide_model, num_shards=4).warm_up()
        index = engine.herb_index()
        engine.score_batch([(0, 1)])
        assert engine.herb_index() is index, "index rebuilt despite unchanged parameters"

    def test_parameter_update_rebuilds_index(self, wide_split, wide_model):
        _, test = wide_split
        sets = test.symptom_sets()[:8]
        engine = InferenceEngine(wide_model, num_shards=3)
        before = engine.score_batch(sets)
        stale_index = engine.herb_index()
        for param in wide_model.parameters():
            param.data = param.data + 0.05
            param.bump_version()
        after = engine.score_batch(sets)
        assert engine.herb_index() is not stale_index
        assert not np.allclose(before, after)
        np.testing.assert_array_equal(after, InferenceEngine(wide_model).score_batch(sets))

    @pytest.mark.parametrize(
        "knobs", [{}, {"num_shards": 3}, {"retrieval": "approx"}], ids=["default", "shards", "approx"]
    )
    def test_refuses_a_score_sets_override(self, wide_split, knobs):
        """The index scores only the base formula; a custom score_sets is not served."""
        train, _ = wide_split

        class Boosted(SMGCN):
            def score_sets(self, symptom_sets):
                return super().score_sets(symptom_sets) + 100.0

        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        with pytest.raises(TypeError, match="Boosted overrides score_sets"):
            InferenceEngine(Boosted.from_dataset(train, config), **knobs)
        InferenceEngine(SMGCN.from_dataset(train, config), **knobs)  # the base class serves

    def test_backend_status_reports_topology(self, wide_model):
        engine = InferenceEngine(wide_model, num_shards=3, backend="threads", num_workers=2)
        try:
            status = engine.backend_status()
            assert status["backend"] == "threads"
            assert status["workers"] == 2
            assert status["shards"] == 3  # requested, index not built yet
            engine.warm_up()
            assert engine.backend_status()["shards"] == engine.herb_index().num_shards
        finally:
            engine.close()

    def test_backend_status_unsharded(self, model):
        status = InferenceEngine(model).backend_status()
        assert status["backend"] == "numpy"
        assert status["shards"] == 1

    def test_sharded_matches_across_all_registered_neural_models(self, wide_split):
        """Acceptance gate: every neural model in the zoo shards bit-identically."""
        from repro.models import MODEL_REGISTRY
        from repro.models.base import GraphHerbRecommender

        from repro.experiments.datasets import get_profile

        train, test = wide_split
        sets = test.symptom_sets()[:10]
        profile = get_profile("smoke")
        neural_names = MODEL_REGISTRY.neural_names() + MODEL_REGISTRY.variant_names()
        assert neural_names, "registry unexpectedly empty"
        for name in neural_names:
            entry = MODEL_REGISTRY.get(name)
            model = entry.build(train, entry.default_config(profile, seed=0))
            assert isinstance(model, GraphHerbRecommender)
            baseline = oracle_recommendations(model, sets, 12)
            for num_shards in (1, 3):
                served = InferenceEngine(model, num_shards=num_shards).recommend_batch(sets, k=12)
                assert served == baseline, f"{name} diverged on {num_shards} shard(s)"


from repro.inference import ComputeBackend, NumpyBackend


class _ReleaseSpyBackend(ComputeBackend):
    """A serial backend recording which snapshot keys were released."""

    name = "release-spy"

    def __init__(self):
        self._inner = NumpyBackend()
        self.released = []
        self.closed = 0

    def run_tasks(self, snapshot, tasks):
        return self._inner.run_tasks(snapshot, tasks)

    def release_snapshot(self, key):
        self.released.append(key)

    def close(self):
        self.closed += 1

    def status(self):
        return {"backend": self.name, "workers": 1, "workers_alive": 1}


def _bump_parameters(model):
    for param in model.parameters():
        param.data = param.data + 0.01
        param.bump_version()


class TestShardIndexCacheEviction:
    """Weight updates must not grow the shard-index cache without bound."""

    def test_cache_bounded_and_snapshots_released(self, wide_split):
        from repro.inference import MAX_CACHED_INDEX_VERSIONS
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        spy = _ReleaseSpyBackend()
        engine = InferenceEngine(model, num_shards=3, backend=spy)
        seen_keys = []
        for _ in range(MAX_CACHED_INDEX_VERSIONS + 3):
            seen_keys.append(engine.herb_index().snapshot.key)
            _bump_parameters(model)
        assert len(engine.index_cache) == MAX_CACHED_INDEX_VERSIONS
        # every key beyond the retained tail was released, oldest first
        assert spy.released == seen_keys[: -MAX_CACHED_INDEX_VERSIONS]

    def test_unchanged_version_hits_cache_without_eviction(self, wide_split):
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        spy = _ReleaseSpyBackend()
        engine = InferenceEngine(model, num_shards=3, backend=spy)
        first = engine.herb_index()
        for _ in range(5):
            assert engine.herb_index() is first
        assert spy.released == []

    def test_previous_version_survives_one_update(self, wide_split):
        """The immediate predecessor stays cached (in-flight requests drain)."""
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        engine = InferenceEngine(model, num_shards=2)
        old_version = model.parameter_version()
        engine.herb_index()
        _bump_parameters(model)
        engine.herb_index()
        assert old_version in engine.index_cache.keys()
        _bump_parameters(model)
        engine.herb_index()
        assert old_version not in engine.index_cache.keys()

    def test_close_releases_every_cached_snapshot(self, wide_split):
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        spy = _ReleaseSpyBackend()
        engine = InferenceEngine(model, num_shards=3, backend=spy)
        key_a = engine.herb_index().snapshot.key
        _bump_parameters(model)
        key_b = engine.herb_index().snapshot.key
        engine.close()
        assert spy.released == [key_a, key_b]
        assert spy.closed == 1
        assert len(engine.index_cache) == 0

class _UseAfterReleaseGuard(ComputeBackend):
    """A serial backend that refuses to score against a released snapshot.

    This is the memory-safety contract a pooled/remote backend relies on:
    once ``release_snapshot(key)`` ran, the weights behind ``key`` may be
    unmapped (shared memory unlinked, worker attachment dropped), so any
    later ``run_tasks`` with that key is a use-after-free.  The guard turns
    that into a deterministic failure.
    """

    name = "use-after-release-guard"

    def __init__(self):
        self._inner = NumpyBackend()
        self._lock = threading.Lock()
        self.released = set()
        self.violations = []

    def run_tasks(self, snapshot, tasks):
        with self._lock:
            if snapshot.key in self.released:
                self.violations.append(snapshot.key)
                raise RuntimeError(f"scored against released snapshot {snapshot.key}")
        return self._inner.run_tasks(snapshot, tasks)

    def release_snapshot(self, key):
        with self._lock:
            self.released.add(key)

    def close(self):
        pass

    def status(self):
        return {"backend": self.name, "workers": 1, "workers_alive": 1}


class TestIndexCacheConcurrency:
    """LRU eviction racing in-flight scoring must never serve released weights."""

    def _build(self, wide_split, backend):
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        return model, InferenceEngine(model, num_shards=3, backend=backend)

    def test_lease_defers_release_until_checkout(self, wide_split):
        from repro.inference import MAX_CACHED_INDEX_VERSIONS

        spy = _ReleaseSpyBackend()
        model, engine = self._build(wide_split, spy)
        with engine._lease_index() as (index, _):
            leased_key = index.snapshot.key
            # roll enough versions to evict the leased one from the LRU
            for _ in range(MAX_CACHED_INDEX_VERSIONS + 2):
                _bump_parameters(model)
                engine.herb_index()
            assert leased_key not in spy.released, (
                "evicting a leased index must defer release until it drains"
            )
            assert "draining_index_versions" in engine.backend_status()
        assert leased_key in spy.released, "the last lease out must release the snapshot"
        assert "draining_index_versions" not in engine.backend_status()

    def test_nested_leases_release_once(self, wide_split):
        spy = _ReleaseSpyBackend()
        model, engine = self._build(wide_split, spy)
        with engine._lease_index() as (outer, _):
            with engine._lease_index() as (inner, _):
                assert inner is outer
                _bump_parameters(model)
                for _ in range(3):
                    _bump_parameters(model)
                    engine.herb_index()
            assert outer.snapshot.key not in spy.released
        assert spy.released.count(outer.snapshot.key) == 1

    def test_eviction_racing_inflight_scoring_never_serves_released_snapshot(
        self, wide_split
    ):
        """Two threads hammer recommend_batch across rolling parameter versions.

        The guard backend fails any scoring call that references a snapshot
        whose key was already released — exactly the crash/corruption a real
        pooled backend would produce.  With the leased-index path, every
        scoring call pins its index until it finishes, so no thread may ever
        observe one.
        """
        guard = _UseAfterReleaseGuard()
        model, engine = self._build(wide_split, guard)
        queries = [(0, 3), (1, 2), (2,), (0, 1, 2)]
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                try:
                    engine.recommend_batch(queries, k=5)
                except Exception as error:  # noqa: BLE001 — collected for the assert
                    failures.append(error)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(12):  # each bump rolls a version; LRU evicts two back
                _bump_parameters(model)
                engine.herb_index()
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(30)
        assert not failures, f"scoring failed during eviction races: {failures[0]}"
        assert guard.violations == [], "a released snapshot key reached run_tasks"
        # with traffic stopped, the drain bookkeeping must be empty again
        with engine._lease_index():
            pass
        assert engine.index_cache.draining == 0
        # no lease left behind: evicting the cached versions releases each at once
        cached = [engine.index_cache.peek(key)[0].snapshot.key for key in engine.index_cache.keys()]
        for _ in range(len(cached)):
            _bump_parameters(model)
            engine.herb_index()
        assert engine.index_cache.draining == 0
        assert set(cached) <= guard.released
