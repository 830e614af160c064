"""Tests for the Pipeline facade: fit / evaluate / recommend / save / load."""

import numpy as np
import pytest

from repro.api import Pipeline, is_int_token, parse_symptom_tokens
from repro.data import Vocabulary
from repro.experiments.datasets import experiment_split
from repro.inference import Recommendation
from repro.training import TrainerConfig

FAST = TrainerConfig(epochs=1, batch_size=64, learning_rate=5e-3)


@pytest.fixture(scope="module")
def fitted():
    return Pipeline("SMGCN", scale="smoke", trainer_config=FAST).fit()


class TestFitEvaluate:
    def test_unknown_model_fails_fast(self):
        with pytest.raises(KeyError, match="registered models"):
            Pipeline("DeepHerb", scale="smoke")

    def test_unfitted_pipeline_refuses_to_serve(self):
        pipeline = Pipeline("SMGCN", scale="smoke")
        assert not pipeline.is_fitted
        with pytest.raises(RuntimeError, match="not fitted"):
            pipeline.recommend("0 1")
        with pytest.raises(RuntimeError, match="not fitted"):
            pipeline.evaluate()

    def test_fit_records_history(self, fitted):
        assert fitted.is_fitted
        assert fitted.history.num_epochs == 1

    def test_evaluate_returns_named_metrics(self, fitted):
        result = fitted.evaluate()
        assert result.model_name == "SMGCN"
        assert "p@5" in result.metrics

    def test_model_overrides_reach_the_config(self):
        pipeline = Pipeline(
            "SMGCN", scale="smoke", trainer_config=FAST, message_dropout=0.25
        ).fit()
        assert pipeline.model.config.message_dropout == 0.25

    def test_seed_changes_initialisation(self):
        a = Pipeline("GC-MC", scale="smoke", seed=1, trainer_config=FAST).fit()
        b = Pipeline("GC-MC", scale="smoke", seed=2, trainer_config=FAST).fit()
        a_state = a.model.state_dict()
        b_state = b.model.state_dict()
        assert any(not np.array_equal(a_state[key], b_state[key]) for key in a_state)


class TestRecommend:
    def test_accepts_tokens_ids_and_sequences(self, fitted):
        by_string = fitted.recommend("0 3", k=3)
        by_list = fitted.recommend([0, 3], k=3)
        token = fitted.symptom_vocab.token_of(0)
        by_token = fitted.recommend([token, 3], k=3)
        assert by_string == by_list == by_token
        assert isinstance(by_string, Recommendation)
        assert len(by_string) == 3

    def test_decode_herbs(self, fitted):
        recommendation = fitted.recommend("0 3", k=2)
        tokens = fitted.decode_herbs(recommendation)
        assert tokens == [fitted.herb_vocab.token_of(h) for h in recommendation.herb_ids]

    def test_invalid_k(self, fitted):
        with pytest.raises(ValueError, match="k must be positive"):
            fitted.recommend("0", k=0)

    def test_non_neural_model_recommends_without_engine(self):
        pipeline = Pipeline(
            "HC-KGETM", scale="smoke", num_topics=4, gibbs_iterations=1
        ).fit()
        with pytest.raises(TypeError, match="not a neural graph model"):
            pipeline.engine
        recommendation = pipeline.recommend("0 3", k=4)
        assert len(recommendation) == 4
        scores = pipeline.score([(0, 3)])
        assert scores.shape == (1, pipeline.model.num_herbs)


class TestShardedPipeline:
    def test_sharding_knobs_reach_the_engine(self, fitted):
        sharded = Pipeline("SMGCN", scale="smoke", num_shards=4, backend="threads", num_workers=2)
        sharded._model = fitted.model  # share the fitted model; knobs are serving-only
        engine = sharded.engine
        try:
            assert engine.options.num_shards == 4
            assert engine.backend.name == "threads"
            queries = ["0 3", [1], "2 4 5"]
            assert sharded.recommend_many(queries, k=6) == fitted.recommend_many(queries, k=6)
            np.testing.assert_array_equal(
                sharded.score([(0, 3), (1,)]), fitted.score([(0, 3), (1,)])
            )
        finally:
            engine.close()


class TestRecommendMany:
    def test_bit_identical_to_sequential_recommend(self, fitted):
        queries = ["0 3", [1, 2], "2 4 5", [0], "1 3 4"]
        assert fitted.recommend_many(queries, k=4) == [
            fitted.recommend(query, k=4) for query in queries
        ]

    def test_per_query_k(self, fitted):
        many = fitted.recommend_many(["0 3", "1 2"], k=[2, 5])
        assert [len(rec) for rec in many] == [2, 5]
        assert many[0] == fitted.recommend("0 3", k=2)
        assert many[1] == fitted.recommend("1 2", k=5)

    def test_empty_batch(self, fitted):
        assert fitted.recommend_many([], k=3) == []

    def test_validation(self, fitted):
        with pytest.raises(ValueError, match="k values"):
            fitted.recommend_many(["0", "1"], k=[3])
        with pytest.raises(ValueError, match="positive"):
            fitted.recommend_many(["0"], k=[0])
        with pytest.raises(ValueError, match="unknown symptom token"):
            fitted.recommend_many(["0", "bogus"], k=3)

    def test_non_neural_model_batches_without_engine(self):
        pipeline = Pipeline(
            "HC-KGETM", scale="smoke", num_topics=4, gibbs_iterations=1
        ).fit()
        queries = ["0 3", "1 2"]
        many = pipeline.recommend_many(queries, k=[4, 2])
        assert [len(rec) for rec in many] == [4, 2]
        assert many[0] == pipeline.recommend("0 3", k=4)


class TestParseOnce:
    """The serving/batch core parses each query once, not again in recommend_many."""

    @staticmethod
    def _count_parses(monkeypatch):
        import repro.api as api

        calls = []
        real = api.parse_symptom_tokens

        def counting(raw, vocab):
            calls.append(raw)
            return real(raw, vocab)

        monkeypatch.setattr(api, "parse_symptom_tokens", counting)
        return calls

    def test_catalog_answers_parse_each_query_once(self, fitted, monkeypatch):
        from repro.io.catalog import ModelCatalog, Query, answer

        queries = [
            Query(symptoms, k, None)
            for symptoms, k in (("0 3", 4), ([1, 2], 2), ("2 4 5", 5), ("bogus", 3))
        ]
        expected = [fitted.recommend(query.symptoms, k=query.k) for query in queries[:3]]
        calls = self._count_parses(monkeypatch)
        answers = answer(ModelCatalog.for_pipeline(fitted), queries)
        assert calls == [query.symptoms for query in queries]
        assert [(a.herb_ids, a.scores) for a in answers[:3]] == [
            (rec.herb_ids, rec.scores) for rec in expected
        ]
        assert "unknown symptom token" in answers[3].error

    def test_public_entry_still_parses_id_tuples(self, fitted):
        """Only the private ids entry skips parsing: a plain id tuple is checked."""
        with pytest.raises(ValueError):
            fitted.recommend_many([(0, 10**6)], k=2)
        with pytest.raises(ValueError):
            fitted.recommend_many([()], k=2)

    def test_parsed_ids_are_not_parsed_again(self, fitted, monkeypatch):
        expected = fitted.recommend_many(["0 3", [1, 2]], k=[4, 2])
        calls = self._count_parses(monkeypatch)
        assert fitted._recommend_ids([[0, 3], [1, 2]], [4, 2]) == expected
        assert calls == []


class TestParseSymptomTokens:
    def test_mixed(self):
        train, _ = experiment_split("smoke")
        vocab = train.symptom_vocab
        assert parse_symptom_tokens(f"{vocab.token_of(4)} 1", vocab) == [4, 1]
        assert parse_symptom_tokens([np.int64(2), "1"], vocab) == [2, 1]

    def test_rejects_unknown_and_empty(self):
        train, _ = experiment_split("smoke")
        vocab = train.symptom_vocab
        with pytest.raises(ValueError, match="unknown symptom token"):
            parse_symptom_tokens("nope", vocab)
        with pytest.raises(ValueError, match="no symptoms"):
            parse_symptom_tokens("", vocab)
        with pytest.raises(ValueError, match="out of range"):
            parse_symptom_tokens("-2", vocab)

    def test_digit_looking_tokens_stay_ids(self):
        """An id wins over a vocabulary token spelled the same way."""
        vocab = Vocabulary(["a", "7", "-1", "b", "c", "d", "e", "f", "g"])
        assert parse_symptom_tokens("7 a", vocab) == [7, 0]
        assert parse_symptom_tokens(["7", np.int64(1), 2], vocab) == [7, 1, 2]
        with pytest.raises(ValueError, match=r"^symptom id -1 out of range \[0, 9\)$"):
            parse_symptom_tokens(["-1"], vocab)
        with pytest.raises(ValueError, match=r"^symptom id 9 out of range \[0, 9\)$"):
            parse_symptom_tokens([np.int64(9)], vocab)
        with pytest.raises(ValueError, match=r"^unknown symptom token 'x7'$"):
            parse_symptom_tokens("a x7", vocab)
        with pytest.raises(ValueError, match=r"^unknown symptom token 1.5$"):
            parse_symptom_tokens([1.5], vocab)
        with pytest.raises(ValueError, match="^no symptoms given$"):
            parse_symptom_tokens([], vocab)

    def test_only_tokens_int_reads_are_ids(self):
        """``²`` and ``--1`` pass ``isdigit`` but not ``int``: they are tokens."""
        vocab = Vocabulary(["a", "b", "c", "d"])
        for token in ("²", "--1", "-²"):
            with pytest.raises(ValueError, match=f"^unknown symptom token '{token}'$"):
                parse_symptom_tokens([token], vocab)
        assert parse_symptom_tokens("-0 ٣ １", vocab) == [0, 3, 1]

    def test_int_token_predicate_matches_int(self):
        """Every BMP character, bare, doubled and after one or two ``-``:
        a token passes iff ``int`` reads it."""

        def int_reads(token):
            try:
                int(token)
            except ValueError:
                return False
            return True

        for code in range(0x10000):
            char = chr(code)
            for token in (char, char * 2, "-" + char, "--" + char):
                assert is_int_token(token) == int_reads(token), repr(token)


class TestSaveLoad:
    def test_round_trip_without_training(self, fitted, tmp_path, monkeypatch):
        """The PR's acceptance criterion: load serves bit-identical scores
        with the Trainer never invoked and no propagation at load time."""
        queries = [(0, 1, 2), (3,)]
        expected = fitted.engine.score_batch(queries)
        path = fitted.save(tmp_path / "smgcn.npz")

        def boom(*args, **kwargs):
            raise AssertionError("Trainer.fit must not run on the load path")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        served = Pipeline.load(path)
        assert served.model_name == "SMGCN"
        assert served.scale == "smoke"  # recovered from the header
        assert served.model.propagation_count == 0
        actual = served.engine.score_batch(queries)
        np.testing.assert_array_equal(actual, expected)
        assert served.model.propagation_count == 1  # exactly the warm-up

    def test_recommendations_identical_after_reload(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "m.npz")
        served = Pipeline.load(path)
        assert served.recommend("0 3", k=5) == fitted.recommend("0 3", k=5)

    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            Pipeline("SMGCN", scale="smoke").save(tmp_path / "m.npz")

    def test_explicit_scale_mismatch_refused(self, fitted, tmp_path):
        from repro.io import CheckpointError

        path = fitted.save(tmp_path / "m.npz")
        with pytest.raises(CheckpointError):
            Pipeline.load(path, scale="default")

    def test_unknown_scale_refused(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "m.npz")
        with pytest.raises(KeyError, match="unknown experiment scale"):
            Pipeline.load(path, scale="huge")

    def test_load_accepts_sharding_knobs(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "m.npz")
        loaded = Pipeline.load(path, num_shards=3, backend="threads", num_workers=2)
        assert loaded.options.num_shards == 3
        engine = loaded.engine
        assert engine.options.num_shards == 3
        assert engine.backend.name == "threads"
        assert loaded.recommend("0 3", k=5) == fitted.recommend("0 3", k=5)
        engine.close()

    def test_load_preserves_config_and_seed_for_refit(self, tmp_path):
        original = Pipeline(
            "GC-MC", scale="smoke", seed=7, trainer_config=FAST, embedding_dim=12
        ).fit()
        path = original.save(tmp_path / "m.npz")
        loaded = Pipeline.load(path)
        assert loaded.seed == 7
        assert loaded.model_overrides["embedding_dim"] == 12
        # a refit rebuilds the checkpointed architecture, not a default one
        loaded.trainer_config = FAST
        loaded.fit()
        assert loaded.model.config.embedding_dim == 12
        assert loaded.model.config.seed == 7
