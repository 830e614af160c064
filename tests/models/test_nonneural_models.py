"""Tests for TransE, HC-KGETM and the popularity / co-occurrence baselines."""

import numpy as np
import pytest

from repro.data import PrescriptionDataset, build_kg_from_corpus, build_kg_from_latent
from repro.models import (
    CooccurrenceRecommender,
    HCKGETM,
    HCKGETMConfig,
    PopularityRecommender,
    TransE,
    TransEConfig,
)


class TestTransE:
    def test_training_reduces_positive_distance(self, tiny_corpus):
        kg = build_kg_from_latent(tiny_corpus)
        config = TransEConfig(embedding_dim=16, epochs=20, learning_rate=0.05, seed=0)
        model = TransE(kg, config)
        triples = kg.triple_array()
        sample = triples[:: max(1, len(triples) // 50)]

        def mean_positive_score(m):
            return np.mean([m.score_triple(h, r, t) for h, r, t in sample])

        def mean_random_score(m, rng):
            scores = []
            for h, r, _ in sample:
                scores.append(m.score_triple(h, r, int(rng.integers(0, kg.num_entities))))
            return np.mean(scores)

        model.fit()
        rng = np.random.default_rng(0)
        assert model.is_trained
        assert mean_positive_score(model) > mean_random_score(model, rng)

    def test_embedding_shapes(self, tiny_corpus):
        kg = build_kg_from_latent(tiny_corpus)
        model = TransE(kg, TransEConfig(embedding_dim=8, epochs=1, seed=0)).fit()
        assert model.symptom_embeddings().shape == (kg.num_symptoms, 8)
        assert model.herb_embeddings().shape == (kg.num_herbs, 8)
        assert model.entity_embeddings.shape == (kg.num_entities, 8)

    def test_empty_kg_is_noop(self, tiny_corpus):
        kg = build_kg_from_corpus(tiny_corpus.dataset, symptom_threshold=10 ** 6, herb_threshold=10 ** 6)
        model = TransE(kg, TransEConfig(epochs=3, seed=0)).fit()
        assert model.is_trained

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransEConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            TransEConfig(margin=0)
        with pytest.raises(ValueError):
            TransEConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            TransEConfig(batch_size=0)


class TestHCKGETM:
    @pytest.fixture(scope="class")
    def fitted_model(self, tiny_corpus, tiny_split):
        train, _ = tiny_split
        kg = build_kg_from_latent(tiny_corpus)
        config = HCKGETMConfig(num_topics=6, gibbs_iterations=3, seed=0)
        return HCKGETM(train.num_symptoms, train.num_herbs, config).fit(train, kg)

    def test_scores_shape_and_range(self, fitted_model, tiny_split):
        train, _ = tiny_split
        scores = fitted_model.score_sets([train[0].symptoms, train[1].symptoms])
        assert scores.shape == (2, train.num_herbs)
        assert np.all(scores >= 0)
        assert np.all(np.isfinite(scores))

    def test_requires_fit_before_scoring(self, tiny_split):
        train, _ = tiny_split
        model = HCKGETM(train.num_symptoms, train.num_herbs, HCKGETMConfig(num_topics=3, gibbs_iterations=1))
        with pytest.raises(RuntimeError):
            model.score_sets([train[0].symptoms])

    def test_empty_symptom_set_falls_back_to_prior(self, fitted_model, tiny_split):
        train, _ = tiny_split
        scores = fitted_model.score_sets([()])
        np.testing.assert_allclose(scores[0], fitted_model.herb_prior_)

    def test_topic_distributions_are_normalised(self, fitted_model):
        np.testing.assert_allclose(fitted_model.topic_herb_.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(fitted_model.symptom_topic_.sum(axis=1), 1.0, atol=1e-9)

    def test_fits_without_knowledge_graph(self, tiny_split):
        train, _ = tiny_split
        model = HCKGETM(
            train.num_symptoms, train.num_herbs, HCKGETMConfig(num_topics=4, gibbs_iterations=2, seed=1)
        ).fit(train, knowledge_graph=None)
        scores = model.score_sets([train[0].symptoms])
        assert scores.shape == (1, train.num_herbs)

    def test_recommendations_better_than_random(self, fitted_model, tiny_split):
        """The topic model should hit ground-truth herbs far above chance."""
        train, test = tiny_split
        hits = 0
        total = 0
        for prescription in list(test)[:40]:
            recs = fitted_model.recommend(prescription.symptoms, k=10)
            hits += len(set(recs) & set(prescription.herbs))
            total += 10
        hit_rate = hits / total
        chance = np.mean([p.num_herbs for p in test]) / test.num_herbs
        assert hit_rate > 2 * chance

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HCKGETMConfig(num_topics=0)
        with pytest.raises(ValueError):
            HCKGETMConfig(alpha=0)
        with pytest.raises(ValueError):
            HCKGETMConfig(gibbs_iterations=0)
        with pytest.raises(ValueError):
            HCKGETMConfig(kg_weight=2.0)

    def test_vocab_mismatch_rejected(self, tiny_split):
        train, _ = tiny_split
        model = HCKGETM(train.num_symptoms + 1, train.num_herbs, HCKGETMConfig(num_topics=3, gibbs_iterations=1))
        with pytest.raises(ValueError):
            model.fit(train)


class TestPopularityBaselines:
    def test_popularity_scores_match_frequencies(self, tiny_split):
        train, _ = tiny_split
        model = PopularityRecommender(train.num_herbs).fit(train)
        scores = model.score_sets([(0,), (1, 2)])
        assert scores.shape == (2, train.num_herbs)
        np.testing.assert_allclose(scores[0], scores[1])
        freq = train.herb_frequencies()
        assert np.argmax(scores[0]) == np.argmax(freq)

    def test_recommend_breaks_ties_by_ascending_herb_id(self):
        # herbs 150..299 appear once, 0..149 never: two tied score levels
        num_herbs = 300
        train = PrescriptionDataset.from_id_sets([((0,), tuple(range(150, 300)))], 1, num_herbs)
        model = PopularityRecommender(num_herbs).fit(train)
        assert model.recommend((0,), k=10) == list(range(150, 160))
        assert model.recommend((0,), k=160) == list(range(150, 300)) + list(range(10))

    def test_popularity_requires_fit(self):
        with pytest.raises(RuntimeError):
            PopularityRecommender(5).score_sets([(0,)])

    def test_popularity_vocab_check(self, tiny_split):
        train, _ = tiny_split
        with pytest.raises(ValueError):
            PopularityRecommender(train.num_herbs + 1).fit(train)

    def test_cooccurrence_depends_on_symptoms(self, tiny_split):
        train, _ = tiny_split
        model = CooccurrenceRecommender(train.num_symptoms, train.num_herbs).fit(train)
        scores = model.score_sets([train[0].symptoms, train[1].symptoms])
        assert not np.allclose(scores[0], scores[1])

    def test_cooccurrence_beats_popularity(self, tiny_split):
        from repro.evaluation import Evaluator

        train, test = tiny_split
        evaluator = Evaluator(test, ks=(5,))
        pop = evaluator.evaluate(PopularityRecommender(train.num_herbs).fit(train))
        cooc = evaluator.evaluate(
            CooccurrenceRecommender(train.num_symptoms, train.num_herbs).fit(train)
        )
        assert cooc.metric("p@5") >= pop.metric("p@5")

    def test_cooccurrence_empty_symptoms_fall_back(self, tiny_split):
        train, _ = tiny_split
        model = CooccurrenceRecommender(train.num_symptoms, train.num_herbs).fit(train)
        scores = model.score_sets([()])
        assert np.all(np.isfinite(scores))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PopularityRecommender(0)
        with pytest.raises(ValueError):
            CooccurrenceRecommender(0, 5)
        with pytest.raises(ValueError):
            CooccurrenceRecommender(5, 5, smoothing=-1)
