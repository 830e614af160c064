"""Tests for the trainer, its configuration and the loss options."""

import numpy as np
import pytest

from repro.data.loaders import Batch
from repro.evaluation import Evaluator
from repro.models import SMGCN, SMGCNConfig
from repro.models.base import GraphHerbRecommender
from repro.nn import Tensor
from repro.training import PAPER_OPTIMAL_PARAMETERS, Trainer, TrainerConfig


def _model(train, **overrides):
    defaults = dict(embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0)
    defaults.update(overrides)
    return SMGCN.from_dataset(train, SMGCNConfig(**defaults))


class TestTrainerConfig:
    def test_defaults_valid(self):
        config = TrainerConfig()
        assert config.loss == "multilabel"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainerConfig(weight_decay=-1)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(loss="hinge")
        with pytest.raises(ValueError):
            TrainerConfig(negative_samples=0)
        with pytest.raises(ValueError):
            TrainerConfig(eval_every=0)

    def test_paper_parameters_table(self):
        assert set(PAPER_OPTIMAL_PARAMETERS) == {
            "HC-KGETM",
            "GC-MC",
            "PinSage",
            "NGCF",
            "HeteGCN",
            "SMGCN",
        }
        assert PAPER_OPTIMAL_PARAMETERS["SMGCN"]["lambda"] == pytest.approx(7e-3)
        assert PAPER_OPTIMAL_PARAMETERS["SMGCN"]["xs"] == 5
        assert PAPER_OPTIMAL_PARAMETERS["SMGCN"]["xh"] == 40


class TestTrainerMultilabel:
    def test_loss_decreases(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        config = TrainerConfig(epochs=8, batch_size=64, learning_rate=3e-3, weight_decay=1e-5, seed=0)
        history = Trainer(config).fit(model, train)
        assert history.num_epochs == 8
        assert history.final_loss < history.epoch_losses[0]
        assert history.improved()

    def test_model_in_eval_mode_after_fit(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        Trainer(TrainerConfig(epochs=1, batch_size=64, learning_rate=1e-3)).fit(model, train)
        assert not model.training

    def test_training_improves_over_untrained(self, tiny_split):
        train, test = tiny_split
        evaluator = Evaluator(test, ks=(5,))
        untrained = _model(train, seed=5)
        before = evaluator.evaluate(untrained).metric("p@5")
        trained = _model(train, seed=5)
        Trainer(
            TrainerConfig(epochs=25, batch_size=64, learning_rate=5e-3, weight_decay=1e-5, seed=0)
        ).fit(trained, train)
        after = evaluator.evaluate(trained).metric("p@5")
        assert after > before

    def test_unweighted_variant_runs(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        config = TrainerConfig(epochs=2, batch_size=64, loss="multilabel_unweighted", learning_rate=1e-3)
        history = Trainer(config).fit(model, train)
        assert history.num_epochs == 2

    def test_logloss_variant_runs(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        config = TrainerConfig(epochs=2, batch_size=64, loss="logloss", learning_rate=1e-3)
        history = Trainer(config).fit(model, train)
        assert all(np.isfinite(history.epoch_losses))

    def test_deterministic_given_seed(self, tiny_split):
        train, _ = tiny_split
        losses = []
        for _ in range(2):
            model = _model(train, seed=2)
            history = Trainer(
                TrainerConfig(epochs=3, batch_size=64, learning_rate=1e-3, seed=7)
            ).fit(model, train)
            losses.append(history.epoch_losses)
        np.testing.assert_allclose(losses[0], losses[1])

    def test_validation_evaluation_recorded(self, tiny_split):
        train, test = tiny_split
        model = _model(train)
        evaluator = Evaluator(test, ks=(5,))
        config = TrainerConfig(epochs=4, batch_size=64, learning_rate=1e-3, eval_every=2)
        history = Trainer(config).fit(model, train, validation_evaluator=evaluator)
        assert len(history.validation_metrics) == 2
        assert "p@5" in history.validation_metrics[0]

    def test_zero_epochs(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        history = Trainer(TrainerConfig(epochs=0)).fit(model, train)
        assert history.num_epochs == 0
        with pytest.raises(ValueError):
            history.final_loss

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_loss_fails_fast(self, tiny_split, monkeypatch, bad):
        import repro.training.trainer as trainer_module

        train, _ = tiny_split
        model = _model(train)
        real = trainer_module.weighted_multilabel_mse
        calls = []

        def poisoned(*args):
            calls.append(None)
            loss = real(*args)
            return loss * bad if len(calls) == 6 else loss

        monkeypatch.setattr(trainer_module, "weighted_multilabel_mse", poisoned)
        config = TrainerConfig(epochs=3, batch_size=64, learning_rate=1e-3)
        batches = -(-len(train) // config.batch_size)
        assert batches == 4  # so the sixth batch is epoch 2's second
        with pytest.raises(FloatingPointError, match=f"epoch 2, batch 2: multilabel loss is {bad}"):
            Trainer(config).fit(model, train)
        assert len(calls) == 6
        # the poisoned batch never stepped: every weight is still finite
        assert all(np.isfinite(parameter.data).all() for parameter in model.parameters())

    def test_non_finite_gradient_fails_fast(self, tiny_split, monkeypatch):
        import repro.training.trainer as trainer_module

        train, _ = tiny_split
        model = _model(train)
        real = trainer_module.weighted_multilabel_mse
        calls, before = [], {}

        def poisoned(*args):
            calls.append(None)
            loss = real(*args)
            if len(calls) != 6:
                return loss
            # the sixth batch: a finite loss whose backward pass carries inf
            assert np.isfinite(float(loss.data))
            before.update((name, p.data.copy()) for name, p in model.named_parameters())
            return Tensor._make(
                loss.data, (loss,), lambda grad: loss._accumulate_grad(grad * np.inf)
            )

        monkeypatch.setattr(trainer_module, "weighted_multilabel_mse", poisoned)
        config = TrainerConfig(epochs=3, batch_size=64, learning_rate=1e-3)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"epoch 2, batch 2: gradient of \S+ is not finite"
        ):
            Trainer(config).fit(model, train)
        assert len(calls) == 6
        # the poisoned batch never stepped: every weight is bit for bit as before it
        for name, parameter in model.named_parameters():
            np.testing.assert_array_equal(parameter.data, before[name])


class TestTrainerBPR:
    def test_bpr_loss_decreases(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        config = TrainerConfig(epochs=6, batch_size=64, loss="bpr", learning_rate=3e-3, seed=0)
        history = Trainer(config).fit(model, train)
        assert history.final_loss < history.epoch_losses[0]

    def test_bpr_loss_positive(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        config = TrainerConfig(epochs=1, batch_size=64, loss="bpr", learning_rate=1e-3, seed=0)
        history = Trainer(config).fit(model, train)
        assert history.epoch_losses[0] > 0

    def test_bpr_multiple_negative_samples(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        config = TrainerConfig(
            epochs=1, batch_size=64, loss="bpr", negative_samples=3, learning_rate=1e-3, seed=0
        )
        history = Trainer(config).fit(model, train)
        assert np.isfinite(history.final_loss)


class _IdentityScoreModel(GraphHerbRecommender):
    """Stub whose score at (row, herb) encodes the flat index.

    ``scores[row, herb] = row * num_herbs + herb`` lets tests decode which
    (positive, negative) herb ids the BPR sampler gathered from the values the
    loss receives.  ``encode``/``induce_syndrome`` realise the same scheme for
    the pair-sliced path: syndrome row ``i`` is ``[i, 1]`` and herb ``h`` is
    ``[num_herbs, h]``, so their inner product is ``i * num_herbs + h``.
    (The sampler edge-case batches keep every *valid* row, so the local row
    index the pair path scores equals the batch row index the tests decode.)
    """

    def encode(self):
        symptom_embeddings = Tensor(np.zeros((self.num_symptoms, 2)))
        herb_embeddings = Tensor(
            np.column_stack(
                [
                    np.full(self.num_herbs, float(self.num_herbs)),
                    np.arange(self.num_herbs, dtype=np.float64),
                ]
            )
        )
        return symptom_embeddings, herb_embeddings

    def induce_syndrome(self, symptom_embeddings, symptom_sets):
        n = len(symptom_sets)
        return Tensor(np.column_stack([np.arange(n, dtype=np.float64), np.ones(n)]))

    def forward(self, symptom_sets):
        n = len(symptom_sets)
        data = np.arange(n * self.num_herbs, dtype=np.float64).reshape(n, self.num_herbs)
        return Tensor(data)


def _bpr_batch(herb_sets, num_herbs):
    targets = np.zeros((len(herb_sets), num_herbs), dtype=np.float64)
    for row, herbs in enumerate(herb_sets):
        if herbs:
            targets[row, list(herbs)] = 1.0
    return Batch(
        indices=np.arange(len(herb_sets)),
        symptom_sets=[(0,)] * len(herb_sets),
        herb_targets=targets,
        herb_sets=[tuple(h) for h in herb_sets],
    )


class TestBPRSamplerEdgeCases:
    """The seed sampler crashed on empty herb sets and hung on full coverage."""

    def _loss(self, herb_sets, num_herbs=10, negative_samples=2, seed=0):
        model = _IdentityScoreModel(num_symptoms=4, num_herbs=num_herbs)
        trainer = Trainer(
            TrainerConfig(loss="bpr", negative_samples=negative_samples, seed=seed)
        )
        batch = _bpr_batch(herb_sets, num_herbs)
        return trainer._bpr_batch_loss(model, batch, np.random.default_rng(seed))

    def test_empty_herb_set_is_skipped(self):
        # the seed raised ValueError from rng.choice([]) here
        loss = self._loss([(), (1, 2)])
        assert np.isfinite(float(loss.data))

    def test_full_vocabulary_row_terminates(self):
        # the seed's rejection loop never terminated when a prescription
        # covered every herb; the row must be skipped, not spun on
        loss = self._loss([tuple(range(10)), (3,)])
        assert np.isfinite(float(loss.data))

    def test_all_rows_degenerate_yields_zero_loss(self):
        loss = self._loss([(), tuple(range(10))])
        assert float(loss.data) == 0.0

    def test_all_rows_degenerate_backward_works(self, tiny_split):
        train, _ = tiny_split
        model = _model(train)
        num_herbs = model.num_herbs
        batch = _bpr_batch([(), tuple(range(num_herbs))], num_herbs)
        trainer = Trainer(TrainerConfig(loss="bpr", seed=0))
        loss = trainer._bpr_batch_loss(model, batch, np.random.default_rng(0))
        assert float(loss.data) == 0.0
        loss.backward()  # gradients exist (all zero) so the step is a no-op

    def test_sampled_pairs_respect_membership(self, monkeypatch):
        import repro.training.trainer as trainer_module

        num_herbs = 12
        captured = {}
        real_bpr_loss = trainer_module.bpr_loss

        def capture(positive_scores, negative_scores):
            captured["pos"] = positive_scores.data.copy()
            captured["neg"] = negative_scores.data.copy()
            return real_bpr_loss(positive_scores, negative_scores)

        monkeypatch.setattr(trainer_module, "bpr_loss", capture)
        # the last row leaves exactly one herb free, forcing the exact
        # complement-sampling fallback after bounded rejection
        herb_sets = [(0, 1, 2), (5,), tuple(range(num_herbs - 1))]
        model = _IdentityScoreModel(num_symptoms=4, num_herbs=num_herbs)
        trainer = Trainer(TrainerConfig(loss="bpr", negative_samples=8, seed=0))
        batch = _bpr_batch(herb_sets, num_herbs)
        trainer._bpr_batch_loss(model, batch, np.random.default_rng(3))

        pos = captured["pos"].astype(np.int64)
        neg = captured["neg"].astype(np.int64)
        assert pos.size == len(herb_sets) * 8
        for flat_pos, flat_neg in zip(pos, neg):
            row = flat_pos // num_herbs
            assert flat_neg // num_herbs == row
            herb_set = set(herb_sets[row])
            assert flat_pos % num_herbs in herb_set
            assert flat_neg % num_herbs not in herb_set

    def test_only_negative_left_is_always_chosen(self):
        import repro.training.trainer as trainer_module

        num_herbs = 6
        captured = {}
        real_bpr_loss = trainer_module.bpr_loss

        def capture(positive_scores, negative_scores):
            captured["neg"] = negative_scores.data.copy()
            return real_bpr_loss(positive_scores, negative_scores)

        model = _IdentityScoreModel(num_symptoms=2, num_herbs=num_herbs)
        trainer = Trainer(TrainerConfig(loss="bpr", negative_samples=4, seed=0))
        batch = _bpr_batch([tuple(range(num_herbs - 1))], num_herbs)
        original = trainer_module.bpr_loss
        trainer_module.bpr_loss = capture
        try:
            trainer._bpr_batch_loss(model, batch, np.random.default_rng(9))
        finally:
            trainer_module.bpr_loss = original
        # only herb 5 is outside the set, so every negative must decode to it
        np.testing.assert_array_equal(captured["neg"].astype(np.int64) % num_herbs, 5)
