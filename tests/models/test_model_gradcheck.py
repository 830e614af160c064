"""Whole-model gradient check: every neural model's full training loss.

Op tests check each autograd primitive and ``test_components.py`` one GCN
tower; this checks what the trainer actually differentiates.  For every
registered neural model and every loss the trainer supports, the analytic
gradient of one batch's loss with respect to every parameter must match
central finite differences in float64.  The corpus and models are tiny so
each of the checks takes a fraction of a second.
"""

import numpy as np
import pytest

from repro.data import SyntheticTCMConfig, generate_corpus
from repro.data.loaders import batch_iterator
from repro.models.registry import MODEL_REGISTRY
from repro.nn import check_gradients, herb_frequency_weights
from repro.training import Trainer, TrainerConfig

#: Per model, the overrides that make it tiny (one layer, 3-dim embeddings).
TINY = {
    "GC-MC": dict(embedding_dim=3),
    "PinSage": dict(embedding_dim=3, num_layers=1),
    "NGCF": dict(embedding_dim=3, num_layers=1),
    "HeteGCN": dict(
        embedding_dim=3, hidden_dim=4, attention_dim=2, symptom_threshold=2, herb_threshold=2
    ),
    "SMGCN": dict(embedding_dim=3, layer_dims=(4,), symptom_threshold=2, herb_threshold=2),
}

LOSSES = ["multilabel", "bpr", "logloss"]


@pytest.fixture(scope="module")
def tiny_train():
    corpus = generate_corpus(
        SyntheticTCMConfig(
            num_symptoms=7,
            num_herbs=8,
            num_syndromes=2,
            num_prescriptions=24,
            symptoms_per_syndrome=4,
            herbs_per_syndrome=4,
            min_symptoms=2,
            max_symptoms=3,
            min_herbs=2,
            max_herbs=3,
            num_base_herbs=1,
            seed=3,
        )
    )
    return corpus.dataset


def test_every_neural_model_is_covered():
    assert set(MODEL_REGISTRY.neural_names()) == set(TINY)


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("name", MODEL_REGISTRY.neural_names())
def test_full_loss_gradients_match_finite_differences(tiny_train, name, loss):
    entry = MODEL_REGISTRY.get(name)
    model = entry.build(tiny_train, entry.default_config(seed=1, **TINY[name]))
    parameters = list(model.parameters())
    assert all(parameter.data.dtype == np.float64 for parameter in parameters)
    trainer = Trainer(TrainerConfig(loss=loss, negative_samples=2))
    batch = next(batch_iterator(tiny_train, batch_size=8, shuffle=False))
    weights = herb_frequency_weights(tiny_train.herb_frequencies())
    model.train()

    def batch_loss():
        # a fresh seeded stream, so every BPR evaluation samples the same pairs
        return trainer._batch_loss(model, batch, weights, np.random.default_rng(0))

    assert check_gradients(batch_loss, parameters, epsilon=1e-6, atol=1e-6, rtol=1e-4)
