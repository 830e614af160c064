"""Checkpoint round-trip tests for every registered model.

The guarantee under test: a trained model saved to a single ``.npz`` bundle
and loaded back produces **bit-identical** ``score_sets`` output, without the
Trainer ever running during the load; and loading refuses mismatched
vocabularies or state shapes instead of silently mis-scoring.
"""

import gc
import warnings

import numpy as np
import pytest

from repro.data.prescriptions import PrescriptionDataset
from repro.data.vocab import Vocabulary
from repro.experiments.datasets import experiment_split
from repro.experiments.runners import train_registered_model
from repro.io import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
    vocab_fingerprint,
)
from repro.models import MODEL_REGISTRY
from repro.models.base import GraphHerbRecommender
from repro.training import TrainerConfig

QUERIES = [(0, 1, 2), (3,), (5, 7)]

FAST_FIT = {
    # keep the per-model fitting cheap; the round-trip, not the quality, matters
    "HC-KGETM": dict(num_topics=4, gibbs_iterations=1),
}


@pytest.fixture(scope="module")
def smoke_train():
    train, _ = experiment_split("smoke")
    return train


def _fit(name):
    overrides = FAST_FIT.get(name, {})
    trainer_config = None
    if MODEL_REGISTRY.get(name).needs_trainer:
        trainer_config = TrainerConfig(epochs=1, batch_size=64, learning_rate=5e-3)
    model, _ = train_registered_model(
        name, scale="smoke", trainer_config=trainer_config, **overrides
    )
    return model


class TestRoundTrip:
    @pytest.mark.parametrize("name", MODEL_REGISTRY.names())
    def test_bit_identical_scores_after_reload(self, name, smoke_train, tmp_path, monkeypatch):
        model = _fit(name)
        expected = model.score_sets(QUERIES)
        path = save_checkpoint(model, tmp_path / "model.npz", smoke_train, name=name, scale="smoke")

        def boom(*args, **kwargs):  # training during load is the bug this PR removes
            raise AssertionError("Trainer.fit must not run when loading a checkpoint")

        monkeypatch.setattr("repro.training.trainer.Trainer.fit", boom)
        loaded, header = load_checkpoint(path, smoke_train)
        assert header.model_name == name
        assert header.scale == "smoke"
        assert type(loaded) is type(model)
        if isinstance(loaded, GraphHerbRecommender):
            assert loaded.propagation_count == 0  # nothing ran yet
        actual = loaded.score_sets(QUERIES)
        np.testing.assert_array_equal(actual, expected)

    def test_variant_flags_survive(self, smoke_train, tmp_path):
        model = _fit("Bipar-GCN")
        path = save_checkpoint(
            model, tmp_path / "v.npz", smoke_train, name="Bipar-GCN", scale="smoke"
        )
        loaded, _ = load_checkpoint(path, smoke_train)
        assert loaded.describe() == "Bipar-GCN"
        assert not loaded.config.use_synergy
        assert not loaded.config.use_syndrome_mlp

    def test_header_is_cheap_and_complete(self, smoke_train, tmp_path):
        model = _fit("GC-MC")
        path = save_checkpoint(model, tmp_path / "m.npz", smoke_train, name="GC-MC", scale="smoke")
        header = read_checkpoint_header(path)
        assert header.model_name == "GC-MC"
        assert header.model_class == "GCMC"
        assert header.num_symptoms == smoke_train.num_symptoms
        assert header.num_herbs == smoke_train.num_herbs
        assert header.config["embedding_dim"] == model.config.embedding_dim
        assert set(header.state_keys) == set(model.state_dict())

    def test_inferred_name_matches_primary_entry(self, smoke_train, tmp_path):
        model = _fit("SMGCN")
        path = save_checkpoint(model, tmp_path / "m.npz", smoke_train, scale="smoke")
        assert read_checkpoint_header(path).model_name == "SMGCN"


class TestRefusals:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        train, _ = experiment_split("smoke")
        model = _fit("SMGCN")
        path = save_checkpoint(
            model, tmp_path_factory.mktemp("ckpt") / "m.npz", train, name="SMGCN", scale="smoke"
        )
        return path, train

    def test_vocab_size_mismatch_refused(self, saved):
        path, _ = saved
        bigger, _ = experiment_split("default")
        with pytest.raises(CheckpointError, match="vocabulary size mismatch"):
            load_checkpoint(path, bigger)

    def test_vocab_fingerprint_mismatch_refused(self, saved):
        path, train = saved
        renamed = PrescriptionDataset(
            list(train),
            Vocabulary(f"sym_{i}" for i in range(train.num_symptoms)),
            train.herb_vocab,
            name="renamed",
        )
        with pytest.raises(CheckpointError, match="symptom vocabulary fingerprint"):
            load_checkpoint(path, renamed)
        renamed_herbs = PrescriptionDataset(
            list(train),
            train.symptom_vocab,
            Vocabulary(f"h_{i}" for i in range(train.num_herbs)),
            name="renamed-herbs",
        )
        with pytest.raises(CheckpointError, match="herb vocabulary fingerprint"):
            load_checkpoint(path, renamed_herbs)

    def test_state_shape_mismatch_refused(self, saved, tmp_path):
        path, train = saved
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        state_keys = [key for key in arrays if key.startswith("state/") and arrays[key].ndim == 2]
        arrays[state_keys[0]] = arrays[state_keys[0]][:, :-1]  # truncate one matrix
        tampered = tmp_path / "tampered.npz"
        with open(tampered, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(tampered, train)

    def test_missing_state_key_refused(self, saved, tmp_path):
        path, train = saved
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        dropped = next(key for key in arrays if key.startswith("state/"))
        del arrays[dropped]
        tampered = tmp_path / "missing.npz"
        with open(tampered, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(tampered, train)

    def test_unregistered_model_name_refused(self, saved, tmp_path):
        import json

        path, train = saved
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        header = json.loads(str(arrays["__checkpoint_header__"][()]))
        header["model_name"] = "DeepHerb"
        arrays["__checkpoint_header__"] = np.array(json.dumps(header))
        tampered = tmp_path / "unknown.npz"
        with open(tampered, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CheckpointError, match="unregistered model"):
            load_checkpoint(tampered, train)

    def test_not_a_checkpoint_refused(self, tmp_path):
        train, _ = experiment_split("smoke")
        bogus = tmp_path / "bogus.npz"
        with open(bogus, "wb") as handle:
            np.savez(handle, something=np.zeros(3))
        with pytest.raises(CheckpointError, match="missing header"):
            read_checkpoint_header(bogus)
        with pytest.raises(CheckpointError, match="missing header"):
            load_checkpoint(bogus, train)

    def test_truncated_bundle_closes_its_file(self, saved, tmp_path):
        """A bundle too torn to parse must not leave its file open."""
        path, train = saved
        torn = tmp_path / "torn.npz"
        torn.write_bytes(path.read_bytes()[:-200])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for load in (read_checkpoint_header, lambda p: load_checkpoint(p, train)):
                try:
                    load(torn)
                except Exception:  # whatever the parser raises, the file must close
                    pass
                else:
                    pytest.fail("a truncated bundle loaded")
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_wrong_dataset_at_save_time_refused(self, tmp_path):
        train, _ = experiment_split("smoke")
        model = _fit("GC-MC")
        other, _ = experiment_split("default")
        with pytest.raises(CheckpointError, match="do not match the model"):
            save_checkpoint(model, tmp_path / "m.npz", other, name="GC-MC")

    def test_name_class_mismatch_at_save_refused(self, tmp_path):
        train, _ = experiment_split("smoke")
        model = _fit("GC-MC")
        with pytest.raises(CheckpointError, match="registered for"):
            save_checkpoint(model, tmp_path / "m.npz", train, name="PinSage")


class TestFingerprint:
    def test_fingerprint_is_order_sensitive(self):
        a = Vocabulary(["x", "y"])
        b = Vocabulary(["y", "x"])
        assert vocab_fingerprint(a) != vocab_fingerprint(b)

    def test_fingerprint_is_deterministic(self):
        a = Vocabulary(["x", "y"])
        b = Vocabulary(["x", "y"])
        assert vocab_fingerprint(a) == vocab_fingerprint(b)
