"""Tests for vocabularies and the prescription dataset container."""

import numpy as np
import pytest

from repro.data import Prescription, PrescriptionDataset, Vocabulary


class TestVocabulary:
    def test_add_and_lookup(self):
        vocab = Vocabulary()
        idx = vocab.add("ginseng")
        assert idx == 0
        assert vocab.id_of("ginseng") == 0
        assert vocab.token_of(0) == "ginseng"

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("tuckahoe")
        second = vocab.add("tuckahoe")
        assert first == second
        assert len(vocab) == 1

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary(["a", "b", "c"])
        ids = vocab.encode(["c", "a"])
        assert ids == [2, 0]
        assert vocab.decode(ids) == ["c", "a"]

    def test_unknown_token_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(KeyError):
            vocab.id_of("missing")

    def test_out_of_range_id_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(IndexError):
            vocab.token_of(5)

    def test_decode_checks_every_id(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.decode(np.array([2, 0, 1], dtype=np.int64)) == ["c", "a", "b"]
        assert vocab.decode(iter([1, 1])) == ["b", "b"]
        assert vocab.decode([]) == []
        # a negative id must not wrap to the end of the token list
        with pytest.raises(IndexError, match="id -1 out of range"):
            vocab.decode([0, -1])
        with pytest.raises(IndexError, match="id 3 out of range"):
            vocab.decode([3, 0])

    def test_contains_iter_and_tokens(self):
        vocab = Vocabulary(["x", "y"])
        assert "x" in vocab
        assert list(iter(vocab)) == ["x", "y"]
        assert vocab.tokens == ["x", "y"]

    def test_from_prefix(self):
        vocab = Vocabulary.from_prefix("herb", 3)
        assert len(vocab) == 3
        assert vocab.token_of(1) == "herb_001"

    def test_from_prefix_negative(self):
        with pytest.raises(ValueError):
            Vocabulary.from_prefix("x", -1)

    def test_rejects_empty_token(self):
        vocab = Vocabulary()
        with pytest.raises(ValueError):
            vocab.add("")

    def test_equality(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a"]) != Vocabulary(["b"])


class TestPrescription:
    def test_sorts_and_deduplicates(self):
        p = Prescription((3, 1, 1), (5, 2))
        assert p.symptoms == (1, 3)
        assert p.herbs == (2, 5)
        assert p.num_symptoms == 2
        assert p.num_herbs == 2

    def test_requires_nonempty_sets(self):
        with pytest.raises(ValueError):
            Prescription((), (1,))
        with pytest.raises(ValueError):
            Prescription((1,), ())

    def test_frozen(self):
        p = Prescription((1,), (2,))
        with pytest.raises(AttributeError):
            p.symptoms = (5,)


def _toy_dataset():
    prescriptions = [
        Prescription((0, 1), (0, 1, 2)),
        Prescription((1, 2), (1, 2)),
        Prescription((0, 3), (0, 3)),
        Prescription((2, 3), (2, 3)),
    ]
    return PrescriptionDataset(
        prescriptions,
        symptom_vocab=Vocabulary.from_prefix("symptom", 4),
        herb_vocab=Vocabulary.from_prefix("herb", 4),
        name="toy",
    )


class TestPrescriptionDataset:
    def test_len_iter_getitem(self):
        data = _toy_dataset()
        assert len(data) == 4
        assert data[0].symptoms == (0, 1)
        assert sum(1 for _ in data) == 4

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            PrescriptionDataset([], Vocabulary.from_prefix("s", 1), Vocabulary.from_prefix("h", 1))

    def test_rejects_out_of_vocab_ids(self):
        with pytest.raises(ValueError):
            PrescriptionDataset(
                [Prescription((0,), (9,))],
                symptom_vocab=Vocabulary.from_prefix("s", 1),
                herb_vocab=Vocabulary.from_prefix("h", 2),
            )

    def test_herb_frequencies(self):
        data = _toy_dataset()
        np.testing.assert_array_equal(data.herb_frequencies(), [2, 2, 3, 2])

    def test_symptom_frequencies(self):
        data = _toy_dataset()
        np.testing.assert_array_equal(data.symptom_frequencies(), [2, 2, 2, 2])

    def test_top_herbs(self):
        data = _toy_dataset()
        top = data.top_herbs(k=1)
        assert top[0][0] == 2
        assert top[0][1] == 3

    def test_herb_multi_hot(self):
        data = _toy_dataset()
        targets = data.herb_multi_hot([0, 1])
        assert targets.shape == (2, 4)
        np.testing.assert_array_equal(targets[0], [1, 1, 1, 0])
        np.testing.assert_array_equal(targets[1], [0, 1, 1, 0])

    def test_symptom_multi_hot_all(self):
        data = _toy_dataset()
        matrix = data.symptom_multi_hot()
        assert matrix.shape == (4, 4)
        assert matrix.sum() == sum(p.num_symptoms for p in data)

    def test_statistics(self):
        stats = _toy_dataset().statistics()
        assert stats.num_prescriptions == 4
        assert stats.num_symptoms == 4
        assert stats.num_herbs == 4
        assert stats.num_observed_symptoms == 4
        assert stats.mean_herbs_per_prescription == pytest.approx(9 / 4)
        assert "#prescriptions" in stats.as_dict()

    def test_subset_shares_vocab(self):
        data = _toy_dataset()
        sub = data.subset([0, 2])
        assert len(sub) == 2
        assert sub.symptom_vocab is data.symptom_vocab

    def test_train_test_split_sizes(self):
        data = _toy_dataset()
        train, test = data.train_test_split(test_fraction=0.25, rng=np.random.default_rng(0))
        assert len(train) == 3
        assert len(test) == 1
        assert len(train) + len(test) == len(data)

    def test_train_test_split_disjoint(self):
        data = _toy_dataset()
        train, test = data.train_test_split(test_fraction=0.5, rng=np.random.default_rng(1))
        train_ids = {id(p) for p in train}
        test_ids = {id(p) for p in test}
        assert train_ids.isdisjoint(test_ids)

    def test_train_test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            _toy_dataset().train_test_split(test_fraction=1.5)

    def test_from_id_sets(self):
        data = PrescriptionDataset.from_id_sets(
            [((0, 1), (1,)), ((1,), (0, 1))], num_symptoms=2, num_herbs=2
        )
        assert len(data) == 2
        assert data.num_symptoms == 2
        assert data.num_herbs == 2
