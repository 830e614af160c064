"""The dataset's CSR id arrays against the per-row loops they replaced.

The oracles are the loops that computed frequencies, multi-hot targets and
mini-batches one :class:`Prescription` at a time, and the line-by-line corpus
loader.  Results must be equal byte for byte, vocabularies included.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.data import IdSets, Prescription, PrescriptionDataset, Vocabulary
from repro.data.loaders import batch_iterator, load_corpus, save_corpus
from repro.experiments.datasets import experiment_corpus, experiment_split


def frequency_oracle(sets, size):
    freq = np.zeros(size, dtype=np.float64)
    for items in sets:
        for item in items:
            freq[item] += 1.0
    return freq


def multi_hot_oracle(sets, rows, size):
    rows = list(rows)
    targets = np.zeros((len(rows), size), dtype=np.float64)
    for out_row, idx in enumerate(rows):
        targets[out_row, list(sets[idx])] = 1.0
    return targets


def load_corpus_oracle(path, symptom_vocab=None, herb_vocab=None):
    symptom_vocab = symptom_vocab if symptom_vocab is not None else Vocabulary()
    herb_vocab = herb_vocab if herb_vocab is not None else Vocabulary()
    build_symptoms = len(symptom_vocab) == 0
    build_herbs = len(herb_vocab) == 0
    prescriptions = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{line_number}: expected 'symptoms<TAB>herbs', got {raw_line!r}"
                )
            symptom_tokens = parts[0].split()
            herb_tokens = parts[1].split()
            if build_symptoms:
                symptom_ids = symptom_vocab.add_all(symptom_tokens)
            else:
                symptom_ids = symptom_vocab.encode(symptom_tokens)
            if build_herbs:
                herb_ids = herb_vocab.add_all(herb_tokens)
            else:
                herb_ids = herb_vocab.encode(herb_tokens)
            prescriptions.append(Prescription(tuple(symptom_ids), tuple(herb_ids)))
    return prescriptions, symptom_vocab, herb_vocab


def assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _random_dataset(seed):
    rng = np.random.default_rng(seed)
    num_symptoms, num_herbs = int(rng.integers(1, 12)), int(rng.integers(2, 30))
    pairs = []
    for _ in range(int(rng.integers(1, 80))):
        # unsorted, with repeats; ids reach both ends of each vocabulary
        symptoms = rng.integers(0, num_symptoms, size=rng.integers(1, 6)).tolist()
        herbs = rng.integers(0, num_herbs, size=rng.integers(1, 9)).tolist()
        pairs.append((symptoms, herbs))
    pairs[0] = ([num_symptoms - 1, 0], [num_herbs - 1, 0, num_herbs - 1])
    return pairs, PrescriptionDataset.from_id_sets(pairs, num_symptoms, num_herbs)


def _token_sets(dataset):
    return [
        (set(dataset.symptom_vocab.decode(s)), set(dataset.herb_vocab.decode(h)))
        for s, h in zip(dataset.symptom_sets(), dataset.herb_sets())
    ]


@pytest.fixture(params=["smoke", "default"], scope="module")
def corpus_split(request):
    return experiment_split(request.param)


class TestIdSets:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_sorted_deduplicated_sets(self, seed):
        pairs, dataset = _random_dataset(seed)
        assert dataset.symptom_sets() == [tuple(sorted(set(s))) for s, _ in pairs]
        assert dataset.herb_sets() == [tuple(sorted(set(h))) for _, h in pairs]
        assert [p.herbs for p in dataset] == dataset.herb_sets()
        assert dataset.herbs.ids.dtype == np.int64

    def test_take_keeps_order_and_negative_rows(self):
        sets = IdSets.from_sets([(4, 2), (7,), (1, 1, 0)])
        assert sets.take([2, 0, -2, 2]).to_tuples() == [(0, 1), (2, 4), (7,), (0, 1)]
        assert sets.take([]).to_tuples() == []
        with pytest.raises(IndexError):
            sets.take([3])

    def test_empty(self):
        sets = IdSets.from_sets([])
        assert len(sets) == 0 and sets.to_tuples() == []
        assert sets.incidence(3).shape == (0, 3)


class TestDerivedQuantitiesMatchLoops:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sets(self, seed):
        _, dataset = _random_dataset(seed)
        self._check(dataset)

    def test_corpus_splits(self, corpus_split):
        for dataset in corpus_split:
            self._check(dataset)

    @staticmethod
    def _check(dataset):
        herb_sets, symptom_sets = dataset.herb_sets(), dataset.symptom_sets()
        assert_same_array(
            dataset.herb_frequencies(), frequency_oracle(herb_sets, dataset.num_herbs)
        )
        assert_same_array(
            dataset.symptom_frequencies(), frequency_oracle(symptom_sets, dataset.num_symptoms)
        )
        everything = range(len(dataset))
        assert_same_array(
            dataset.herb_multi_hot(), multi_hot_oracle(herb_sets, everything, dataset.num_herbs)
        )
        assert_same_array(
            dataset.symptom_multi_hot(),
            multi_hot_oracle(symptom_sets, everything, dataset.num_symptoms),
        )
        rows = np.random.default_rng(len(dataset)).integers(0, len(dataset), size=17)
        assert_same_array(
            dataset.herb_multi_hot(rows), multi_hot_oracle(herb_sets, rows, dataset.num_herbs)
        )
        assert_same_array(
            dataset.herb_multi_hot(rows.tolist()),
            multi_hot_oracle(herb_sets, rows, dataset.num_herbs),
        )

    def test_batches_match_per_row_views(self, corpus_split):
        train, _ = corpus_split
        herb_sets = train.herb_sets()
        seen = []
        for batch in batch_iterator(train, batch_size=96, rng=np.random.default_rng(3)):
            rows = batch.indices.tolist()
            seen.extend(rows)
            assert batch.symptom_sets == [train[i].symptoms for i in rows]
            assert batch.herb_sets == [train[i].herbs for i in rows]
            expected = multi_hot_oracle(herb_sets, rows, train.num_herbs)
            assert_same_array(batch.herb_targets, expected)
        assert sorted(seen) == list(range(len(train)))

    def test_statistics_and_top_herbs(self, corpus_split):
        train, _ = corpus_split
        herbs = [h for p in train for h in p.herbs]
        stats = train.statistics()
        assert stats.num_observed_herbs == len(set(herbs))
        assert stats.mean_herbs_per_prescription == len(herbs) / len(train)
        assert train.top_herbs(10) == Counter(herbs).most_common(10)


class TestGeneratedCorpora:
    # SHA-256 of save_corpus(...) output: checkpoint vocabulary fingerprints
    # and every experiment depend on these corpora staying as generated.
    DIGESTS = {
        "smoke": "a57241f1aa3cc0f50e681c4ca884078c80dcf78a72c50b4b80021ad7eb7b9e2a",
        "default": "9a6bbc75f3e42f35928369d04f2f0c14375dd795019c6a32ff6eb0200164129a",
    }

    @pytest.mark.parametrize("scale", sorted(DIGESTS))
    def test_corpus_bytes_unchanged(self, scale, tmp_path):
        path = tmp_path / "corpus.tsv"
        save_corpus(experiment_corpus(scale).dataset, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[scale]


class TestLoadCorpus:
    def _write(self, tmp_path, text):
        path = tmp_path / "corpus.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def _assert_matches_oracle(self, path, **vocabs):
        oracle_vocabs = {key: Vocabulary(vocab.tokens) for key, vocab in vocabs.items()}
        dataset = load_corpus(path, **vocabs)
        prescriptions, symptom_vocab, herb_vocab = load_corpus_oracle(path, **oracle_vocabs)
        assert dataset.symptom_vocab.tokens == symptom_vocab.tokens
        assert dataset.herb_vocab.tokens == herb_vocab.tokens
        assert dataset.symptom_sets() == [p.symptoms for p in prescriptions]
        assert dataset.herb_sets() == [p.herbs for p in prescriptions]
        return dataset

    def test_comments_blanks_repeats_and_first_seen_order(self, tmp_path):
        path = self._write(
            tmp_path,
            "# header\n\nb a a\tz y\n   # indented comment\n  \t \nc b\ty x y\n\nd\tw",
        )
        dataset = self._assert_matches_oracle(path)
        assert dataset.symptom_vocab.tokens == ["b", "a", "c", "d"]
        assert dataset.herb_vocab.tokens == ["z", "y", "x", "w"]
        assert dataset.symptom_sets() == [(0, 1), (0, 2), (3,)]
        assert dataset.herb_sets() == [(0, 1), (1, 2), (3,)]
        assert dataset.name == "corpus"

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"a b\tx\r\nc\ty z\r\n")
        dataset = self._assert_matches_oracle(path)
        assert dataset.herb_vocab.tokens == ["x", "y", "z"]

    def test_round_trip_of_generated_corpus(self, tmp_path, corpus_split):
        train, _ = corpus_split
        path = tmp_path / "train.tsv"
        save_corpus(train, path)
        loaded = self._assert_matches_oracle(path)
        assert _token_sets(loaded) == _token_sets(train)
        reloaded = self._assert_matches_oracle(
            path, symptom_vocab=train.symptom_vocab, herb_vocab=train.herb_vocab
        )
        assert reloaded.symptom_sets() == train.symptom_sets()
        assert reloaded.herb_sets() == train.herb_sets()

    def test_supplied_vocabularies(self, tmp_path):
        path = self._write(tmp_path, "s2 s0\th1\ns1\th0 h1 h0\n")
        symptoms = Vocabulary(["s0", "s1", "s2"])
        dataset = self._assert_matches_oracle(path, symptom_vocab=symptoms)
        assert dataset.symptom_vocab is symptoms and len(symptoms) == 3
        assert dataset.symptom_sets() == [(0, 2), (1,)]
        assert dataset.herb_vocab.tokens == ["h1", "h0"]

    def test_empty_supplied_vocabulary_is_filled(self, tmp_path):
        path = self._write(tmp_path, "q p\tx\n")
        symptoms = Vocabulary()
        load_corpus(path, symptom_vocab=symptoms)
        assert symptoms.tokens == ["q", "p"]

    @pytest.mark.parametrize(
        "text, token",
        [
            ("s0\th0\ns0 nope\th0\n", "nope"),
            # the first unknown token in file order, a herb on line 1
            ("s0\th0 gone\nnope\th0\n", "gone"),
            # within a line, symptoms come before herbs
            ("nope\tgone\n", "nope"),
            # an unknown token before a malformed line is what is reported
            ("s0\tgone\nno tab here\n", "gone"),
        ],
    )
    def test_unknown_token(self, tmp_path, text, token):
        path = self._write(tmp_path, text)
        vocabs = dict(symptom_vocab=Vocabulary(["s0"]), herb_vocab=Vocabulary(["h0"]))
        with pytest.raises(KeyError) as oracle_error:
            load_corpus_oracle(path, **vocabs)
        with pytest.raises(KeyError) as error:
            load_corpus(path, symptom_vocab=Vocabulary(["s0"]), herb_vocab=Vocabulary(["h0"]))
        assert error.value.args == oracle_error.value.args == (token,)

    @pytest.mark.parametrize(
        "text, line, raw",
        [
            ("a\tb\n# c\nno tab here\nx\ty\n", 3, "no tab here\n"),
            ("a\tb\nx\ty\tz\n", 2, "x\ty\tz\n"),
            ("a\tb\n\nlast line", 3, "last line"),
            ("  a\tb\tc  \r\n", 1, "  a\tb\tc  \n"),
        ],
    )
    def test_malformed_line(self, tmp_path, text, line, raw):
        path = self._write(tmp_path, text)
        expected = f"{path}:{line}: expected 'symptoms<TAB>herbs', got {raw!r}"
        with pytest.raises(ValueError) as oracle_error:
            load_corpus_oracle(path)
        assert str(oracle_error.value) == expected
        with pytest.raises(ValueError) as error:
            load_corpus(path)
        assert str(error.value) == expected

    @pytest.mark.parametrize("text", ["", "\n# only a comment\n\n"])
    def test_no_prescriptions(self, tmp_path, text):
        with pytest.raises(ValueError, match="a dataset needs at least one prescription"):
            load_corpus(self._write(tmp_path, text))


class TestValidation:
    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([((0,), (1,)), ((), (0,))], "at least one symptom"),
            ([((0,), (1,)), ((0,), ())], "at least one herb"),
            ([((0,), ()), ((), (0,))], "at least one herb"),
            ([((0,), (1,)), ((0,), (5,)), ((9,), (0,))], "prescription 1 has a herb id"),
            ([((0,), (1,)), ((9,), (5,))], "prescription 1 has a symptom id"),
            ([((-1,), (1,))], "prescription 0 has a symptom id"),
        ],
    )
    def test_first_problem_is_reported(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            PrescriptionDataset.from_id_sets(pairs, num_symptoms=3, num_herbs=4)
