"""Prescription corpus data structures.

A *prescription* is the basic supervision unit of the herb-recommendation
task: a set of symptom ids paired with the set of herb ids the doctor
prescribed for them (paper Section II).  A :class:`PrescriptionDataset` bundles
the prescriptions with the symptom/herb vocabularies and provides the derived
quantities every model needs (herb frequencies, multi-hot targets, train/test
splits, corpus statistics for Table II).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .idsets import IdSets
from .vocab import Vocabulary

__all__ = ["Prescription", "PrescriptionDataset", "DatasetStatistics"]


@dataclass(frozen=True)
class Prescription:
    """One symptom set / herb set pair, stored as sorted tuples of ids."""

    symptoms: Tuple[int, ...]
    herbs: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symptoms", tuple(sorted(set(int(s) for s in self.symptoms))))
        object.__setattr__(self, "herbs", tuple(sorted(set(int(h) for h in self.herbs))))
        if not self.symptoms:
            raise ValueError("a prescription must contain at least one symptom")
        if not self.herbs:
            raise ValueError("a prescription must contain at least one herb")

    @property
    def num_symptoms(self) -> int:
        return len(self.symptoms)

    @property
    def num_herbs(self) -> int:
        return len(self.herbs)


@dataclass(frozen=True)
class DatasetStatistics:
    """Corpus-level statistics in the shape of the paper's Table II."""

    num_prescriptions: int
    num_symptoms: int
    num_herbs: int
    num_observed_symptoms: int
    num_observed_herbs: int
    mean_symptoms_per_prescription: float
    mean_herbs_per_prescription: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "#prescriptions": self.num_prescriptions,
            "#symptoms": self.num_symptoms,
            "#herbs": self.num_herbs,
            "#observed symptoms": self.num_observed_symptoms,
            "#observed herbs": self.num_observed_herbs,
            "avg symptoms/prescription": round(self.mean_symptoms_per_prescription, 2),
            "avg herbs/prescription": round(self.mean_herbs_per_prescription, 2),
        }


class PrescriptionDataset:
    """A prescription corpus plus its symptom / herb vocabularies.

    The symptom sets and the herb sets are held as two :class:`IdSets` (CSR
    id arrays), ``symptoms`` and ``herbs``, built once when the dataset is
    made; row ``i`` of each is prescription ``i``.  Indexing and iteration
    give :class:`Prescription` views, built on first use.
    """

    def __init__(
        self,
        prescriptions: Sequence[Prescription],
        symptom_vocab: Vocabulary,
        herb_vocab: Vocabulary,
        name: str = "tcm",
    ) -> None:
        prescriptions = list(prescriptions)
        self._adopt(
            IdSets.from_sets(p.symptoms for p in prescriptions),
            IdSets.from_sets(p.herbs for p in prescriptions),
            symptom_vocab,
            herb_vocab,
            name,
        )

    @classmethod
    def from_columns(
        cls,
        symptoms: IdSets,
        herbs: IdSets,
        symptom_vocab: Vocabulary,
        herb_vocab: Vocabulary,
        name: str = "tcm",
    ) -> "PrescriptionDataset":
        """A dataset over ready-made id arrays (row ``i`` of each is prescription ``i``)."""
        dataset = cls.__new__(cls)
        dataset._adopt(symptoms, herbs, symptom_vocab, herb_vocab, name)
        return dataset

    def _adopt(
        self,
        symptoms: IdSets,
        herbs: IdSets,
        symptom_vocab: Vocabulary,
        herb_vocab: Vocabulary,
        name: str,
    ) -> None:
        self.symptoms = symptoms
        self.herbs = herbs
        self.symptom_vocab = symptom_vocab
        self.herb_vocab = herb_vocab
        self.name = name
        if len(symptoms) == 0:
            raise ValueError("a dataset needs at least one prescription")
        _raise_first(
            symptoms.lengths() == 0,
            herbs.lengths() == 0,
            "a prescription must contain at least one {kind}",
        )
        _raise_first(
            symptoms.rows_where((symptoms.ids < 0) | (symptoms.ids >= self.num_symptoms)),
            herbs.rows_where((herbs.ids < 0) | (herbs.ids >= self.num_herbs)),
            "prescription {row} has a {kind} id outside the vocabulary",
        )

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    @cached_property
    def prescriptions(self) -> List[Prescription]:
        """Per-row :class:`Prescription` views (built once, on first use)."""
        return [
            Prescription(s, h) for s, h in zip(self.symptoms.to_tuples(), self.herbs.to_tuples())
        ]

    def __len__(self) -> int:
        return len(self.symptoms)

    def __iter__(self) -> Iterator[Prescription]:
        return iter(self.prescriptions)

    def __getitem__(self, index: int) -> Prescription:
        return self.prescriptions[index]

    @property
    def num_symptoms(self) -> int:
        return len(self.symptom_vocab)

    @property
    def num_herbs(self) -> int:
        return len(self.herb_vocab)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def herb_frequencies(self) -> np.ndarray:
        """Number of prescriptions each herb appears in (paper Fig. 5 / Eq. 15)."""
        return self.herbs.counts(self.num_herbs)

    def symptom_frequencies(self) -> np.ndarray:
        """Number of prescriptions each symptom appears in."""
        return self.symptoms.counts(self.num_symptoms)

    def top_herbs(self, k: int = 40) -> List[Tuple[int, int]]:
        """The ``k`` most frequent herbs as ``(herb_id, count)`` pairs (Fig. 5)."""
        return Counter(self.herbs.ids.tolist()).most_common(k)

    def herb_multi_hot(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Multi-hot herb target matrix for the selected prescriptions."""
        herbs = self.herbs if indices is None else self.herbs.take(indices)
        return herbs.multi_hot(self.num_herbs)

    def symptom_multi_hot(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Multi-hot symptom matrix for the selected prescriptions."""
        symptoms = self.symptoms if indices is None else self.symptoms.take(indices)
        return symptoms.multi_hot(self.num_symptoms)

    def symptom_sets(self) -> List[Tuple[int, ...]]:
        return self.symptoms.to_tuples()

    def herb_sets(self) -> List[Tuple[int, ...]]:
        return self.herbs.to_tuples()

    def statistics(self) -> DatasetStatistics:
        return DatasetStatistics(
            num_prescriptions=len(self),
            num_symptoms=self.num_symptoms,
            num_herbs=self.num_herbs,
            num_observed_symptoms=int(np.count_nonzero(self.symptom_frequencies())),
            num_observed_herbs=int(np.count_nonzero(self.herb_frequencies())),
            mean_symptoms_per_prescription=self.symptoms.ids.size / len(self),
            mean_herbs_per_prescription=self.herbs.ids.size / len(self),
        )

    # ------------------------------------------------------------------
    # Splitting / subsetting
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "PrescriptionDataset":
        """A new dataset containing the selected prescriptions (vocabs shared)."""
        return PrescriptionDataset.from_columns(
            self.symptoms.take(indices),
            self.herbs.take(indices),
            symptom_vocab=self.symptom_vocab,
            herb_vocab=self.herb_vocab,
            name=name or f"{self.name}-subset",
        )

    def train_test_split(
        self,
        test_fraction: float = 0.13,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
    ) -> Tuple["PrescriptionDataset", "PrescriptionDataset"]:
        """Split into train/test datasets.

        The paper uses 22,917 / 3,443, i.e. roughly a 87/13 split, which is the
        default ``test_fraction`` here.
        """
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        indices = np.arange(len(self))
        if shuffle:
            rng = rng if rng is not None else np.random.default_rng()
            rng.shuffle(indices)
        num_test = max(1, int(round(len(self) * test_fraction)))
        num_test = min(num_test, len(self) - 1)
        test_idx = indices[:num_test]
        train_idx = indices[num_test:]
        train = self.subset(train_idx, name=f"{self.name}-train")
        test = self.subset(test_idx, name=f"{self.name}-test")
        return train, test

    @classmethod
    def from_id_sets(
        cls,
        pairs: Iterable[Tuple[Sequence[int], Sequence[int]]],
        num_symptoms: int,
        num_herbs: int,
        name: str = "tcm",
    ) -> "PrescriptionDataset":
        """Build a dataset from raw ``(symptom_ids, herb_ids)`` pairs."""
        pairs = list(pairs)
        return cls.from_columns(
            IdSets.from_sets(s for s, _ in pairs),
            IdSets.from_sets(h for _, h in pairs),
            symptom_vocab=Vocabulary.from_prefix("symptom", num_symptoms),
            herb_vocab=Vocabulary.from_prefix("herb", num_herbs),
            name=name,
        )


def _raise_first(bad_symptoms: np.ndarray, bad_herbs: np.ndarray, message: str) -> None:
    """Raise ``message`` for the first flagged row, its symptoms before its herbs."""
    bad = bad_symptoms | bad_herbs
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(message.format(row=row, kind="symptom" if bad_symptoms[row] else "herb"))
