"""Popularity baseline — recommend the globally most frequent herbs.

Not part of the paper's comparison table, but an indispensable sanity floor:
because the TCM corpus is dominated by a handful of "base" herbs (Fig. 5), a
method that cannot beat raw popularity has learned nothing about symptoms.
Also provides a conditional variant that scores herbs by their co-occurrence
with the query symptoms, which is the strongest non-learning heuristic.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.prescriptions import PrescriptionDataset
from .base import HerbRecommender

__all__ = ["PopularityRecommender", "CooccurrenceRecommender"]


class PopularityRecommender(HerbRecommender):
    """Score every herb by its training-set frequency, regardless of symptoms."""

    def __init__(self, num_herbs: int) -> None:
        if num_herbs <= 0:
            raise ValueError("num_herbs must be positive")
        self._num_herbs = num_herbs
        self._scores: Optional[np.ndarray] = None

    @property
    def num_herbs(self) -> int:
        return self._num_herbs

    def fit(self, dataset: PrescriptionDataset) -> "PopularityRecommender":
        if dataset.num_herbs != self._num_herbs:
            raise ValueError("dataset herb vocabulary does not match the model")
        frequencies = dataset.herb_frequencies()
        total = frequencies.sum()
        self._scores = frequencies / total if total > 0 else frequencies
        return self

    def score_sets(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        if self._scores is None:
            raise RuntimeError("PopularityRecommender must be fitted before scoring")
        return np.tile(self._scores, (len(symptom_sets), 1))


class CooccurrenceRecommender(HerbRecommender):
    """Score herbs by their smoothed co-occurrence with the query symptoms.

    ``score(h | sc) = mean_{s in sc} count(s, h) / count(s)`` with additive
    smoothing — essentially a per-symptom conditional-probability ranker, the
    strongest heuristic that still ignores the set structure.
    """

    def __init__(self, num_symptoms: int, num_herbs: int, smoothing: float = 0.1) -> None:
        if num_symptoms <= 0 or num_herbs <= 0:
            raise ValueError("vocabulary sizes must be positive")
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self._num_symptoms = num_symptoms
        self._num_herbs = num_herbs
        self.smoothing = smoothing
        self._conditional: Optional[np.ndarray] = None
        self._herb_prior: Optional[np.ndarray] = None

    @property
    def num_herbs(self) -> int:
        return self._num_herbs

    def fit(self, dataset: PrescriptionDataset) -> "CooccurrenceRecommender":
        if dataset.num_symptoms != self._num_symptoms or dataset.num_herbs != self._num_herbs:
            raise ValueError("dataset vocabulary sizes do not match the model")
        symptoms = dataset.symptoms.incidence(self._num_symptoms)
        counts = (symptoms.T @ dataset.herbs.incidence(self._num_herbs)).toarray()
        denom = dataset.symptom_frequencies()[:, None] + self.smoothing * self._num_herbs
        self._conditional = (counts + self.smoothing) / denom
        frequencies = dataset.herb_frequencies()
        total = frequencies.sum()
        self._herb_prior = frequencies / total if total > 0 else frequencies
        return self

    def score_sets(self, symptom_sets: Sequence[Sequence[int]]) -> np.ndarray:
        if self._conditional is None:
            raise RuntimeError("CooccurrenceRecommender must be fitted before scoring")
        scores = np.zeros((len(symptom_sets), self._num_herbs), dtype=np.float64)
        for row, symptom_set in enumerate(symptom_sets):
            valid = [s for s in symptom_set if 0 <= s < self._num_symptoms]
            if not valid:
                scores[row] = self._herb_prior
            else:
                scores[row] = self._conditional[valid].mean(axis=0)
        return scores
