"""Synthetic TCM prescription corpus generator.

The paper evaluates on the public TCM dataset of Yao et al. (26,360 processed
prescriptions over 360 symptoms and 753 herbs), which cannot be downloaded in
this offline environment.  This module provides a *latent-syndrome* generative
simulator that produces corpora with the same structural properties the
paper's model exploits:

* each prescription is generated from one or two latent **syndromes** — exactly
  the unobserved intermediate the paper's Syndrome Induction component is
  designed to recover;
* symptoms and herbs that share a syndrome co-occur far more often than
  chance, giving the symptom-symptom and herb-herb synergy graphs real signal;
* a small set of "base" herbs (licorice-like harmonisers) appears in a large
  fraction of prescriptions, reproducing the heavy-tailed herb-frequency
  distribution of Fig. 5 that motivates the weighted loss of Eq. (15);
* symptom sets and herb sets have realistic sizes (defaults follow the
  description of the original corpus).

The latent structure is returned alongside the corpus so that the knowledge
graph used by the HC-KGETM baseline can be built from it and so that tests can
verify the generator's statistical properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .idsets import IdSets
from .prescriptions import PrescriptionDataset
from .vocab import Vocabulary

__all__ = ["SyntheticTCMConfig", "SyntheticCorpus", "generate_corpus"]


@dataclass
class SyntheticTCMConfig:
    """Parameters of the latent-syndrome prescription simulator.

    The defaults generate a mid-sized corpus suitable for CPU experiments; use
    ``SyntheticTCMConfig.paper_scale()`` for a corpus matching the size of the
    original TCM dataset.
    """

    num_symptoms: int = 120
    num_herbs: int = 240
    num_syndromes: int = 18
    num_prescriptions: int = 4000
    symptoms_per_syndrome: int = 14
    herbs_per_syndrome: int = 18
    min_symptoms: int = 3
    max_symptoms: int = 8
    min_herbs: int = 5
    max_herbs: int = 12
    num_base_herbs: int = 6
    base_herb_probability: float = 0.55
    second_syndrome_probability: float = 0.35
    noise_symptom_probability: float = 0.05
    noise_herb_probability: float = 0.05
    syndrome_zipf_exponent: float = 1.1
    within_pool_zipf_exponent: float = 0.9
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.num_symptoms <= 0 or self.num_herbs <= 0 or self.num_syndromes <= 0:
            raise ValueError("entity counts must be positive")
        if self.num_prescriptions <= 0:
            raise ValueError("num_prescriptions must be positive")
        if self.min_symptoms < 1 or self.max_symptoms < self.min_symptoms:
            raise ValueError("invalid symptom set size bounds")
        if self.min_herbs < 1 or self.max_herbs < self.min_herbs:
            raise ValueError("invalid herb set size bounds")
        if self.symptoms_per_syndrome > self.num_symptoms:
            raise ValueError("symptoms_per_syndrome cannot exceed num_symptoms")
        if self.herbs_per_syndrome > self.num_herbs:
            raise ValueError("herbs_per_syndrome cannot exceed num_herbs")
        if self.num_base_herbs >= self.num_herbs:
            raise ValueError("num_base_herbs must be smaller than num_herbs")
        for name in (
            "base_herb_probability",
            "second_syndrome_probability",
            "noise_symptom_probability",
            "noise_herb_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    @classmethod
    def paper_scale(cls, seed: int = 2020) -> "SyntheticTCMConfig":
        """A configuration matching the size of the original TCM dataset."""
        return cls(
            num_symptoms=360,
            num_herbs=753,
            num_syndromes=40,
            num_prescriptions=26360,
            seed=seed,
        )

    @classmethod
    def tiny(cls, seed: int = 2020) -> "SyntheticTCMConfig":
        """A very small configuration for unit tests and quick benchmarks."""
        return cls(
            num_symptoms=30,
            num_herbs=50,
            num_syndromes=6,
            num_prescriptions=300,
            symptoms_per_syndrome=8,
            herbs_per_syndrome=10,
            num_base_herbs=3,
            seed=seed,
        )


@dataclass
class SyntheticCorpus:
    """A generated corpus together with its latent syndrome structure."""

    dataset: PrescriptionDataset
    syndrome_symptoms: Dict[int, Tuple[int, ...]]
    syndrome_herbs: Dict[int, Tuple[int, ...]]
    syndrome_weights: np.ndarray
    prescription_syndromes: List[Tuple[int, ...]] = field(default_factory=list)
    config: Optional[SyntheticTCMConfig] = None

    @property
    def num_syndromes(self) -> int:
        return len(self.syndrome_symptoms)


def _zipf_weights(size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _sample_without_replacement(
    rng: np.random.Generator, pool: np.ndarray, weights: np.ndarray, count: int
) -> List[int]:
    count = min(count, pool.size)
    if count <= 0:
        return []
    probabilities = weights / weights.sum()
    chosen = rng.choice(pool, size=count, replace=False, p=probabilities)
    return [int(c) for c in chosen]


def generate_corpus(config: Optional[SyntheticTCMConfig] = None) -> SyntheticCorpus:
    """Generate a synthetic TCM prescription corpus.

    The generative process per prescription mirrors the therapeutic story of
    the paper's Fig. 1 in reverse: sample syndromes, emit the symptoms the
    patient shows, then emit the herbs a doctor would prescribe for those
    syndromes (plus base herbs and a little noise).
    """
    config = config if config is not None else SyntheticTCMConfig()
    rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    # Latent structure: characteristic symptom / herb pools per syndrome.
    # Pools overlap (a symptom can indicate several syndromes), which is what
    # makes syndrome induction ambiguous in the paper's telling.
    # ------------------------------------------------------------------
    base_herbs = np.arange(config.num_base_herbs)
    specific_herbs = np.arange(config.num_base_herbs, config.num_herbs)

    syndrome_symptoms: Dict[int, Tuple[int, ...]] = {}
    syndrome_herbs: Dict[int, Tuple[int, ...]] = {}
    for syndrome in range(config.num_syndromes):
        symptom_pool = rng.choice(config.num_symptoms, size=config.symptoms_per_syndrome, replace=False)
        herb_pool = rng.choice(specific_herbs, size=min(config.herbs_per_syndrome, specific_herbs.size), replace=False)
        syndrome_symptoms[syndrome] = tuple(int(s) for s in np.sort(symptom_pool))
        syndrome_herbs[syndrome] = tuple(int(h) for h in np.sort(herb_pool))

    syndrome_weights = _zipf_weights(config.num_syndromes, config.syndrome_zipf_exponent)

    symptom_sets: List[List[int]] = []
    herb_sets: List[List[int]] = []
    prescription_syndromes: List[Tuple[int, ...]] = []
    max_attempts = config.num_prescriptions * 20
    attempts = 0
    while len(symptom_sets) < config.num_prescriptions and attempts < max_attempts:
        attempts += 1
        num_active = 2 if rng.random() < config.second_syndrome_probability else 1
        active = rng.choice(
            config.num_syndromes, size=num_active, replace=False, p=syndrome_weights
        )
        active = tuple(int(s) for s in np.sort(active))

        # --- symptoms -------------------------------------------------
        symptom_pool = np.array(
            sorted({s for syndrome in active for s in syndrome_symptoms[syndrome]}), dtype=np.int64
        )
        pool_weights = _zipf_weights(symptom_pool.size, config.within_pool_zipf_exponent)
        target_symptoms = int(rng.integers(config.min_symptoms, config.max_symptoms + 1))
        symptoms = _sample_without_replacement(rng, symptom_pool, pool_weights, target_symptoms)
        if rng.random() < config.noise_symptom_probability:
            symptoms.append(int(rng.integers(0, config.num_symptoms)))

        # --- herbs ----------------------------------------------------
        herb_pool = np.array(
            sorted({h for syndrome in active for h in syndrome_herbs[syndrome]}), dtype=np.int64
        )
        herb_weights = _zipf_weights(herb_pool.size, config.within_pool_zipf_exponent)
        target_herbs = int(rng.integers(config.min_herbs, config.max_herbs + 1))
        herbs = _sample_without_replacement(rng, herb_pool, herb_weights, target_herbs)
        for base_herb in base_herbs:
            if rng.random() < config.base_herb_probability:
                herbs.append(int(base_herb))
        if rng.random() < config.noise_herb_probability:
            herbs.append(int(rng.integers(0, config.num_herbs)))

        if not symptoms or not herbs:
            continue
        symptom_sets.append(symptoms)
        herb_sets.append(herbs)
        prescription_syndromes.append(active)

    if len(symptom_sets) < config.num_prescriptions:  # pragma: no cover - defensive
        raise RuntimeError("failed to generate the requested number of prescriptions")

    dataset = PrescriptionDataset.from_columns(
        IdSets.from_sets(symptom_sets),
        IdSets.from_sets(herb_sets),
        symptom_vocab=Vocabulary.from_prefix("symptom", config.num_symptoms),
        herb_vocab=Vocabulary.from_prefix("herb", config.num_herbs),
        name=f"synthetic-tcm-{config.num_prescriptions}",
    )
    return SyntheticCorpus(
        dataset=dataset,
        syndrome_symptoms=syndrome_symptoms,
        syndrome_herbs=syndrome_herbs,
        syndrome_weights=syndrome_weights,
        prescription_syndromes=prescription_syndromes,
        config=config,
    )
