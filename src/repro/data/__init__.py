"""Prescription corpus handling: vocabularies, datasets, synthetic generation,
serialisation and the TCM knowledge graph substrate."""

from .idsets import IdSets
from .knowledge_graph import KnowledgeGraph, Triple, build_kg_from_corpus, build_kg_from_latent
from .loaders import Batch, batch_iterator, load_corpus, save_corpus
from .prescriptions import DatasetStatistics, Prescription, PrescriptionDataset
from .synthetic import SyntheticCorpus, SyntheticTCMConfig, generate_corpus
from .vocab import Vocabulary

__all__ = [
    "Vocabulary",
    "IdSets",
    "Prescription",
    "PrescriptionDataset",
    "DatasetStatistics",
    "SyntheticTCMConfig",
    "SyntheticCorpus",
    "generate_corpus",
    "Batch",
    "batch_iterator",
    "save_corpus",
    "load_corpus",
    "KnowledgeGraph",
    "Triple",
    "build_kg_from_latent",
    "build_kg_from_corpus",
]
