"""TransE knowledge-graph embeddings (Bordes et al., 2013).

Substrate for the HC-KGETM baseline: HC-KGETM injects TransE embeddings of
TCM entities (symptoms, herbs, syndromes) learned from a knowledge graph into
its topic model.  The implementation below is a straightforward margin-based
TransE trained with mini-batch SGD and uniform negative sampling, written
directly in NumPy (the model is shallow enough that the autograd engine would
only add overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..data.knowledge_graph import KnowledgeGraph
from .registry import SerializableConfig

__all__ = ["TransEConfig", "TransE"]


@dataclass
class TransEConfig(SerializableConfig):
    """TransE hyper-parameters."""

    embedding_dim: int = 32
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


class TransE:
    """Margin-based translational embeddings: ``h + r ≈ t`` for true triples."""

    def __init__(self, kg: KnowledgeGraph, config: Optional[TransEConfig] = None) -> None:
        self.kg = kg
        self.config = config if config is not None else TransEConfig()
        rng = np.random.default_rng(self.config.seed)
        dim = self.config.embedding_dim
        bound = 6.0 / np.sqrt(dim)
        self.entity_embeddings = rng.uniform(-bound, bound, size=(max(kg.num_entities, 1), dim))
        self.relation_embeddings = rng.uniform(-bound, bound, size=(max(kg.num_relations, 1), dim))
        self._normalise_relations()
        self._trained = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _normalise_entities(self) -> None:
        norms = np.linalg.norm(self.entity_embeddings, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.entity_embeddings /= norms

    def _normalise_relations(self) -> None:
        norms = np.linalg.norm(self.relation_embeddings, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.relation_embeddings /= norms

    def fit(self, rng: Optional[np.random.Generator] = None, verbose: bool = False) -> "TransE":
        """Train on the knowledge graph's triples; returns self."""
        triples = self.kg.triple_array()
        if triples.shape[0] == 0:
            self._trained = True
            return self
        rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        config = self.config
        for epoch in range(config.epochs):
            order = rng.permutation(triples.shape[0])
            self._normalise_entities()
            epoch_loss = 0.0
            for start in range(0, order.size, config.batch_size):
                batch = triples[order[start : start + config.batch_size]]
                heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
                # Corrupt head or tail uniformly at random.
                corrupt_heads = rng.random(batch.shape[0]) < 0.5
                negative_entities = rng.integers(0, self.kg.num_entities, size=batch.shape[0])
                neg_heads = np.where(corrupt_heads, negative_entities, heads)
                neg_tails = np.where(corrupt_heads, tails, negative_entities)
                epoch_loss += self._sgd_step(heads, relations, tails, neg_heads, neg_tails)
            if verbose:  # pragma: no cover - logging only
                print(f"[TransE] epoch {epoch + 1}/{config.epochs} loss={epoch_loss:.4f}")
        self._trained = True
        return self

    def _sgd_step(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        neg_heads: np.ndarray,
        neg_tails: np.ndarray,
    ) -> float:
        ent = self.entity_embeddings
        rel = self.relation_embeddings
        pos_diff = ent[heads] + rel[relations] - ent[tails]
        neg_diff = ent[neg_heads] + rel[relations] - ent[neg_tails]
        pos_dist = np.linalg.norm(pos_diff, axis=1)
        neg_dist = np.linalg.norm(neg_diff, axis=1)
        violation = self.config.margin + pos_dist - neg_dist
        active = violation > 0
        if not np.any(active):
            return 0.0
        lr = self.config.learning_rate
        # Gradient of the L2 distance wrt each embedding (guard zero distances).
        pos_dist_safe = np.where(pos_dist > 1e-12, pos_dist, 1.0)[:, None]
        neg_dist_safe = np.where(neg_dist > 1e-12, neg_dist, 1.0)[:, None]
        pos_grad = pos_diff / pos_dist_safe
        neg_grad = neg_diff / neg_dist_safe
        for i in np.nonzero(active)[0]:
            ent[heads[i]] -= lr * pos_grad[i]
            ent[tails[i]] += lr * pos_grad[i]
            rel[relations[i]] -= lr * (pos_grad[i] - neg_grad[i])
            ent[neg_heads[i]] += lr * neg_grad[i]
            ent[neg_tails[i]] -= lr * neg_grad[i]
        return float(np.sum(violation[active]))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        return self._trained

    def symptom_embeddings(self) -> np.ndarray:
        """Embeddings of all symptom entities, in symptom-id order."""
        return self.entity_embeddings[: self.kg.num_symptoms]

    def herb_embeddings(self) -> np.ndarray:
        """Embeddings of all herb entities, in herb-id order."""
        start = self.kg.num_symptoms
        return self.entity_embeddings[start : start + self.kg.num_herbs]

    def score_triple(self, head: int, relation: int, tail: int) -> float:
        """Negative distance; larger means more plausible."""
        diff = (
            self.entity_embeddings[head]
            + self.relation_embeddings[relation]
            - self.entity_embeddings[tail]
        )
        return -float(np.linalg.norm(diff))
