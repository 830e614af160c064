"""Synergy (co-occurrence) graphs: symptom-symptom and herb-herb.

Paper Section IV-B: count how often two herbs (or two symptoms) appear in the
same prescription; keep an edge when the count exceeds a threshold (``x_h``
for herbs, ``x_s`` for symptoms).  The resulting binary graphs are encoded by
the Synergy Graph Encoding (SGE) component with a *sum* aggregator, so this
module exposes the raw binary adjacency rather than a normalised operator.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np
import scipy.sparse as sp

from ..data.idsets import IdSets
from ..data.prescriptions import PrescriptionDataset
from ..nn.sparse import SparseMatrix

__all__ = ["SynergyGraph", "build_symptom_synergy_graph", "build_herb_synergy_graph", "cooccurrence_counts"]


def cooccurrence_counts(
    item_sets: Union[IdSets, Iterable[Sequence[int]]], num_items: int
) -> sp.csr_matrix:
    """Symmetric co-occurrence count matrix over the given item sets.

    ``item_sets`` is an :class:`~repro.data.IdSets` or an iterable of id
    tuples (for example, the herb sets of every prescription); entry
    ``(i, j)`` of the result is the number of sets containing both ``i`` and
    ``j``.  A repeat within a set counts once.  The diagonal is zero.

    The counts are ``B^T B`` for the binary incidence ``B`` (sets x items)
    with the diagonal dropped; they are sums of 1.0, exact in any order.
    """
    if not isinstance(item_sets, IdSets):
        item_sets = IdSets.from_sets(item_sets)
    incidence = item_sets.incidence(num_items)
    product = (incidence.T @ incidence).tocoo()
    off = product.row != product.col
    return sp.csr_matrix(
        (product.data[off], (product.row[off], product.col[off])), shape=(num_items, num_items)
    )


class SynergyGraph:
    """A thresholded binary co-occurrence graph over one node type."""

    def __init__(self, counts: sp.spmatrix, threshold: float, kind: str = "herb") -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        counts = sp.csr_matrix(counts, dtype=np.float64)
        if counts.shape[0] != counts.shape[1]:
            raise ValueError("co-occurrence matrix must be square")
        self.kind = kind
        self.threshold = float(threshold)
        self.num_nodes = counts.shape[0]
        self._counts = counts
        adjacency = counts.copy()
        adjacency.data = (adjacency.data > self.threshold).astype(np.float64)
        adjacency.eliminate_zeros()
        self._adjacency = adjacency

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> SparseMatrix:
        """Binary adjacency after thresholding (no self loops)."""
        return SparseMatrix(self._adjacency)

    @property
    def counts(self) -> SparseMatrix:
        """The raw co-occurrence counts the graph was thresholded from."""
        return SparseMatrix(self._counts)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice internally)."""
        return int(self._adjacency.nnz // 2)

    def degrees(self) -> np.ndarray:
        return np.asarray(self._adjacency.sum(axis=1)).ravel()

    def density(self) -> float:
        possible = self.num_nodes * (self.num_nodes - 1)
        return self._adjacency.nnz / possible if possible else 0.0

    def neighbors(self, node_id: int) -> np.ndarray:
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node id {node_id} out of range")
        return self._adjacency[node_id].indices.copy()

    def with_threshold(self, threshold: float) -> "SynergyGraph":
        """Re-threshold the same counts (used by the Fig. 7 sweep)."""
        return SynergyGraph(self._counts, threshold, kind=self.kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SynergyGraph(kind={self.kind!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, threshold={self.threshold})"
        )


def build_symptom_synergy_graph(dataset: PrescriptionDataset, threshold: float = 5) -> SynergyGraph:
    """Symptom-symptom graph ``SS`` with threshold ``x_s`` (paper default 5)."""
    counts = cooccurrence_counts(dataset.symptoms, dataset.num_symptoms)
    return SynergyGraph(counts, threshold, kind="symptom")


def build_herb_synergy_graph(dataset: PrescriptionDataset, threshold: float = 40) -> SynergyGraph:
    """Herb-herb graph ``HH`` with threshold ``x_h`` (paper default 40)."""
    counts = cooccurrence_counts(dataset.herbs, dataset.num_herbs)
    return SynergyGraph(counts, threshold, kind="herb")
