"""The symptom-herb bipartite interaction graph (paper Section IV-A-1).

An edge ``(s, h)`` exists when symptom ``s`` and herb ``h`` co-occur in at
least one prescription.  The graph is undirected; we store the symptom-to-herb
incidence matrix ``SH`` (shape ``num_symptoms x num_herbs``) and derive the
herb-to-symptom direction by transposition.  Row-normalised variants implement
the mean neighbourhood aggregation of Eqs. (2)-(3), and symmetric
normalisation supports the NGCF/GC-MC baselines.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..data.prescriptions import PrescriptionDataset
from ..nn.sparse import SparseMatrix
from .adjacency import add_self_loops as with_self_loops
from .adjacency import bipartite_block_matrix, row_normalise, symmetric_normalise

__all__ = ["SymptomHerbGraph"]


class SymptomHerbGraph:
    """Binary symptom-herb adjacency with the normalisations the models need."""

    def __init__(self, adjacency: sp.spmatrix, num_symptoms: int, num_herbs: int) -> None:
        adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
        if adjacency.shape != (num_symptoms, num_herbs):
            raise ValueError(
                f"adjacency shape {adjacency.shape} does not match "
                f"({num_symptoms}, {num_herbs})"
            )
        adjacency.data = np.ones_like(adjacency.data)
        self._adjacency = adjacency
        self.num_symptoms = num_symptoms
        self.num_herbs = num_herbs

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: PrescriptionDataset) -> "SymptomHerbGraph":
        """Build the graph from every (symptom, herb) pair sharing a prescription.

        That is the incidence product ``S^T H`` (prescriptions x symptoms and
        prescriptions x herbs), binarised by the constructor.
        """
        symptoms = dataset.symptoms.incidence(dataset.num_symptoms)
        herbs = dataset.herbs.incidence(dataset.num_herbs)
        adjacency = (symptoms.T @ herbs).tocsr()
        adjacency.sum_duplicates()
        return cls(adjacency, dataset.num_symptoms, dataset.num_herbs)

    # ------------------------------------------------------------------
    # Raw adjacency access
    # ------------------------------------------------------------------
    @property
    def symptom_to_herb(self) -> SparseMatrix:
        """Binary ``num_symptoms x num_herbs`` adjacency (symptom rows)."""
        return SparseMatrix(self._adjacency)

    @property
    def num_edges(self) -> int:
        return int(self._adjacency.nnz)

    def symptom_degrees(self) -> np.ndarray:
        """Number of distinct herbs each symptom is connected to."""
        return np.asarray(self._adjacency.sum(axis=1)).ravel()

    def herb_degrees(self) -> np.ndarray:
        """Number of distinct symptoms each herb is connected to."""
        return np.asarray(self._adjacency.sum(axis=0)).ravel()

    def density(self) -> float:
        """Fraction of possible symptom-herb edges that are present."""
        possible = self.num_symptoms * self.num_herbs
        return self.num_edges / possible if possible else 0.0

    # ------------------------------------------------------------------
    # Normalised operators
    # ------------------------------------------------------------------
    def mean_aggregator_symptom(self) -> SparseMatrix:
        """Row-normalised symptom->herb operator: averages herb neighbours per symptom.

        Implements ``1/|N_s| sum_{h in N_s}`` from Eq. (2).
        """
        return row_normalise(self._adjacency)

    def mean_aggregator_herb(self) -> SparseMatrix:
        """Row-normalised herb->symptom operator: averages symptom neighbours per herb.

        Implements ``1/|N_h| sum_{s in N_h}`` from Eq. (3).
        """
        return row_normalise(self._adjacency.T)

    def symmetric_normalised(self, add_self_loops: bool = False) -> SparseMatrix:
        """Symmetric-normalised full bipartite adjacency over symptom+herb nodes.

        Returns the ``(S+H) x (S+H)`` operator ``D^{-1/2} A D^{-1/2}`` used by
        NGCF/GC-MC-style propagation, with optional self loops.
        """
        full = bipartite_block_matrix(self._adjacency)
        return symmetric_normalise(with_self_loops(full) if add_self_loops else full)

    def symptom_neighbors(self, symptom_id: int) -> np.ndarray:
        """Herb ids adjacent to ``symptom_id``."""
        if not 0 <= symptom_id < self.num_symptoms:
            raise ValueError(f"symptom id {symptom_id} out of range")
        return self._adjacency[symptom_id].indices.copy()

    def herb_neighbors(self, herb_id: int) -> np.ndarray:
        """Symptom ids adjacent to ``herb_id``."""
        if not 0 <= herb_id < self.num_herbs:
            raise ValueError(f"herb id {herb_id} out of range")
        return self._adjacency.T.tocsr()[herb_id].indices.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SymptomHerbGraph(symptoms={self.num_symptoms}, herbs={self.num_herbs}, "
            f"edges={self.num_edges})"
        )
