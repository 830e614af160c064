"""Sparse-matrix support for graph convolutions.

Graph convolution layers repeatedly compute ``A @ X`` where ``A`` is a fixed
(non-trainable) adjacency matrix and ``X`` is a dense trainable embedding
matrix.  Storing ``A`` as a ``scipy.sparse`` matrix and implementing the
product as a dedicated autograd op keeps both the forward and the backward
pass proportional to the number of edges rather than ``|V|^2``.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, as_tensor

__all__ = ["SparseMatrix", "sparse_matmul", "build_pooling_matrix"]


class SparseMatrix:
    """An immutable, non-trainable sparse matrix operand.

    Thin wrapper around ``scipy.sparse.csr_matrix`` that exposes the small
    surface the graph layers need (shape, transpose, matmul with tensors).
    """

    def __init__(self, matrix: Union[sp.spmatrix, np.ndarray]) -> None:
        if sp.issparse(matrix):
            self._matrix = matrix.tocsr().astype(np.float64)
        else:
            self._matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        # Lazily-built caches: graph layers take A.T every forward pass and
        # every sparse_matmul backward multiplies by the transpose, so both
        # conversions are paid once per matrix instead of once per batch.
        self._transposed: Optional["SparseMatrix"] = None
        self._transposed_scipy: Optional[sp.spmatrix] = None

    @property
    def shape(self):
        return self._matrix.shape

    @property
    def nnz(self) -> int:
        return int(self._matrix.nnz)

    @property
    def scipy(self) -> sp.csr_matrix:
        """The underlying ``csr_matrix`` (do not mutate)."""
        return self._matrix

    def transpose(self) -> "SparseMatrix":
        if self._transposed is None:
            self._transposed = SparseMatrix(self._matrix.T)
        return self._transposed

    def _backward_operand(self) -> sp.spmatrix:
        """The transposed scipy matrix used by ``sparse_matmul``'s backward.

        Cached so repeated backward passes reuse one object; the product it
        feeds (``A.T @ grad``) is the exact expression the uncached code
        evaluated, so gradients are bit-identical.
        """
        if self._transposed_scipy is None:
            self._transposed_scipy = self._matrix.T
        return self._transposed_scipy

    @property
    def T(self) -> "SparseMatrix":
        return self.transpose()

    def toarray(self) -> np.ndarray:
        return self._matrix.toarray()

    def row_degrees(self) -> np.ndarray:
        """Number of non-zeros per row (node degrees for binary adjacency)."""
        return np.asarray((self._matrix != 0).sum(axis=1)).ravel()

    def __matmul__(self, other: Union[Tensor, np.ndarray]) -> Tensor:
        return sparse_matmul(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def build_pooling_matrix(
    index_lists: Sequence[Sequence[int]],
    num_columns: int,
    normalize: str = "mean",
) -> SparseMatrix:
    """Build a CSR matrix ``P`` such that ``P @ X`` pools rows of ``X`` per set.

    Row ``i`` of ``P`` carries weight ``1/len(index_lists[i])`` (``"mean"``) or
    ``1.0`` (``"sum"``) on every column listed in ``index_lists[i]``.  When no
    set repeats an index the CSR arrays are written directly: each row's
    sorted columns, one weight per entry.  Otherwise the matrix is assembled
    in COO form, whose conversion to CSR *sums* duplicate entries — an index
    appearing twice in a set therefore contributes twice to the pooled value,
    giving the exact arithmetic mean over the multiset.  Both routes give the
    same canonical CSR arrays (sorted, duplicate-free indices) when both
    apply.  Empty sets produce all-zero rows.
    """
    if normalize not in ("mean", "sum"):
        raise ValueError(f"normalize must be 'mean' or 'sum', got {normalize!r}")
    if num_columns <= 0:
        raise ValueError("num_columns must be positive")
    shape = (len(index_lists), num_columns)
    lengths = np.fromiter(map(len, index_lists), dtype=np.int64, count=len(index_lists))
    total = int(lengths.sum())
    if total == 0:
        return SparseMatrix(sp.csr_matrix(shape, dtype=np.float64))
    cols = np.fromiter(itertools.chain.from_iterable(index_lists), dtype=np.int64, count=total)
    if cols.min() < 0 or cols.max() >= num_columns:
        raise IndexError(f"pooling indices out of range [0, {num_columns})")
    rows = np.repeat(np.arange(len(index_lists), dtype=np.int64), lengths)
    if normalize == "mean":
        weights = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    else:
        weights = np.ones(total, dtype=np.float64)
    # row-major keys: sorting them sorts each row's columns and keeps rows in place
    row_offsets = rows * num_columns
    keys = np.sort(row_offsets + cols)
    if not np.any(keys[1:] == keys[:-1]):
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return SparseMatrix(sp.csr_matrix((weights, keys - row_offsets, indptr), shape=shape))
    coo = sp.coo_matrix((weights, (rows, cols)), shape=shape, dtype=np.float64)
    return SparseMatrix(coo.tocsr())


def sparse_matmul(matrix: SparseMatrix, dense: Union[Tensor, np.ndarray]) -> Tensor:
    """Compute ``matrix @ dense`` where only ``dense`` may require gradients.

    Backward: ``d(loss)/d(dense) = matrix.T @ d(loss)/d(out)``.
    """
    if not isinstance(matrix, SparseMatrix):
        matrix = SparseMatrix(matrix)
    dense = as_tensor(dense)
    data = matrix.scipy @ dense.data

    def grad_fn(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate_grad(matrix._backward_operand() @ grad)

    return Tensor._make(np.asarray(data), (dense,), grad_fn)
