"""Integer id sets in CSR form.

Row ``i`` of an :class:`IdSets` is ``ids[indptr[i]:indptr[i + 1]]``, sorted
and duplicate-free.  A prescription corpus keeps its symptom sets and its herb
sets this way, so what is derived from it (incidence matrices, co-occurrence
counts, frequencies, multi-hot targets, mini-batches) is array work rather
than a Python loop per prescription.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["IdSets"]


class IdSets:
    """Rows of sorted, duplicate-free integer ids: one ``indptr``/``ids`` pair."""

    __slots__ = ("indptr", "ids")

    def __init__(self, indptr: np.ndarray, ids: np.ndarray) -> None:
        self.indptr = indptr
        self.ids = ids

    @classmethod
    def from_flat(cls, ids: Sequence[int], lengths: Sequence[int]) -> "IdSets":
        """Rows given as concatenated ``ids`` and per-row ``lengths``, sorted and deduplicated."""
        ids = np.asarray(ids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        low = int(ids.min()) if ids.size else 0
        span = int(ids.max()) - low + 1 if ids.size else 1
        # row-major keys: one sort orders every row and puts repeats side by side
        keys = np.sort(np.repeat(np.arange(lengths.size), lengths) * span + (ids - low))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // span, minlength=lengths.size), out=indptr[1:])
        return cls(indptr, keys % span + low)

    @classmethod
    def from_sets(cls, sets: Iterable[Sequence[int]]) -> "IdSets":
        sets = list(sets)
        lengths = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        ids = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(lengths.sum()))
        return cls.from_flat(ids, lengths)

    def __len__(self) -> int:
        return self.indptr.size - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def to_tuples(self) -> List[Tuple[int, ...]]:
        flat = self.ids.tolist()
        bounds = self.indptr.tolist()
        return [tuple(flat[start:end]) for start, end in zip(bounds, bounds[1:])]

    def take(self, rows: Sequence[int]) -> "IdSets":
        """The selected rows, in the order given (negative indices count from the end)."""
        rows = np.arange(len(self))[np.asarray(rows, dtype=np.int64)]
        lengths = np.diff(self.indptr)[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        gather = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return IdSets(indptr, self.ids[gather])

    def rows_where(self, mask: np.ndarray) -> np.ndarray:
        """Per-row flags: does the row hold an id whose entry in ``mask`` is true?"""
        flags = np.zeros(len(self), dtype=bool)
        flags[np.searchsorted(self.indptr, np.flatnonzero(mask), side="right") - 1] = True
        return flags

    def counts(self, num_columns: int) -> np.ndarray:
        """How many rows hold each id, as float64."""
        return np.bincount(self.ids, minlength=num_columns).astype(np.float64)

    def incidence(self, num_columns: int) -> sp.csr_matrix:
        """The binary ``rows x num_columns`` float64 incidence matrix."""
        return sp.csr_matrix(
            (np.ones(self.ids.size), self.ids, self.indptr), shape=(len(self), num_columns)
        )

    def multi_hot(self, num_columns: int) -> np.ndarray:
        """The incidence matrix as a dense float64 array."""
        dense = np.zeros((len(self), num_columns), dtype=np.float64)
        dense[np.repeat(np.arange(len(self)), self.lengths()), self.ids] = 1.0
        return dense
