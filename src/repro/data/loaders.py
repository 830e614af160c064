"""Corpus serialisation and mini-batch iteration.

The on-disk format mirrors the processed TCM dataset used by the paper: one
prescription per line, symptoms and herbs as whitespace-separated tokens
split by a tab, e.g. ``night_sweat pale_tongue\tginseng tuckahoe``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .idsets import IdSets
from .prescriptions import PrescriptionDataset
from .vocab import Vocabulary

__all__ = ["save_corpus", "load_corpus", "Batch", "batch_iterator"]


def save_corpus(dataset: PrescriptionDataset, path: Union[str, Path]) -> None:
    """Write ``dataset`` to ``path`` in the tab-separated token format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        " ".join(dataset.symptom_vocab.decode(symptoms))
        + "\t"
        + " ".join(dataset.herb_vocab.decode(herbs))
        for symptoms, herbs in zip(dataset.symptom_sets(), dataset.herb_sets())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_corpus(
    path: Union[str, Path],
    symptom_vocab: Optional[Vocabulary] = None,
    herb_vocab: Optional[Vocabulary] = None,
    name: Optional[str] = None,
) -> PrescriptionDataset:
    """Load a corpus written by :func:`save_corpus` (or the original dataset format).

    When vocabularies are not supplied they are built on the fly in order of
    first appearance, which keeps ids stable for a fixed file.
    """
    path = Path(path)
    symptom_vocab = symptom_vocab if symptom_vocab is not None else Vocabulary()
    herb_vocab = herb_vocab if herb_vocab is not None else Vocabulary()
    symptoms = _ColumnReader(symptom_vocab)
    herbs = _ColumnReader(herb_vocab)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{line_number}: expected 'symptoms<TAB>herbs', got {raw_line!r}"
                )
            symptoms.add_row(parts[0].split())
            herbs.add_row(parts[1].split())
    return PrescriptionDataset.from_columns(
        symptoms.finish(),
        herbs.finish(),
        symptom_vocab=symptom_vocab,
        herb_vocab=herb_vocab,
        name=name or path.stem,
    )


class _ColumnReader:
    """One side of a corpus being read: every row's token ids in one int64 array.

    An empty vocabulary is filled in order of first appearance.  Until
    :meth:`finish`, a new token's id is its position in the column (so later
    repeats return that position), and ids are ranked to ``0..n-1`` at the
    end.  A supplied vocabulary raises ``KeyError`` on the first unknown token.
    """

    def __init__(self, vocab: Vocabulary) -> None:
        self.vocab = vocab
        self.ids = array("q")
        self.lengths = array("q")
        self.first_seen: Optional[Dict[str, int]] = {} if len(vocab) == 0 else None
        self.positions = count()

    def add_row(self, tokens: List[str]) -> None:
        if self.first_seen is None:
            self.ids.extend(self.vocab.encode(tokens))
        else:
            self.ids.extend(map(self.first_seen.setdefault, tokens, self.positions))
        self.lengths.append(len(tokens))

    def finish(self) -> IdSets:
        ids = np.frombuffer(self.ids, dtype=np.int64)
        if self.first_seen is not None:
            self.vocab.add_all(self.first_seen)
            first = np.fromiter(self.first_seen.values(), dtype=np.int64, count=len(self.first_seen))
            ids = np.searchsorted(first, ids)
        return IdSets.from_flat(ids, np.frombuffer(self.lengths, dtype=np.int64))


@dataclass
class Batch:
    """A mini-batch of prescriptions ready for model consumption.

    ``symptom_sets`` keeps the raw id tuples (the Syndrome Induction component
    pools a variable-length set per example); ``herb_targets`` is the
    multi-hot matrix used by the multi-label loss.
    """

    indices: np.ndarray
    symptom_sets: List[Tuple[int, ...]]
    herb_targets: np.ndarray
    herb_sets: List[Tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.symptom_sets)


def batch_iterator(
    dataset: PrescriptionDataset,
    batch_size: int,
    shuffle: bool = True,
    rng: Optional[np.random.Generator] = None,
    drop_last: bool = False,
) -> Iterator[Batch]:
    """Iterate over the dataset in mini-batches of ``batch_size`` prescriptions.

    Each batch is sliced from the dataset's id arrays; no per-row
    :class:`Prescription` is built.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.arange(len(dataset))
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        rng.shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        if drop_last and chunk.size < batch_size:
            break
        herbs = dataset.herbs.take(chunk)
        yield Batch(
            indices=chunk.copy(),
            symptom_sets=dataset.symptoms.take(chunk).to_tuples(),
            herb_targets=herbs.multi_hot(dataset.num_herbs),
            herb_sets=herbs.to_tuples(),
        )
