"""Vocabularies mapping symptom / herb names to contiguous integer ids.

All models operate on integer ids; the vocabularies are only consulted at the
boundaries (loading a corpus, printing case studies).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

__all__ = ["Vocabulary"]


class Vocabulary:
    """Bidirectional mapping between tokens (strings) and dense integer ids."""

    def __init__(self, tokens: Optional[Iterable[str]] = None) -> None:
        self._token_to_id: Dict[str, int] = {}
        self._id_to_token: List[str] = []
        if tokens is not None:
            for token in tokens:
                self.add(token)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, token: str) -> int:
        """Add ``token`` if missing and return its id."""
        if not isinstance(token, str) or not token:
            raise ValueError(f"vocabulary tokens must be non-empty strings, got {token!r}")
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        new_id = len(self._id_to_token)
        self._token_to_id[token] = new_id
        self._id_to_token.append(token)
        return new_id

    def add_all(self, tokens: Iterable[str]) -> List[int]:
        return [self.add(token) for token in tokens]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def id_of(self, token: str) -> int:
        """Return the id of ``token`` (raises ``KeyError`` when unknown)."""
        return self._token_to_id[token]

    def token_of(self, index: int) -> str:
        """Return the token for ``index`` (raises ``IndexError`` when out of range)."""
        if index < 0 or index >= len(self._id_to_token):
            raise IndexError(f"id {index} out of range for vocabulary of size {len(self)}")
        return self._id_to_token[index]

    def encode(self, tokens: Sequence[str]) -> List[int]:
        """The ids of ``tokens`` (``KeyError`` names the first unknown one)."""
        return list(map(self._token_to_id.__getitem__, tokens))

    def decode(self, ids: Sequence[int]) -> List[str]:
        """The tokens of ``ids``; bounds are checked once for the whole list."""
        ids = list(ids)
        tokens = self._id_to_token
        if ids and not (min(ids) >= 0 and max(ids) < len(tokens)):
            for index in ids:
                self.token_of(index)  # raises token_of's IndexError for the first bad id
        return [tokens[index] for index in ids]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_token == other._id_to_token

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Vocabulary(size={len(self)})"

    @property
    def tokens(self) -> List[str]:
        """All tokens in id order (copy)."""
        return list(self._id_to_token)

    @classmethod
    def from_prefix(cls, prefix: str, count: int) -> "Vocabulary":
        """Build a vocabulary of ``count`` synthetic tokens like ``herb_007``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        width = max(3, len(str(max(count - 1, 0))))
        return cls(f"{prefix}_{i:0{width}d}" for i in range(count))
