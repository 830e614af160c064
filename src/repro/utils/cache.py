"""A bounded, versioned cache whose evicted entries retire after their last lease.

The engine's indexes per parameter version and a catalog entry's generations
and canary share this one policy: keep the newest few versions, and release
an evicted one (close, ``release_snapshot``) once nothing uses it.
:class:`LazyValue` holds a value derived from one snapshot (its float32 herb
copy), built on first use and dropped with it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator, List, Optional

__all__ = ["MAX_CACHED_VERSIONS", "LazyValue", "VersionedCache"]

#: How many versions a serving holder keeps: the latest serves traffic, and
#: one predecessor lets requests in flight on it finish while the new version
#: builds.  Unbounded, a server interleaving training and serving would keep
#: one herb matrix (plus remote pushes) per step.
MAX_CACHED_VERSIONS = 2


class _Slot:
    __slots__ = ("key", "value", "leases")

    def __init__(self, key: Hashable, value: Any) -> None:
        self.key, self.value, self.leases = key, value, 0


class VersionedCache:
    """A bounded, insertion-ordered map with lease-deferred retirement.

    Inserting past ``capacity`` evicts the oldest entry.  An entry evicted
    while leased *drains*: its holders keep using it, and ``on_retire(key,
    value)`` runs when the last lease checks in.  The hook runs exactly once
    per entry, outside the lock.  ``build`` runs under the lock, so a missing
    key is built once, and a raising ``build`` caches nothing.
    """

    def __init__(self, capacity: int, on_retire: Callable[[Any, Any], None]) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {capacity}")
        self.capacity = capacity
        self._on_retire = on_retire
        self._lock = threading.Lock()
        self._live: "OrderedDict[Hashable, _Slot]" = OrderedDict()
        self._leased_out: List[_Slot] = []

    def keys(self) -> List[Hashable]:
        """The cached keys, oldest first (draining entries excluded)."""
        with self._lock:
            return list(self._live)

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)

    @property
    def draining(self) -> int:
        """Evicted entries still leased."""
        with self._lock:
            return len(self._leased_out)

    def peek(self, key: Optional[Hashable] = None) -> Any:
        """The value under ``key`` (``None``: the newest), or ``None``."""
        with self.lease(key) as value:
            return value

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value under ``key``, built and inserted as the newest if missing."""
        with self.lease(key, build) as value:
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` as the newest entry, evicting any under ``key``."""
        self.discard(key)
        self.get(key, lambda: value)

    def discard(self, key: Hashable) -> None:
        """Evict ``key`` if cached."""
        with self._lock:
            slot = self._live.pop(key, None)
            stale = self._evict(slot) if slot is not None else []
        self._retire(stale)

    @contextmanager
    def lease(
        self, key: Optional[Hashable] = None, build: Optional[Callable[[], Any]] = None
    ) -> Iterator[Any]:
        """Pin the entry under ``key`` (``None``: the newest) for a ``with`` block.

        With ``build``, a missing ``key`` is built and inserted in the same
        step; without it, a missing entry yields ``None``.
        """
        stale: List[_Slot] = []
        with self._lock:
            if key is None:
                slot = next(reversed(self._live.values()), None)
            else:
                slot = self._live.get(key)
            if slot is None and build is not None:
                slot = self._live[key] = _Slot(key, build())
                while len(self._live) > self.capacity:
                    stale += self._evict(self._live.popitem(last=False)[1])
            if slot is not None:
                slot.leases += 1
        self._retire(stale)
        try:
            yield None if slot is None else slot.value
        finally:
            if slot is not None:
                with self._lock:
                    slot.leases -= 1
                    drained = not slot.leases and slot in self._leased_out
                    if drained:
                        self._leased_out.remove(slot)
                self._retire([slot] if drained else [])

    def close(self) -> None:
        """Retire every cached and draining entry now; leases still out
        retire nothing when they check in."""
        with self._lock:
            stale = list(self._live.values()) + self._leased_out
            self._live.clear()
            self._leased_out = []
        self._retire(stale)

    def _evict(self, slot: _Slot) -> List[_Slot]:
        """``[slot]`` to retire now, or ``[]`` when leased (it drains)."""
        if slot.leases:
            self._leased_out.append(slot)
            return []
        return [slot]

    def _retire(self, slots: List[_Slot]) -> None:
        for slot in slots:
            self._on_retire(slot.key, slot.value)


class LazyValue:
    """A value built on first use, exactly once, under a lock.

    ``get(build)`` returns the value, calling ``build()`` only when none is
    held; concurrent first callers wait for the one build.  The value lives
    as long as its holder: drop the holder to free it.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: Any = None

    @property
    def value(self) -> Any:
        """The value if built, else ``None``; never builds it."""
        return self._value

    def get(self, build: Callable[[], Any]) -> Any:
        value = self._value
        if value is not None:
            return value
        with self._lock:
            if self._value is None:
                self._value = build()
            return self._value
