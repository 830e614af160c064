"""Tests for :class:`repro.utils.cache.VersionedCache`.

The contract every holder relies on: the cache keeps the newest
``capacity`` entries in insertion order, and ``on_retire`` runs exactly once
per entry, outside the lock, once the entry is both evicted and unleased.
"""

import sys
import threading

import pytest

from repro.utils import MAX_CACHED_VERSIONS, VersionedCache


def recording_cache(capacity=2):
    retired = []
    cache = VersionedCache(capacity, on_retire=lambda key, value: retired.append((key, value)))
    return cache, retired


class TestEviction:
    def test_evicts_oldest_insertion_first(self):
        cache, retired = recording_cache(capacity=2)
        for key in "abcd":
            cache.get(key, lambda key=key: key.upper())
        assert cache.keys() == ["c", "d"]
        assert len(cache) == 2
        assert retired == [("a", "A"), ("b", "B")]

    def test_hit_neither_rebuilds_nor_reorders(self):
        cache, retired = recording_cache(capacity=2)
        builds = []
        cache.get("a", lambda: builds.append("a") or "A")
        cache.get("b", lambda: "B")
        assert cache.get("a", lambda: builds.append("again") or "A2") == "A"
        assert builds == ["a"]
        cache.get("c", lambda: "C")  # insertion order, not recency: "a" goes
        assert cache.keys() == ["b", "c"]
        assert retired == [("a", "A")]

    def test_put_replaces_a_key_and_retires_the_old_value(self):
        cache, retired = recording_cache(capacity=1)
        cache.put(1, "first")
        cache.put(1, "second")
        assert cache.peek(1) == "second"
        assert retired == [(1, "first")]
        cache.put(2, "third")
        assert cache.keys() == [2]
        assert retired == [(1, "first"), (1, "second")]

    def test_discard_retires_and_ignores_missing_keys(self):
        cache, retired = recording_cache()
        cache.put("a", 1)
        cache.discard("a")
        cache.discard("a")
        cache.discard("never")
        assert len(cache) == 0
        assert retired == [("a", 1)]

    def test_peek_takes_newest_by_default_and_none_when_missing(self):
        cache, _ = recording_cache()
        assert cache.peek() is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek() == 2
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None

    def test_raising_build_caches_nothing(self):
        cache, retired = recording_cache(capacity=1)
        cache.put("kept", 1)

        def explode():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError, match="build failed"):
            cache.get("new", explode)
        with pytest.raises(RuntimeError, match="build failed"):
            with cache.lease("new", explode):
                pass
        assert cache.keys() == ["kept"]
        assert retired == []
        assert cache.get("new", lambda: 2) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            VersionedCache(0, on_retire=lambda key, value: None)

    def test_shared_bound(self):
        from repro.inference import MAX_CACHED_INDEX_VERSIONS
        from repro.inference.distributed import MAX_ATTACHED_SNAPSHOTS

        assert MAX_CACHED_INDEX_VERSIONS is MAX_CACHED_VERSIONS
        assert MAX_ATTACHED_SNAPSHOTS is MAX_CACHED_VERSIONS


class TestLeases:
    def test_lease_held_past_eviction_defers_retire_until_checkin(self):
        cache, retired = recording_cache(capacity=1)
        cache.put("old", "OLD")
        with cache.lease() as value:
            assert value == "OLD"
            cache.put("new", "NEW")
            assert cache.keys() == ["new"]
            assert cache.draining == 1
            assert retired == []
            assert value == "OLD"  # still usable by its holder
        assert retired == [("old", "OLD")]
        assert cache.draining == 0

    def test_nested_leases_retire_once(self):
        cache, retired = recording_cache(capacity=1)
        cache.put("v1", 1)
        with cache.lease("v1") as outer:
            with cache.lease("v1") as inner:
                assert inner is outer
                cache.put("v2", 2)
            assert retired == []
            assert cache.draining == 1
        assert retired == [("v1", 1)]

    def test_lease_with_build_inserts_and_pins_in_one_step(self):
        cache, retired = recording_cache(capacity=1)
        with cache.lease("v1", lambda: "one") as value:
            assert value == "one"
            assert cache.get("v2", lambda: "two") == "two"
            assert retired == []
        assert retired == [("v1", "one")]

    def test_lease_of_a_missing_entry_yields_none(self):
        cache, retired = recording_cache()
        with cache.lease() as newest:
            assert newest is None
        with cache.lease("missing") as value:
            assert value is None
        assert retired == [] and len(cache) == 0

    def test_unevicted_lease_retires_nothing(self):
        cache, retired = recording_cache()
        cache.put("a", 1)
        with cache.lease("a"):
            pass
        assert retired == []
        assert cache.keys() == ["a"]

    def test_discard_of_a_leased_entry_drains(self):
        cache, retired = recording_cache()
        cache.put("a", 1)
        with cache.lease("a"):
            cache.discard("a")
            assert len(cache) == 0 and cache.draining == 1
            assert retired == []
        assert retired == [("a", 1)]


class TestClose:
    def test_close_retires_current_and_draining_entries_exactly_once(self):
        cache, retired = recording_cache(capacity=1)
        cache.put("draining", 1)
        with cache.lease("draining"):
            cache.put("current", 2)
            cache.close()
            assert sorted(retired) == [("current", 2), ("draining", 1)]
            assert len(cache) == 0 and cache.draining == 0
        # the lease checking in after close retires nothing again
        assert sorted(retired) == [("current", 2), ("draining", 1)]
        cache.close()
        assert len(retired) == 2

    def test_cache_is_usable_after_close(self):
        cache, retired = recording_cache()
        cache.put("a", 1)
        cache.close()
        assert cache.get("a", lambda: 10) == 10
        cache.close()
        assert retired == [("a", 1), ("a", 10)]


class TestConcurrency:
    def test_on_retire_may_call_back_into_the_cache(self):
        seen = []

        def on_retire(key, value):
            # runs outside the lock, so reading and writing here must not deadlock
            seen.append((key, cache.keys(), cache.draining))
            if key == "a":
                cache.put("from-hook", 0)

        cache = VersionedCache(1, on_retire=on_retire)
        cache.put("a", 1)
        worker = threading.Thread(target=cache.put, args=("b", 2), daemon=True)
        worker.start()
        worker.join(10)
        assert not worker.is_alive(), "on_retire calling back into the cache deadlocked"
        assert seen == [("a", ["b"], 0), ("b", ["from-hook"], 0)]
        assert cache.keys() == ["from-hook"]

    def test_concurrent_leases_retire_each_entry_once(self):
        cache, retired = recording_cache(capacity=2)
        built = []
        lock = threading.Lock()
        counter = [0]

        def build():
            value = object()
            built.append(value)
            return value

        def hammer():
            for _ in range(200):
                with lock:
                    counter[0] += 1
                    version = counter[0] // 7
                with cache.lease(version, build):
                    pass

        threads = [threading.Thread(target=hammer, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a lease never returned"
        cache.close()
        values = [value for _, value in retired]
        assert sorted(map(id, values)) == sorted(map(id, built)), (
            "every built entry must retire exactly once"
        )
        assert cache.draining == 0 and len(cache) == 0


class TestLazyValue:
    def test_builds_once_and_lives_with_its_holder(self):
        import gc
        import weakref

        from repro.utils.cache import LazyValue

        class Copy:
            pass

        holder, builds = LazyValue(), []
        assert holder.value is None
        first = holder.get(lambda: builds.append(1) or Copy())
        assert holder.get(lambda: builds.append(2) or Copy()) is first
        assert holder.value is first and builds == [1]
        ref = weakref.ref(first)
        del first, holder
        gc.collect()
        assert ref() is None, "dropping the holder frees its value"

    def test_concurrent_first_callers_share_one_build(self):
        from repro.utils.cache import LazyValue

        holder, builds, results = LazyValue(), [], []
        start = threading.Barrier(8)

        def build():
            builds.append(threading.get_ident())
            return object()

        def first_use():
            start.wait(10)
            results.append(holder.get(build))

        threads = [threading.Thread(target=first_use, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert len(results) == 8 and all(value is results[0] for value in results)
