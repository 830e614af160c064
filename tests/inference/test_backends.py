"""Tests for the shard-task protocol and the in-process compute backends.

The contract under test: a backend executes picklable
:class:`~repro.inference.backends.ShardTask` values against an immutable
:class:`~repro.models.base.WeightSnapshot`, funnelling through the single
:func:`~repro.inference.backends.execute_shard_task` — so results are
bit-identical across backends, tasks can cross process boundaries, and every
backend honours the shared lifecycle rules (idempotent ``close``,
transparent re-open, reusable context manager).
"""

import pickle

import numpy as np
import pytest

from repro.inference.backends import (
    ComputeBackend,
    NumpyBackend,
    ShardTask,
    ThreadPoolBackend,
    _BACKEND_FACTORIES,
    available_backends,
    default_worker_count,
    execute_shard_task,
    get_backend,
    register_backend,
    shard_topk,
)
from repro.models.base import SCORING_BLOCK, WeightSnapshot, _pad_rows

DIM = 12
NUM_HERBS = 300


@pytest.fixture(scope="module")
def snapshot():
    rng = np.random.default_rng(5)
    return WeightSnapshot.from_matrix(rng.normal(size=(NUM_HERBS, DIM)))


@pytest.fixture(scope="module")
def syndrome():
    rng = np.random.default_rng(6)
    return _pad_rows(rng.normal(size=(7, DIM)), SCORING_BLOCK)


def _tasks(snapshot, syndrome, op="score", k=0, num_rows=7):
    bounds = [(0, 256), (256, NUM_HERBS)]
    return [
        ShardTask(
            op=op,
            shard_index=index,
            start=start,
            stop=stop,
            snapshot_key=snapshot.key,
            row_block=SCORING_BLOCK,
            num_rows=num_rows,
            syndrome=syndrome,
            k=k,
        )
        for index, (start, stop) in enumerate(bounds)
    ]


class TestShardTask:
    def test_tasks_are_picklable_and_carry_no_weights(self, snapshot, syndrome):
        task = _tasks(snapshot, syndrome)[0]
        clone = pickle.loads(pickle.dumps(task))
        assert clone.snapshot_key == snapshot.key
        assert (clone.start, clone.stop) == (task.start, task.stop)
        np.testing.assert_array_equal(clone.syndrome, syndrome)
        # the payload is the syndrome block only — weights travel as snapshots
        assert not any(
            isinstance(value, np.ndarray) and value.shape == snapshot.herb_embeddings.shape
            for value in vars(task).values()
        )

    def test_execute_score_matches_direct_tiles(self, snapshot, syndrome):
        for task in _tasks(snapshot, syndrome):
            block = execute_shard_task(task, snapshot.herb_embeddings)
            assert block.shape == (syndrome.shape[0], task.stop - task.start)

    def test_execute_topk_is_canonically_sorted(self, snapshot, syndrome):
        task = _tasks(snapshot, syndrome, op="topk", k=9)[0]
        ids, scores = execute_shard_task(task, snapshot.herb_embeddings)
        assert ids.shape == scores.shape == (7, 9)
        for row in range(7):
            pairs = list(zip(-scores[row], ids[row]))
            assert pairs == sorted(pairs), "shard candidates must use the canonical order"

    def test_execute_rejects_bad_op_and_bad_interval(self, snapshot, syndrome):
        task = _tasks(snapshot, syndrome)[0]
        with pytest.raises(ValueError, match="op"):
            execute_shard_task(
                ShardTask(
                    op="mystery",
                    shard_index=0,
                    start=0,
                    stop=10,
                    snapshot_key=snapshot.key,
                    row_block=SCORING_BLOCK,
                    num_rows=1,
                    syndrome=syndrome,
                ),
                snapshot.herb_embeddings,
            )
        with pytest.raises(ValueError, match="does not fit"):
            execute_shard_task(
                ShardTask(
                    op="score",
                    shard_index=0,
                    start=0,
                    stop=NUM_HERBS + 1,
                    snapshot_key=snapshot.key,
                    row_block=SCORING_BLOCK,
                    num_rows=1,
                    syndrome=syndrome,
                ),
                snapshot.herb_embeddings,
            )
        with pytest.raises(ValueError, match="positive k"):
            execute_shard_task(
                ShardTask(
                    op="topk",
                    shard_index=0,
                    start=0,
                    stop=10,
                    snapshot_key=snapshot.key,
                    row_block=SCORING_BLOCK,
                    num_rows=1,
                    syndrome=syndrome,
                    k=0,
                ),
                snapshot.herb_embeddings,
            )

    def test_shard_topk_offsets_global_ids(self):
        scores = np.array([[0.5, 2.0, 1.0]])
        ids, values = shard_topk(scores, start=100, k=2)
        np.testing.assert_array_equal(ids, [[101, 102]])
        np.testing.assert_array_equal(values, [[2.0, 1.0]])


class TestWeightSnapshot:
    def test_export_is_read_only(self, snapshot):
        with pytest.raises(ValueError):
            snapshot.herb_embeddings[0, 0] = 1.0

    def test_keys_are_unique(self):
        a = WeightSnapshot.from_matrix(np.ones((4, 2)))
        b = WeightSnapshot.from_matrix(np.ones((4, 2)))
        assert a.key != b.key

    def test_stale_task_key_is_refused(self, snapshot, syndrome):
        other = WeightSnapshot.from_matrix(snapshot.herb_embeddings)
        stale = _tasks(other, syndrome)
        with pytest.raises(ValueError, match="stale task"):
            NumpyBackend().run_tasks(snapshot, stale)


class TestResolution:
    def test_default_is_numpy(self):
        assert isinstance(get_backend(None), NumpyBackend)
        assert get_backend(None).name == "numpy"

    def test_by_name(self):
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("threads"), ThreadPoolBackend)

    def test_distributed_backends_registered(self):
        names = available_backends()
        assert "remote" in names and "processes" not in names

    def test_process_backend_refused_naming_threads(self):
        with pytest.raises(ValueError, match="unknown backend 'processes'; available: .*threads"):
            get_backend("processes", num_workers=2)

    def test_instance_passes_through(self):
        backend = ThreadPoolBackend(num_workers=2)
        assert get_backend(backend) is backend
        backend.close()

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("gpu-cluster")

    def test_available_backends_contains_builtins(self):
        names = available_backends()
        assert "numpy" in names and "threads" in names

    def test_num_workers_reaches_thread_pool(self):
        backend = get_backend("threads", num_workers=3)
        assert backend.num_workers == 3
        backend.close()

    def test_worker_addrs_refused_by_local_backends(self):
        for name in ("numpy", "threads"):
            with pytest.raises(ValueError, match="remote"):
                get_backend(name, worker_addrs=["127.0.0.1:1"])


class TestDefaultWorkerCount:
    def test_respects_cpu_affinity(self, monkeypatch):
        import repro.inference.backends as backends_module

        monkeypatch.setattr(
            backends_module.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        monkeypatch.setattr(backends_module.os, "cpu_count", lambda: 64)
        assert default_worker_count() == 3
        assert ThreadPoolBackend().num_workers == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import repro.inference.backends as backends_module

        monkeypatch.delattr(backends_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(backends_module.os, "cpu_count", lambda: 7)
        assert default_worker_count() == 7

    def test_never_below_one(self, monkeypatch):
        import repro.inference.backends as backends_module

        monkeypatch.delattr(backends_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(backends_module.os, "cpu_count", lambda: None)
        assert default_worker_count() == 1


class TestNumpyBackend:
    def test_runs_tasks_in_order(self, snapshot, syndrome):
        results = NumpyBackend().run_tasks(snapshot, _tasks(snapshot, syndrome))
        full = np.hstack(results)
        # tile-grid summation order differs from one big matmul: close, not equal
        np.testing.assert_allclose(
            full, syndrome @ np.asarray(snapshot.herb_embeddings).T, atol=1e-12
        )
        assert [piece.shape[1] for piece in results] == [256, NUM_HERBS - 256]

    def test_close_is_noop(self, snapshot, syndrome):
        backend = NumpyBackend()
        backend.close()
        backend.close()
        assert len(backend.run_tasks(snapshot, _tasks(snapshot, syndrome))) == 2

    def test_status(self):
        status = NumpyBackend().status()
        assert status["backend"] == "numpy"
        assert status["workers_alive"] == 1


class TestThreadPoolBackend:
    def test_matches_serial_bitwise(self, snapshot, syndrome):
        tasks = _tasks(snapshot, syndrome, op="topk", k=11)
        serial = NumpyBackend().run_tasks(snapshot, tasks)
        with ThreadPoolBackend(num_workers=4) as backend:
            pooled = backend.run_tasks(snapshot, tasks)
        for (ids_a, scores_a), (ids_b, scores_b) in zip(pooled, serial):
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(scores_a, scores_b)

    def test_reopens_after_close(self, snapshot, syndrome):
        backend = ThreadPoolBackend(num_workers=2)
        tasks = _tasks(snapshot, syndrome)
        assert len(backend.run_tasks(snapshot, tasks)) == 2
        backend.close()
        assert len(backend.run_tasks(snapshot, tasks)) == 2  # use-after-close re-opens
        backend.close()
        backend.close()  # idempotent

    def test_context_manager_is_reusable(self, snapshot, syndrome):
        backend = ThreadPoolBackend(num_workers=2)
        tasks = _tasks(snapshot, syndrome)
        for _ in range(2):
            with backend:
                assert len(backend.run_tasks(snapshot, tasks)) == 2

    def test_worker_count_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            ThreadPoolBackend(num_workers=0)

    def test_propagates_worker_exceptions(self, snapshot, syndrome):
        bad = [
            ShardTask(
                op="topk",
                shard_index=0,
                start=0,
                stop=10,
                snapshot_key=snapshot.key,
                row_block=SCORING_BLOCK,
                num_rows=1,
                syndrome=syndrome,
                k=0,  # invalid: raises inside the worker thread
            )
        ]
        with ThreadPoolBackend(num_workers=2) as backend:
            with pytest.raises(ValueError, match="positive k"):
                backend.run_tasks(snapshot, bad)

    def test_serves_again_after_a_worker_exception(self, snapshot, syndrome):
        bad = [
            ShardTask(
                op="score",
                shard_index=0,
                start=5,
                stop=2,  # invalid interval: raises inside the worker thread
                snapshot_key=snapshot.key,
                row_block=SCORING_BLOCK,
                num_rows=1,
                syndrome=syndrome,
            )
        ]
        tasks = _tasks(snapshot, syndrome, op="topk", k=5)
        serial = NumpyBackend().run_tasks(snapshot, tasks)
        with ThreadPoolBackend(num_workers=2) as backend:
            with pytest.raises(ValueError, match="interval"):
                backend.run_tasks(snapshot, bad)
            for (ids_a, scores_a), (ids_b, scores_b) in zip(
                backend.run_tasks(snapshot, tasks), serial
            ):
                np.testing.assert_array_equal(ids_a, ids_b)
                np.testing.assert_array_equal(scores_a, scores_b)

    def test_close_waits_for_a_call_in_flight(self, snapshot, syndrome, monkeypatch):
        import threading

        from repro.inference import backends

        tasks = _tasks(snapshot, syndrome)
        serial = NumpyBackend().run_tasks(snapshot, tasks)
        entered, release = threading.Barrier(len(tasks) + 1), threading.Event()
        real = backends.execute_shard_task

        def held(task, *args):
            entered.wait(10)
            release.wait(10)
            return real(task, *args)

        monkeypatch.setattr(backends, "execute_shard_task", held)
        backend = ThreadPoolBackend(num_workers=len(tasks))
        results = []
        caller = threading.Thread(target=lambda: results.append(backend.run_tasks(snapshot, tasks)))
        caller.start()
        entered.wait(10)  # every task is running, so every task was submitted
        closer = threading.Thread(target=backend.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive(), "close returned while a call was still running"
        release.set()
        closer.join(10)
        caller.join(10)
        assert not closer.is_alive() and not caller.is_alive()
        for pooled, expected in zip(results[0], serial):
            np.testing.assert_array_equal(pooled, expected)
        assert backend.status()["workers_alive"] == 0

    def test_concurrent_callers_on_two_snapshots(self, snapshot, syndrome):
        """Two rollout versions share one pool; each caller gets its own answers."""
        import threading

        newer = WeightSnapshot.from_matrix(
            np.random.default_rng(7).normal(size=(NUM_HERBS, DIM))
        )
        jobs = [
            (version, _tasks(version, syndrome, op="topk", k=9)) for version in (snapshot, newer)
        ]
        mismatches = []
        with ThreadPoolBackend(num_workers=2) as backend:

            def call(version, tasks):
                expected = NumpyBackend().run_tasks(version, tasks)
                try:
                    for _ in range(5):
                        for (ids_a, scores_a), (ids_b, scores_b) in zip(
                            backend.run_tasks(version, tasks), expected
                        ):
                            if not (
                                np.array_equal(ids_a, ids_b) and np.array_equal(scores_a, scores_b)
                            ):
                                mismatches.append(version.key)
                except Exception as error:  # a thread's exception would otherwise be lost
                    mismatches.append(repr(error))

            callers = [threading.Thread(target=call, args=job) for job in jobs]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(30)
            assert not any(caller.is_alive() for caller in callers)
        assert mismatches == []

    def test_status_tracks_pool_state(self, snapshot, syndrome):
        backend = ThreadPoolBackend(num_workers=3)
        assert backend.status()["workers_alive"] == 0  # lazy: no pool yet
        backend.run_tasks(snapshot, _tasks(snapshot, syndrome))
        assert backend.status() == {"backend": "threads", "workers": 3, "workers_alive": 3}
        backend.close()
        assert backend.status()["workers_alive"] == 0


class TestRegistry:
    def test_register_and_resolve_custom_backend(self):
        @register_backend("test-serial")
        class TestSerial(ComputeBackend):
            def __init__(self, num_workers=None, worker_addrs=None):
                pass

            def run_tasks(self, snapshot, tasks):
                from repro.inference.backends import execute_shard_task

                return [execute_shard_task(task, snapshot.herb_embeddings) for task in tasks]

        try:
            assert "test-serial" in available_backends()
            assert isinstance(get_backend("test-serial"), TestSerial)
        finally:
            _BACKEND_FACTORIES.pop("test-serial")

    def test_duplicate_name_refused(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend("numpy")
            class Shadow(ComputeBackend):  # pragma: no cover - never registered
                def run_tasks(self, snapshot, tasks):
                    return []
