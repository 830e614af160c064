"""Tests for distributed shard execution: RPC workers, codecs, engine parity.

Three layers under test:

* the **wire codec** — snapshot/task/result frames round-trip through the
  npz codec checkpoints use;
* the **backends** — ``remote`` (TCP shard workers) and the in-host
  ``threads`` pool are bit-identical to the serial ``numpy`` path,
  including at the engine level across every registered neural model;
* the **lifecycle edges** — idempotent ``close``, use-after-close re-open,
  reusable context managers, and worker death surfacing as a clean
  ``RuntimeError`` rather than a hang.
"""

import numpy as np
import pytest

from repro.inference import (
    InferenceEngine,
    NumpyBackend,
    RemoteBackend,
    ShardedHerbIndex,
    ThreadPoolBackend,
)
from repro.inference.backends import ShardTask
from repro.inference.distributed import (
    ShardWorkerHandler,
    ShardWorkerServer,
    parse_worker_addr,
    results_from_bytes,
    results_to_bytes,
    tasks_from_bytes,
    tasks_to_bytes,
)
from repro.io.checkpoint import CheckpointError, snapshot_from_bytes, snapshot_to_bytes
from repro.models.base import SCORING_BLOCK, WeightSnapshot, _pad_rows

DIM = 16
NUM_HERBS = 700
NUM_ROWS = 9


@pytest.fixture(scope="module")
def snapshot():
    rng = np.random.default_rng(21)
    return WeightSnapshot.from_matrix(rng.normal(size=(NUM_HERBS, DIM)))


@pytest.fixture(scope="module")
def syndrome():
    rng = np.random.default_rng(22)
    return _pad_rows(rng.normal(size=(NUM_ROWS, DIM)), SCORING_BLOCK)


@pytest.fixture(scope="module")
def index(snapshot):
    return ShardedHerbIndex(snapshot, num_shards=3)


@pytest.fixture(scope="module")
def reference(index, syndrome):
    scores = index.score(syndrome)
    ids, topk_scores = index.topk(syndrome, NUM_ROWS, 25)
    return scores, ids, topk_scores


@pytest.fixture(scope="module")
def thread_backend():
    backend = ThreadPoolBackend(num_workers=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def worker_servers():
    with ShardWorkerServer() as first, ShardWorkerServer() as second:
        yield first, second


@pytest.fixture()
def remote_backend(worker_servers):
    addrs = [f"{host}:{port}" for host, port in (s.address for s in worker_servers)]
    backend = RemoteBackend(worker_addrs=addrs, timeout_s=10.0)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_snapshot_round_trip(self, snapshot):
        clone = snapshot_from_bytes(snapshot_to_bytes(snapshot))
        assert clone.key == snapshot.key
        assert clone.version == snapshot.version
        assert clone.row_block == snapshot.row_block
        np.testing.assert_array_equal(clone.herb_embeddings, snapshot.herb_embeddings)

    def test_task_batch_round_trip_deduplicates_syndromes(self, snapshot, syndrome, index):
        batch = index.tasks(syndrome, "topk", num_rows=NUM_ROWS, k=9)
        data = tasks_to_bytes(batch)
        # the shared syndrome block is stored once, however many shards ride along
        from repro.io.checkpoint import unpack_npz_bytes

        _, arrays = unpack_npz_bytes(data)
        assert sum(1 for name in arrays if name.startswith("syndrome")) == 1
        clones = tasks_from_bytes(data)
        assert len(clones) == len(batch)
        for clone, task in zip(clones, batch):
            assert (clone.start, clone.stop, clone.op, clone.k) == (
                task.start,
                task.stop,
                task.op,
                task.k,
            )
            np.testing.assert_array_equal(clone.syndrome, syndrome)

    def test_result_batch_round_trips_mixed_ops(self):
        block = np.arange(8.0).reshape(2, 4)
        ids = np.array([[5, 2]], dtype=np.int64)
        scores = np.array([[3.0, 1.0]])
        payload = results_to_bytes(["score", "topk"], [block, (ids, scores)])
        out = results_from_bytes(payload)
        np.testing.assert_array_equal(out[0], block)
        np.testing.assert_array_equal(out[1][0], ids)
        np.testing.assert_array_equal(out[1][1], scores)

    def test_kind_mismatch_refused(self, snapshot, syndrome):
        with pytest.raises(CheckpointError, match="shard-task-batch"):
            tasks_from_bytes(snapshot_to_bytes(snapshot))
        with pytest.raises(CheckpointError, match="weight-snapshot"):
            snapshot_from_bytes(results_to_bytes(["score"], [syndrome]))

    def test_frames_decode_on_one_thread_at_a_time(self, monkeypatch):
        """numpy's npz header parse must never run on two threads at once.

        It calls ``ast.literal_eval``, which CPython 3.11 does not make
        thread-safe; shard workers and the remote fan-out decode frames on
        several threads.
        """
        import ast
        import threading
        import time

        real = ast.literal_eval
        counter = threading.Lock()
        inside, overlaps = [0], []

        def slow_parse(text):
            with counter:
                inside[0] += 1
                overlaps.append(inside[0] > 1)
            time.sleep(0.02)  # hold the parse open so unlocked callers would meet
            try:
                return real(text)
            finally:
                with counter:
                    inside[0] -= 1

        monkeypatch.setattr(ast, "literal_eval", slow_parse)
        frame = results_to_bytes(["score"], [np.ones((2, 3))])
        decoders = [
            threading.Thread(target=results_from_bytes, args=(frame,)) for _ in range(3)
        ]
        for decoder in decoders:
            decoder.start()
        for decoder in decoders:
            decoder.join(10)
        assert not any(decoder.is_alive() for decoder in decoders)
        assert overlaps and not any(overlaps)

    def test_parse_worker_addr(self):
        assert parse_worker_addr("localhost:7801") == ("localhost", 7801)
        assert parse_worker_addr(("10.0.0.1", 80)) == ("10.0.0.1", 80)
        for bad in ("no-port", "host:notaport", "host:0", "host:70000", ":123"):
            with pytest.raises(ValueError):
                parse_worker_addr(bad)


# ----------------------------------------------------------------------
# In-host thread pool
# ----------------------------------------------------------------------
class TestThreadPool:
    def test_score_and_topk_bit_identical(self, index, syndrome, reference, thread_backend):
        ref_scores, ref_ids, ref_topk = reference
        np.testing.assert_array_equal(index.score(syndrome, backend=thread_backend), ref_scores)
        ids, scores = index.topk(syndrome, NUM_ROWS, 25, backend=thread_backend)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(scores, ref_topk)


# ----------------------------------------------------------------------
# Shard-worker handler (protocol level, no sockets)
# ----------------------------------------------------------------------
class TestShardWorkerHandler:
    def _encode(self, payload: bytes) -> str:
        import base64

        return base64.b64encode(payload).decode("ascii")

    def test_ping_and_snapshot_flow(self, snapshot):
        handler = ShardWorkerHandler()
        assert handler.submit("ping").result() == "pong -"
        assert (
            handler.submit(f"snapshot {self._encode(snapshot_to_bytes(snapshot))}").result()
            == f"ok {snapshot.key}"
        )
        assert handler.submit("ping").result() == f"pong {snapshot.key}"

    def test_task_needs_snapshot_first(self, snapshot, syndrome, index):
        handler = ShardWorkerHandler()
        batch = index.tasks(syndrome, "score", num_rows=NUM_ROWS)
        task_line = f"tasks {self._encode(tasks_to_bytes(batch))}"
        assert handler.submit(task_line).result() == f"error: need-snapshot {snapshot.key}"
        handler.submit(f"snapshot {self._encode(snapshot_to_bytes(snapshot))}")
        response = handler.submit(task_line).result()
        assert response.startswith("results ")
        assert handler.tasks_executed == len(batch)

    def _push(self, handler, key: str, seed: int = 0) -> str:
        snap = WeightSnapshot.from_matrix(
            np.random.default_rng(seed).normal(size=(300, 4)), key=key
        )
        handler.submit(f"snapshot {self._encode(snapshot_to_bytes(snap))}")
        return snap.key

    def test_snapshot_versions_stay_bounded_per_model(self):
        handler = ShardWorkerHandler()
        keys = [self._push(handler, f"mA-v0.{i}", seed=i) for i in range(4)]
        assert handler.snapshot_keys == keys[-2:], "worker must evict stale parameter versions"

    def test_one_models_rollout_never_evicts_another(self):
        # multi-tenant fleets: rolling model A's weights repeatedly must not
        # drop model B's serving snapshot
        handler = ShardWorkerHandler()
        b_key = self._push(handler, "mB-v0.0", seed=99)
        a_keys = [self._push(handler, f"mA-v0.{i}", seed=i) for i in range(5)]
        assert b_key in handler.snapshot_keys
        assert set(handler.snapshot_keys) == {b_key, *a_keys[-2:]}

    def test_model_tag_count_stays_bounded(self):
        from repro.inference.distributed import MAX_ATTACHED_MODELS

        handler = ShardWorkerHandler()
        keys = [
            self._push(handler, f"m{tag}-v0.0", seed=tag)
            for tag in range(MAX_ATTACHED_MODELS + 3)
        ]
        assert handler.snapshot_keys == keys[-MAX_ATTACHED_MODELS:]

    def test_executor_takes_snapshot_and_tasks_but_ping_answers_inline(
        self, snapshot, syndrome, index
    ):
        from concurrent.futures import ThreadPoolExecutor

        class Recording(ThreadPoolExecutor):
            def __init__(self):
                super().__init__(max_workers=1)
                self.lines = []

            def submit(self, fn, line):
                self.lines.append(line.split(" ", 1)[0])
                return super().submit(fn, line)

        with Recording() as executor:
            handler = ShardWorkerHandler(executor=executor)
            ping = handler.submit("ping")
            assert ping.done() and ping.result() == "pong -"
            snapshot_line = f"snapshot {self._encode(snapshot_to_bytes(snapshot))}"
            assert handler.submit(snapshot_line).result() == f"ok {snapshot.key}"
            batch = index.tasks(syndrome, "score", num_rows=NUM_ROWS)
            task_line = f"tasks {self._encode(tasks_to_bytes(batch))}"
            assert handler.submit(task_line).result().startswith("results ")
            assert handler.submit("ping").result() == f"pong {snapshot.key}"
        assert executor.lines == ["snapshot", "tasks"]

    def test_bad_requests_answer_in_band(self):
        handler = ShardWorkerHandler()
        assert handler.submit("explode now").result().startswith("error: ")
        assert handler.submit("snapshot not-base64!!").result().startswith("error: ")
        # the handler survives bad input and keeps serving
        assert handler.submit("ping").result() == "pong -"


# ----------------------------------------------------------------------
# Remote backend against live shard-worker servers
# ----------------------------------------------------------------------
class TestRemoteBackend:
    def test_score_and_topk_bit_identical(self, index, syndrome, reference, remote_backend):
        ref_scores, ref_ids, ref_topk = reference
        np.testing.assert_array_equal(index.score(syndrome, backend=remote_backend), ref_scores)
        ids, scores = index.topk(syndrome, NUM_ROWS, 25, backend=remote_backend)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(scores, ref_topk)

    def test_snapshot_pushed_once_per_worker(self, index, syndrome, remote_backend, worker_servers):
        for _ in range(3):
            index.score(syndrome, backend=remote_backend)
        for server in worker_servers:
            assert index.snapshot.key in server.handler.snapshot_keys

    def test_status_reports_liveness(self, remote_backend):
        status = remote_backend.status()
        assert status["backend"] == "remote"
        assert status["workers"] == 2
        assert status["workers_alive"] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="worker_addrs"):
            RemoteBackend()
        with pytest.raises(ValueError, match="worker_addrs"):
            RemoteBackend(worker_addrs=[])
        with pytest.raises(ValueError, match="num_workers"):
            RemoteBackend(worker_addrs=["a:1", "b:2"], num_workers=3)
        with pytest.raises(ValueError, match="timeout"):
            RemoteBackend(worker_addrs=["a:1"], timeout_s=0)

    def test_lifecycle_close_reopen_context(self, index, syndrome, reference, remote_backend):
        ref_scores = reference[0]
        np.testing.assert_array_equal(index.score(syndrome, backend=remote_backend), ref_scores)
        remote_backend.close()
        remote_backend.close()  # idempotent
        # use-after-close reconnects (and re-pushes the snapshot)
        np.testing.assert_array_equal(index.score(syndrome, backend=remote_backend), ref_scores)
        for _ in range(2):  # context manager is reusable
            with remote_backend:
                np.testing.assert_array_equal(
                    index.score(syndrome, backend=remote_backend), ref_scores
                )

    def test_worker_restart_repushes_snapshot(
        self, index, syndrome, reference, remote_backend, worker_servers
    ):
        # scoring once caches the pushed key client-side...
        np.testing.assert_array_equal(index.score(syndrome, backend=remote_backend), reference[0])
        # ...then the workers forget it (as restarted workers would): the
        # need-snapshot handshake must re-push transparently mid-batch
        for server in worker_servers:
            with server.handler._lock:
                server.handler._snapshots.clear()
        np.testing.assert_array_equal(index.score(syndrome, backend=remote_backend), reference[0])
        for server in worker_servers:
            assert index.snapshot.key in server.handler.snapshot_keys

    def test_dead_worker_raises_cleanly_not_hangs(self, index, syndrome):
        server = ShardWorkerServer().start()
        host, port = server.address
        backend = RemoteBackend(worker_addrs=[f"{host}:{port}"], timeout_s=5.0)
        try:
            backend.run_tasks(index.snapshot, index.tasks(syndrome, "score", num_rows=NUM_ROWS))
            server.stop()
            with pytest.raises(RuntimeError, match="shard worker"):
                backend.run_tasks(
                    index.snapshot, index.tasks(syndrome, "score", num_rows=NUM_ROWS)
                )
            assert backend.status()["workers_alive"] == 0
        finally:
            backend.close()
            server.stop()

    def test_never_started_worker_is_unreachable_error(self, index, syndrome):
        backend = RemoteBackend(worker_addrs=["127.0.0.1:1"], timeout_s=2.0)
        try:
            with pytest.raises(RuntimeError, match="unreachable"):
                backend.run_tasks(
                    index.snapshot, index.tasks(syndrome, "score", num_rows=NUM_ROWS)
                )
        finally:
            backend.close()

    def test_stats_line_reports_worker_topology(self, worker_servers):
        import socket as socket_module

        server = worker_servers[0]
        host, port = server.address
        with socket_module.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"stats\n")
            line = sock.makefile("r").readline()
        assert "backend=shard-worker" in line
        assert "snapshot=" in line


class TestShardWorkerOnEventLoop:
    """What the worker protocol needs from the event-loop front-end."""

    def test_results_frame_over_a_mebibyte_bit_identical(self, remote_backend):
        # repro serve's outbound-buffer cap (1 MiB) would drop this reader
        rng = np.random.default_rng(31)
        wide = ShardedHerbIndex(rng.normal(size=(6_000, DIM)), num_shards=2)
        rows = _pad_rows(rng.normal(size=(2 * SCORING_BLOCK, DIM)), SCORING_BLOCK)
        smallest_shard = min(shard.stop - shard.start for shard in wide.shards)
        assert rows.shape[0] * smallest_shard * 8 > 1 << 20  # one shard per worker
        np.testing.assert_array_equal(
            wide.score(rows, backend=remote_backend), wide.score(rows, backend=NumpyBackend())
        )

    def test_multi_megabyte_snapshot_line_attaches(self):
        import base64
        import socket

        from repro.serving import (
            LINE_TOO_LONG_RESPONSE,
            MAX_LINE_BYTES,
            AsyncSocketServer,
            MicroBatcher,
        )

        big = WeightSnapshot.from_matrix(np.random.default_rng(32).normal(size=(16_384, 64)))
        line = b"snapshot " + base64.b64encode(snapshot_to_bytes(big)) + b"\n"
        assert len(line) >= 8 << 20
        with ShardWorkerServer() as server:
            with socket.create_connection(server.address, timeout=30) as connection:
                connection.sendall(line)
                answer = connection.makefile("r", encoding="utf-8").readline().strip()
        assert answer == f"ok {big.key}"
        # repro serve keeps its request-line bound
        batcher = MicroBatcher(lambda lines: [f"ok {line}" for line in lines])
        try:
            with AsyncSocketServer(batcher) as serve:
                with socket.create_connection(serve.address, timeout=10) as connection:
                    connection.sendall(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
                    answer = connection.makefile("r", encoding="utf-8").readline().strip()
            assert answer == LINE_TOO_LONG_RESPONSE
        finally:
            batcher.close()

    def test_ping_answers_while_a_batch_is_in_flight(
        self, index, syndrome, reference, remote_backend, monkeypatch
    ):
        import threading

        from repro.inference import distributed

        index.score(syndrome, backend=remote_backend)  # attach: the held frame is `tasks`
        entered, release = threading.Event(), threading.Event()
        real_execute = distributed.execute_shard_task

        def held(task, *attached):
            entered.set()
            assert release.wait(30), "test never released the batch"
            return real_execute(task, *attached)

        monkeypatch.setattr(distributed, "execute_shard_task", held)
        outcome = {}
        runner = threading.Thread(
            target=lambda: outcome.update(scores=index.score(syndrome, backend=remote_backend))
        )
        runner.start()
        try:
            assert entered.wait(10), "the batch never reached a worker"
            status = remote_backend.status()
        finally:
            release.set()
            runner.join(30)
        assert status["workers_alive"] == status["workers"] == 2
        np.testing.assert_array_equal(outcome["scores"], reference[0])

    def test_stop_shuts_the_scoring_pool_down(self):
        server = ShardWorkerServer().start()
        pool = server._pool
        assert server.handler.submit("ping").result() == "pong -"
        server.stop()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_worker_connections_are_never_reaped_or_capped(self, worker_servers):
        admission = worker_servers[0]._server.admission
        assert admission.idle_timeout_s is None
        assert admission.max_outbuf_bytes is None
        assert "does not retry" in ShardWorkerServer.__doc__


# ----------------------------------------------------------------------
# Engine-level parity (the acceptance gate)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wide_split():
    from repro.data import SyntheticTCMConfig, generate_corpus

    corpus = generate_corpus(
        SyntheticTCMConfig(
            num_symptoms=40,
            num_herbs=700,
            num_syndromes=8,
            num_prescriptions=250,
            seed=5,
        )
    )
    return corpus.dataset.train_test_split(test_fraction=0.2, rng=np.random.default_rng(5))


class TestEngineParity:
    """`threads` and `remote` answers equal `numpy` for every neural model."""

    def test_all_registered_neural_models_bit_identical(
        self, wide_split, thread_backend, worker_servers
    ):
        from repro.experiments.datasets import get_profile
        from repro.models import MODEL_REGISTRY
        from repro.models.base import GraphHerbRecommender

        train, test = wide_split
        sets = test.symptom_sets()[:8]
        profile = get_profile("smoke")
        addrs = [f"{host}:{port}" for host, port in (s.address for s in worker_servers)]
        neural_names = MODEL_REGISTRY.neural_names() + MODEL_REGISTRY.variant_names()
        assert neural_names, "registry unexpectedly empty"
        for name in neural_names:
            entry = MODEL_REGISTRY.get(name)
            model = entry.build(train, entry.default_config(profile, seed=0))
            assert isinstance(model, GraphHerbRecommender)
            baseline = InferenceEngine(model, num_shards=3).recommend_batch(sets, k=12)
            baseline_scores = InferenceEngine(model).score_batch(sets)
            pooled = InferenceEngine(model, num_shards=3, backend=thread_backend)
            assert pooled.recommend_batch(sets, k=12) == baseline, f"{name} diverged (threads)"
            np.testing.assert_array_equal(pooled.score_batch(sets), baseline_scores)
            remote = RemoteBackend(worker_addrs=addrs, timeout_s=10.0)
            try:
                remoted = InferenceEngine(model, num_shards=3, backend=remote)
                assert remoted.recommend_batch(sets, k=12) == baseline, f"{name} diverged (remote)"
                np.testing.assert_array_equal(remoted.score_batch(sets), baseline_scores)
            finally:
                remote.close()

    def test_approx_rerank_bit_identical_across_backends(
        self, wide_split, thread_backend, worker_servers
    ):
        """The approx tier's re-rank/fallback tasks place anywhere safely.

        Candidate selection runs in the engine process, but re-rank and
        fallback ShardTasks execute on the configured backend — answers must
        be bit-identical whether those land on the calling thread, on a
        thread pool, or on remote shard workers.
        """
        from repro.models import SMGCN, SMGCNConfig

        train, test = wide_split
        sets = test.symptom_sets()[:10]
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        model = SMGCN.from_dataset(train, config)
        baseline = InferenceEngine(
            model, retrieval="approx", candidate_factor=3, num_lists=2, nprobe=1
        ).recommend_batch(sets, k=9)
        pooled = InferenceEngine(
            model,
            retrieval="approx",
            candidate_factor=3,
            num_lists=2,
            nprobe=1,
            backend=thread_backend,
        )
        assert pooled.recommend_batch(sets, k=9) == baseline, "approx diverged (threads)"
        addrs = [f"{host}:{port}" for host, port in (s.address for s in worker_servers)]
        remote = RemoteBackend(worker_addrs=addrs, timeout_s=10.0)
        try:
            remoted = InferenceEngine(
                model,
                retrieval="approx",
                candidate_factor=3,
                num_lists=2,
                nprobe=1,
                backend=remote,
            )
            assert remoted.recommend_batch(sets, k=9) == baseline, "approx diverged (remote)"
        finally:
            remote.close()

    @pytest.mark.parametrize(
        "knobs",
        [dict(num_shards=2), dict(retrieval="approx", num_lists=2)],
        ids=["sharded", "approx"],
    )
    def test_warm_up_starts_the_pool(self, wide_split, knobs):
        """A rollout's warm-up starts the pool, so the first request does not."""
        from repro.models import SMGCN, SMGCNConfig

        train, _ = wide_split
        config = SMGCNConfig(
            embedding_dim=8, layer_dims=(12,), symptom_threshold=2, herb_threshold=4, seed=0
        )
        backend = ThreadPoolBackend(num_workers=1)
        try:
            engine = InferenceEngine(SMGCN.from_dataset(train, config), backend=backend, **knobs)
            assert backend.status()["workers_alive"] == 0
            engine.warm_up()
            assert backend.status()["workers_alive"] == 1
        finally:
            backend.close()
