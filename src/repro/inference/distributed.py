"""Distributed shard execution: the RPC compute backend and its workers.

Everything here rides on the shard-task protocol of
:mod:`repro.inference.backends`: tasks are picklable values referencing an
immutable :class:`~repro.models.base.WeightSnapshot` by key, and every
executor funnels through the same
:func:`~repro.inference.backends.execute_shard_task`, so the distributed
answers are bit-identical to the serial ``numpy`` backend — same tile grid,
same canonical top-k order, just different placement.

The backend plus the worker runtime it talks to:

* :class:`RemoteBackend` (``"remote"``) — shard tasks fan out over TCP to
  shard-worker servers (``repro shard-worker``), one persistent line-protocol
  connection per worker.  Snapshots ship once per worker per version using
  the ``.npz`` checkpoint codec (:mod:`repro.io.checkpoint`), base64-framed
  on the same line machinery the serving front-end uses; tasks then cross as
  small frames (a syndrome block out, top-k candidates back).
* :class:`ShardWorkerHandler` / :class:`ShardWorkerServer` — the worker side:
  a ``submit(line) -> Future`` handler speaking the shard-worker protocol,
  served on the serving stack's event-loop TCP front-end,
  :class:`~repro.serving.eventloop.AsyncSocketServer` (``stats`` control
  line included), with scoring on a worker thread pool.

Shard-worker line protocol (UTF-8, one request and one response per line):

* ``ping`` → ``pong <snapshot-key|->`` — liveness + which snapshot is loaded;
* ``snapshot <base64 npz>`` → ``ok <key>`` — attach a weight snapshot
  (replacing stale parameter versions);
* ``tasks <base64 npz>`` → ``results <base64 npz>`` — one batch frame per
  worker per scoring call, syndromes deduplicated inside the frame — or
  ``error: need-snapshot <key>`` when the referenced snapshot is not
  attached (the client pushes it and retries), or ``error: <reason>``;
* ``stats`` → one-line counters (handled by the socket front-end);
* blank line / EOF → the connection closes; the worker keeps running.

Responses on one connection come back in request order, but ``snapshot``
and ``tasks`` requests run concurrently on the worker's pool: a client
waits for ``ok <key>`` before sending tasks that reference the snapshot
(:class:`RemoteBackend` sends one request at a time per connection).
"""

from __future__ import annotations

import base64
import socket
import threading
from collections import OrderedDict
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..io.checkpoint import (
    CheckpointError,
    pack_npz_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
    unpack_npz_bytes,
)
from ..models.base import WeightSnapshot
from ..utils.cache import MAX_CACHED_VERSIONS
from .backends import (
    ComputeBackend,
    ShardTask,
    _check_task_keys,
    check_backend_spec,
    default_worker_count,
    execute_shard_task,
    register_backend,
)

__all__ = [
    "MAX_ATTACHED_MODELS",
    "MAX_ATTACHED_SNAPSHOTS",
    "RemoteBackend",
    "ShardWorkerHandler",
    "ShardWorkerServer",
    "parse_worker_addr",
    "snapshot_model_tag",
    "tasks_to_bytes",
    "tasks_from_bytes",
    "results_to_bytes",
    "results_from_bytes",
]

ShardResult = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]

#: How many distinct snapshot versions a shard worker keeps attached per
#: model at once: the shared :data:`~repro.utils.cache.MAX_CACHED_VERSIONS`
#: bound, the inference engine's too (the latest version serves traffic, one
#: predecessor may still be draining).
MAX_ATTACHED_SNAPSHOTS = MAX_CACHED_VERSIONS

#: How many distinct *model tags* a shard worker keeps snapshots for.  A
#: multi-tenant fleet serves several catalog entries through the same
#: workers; the per-version bound applies per tag (so model A's rollout can
#: never evict model B's serving snapshot), and this caps the tag count so
#: an errant client cycling tags cannot grow a worker without bound.
MAX_ATTACHED_MODELS = 8


def snapshot_model_tag(key: str) -> str:
    """The model-identity prefix of a snapshot key (``m{tag}-v{a}.{b}``).

    Keys from :meth:`~repro.models.base.GraphHerbRecommender.export_snapshot`
    are ``m<model-tag>-v<version>``; the tag is what stays stable across a
    weight rollout, so retention bounds group by it.
    """
    tag, separator, _ = key.rpartition("-v")
    return tag if separator else key


# ----------------------------------------------------------------------
# Wire codec for tasks and results (the same npz codec checkpoints use)
# ----------------------------------------------------------------------
_TASK_BATCH_KIND = "shard-task-batch"
_RESULT_BATCH_KIND = "shard-result-batch"


def tasks_to_bytes(tasks: Sequence[ShardTask]) -> bytes:
    """Serialize a batch of tasks into one frame, deduplicating syndromes.

    Every task in a scoring batch references the same syndrome block, so a
    per-task frame would ship identical ~``rows × dim`` arrays once per
    shard.  The batch frame stores each distinct syndrome array once and
    lets task records reference it by name — the hot-path payload per
    worker is one syndrome plus per-task metadata.
    """
    arrays: Dict[str, np.ndarray] = {}
    refs: Dict[int, str] = {}
    records = []
    for task in tasks:
        ref = refs.get(id(task.syndrome))
        if ref is None:
            ref = f"syndrome{len(refs)}"
            refs[id(task.syndrome)] = ref
            arrays[ref] = task.syndrome
        records.append(
            {
                "op": task.op,
                "shard_index": int(task.shard_index),
                "start": int(task.start),
                "stop": int(task.stop),
                "snapshot_key": task.snapshot_key,
                "row_block": int(task.row_block),
                "num_rows": int(task.num_rows),
                "k": int(task.k),
                "syndrome": ref,
            }
        )
    return pack_npz_bytes({"kind": _TASK_BATCH_KIND, "tasks": records}, arrays)


def tasks_from_bytes(data: bytes) -> List[ShardTask]:
    header, arrays = unpack_npz_bytes(data)
    if header.get("kind") != _TASK_BATCH_KIND:
        raise CheckpointError(
            f"expected a {_TASK_BATCH_KIND!r} frame, got {header.get('kind')!r}"
        )
    try:
        return [
            ShardTask(
                op=str(record["op"]),
                shard_index=int(record["shard_index"]),
                start=int(record["start"]),
                stop=int(record["stop"]),
                snapshot_key=str(record["snapshot_key"]),
                row_block=int(record["row_block"]),
                num_rows=int(record["num_rows"]),
                syndrome=arrays[record["syndrome"]],
                k=int(record["k"]),
            )
            for record in header["tasks"]
        ]
    except KeyError as error:
        raise CheckpointError(f"shard-task-batch frame misses field {error}") from error


def results_to_bytes(ops: Sequence[str], results: Sequence[ShardResult]) -> bytes:
    """Serialize one batch of shard results (pairs with :func:`tasks_to_bytes`)."""
    arrays: Dict[str, np.ndarray] = {}
    records = []
    for position, (op, result) in enumerate(zip(ops, results)):
        records.append({"op": op})
        if op == "score":
            arrays[f"scores{position}"] = result
        else:
            ids, scores = result
            arrays[f"ids{position}"] = ids
            arrays[f"scores{position}"] = scores
    return pack_npz_bytes({"kind": _RESULT_BATCH_KIND, "results": records}, arrays)


def results_from_bytes(data: bytes) -> List[ShardResult]:
    header, arrays = unpack_npz_bytes(data)
    if header.get("kind") != _RESULT_BATCH_KIND:
        raise CheckpointError(
            f"expected a {_RESULT_BATCH_KIND!r} frame, got {header.get('kind')!r}"
        )
    results: List[ShardResult] = []
    for position, record in enumerate(header["results"]):
        if record["op"] == "score":
            results.append(arrays[f"scores{position}"])
        else:
            results.append((arrays[f"ids{position}"], arrays[f"scores{position}"]))
    return results


# ----------------------------------------------------------------------
# Remote backend: shard tasks over TCP line protocol
# ----------------------------------------------------------------------
def parse_worker_addr(addr: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or a ready tuple) -> ``(host, port)``, validated."""
    if isinstance(addr, tuple):
        host, port = addr
    else:
        host, _, port = str(addr).rpartition(":")
        if not host:
            raise ValueError(f"worker address {addr!r} must look like host:port")
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValueError(f"worker address {addr!r} has a non-integer port") from None
    if not 0 < port < 65536:
        raise ValueError(f"worker address {addr!r} has an out-of-range port")
    return str(host), port


class _RemoteWorker:
    """One persistent line-protocol connection to a shard-worker server."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._snapshot_key: Optional[str] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection management -----------------------------------------
    def _drop_connection(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._snapshot_key = None

    def _request(self, line: str) -> str:
        """Send one line, read one line; any transport failure is terminal."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
                self._reader = self._sock.makefile("r", encoding="utf-8")
                self._snapshot_key = None
            self._sock.sendall((line + "\n").encode("utf-8"))
            response = self._reader.readline()
        except OSError as error:
            self._drop_connection()
            raise RuntimeError(f"shard worker {self.address} is unreachable: {error}") from error
        if not response:
            self._drop_connection()
            raise RuntimeError(f"shard worker {self.address} closed the connection (died?)")
        return response.rstrip("\n")

    def _push_snapshot(self, snapshot: WeightSnapshot) -> None:
        frame = base64.b64encode(snapshot_to_bytes(snapshot)).decode("ascii")
        response = self._request(f"snapshot {frame}")
        if response != f"ok {snapshot.key}":
            raise RuntimeError(
                f"shard worker {self.address} rejected snapshot {snapshot.key!r}: {response}"
            )
        self._snapshot_key = snapshot.key

    # -- protocol -------------------------------------------------------
    def run(self, snapshot: WeightSnapshot, tasks: Sequence[ShardTask]) -> List[ShardResult]:
        with self._lock:
            if self._snapshot_key != snapshot.key:
                self._push_snapshot(snapshot)
            # one batch frame per call: the shared syndrome block crosses the
            # wire once per worker, not once per shard
            frame = base64.b64encode(tasks_to_bytes(tasks)).decode("ascii")
            response = self._request(f"tasks {frame}")
            if response.startswith("error: need-snapshot"):
                # the worker restarted (or evicted the version): re-push once
                self._push_snapshot(snapshot)
                response = self._request(f"tasks {frame}")
            if not response.startswith("results "):
                raise RuntimeError(f"shard worker {self.address} failed batch: {response}")
            return results_from_bytes(base64.b64decode(response[len("results ") :]))

    def ping(self, timeout_s: float = 2.0) -> bool:
        """Cheap liveness probe on a throwaway connection.

        Deliberately bypasses the persistent connection and its lock: a
        probe must answer quickly even while a long scoring batch holds the
        main connection, and must be bounded by its own short timeout
        rather than the batch timeout.
        """
        try:
            with socket.create_connection((self.host, self.port), timeout=timeout_s) as probe:
                probe.sendall(b"ping\n")
                return probe.makefile("r", encoding="utf-8").readline().startswith("pong")
        except OSError:
            return False

    def forget_snapshot(self, key: str) -> None:
        with self._lock:
            if self._snapshot_key == key:
                self._snapshot_key = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()


@register_backend("remote")
class RemoteBackend(ComputeBackend):
    """Fan shard tasks out to ``repro shard-worker`` servers over TCP.

    Shards are assigned to workers round-robin by shard index, so a fixed
    topology gives every worker a stable, cacheable slice of the keyspace;
    worker groups execute concurrently (one thread per worker), while each
    worker's own tasks run in order on its persistent connection.  A worker
    that dies mid-batch surfaces as a ``RuntimeError`` naming the address —
    reads are timeout-bounded, so a hung worker cannot hang the caller — and
    the connection re-establishes lazily once the worker is back (snapshots
    re-push automatically via the ``need-snapshot`` handshake).
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        worker_addrs: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        timeout_s: float = 30.0,
    ) -> None:
        check_backend_spec(self.name, num_workers, worker_addrs)
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        addresses = [parse_worker_addr(addr) for addr in worker_addrs]
        self.num_workers = len(addresses)
        self.timeout_s = float(timeout_s)
        self._workers = [_RemoteWorker(host, port, self.timeout_s) for host, port in addresses]
        self._fanout: Optional[ThreadPoolExecutor] = None

    @property
    def worker_addresses(self) -> List[str]:
        return [worker.address for worker in self._workers]

    def run_tasks(
        self, snapshot: WeightSnapshot, tasks: Sequence[ShardTask]
    ) -> List[ShardResult]:
        _check_task_keys(snapshot, tasks)
        if not tasks:
            return []
        groups: Dict[int, List[Tuple[int, ShardTask]]] = {}
        for position, task in enumerate(tasks):
            groups.setdefault(task.shard_index % len(self._workers), []).append(
                (position, task)
            )
        if self._fanout is None:
            self._fanout = ThreadPoolExecutor(
                max_workers=len(self._workers), thread_name_prefix="repro-remote"
            )
        futures = {
            worker_index: self._fanout.submit(
                self._workers[worker_index].run, snapshot, [task for _, task in group]
            )
            for worker_index, group in groups.items()
        }
        results: List[Optional[ShardResult]] = [None] * len(tasks)
        errors: List[str] = []
        for worker_index, group in groups.items():
            try:
                worker_results = futures[worker_index].result()
            except RuntimeError as error:
                errors.append(str(error))
                continue
            for (position, _), result in zip(group, worker_results):
                results[position] = result
        if errors:
            raise RuntimeError("; ".join(errors))
        return results  # type: ignore[return-value]

    def release_snapshot(self, key: str) -> None:
        # workers keep only a bounded set of versions and evict on push, so
        # retiring a version client-side just clears the push bookkeeping
        for worker in self._workers:
            worker.forget_snapshot(key)

    def close(self) -> None:
        for worker in self._workers:
            worker.close()
        if self._fanout is not None:
            self._fanout.shutdown(wait=True)
            self._fanout = None

    def status(self) -> Dict[str, Any]:
        # probe workers concurrently on dedicated short-timeout connections,
        # so one dead/busy worker delays the stats line by ~2s, not 30s each
        with ThreadPoolExecutor(max_workers=len(self._workers)) as probes:
            alive = sum(probes.map(lambda worker: worker.ping(), self._workers))
        return {
            "backend": self.name,
            "workers": self.num_workers,
            "workers_alive": int(alive),
            "worker_addrs": self.worker_addresses,
        }


# ----------------------------------------------------------------------
# The worker runtime (server side of the remote backend)
# ----------------------------------------------------------------------
class ShardWorkerHandler:
    """Speak the shard-worker line protocol; ``submit(line)`` -> ``Future``.

    The ``submit`` signature is the one
    :class:`~repro.serving.eventloop.AsyncSocketServer` drives, so the worker
    reuses the serving front-end unchanged (``stats`` line, graceful
    shutdown).  ``snapshot`` and ``tasks`` requests run on ``executor`` so a
    multi-megabyte decode or a scoring batch never stalls the event loop;
    ``ping`` only reads the attached key and answers inline, so a liveness
    probe never waits behind a batch.  Without an executor every request
    runs synchronously in ``submit``.  Protocol failures answer in-band as
    ``error:`` lines; the worker itself never dies from a bad request.
    """

    def __init__(self, stats=None, executor: Optional[Executor] = None) -> None:
        self._stats = stats
        self._executor = executor
        self._lock = threading.Lock()
        #: snapshot key -> the decoded snapshot (its float32 copy goes with
        #: it); bounded, latest-wins.
        self._snapshots: "OrderedDict[str, WeightSnapshot]" = OrderedDict()
        self.tasks_executed = 0

    @property
    def snapshot_keys(self) -> List[str]:
        with self._lock:
            return list(self._snapshots)

    @property
    def current_key(self) -> Optional[str]:
        with self._lock:
            return next(reversed(self._snapshots)) if self._snapshots else None

    def _evict_locked(self, tag: str) -> None:
        """Bound retention per model tag, then the tag count itself.

        Versions evict oldest-first *within* ``tag`` — another entry's
        rollout never drops this entry's serving snapshot — and whole tags
        evict least-recently-pushed once more than
        :data:`MAX_ATTACHED_MODELS` are attached.
        """
        same_tag = [key for key in self._snapshots if snapshot_model_tag(key) == tag]
        for stale in same_tag[: max(0, len(same_tag) - MAX_ATTACHED_SNAPSHOTS)]:
            del self._snapshots[stale]
        tags_seen: List[str] = []
        for key in self._snapshots:  # insertion order ~ push recency
            key_tag = snapshot_model_tag(key)
            if key_tag not in tags_seen:
                tags_seen.append(key_tag)
        for stale_tag in tags_seen[: max(0, len(tags_seen) - MAX_ATTACHED_MODELS)]:
            for key in [k for k in self._snapshots if snapshot_model_tag(k) == stale_tag]:
                del self._snapshots[key]

    # -- AsyncSocketServer contract ------------------------------------
    def submit(self, line: str) -> "Future[str]":
        if self._executor is not None and line.startswith(("snapshot ", "tasks ")):
            return self._executor.submit(self._answer, line)
        future: "Future[str]" = Future()
        future.set_result(self._answer(line))
        return future

    def _answer(self, line: str) -> str:
        started = perf_counter()
        try:
            response = self.handle(line)
        except Exception as error:  # noqa: BLE001 — answer in-band, keep serving
            if self._stats is not None:
                self._stats.record_error()
            response = f"error: {error}"
        if self._stats is not None:
            self._stats.record_request(perf_counter() - started)
        return response

    # -- protocol -------------------------------------------------------
    def handle(self, line: str) -> str:
        verb, _, payload = line.partition(" ")
        if verb == "ping":
            return f"pong {self.current_key or '-'}"
        if verb == "snapshot":
            snapshot = snapshot_from_bytes(base64.b64decode(payload))
            with self._lock:
                self._snapshots[snapshot.key] = snapshot
                self._snapshots.move_to_end(snapshot.key)
                self._evict_locked(snapshot_model_tag(snapshot.key))
            return f"ok {snapshot.key}"
        if verb == "tasks":
            batch = tasks_from_bytes(base64.b64decode(payload))
            results: List[ShardResult] = []
            for task in batch:
                with self._lock:
                    attached = self._snapshots.get(task.snapshot_key)
                if attached is None:
                    return f"error: need-snapshot {task.snapshot_key}"
                results.append(
                    execute_shard_task(task, attached.herb_embeddings, attached.float32_copy)
                )
            with self._lock:
                self.tasks_executed += len(batch)
            frame = results_to_bytes([task.op for task in batch], results)
            return "results " + base64.b64encode(frame).decode("ascii")
        raise ValueError(f"unknown shard-worker request {verb!r}")


class ShardWorkerServer:
    """A standalone shard-execution server (the ``repro shard-worker`` verb).

    Holds no model and trains nothing: weights arrive over the wire as
    snapshots, tasks reference them by key.  Serving reuses
    :class:`~repro.serving.eventloop.AsyncSocketServer`, so the ``stats``
    control line reports request counts/latency plus the attached snapshot;
    ``snapshot``/``tasks`` requests run on a thread pool sized to the host
    (:func:`~repro.inference.backends.default_worker_count`), which the
    server owns and shuts down in :meth:`stop`.

    The admission policy differs from ``repro serve``'s on two limits:

    * no idle reaping — :class:`RemoteBackend` keeps one persistent
      connection per worker and does not retry a dropped one, so reaping it
      would fail the first request after an idle spell;
    * no outbound-buffer cap — one ``score`` results frame (rows × shard
      herbs × 8 bytes) is routinely larger than any fixed cap, which would
      drop a healthy reader.

    Request lines are unbounded too: a weight snapshot arrives as one
    multi-megabyte line on this trusted, fleet-internal protocol.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, stats=None) -> None:
        # lazy import: repro.serving pulls in the api/pipeline stack, which
        # inference must not import at module load
        from ..serving.eventloop import AdmissionController, AsyncSocketServer
        from ..serving.stats import ServerStats

        self.stats = stats if stats is not None else ServerStats()
        self._pool = ThreadPoolExecutor(
            max_workers=default_worker_count(), thread_name_prefix="shard-worker"
        )
        self.handler = ShardWorkerHandler(stats=self.stats, executor=self._pool)
        self.stats.set_backend_info(
            lambda: {
                "backend": "shard-worker",
                "snapshot": self.handler.current_key or "-",
                "tasks": self.handler.tasks_executed,
            }
        )
        self._server = AsyncSocketServer(
            self.handler,
            stats=self.stats,
            host=host,
            port=port,
            admission=AdmissionController(idle_timeout_s=None, max_outbuf_bytes=None),
            max_line_bytes=None,
        )

    def start(self) -> "ShardWorkerServer":
        self._server.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    def stop(self, timeout: float = 5.0) -> None:
        self._server.stop(timeout=timeout)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardWorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
