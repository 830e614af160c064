"""The shard-task protocol and the pluggable compute backends that run it.

A :class:`ComputeBackend` answers one question: *where do independent shard
tasks execute?*  The contract is built for distribution:

* a :class:`ShardTask` is a **picklable value** — a shard's global herb-id
  interval, the (small) syndrome block to score, and the *key* of the weight
  snapshot to score against.  Tasks never carry weights;
* a :class:`~repro.models.base.WeightSnapshot` is the immutable,
  parameter-version-stamped weight export tasks reference.  Each backend
  decides how to attach it where tasks run: in-process backends use the
  array by reference, a process pool maps it into
  ``multiprocessing.shared_memory``, an RPC backend ships it once per worker
  over the ``.npz`` wire codec (:mod:`repro.io.checkpoint`);
* :func:`execute_shard_task` is the **single execution function** every
  backend funnels through.  It runs the same fixed
  ``(row_block, dim) @ (dim, HERB_BLOCK)`` tile grid as the unsharded
  scoring path, so results are bit-identical across backends by
  construction, not by tolerance.

Built-in backends:

* ``"numpy"`` (:class:`NumpyBackend`) — run tasks sequentially on the
  calling thread (plain NumPy/BLAS);
* ``"threads"`` (:class:`ThreadPoolBackend`) — fan tasks across a
  ``ThreadPoolExecutor``; BLAS releases the GIL, so shard matmuls overlap;
* ``"processes"`` / ``"remote"`` — the distributed backends, in
  :mod:`repro.inference.distributed` (process pool over shared memory; RPC
  fan-out to ``repro shard-worker`` servers).

Third-party backends (e.g. GPU offload via CuPy/Torch) plug in via
:func:`register_backend` and become addressable by name everywhere a backend
is selected — ``InferenceEngine(backend=...)``, ``Pipeline(backend=...)`` and
the ``repro predict/serve --backend`` flags.

Lifecycle contract (shared by every backend, pinned by the test suite):
``close()`` is idempotent and releases workers/attachments; a closed backend
transparently re-opens on the next :meth:`~ComputeBackend.run_tasks`; the
context-manager form may be entered repeatedly.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..evaluation.metrics import top_k_indices
from ..models.base import WeightSnapshot, score_herb_tiles

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "ShardTask",
    "ThreadPoolBackend",
    "available_backends",
    "check_backend_spec",
    "default_worker_count",
    "execute_shard_task",
    "get_backend",
    "register_backend",
    "shard_topk",
]


def default_worker_count() -> int:
    """Worker-pool default size: the CPUs *this process may actually use*.

    ``os.cpu_count()`` reports the machine; under CPU affinity masks,
    cgroup/container pinning or ``taskset`` that over-counts and oversubscribes
    the pool.  ``sched_getaffinity`` reports the schedulable set, so pools
    default to real parallelism (falling back to ``cpu_count`` where the call
    does not exist, e.g. macOS).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platform without sched_getaffinity
        return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# The task protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ShardTask:
    """One unit of shard work, serializable across process/machine boundaries.

    A task is pure data: *which* herb-id interval to score (``start``/
    ``stop``), *what* syndrome block to score it against (``syndrome`` — a
    small ``(padded_rows, dim)`` array), and *which* weight snapshot the
    interval indexes into (``snapshot_key``).  The weights themselves never
    ride along — the executing side resolves ``snapshot_key`` to a locally
    attached :class:`~repro.models.base.WeightSnapshot`.

    ``op`` selects the result shape: ``"score"`` returns the shard's full
    ``(padded_rows, stop - start)`` score block; ``"topk"`` reduces to the
    shard-local top-``k`` candidates ``(ids, scores)`` over the first
    ``num_rows`` rows, pre-sorted in the canonical (score desc, id asc)
    order so the caller can merge shards exactly.
    """

    op: str  # "score" | "topk"
    shard_index: int
    #: Global herb-id interval ``[start, stop)`` this task scores.
    start: int
    stop: int
    #: Key of the :class:`~repro.models.base.WeightSnapshot` to score against.
    snapshot_key: str
    row_block: int
    #: Real (unpadded) request rows; trims the padding for ``"topk"``.
    num_rows: int
    #: ``(padded_rows, dim)`` syndrome block (rows padded to ``row_block``).
    syndrome: np.ndarray = field(repr=False)
    k: int = 0


def shard_topk(scores: np.ndarray, start: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of one shard's score block, in the canonical order.

    ``scores`` is ``(rows, width)`` for global herb ids ``start..start+width``.
    Returns ``(global_ids, values)``, each ``(rows, min(k, width))``, rows
    sorted by (score desc, id asc) through ``top_k_indices`` itself, which
    is what lets :func:`~repro.inference.sharding.merge_topk` rebuild the
    unsharded ranking exactly.
    """
    local = top_k_indices(scores, k)
    return local + start, np.take_along_axis(scores, local, axis=1)


def execute_shard_task(
    task: ShardTask, herb_embeddings: np.ndarray
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Run one :class:`ShardTask` against an attached herb-embedding matrix.

    This is the single execution function behind every backend — local
    thread, pool process, or remote shard worker — which is what makes the
    numerics backend-independent: the same tile grid
    (:func:`~repro.models.base.score_herb_tiles`) runs everywhere.
    """
    if task.op not in ("score", "topk"):
        raise ValueError(f"unknown shard-task op {task.op!r}")
    if not 0 <= task.start < task.stop <= herb_embeddings.shape[0]:
        raise ValueError(
            f"shard task interval [{task.start}, {task.stop}) does not fit the attached "
            f"snapshot ({herb_embeddings.shape[0]} herbs) — stale or mismatched snapshot?"
        )
    scores = score_herb_tiles(
        task.syndrome, herb_embeddings[task.start : task.stop], row_block=task.row_block
    )
    if task.op == "score":
        return scores
    if task.k <= 0:
        raise ValueError("topk task needs a positive k")
    return shard_topk(scores[: task.num_rows], task.start, task.k)


def _check_task_keys(snapshot: WeightSnapshot, tasks: Sequence[ShardTask]) -> None:
    """Refuse tasks stamped for a different snapshot than the one provided."""
    for task in tasks:
        if task.snapshot_key != snapshot.key:
            raise ValueError(
                f"shard task references snapshot {task.snapshot_key!r} but backend "
                f"was handed {snapshot.key!r} — stale task after a parameter update?"
            )


# ----------------------------------------------------------------------
# Backend contract + registry
# ----------------------------------------------------------------------
class ComputeBackend(abc.ABC):
    """Execution strategy for a list of independent, picklable shard tasks."""

    #: Registry name (set by :func:`register_backend`).
    name: str = ""

    @abc.abstractmethod
    def run_tasks(
        self, snapshot: WeightSnapshot, tasks: Sequence[ShardTask]
    ) -> List[Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]]:
        """Execute every task against ``snapshot``, returning results in task order.

        Each result is :func:`execute_shard_task`'s output for that task.
        Implementations must tolerate being called again after :meth:`close`
        (re-acquiring workers lazily) and must raise — not hang — when a
        worker dies mid-batch.
        """

    def release_snapshot(self, key: str) -> None:
        """Drop any resources attached for snapshot ``key`` (idempotent).

        Called when a parameter-version bump retires a snapshot, so shared
        memory segments / remote attachments do not accumulate across weight
        updates.  In-process backends hold no attachments; this is a no-op.
        """

    def close(self) -> None:
        """Release worker resources (idempotent; a no-op for serial backends)."""

    def status(self) -> Dict[str, Any]:
        """Liveness/topology snapshot for the serving ``stats`` line.

        Keys shared by every backend: ``backend`` (registry name),
        ``workers`` (configured parallelism) and ``workers_alive`` (how many
        are currently running/reachable).
        """
        return {"backend": self.name, "workers": 1, "workers_alive": 1}

    def __enter__(self) -> "ComputeBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: name -> backend factory accepting ``num_workers`` / ``worker_addrs`` keywords
_BACKEND_FACTORIES: Dict[str, Callable[..., ComputeBackend]] = {}


def register_backend(name: str):
    """Class decorator: make a :class:`ComputeBackend` selectable by ``name``.

    The decorated class must accept ``num_workers`` and ``worker_addrs`` as
    optional keywords; :func:`get_backend` checks them with
    :func:`check_backend_spec` first.  Registering an already-taken name raises, so built-ins
    cannot be shadowed silently.
    """

    def decorator(cls):
        if name in _BACKEND_FACTORIES:
            raise ValueError(f"compute backend {name!r} is already registered")
        cls.name = name
        _BACKEND_FACTORIES[name] = cls
        return cls

    return decorator


def _ensure_builtin_backends() -> None:
    # The distributed backends live in their own module (worker runtime,
    # shared-memory plumbing); import it lazily so registry lookups see them
    # without backends.py importing half the serving stack at module load.
    from . import distributed  # noqa: F401  (registers "processes" / "remote")


def available_backends() -> List[str]:
    """Registered backend names, in registration order."""
    _ensure_builtin_backends()
    return list(_BACKEND_FACTORIES)


def get_backend(
    backend: Union[str, ComputeBackend, None] = None,
    num_workers: Optional[int] = None,
    worker_addrs: Optional[Sequence[str]] = None,
) -> ComputeBackend:
    """Resolve a backend spec: an instance passes through, a name is built.

    ``None`` selects the default ``"numpy"`` backend; an unknown name raises
    ``ValueError`` listing what is registered.  ``num_workers`` sizes pooled
    backends; ``worker_addrs`` lists ``host:port`` shard workers for the
    ``"remote"`` backend (and is refused by the others).
    """
    if isinstance(backend, ComputeBackend):
        return backend
    check_backend_spec(backend, num_workers, worker_addrs)
    return _BACKEND_FACTORIES[backend or "numpy"](
        num_workers=num_workers, worker_addrs=worker_addrs
    )


def check_backend_spec(
    backend: Union[str, ComputeBackend, None],
    num_workers: Optional[int] = None,
    worker_addrs: Optional[Sequence[Any]] = None,
    label: Optional[Callable[..., str]] = None,
) -> None:
    """Refuse a backend spec that cannot be built: the one home of these rules.

    A name must be registered (``None`` is ``"numpy"``), ``num_workers``
    positive, and ``worker_addrs`` (valid ``host:port`` entries, one per
    worker) goes with ``"remote"`` and nothing else.  An instance passes.
    ``label(knob)``/``label(knob, value)`` names a knob in the messages.
    """
    label = label or (lambda knob, value=None: knob if value is None else f"{knob}={value!r}")
    if isinstance(backend, ComputeBackend):
        return
    name = "numpy" if backend is None else backend
    if name not in available_backends():
        raise ValueError(
            f"{label('backend')}: unknown backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    if num_workers is not None and num_workers <= 0:
        raise ValueError(f"{label('num_workers')} must be a positive integer")
    if name != "remote":
        if worker_addrs:
            raise ValueError(
                f"{label('worker_addrs')} only applies to {label('backend', 'remote')}, "
                f"not {name!r}"
            )
        return
    if not worker_addrs:
        raise ValueError(
            f"{label('backend', 'remote')} needs at least one {label('worker_addrs')} "
            "entry: the host:port of a running `repro shard-worker`"
        )
    from .distributed import parse_worker_addr

    for addr in worker_addrs:
        try:
            parse_worker_addr(addr)
        except ValueError as error:
            raise ValueError(f"{label('worker_addrs')}: {error}") from None
    if num_workers is not None and num_workers != len(worker_addrs):
        raise ValueError(
            f"{label('num_workers', num_workers)} conflicts with {len(worker_addrs)} "
            f"{label('worker_addrs')} entries; omit it for the remote backend"
        )


@register_backend("numpy")
class NumpyBackend(ComputeBackend):
    """Serial execution on the calling thread (plain NumPy/BLAS)."""

    def __init__(self, num_workers: Optional[int] = None, worker_addrs=None) -> None:
        # ``num_workers`` is accepted for factory uniformity; serial by design.
        check_backend_spec(self.name, num_workers, worker_addrs)

    def run_tasks(
        self, snapshot: WeightSnapshot, tasks: Sequence[ShardTask]
    ) -> List[Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]]:
        _check_task_keys(snapshot, tasks)
        return [execute_shard_task(task, snapshot.herb_embeddings) for task in tasks]


@register_backend("threads")
class ThreadPoolBackend(ComputeBackend):
    """Fan shard tasks across a lazily-created thread pool.

    BLAS matmuls release the GIL, so shard scoring overlaps across cores;
    the snapshot is shared by reference (threads see the same read-only
    array).  The pool is created on first use and shut down by
    :meth:`close` (or the context-manager exit); a closed backend
    transparently re-opens.
    """

    def __init__(self, num_workers: Optional[int] = None, worker_addrs=None) -> None:
        check_backend_spec(self.name, num_workers, worker_addrs)
        self.num_workers = num_workers if num_workers is not None else default_worker_count()
        self._executor: Optional[ThreadPoolExecutor] = None

    def run_tasks(
        self, snapshot: WeightSnapshot, tasks: Sequence[ShardTask]
    ) -> List[Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]]:
        _check_task_keys(snapshot, tasks)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="repro-shard"
            )
        matrix = snapshot.herb_embeddings
        return list(self._executor.map(lambda task: execute_shard_task(task, matrix), tasks))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def status(self) -> Dict[str, Any]:
        alive = self.num_workers if self._executor is not None else 0
        return {"backend": self.name, "workers": self.num_workers, "workers_alive": alive}
