"""The shard-task protocol and the pluggable compute backends that run it.

A :class:`ComputeBackend` answers one question: *where do independent shard
tasks execute?*  The contract is built for distribution:

* a :class:`ShardTask` is a **picklable value** — a shard's global herb-id
  interval, the (small) syndrome block to score, and the *key* of the weight
  snapshot to score against.  Tasks never carry weights;
* a :class:`~repro.models.base.WeightSnapshot` is the immutable,
  parameter-version-stamped weight export tasks reference.  Each backend
  decides how to attach it where tasks run: in-process backends use the
  array by reference, an RPC backend ships it once per worker over the
  ``.npz`` wire codec (:mod:`repro.io.checkpoint`);
* :func:`execute_shard_task` is the **single execution function** every
  backend funnels through.  It runs the same fixed
  ``(row_block, dim) @ (dim, HERB_BLOCK)`` tile grid as the unsharded
  scoring path, so results are bit-identical across backends by
  construction, not by tolerance.

Exact top-k on a wide shard goes through a float32 screen (see
:func:`_screened_topk`).  The shard is scored once in float32 against a
float32 copy of the snapshot's herbs, and every herb within a proven error
margin of each row's ``k``-th float32 score survives.  Only the survivors
are scored on the float64 tile grid, through packed tiles
(:func:`gathered_scores`, the approx re-rank's helper too), and ranked
canonically, so the answer is the full float64 scan's, bit for bit.  The
float32 copy costs 4 bytes × dim per herb in each executing process.  It is
made on the first screened task, once per snapshot under a lock, and lives
as long as its :class:`~repro.models.base.WeightSnapshot`: the engine's in
process, the decoded one in a shard worker.
The task scans in float64 instead when the shard is narrower than
``PRUNE_GROUPS_PER_K * k`` tiles, when the host fails the
:func:`gather_invariant` probe, when herbs or query rows are not finite or
their norms near float32's range, when a query row is zero (engine
warm-up's block is), and when the survivors exceed a quarter of the shard.

Built-in backends:

* ``"numpy"`` (:class:`NumpyBackend`) — run tasks sequentially on the
  calling thread (plain NumPy/BLAS);
* ``"threads"`` (:class:`ThreadPoolBackend`) — fan tasks across a
  ``ThreadPoolExecutor``; BLAS releases the GIL, so shard matmuls overlap;
* ``"remote"`` — the distributed backend, in
  :mod:`repro.inference.distributed` (RPC fan-out to ``repro shard-worker``
  servers).

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
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..evaluation.metrics import PRUNE_GROUPS_PER_K, top_k_indices
from ..models.base import HERB_BLOCK, WeightSnapshot, score_herb_tiles
from ..utils.cache import LazyValue

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "ShardTask",
    "ThreadPoolBackend",
    "available_backends",
    "check_backend_spec",
    "default_worker_count",
    "execute_shard_task",
    "float32_score_error",
    "gather_invariant",
    "gathered_scores",
    "get_backend",
    "packed_scores",
    "register_backend",
    "screen_floor",
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


def packed_scores(
    syndrome: np.ndarray, herb_matrix: np.ndarray, ids: np.ndarray, row_block: int
) -> np.ndarray:
    """``(rows, ids.size)`` scores of ``herb_matrix[ids]`` from packed tiles.

    The herb rows are packed into zero-padded ``HERB_BLOCK``-wide synthetic
    tiles, so every score comes out of the same fixed-shape gemm as the
    exact tile grid.
    """
    width = -(-ids.size // HERB_BLOCK) * HERB_BLOCK
    packed = np.zeros((width, herb_matrix.shape[1]), dtype=herb_matrix.dtype)
    np.take(herb_matrix, ids, axis=0, out=packed[: ids.size])
    return score_herb_tiles(syndrome, packed, row_block=row_block)[:, : ids.size]


@functools.lru_cache(maxsize=64)
def gather_invariant(dim: int, row_block: int, packer: Callable = packed_scores) -> bool:
    """Whether packed herb tiles score bit-identically to the real tile grid.

    The gathered re-score (:func:`gathered_scores`) relies on the host BLAS
    computing each element of a fixed-shape gemm the same way whatever fills
    the other columns.  This checks it on seeded random data at the given
    width and row block: a shuffled full tile plus a zero-padded partial
    one, drawn from three real tiles, against ``score_herb_tiles`` over the
    contiguous matrix.  The answer is a property of the host, so it is
    memoized per ``(dim, row_block, packer)`` in the process.
    """
    rng = np.random.default_rng(0)
    herbs = rng.standard_normal((3 * HERB_BLOCK, dim))
    syndrome = rng.standard_normal((row_block, dim))
    picked = rng.choice(herbs.shape[0], size=HERB_BLOCK + HERB_BLOCK // 2, replace=False)
    reference = score_herb_tiles(syndrome, herbs, row_block=row_block)[:, picked]
    return bool(np.array_equal(packer(syndrome, herbs, picked, row_block), reference))


def gathered_scores(
    syndrome: np.ndarray, herb_matrix: np.ndarray, ids: np.ndarray, row_block: int
) -> np.ndarray:
    """``(rows, ids.size)`` tile-grid scores of ascending ``ids`` only.

    Ids in full tiles are packed (:func:`packed_scores`); those in the
    matrix's narrower trailing tile are scored through that real tile, whose
    width no packed tile has.  Where :func:`gather_invariant` holds, every
    score equals ``score_herb_tiles(syndrome, herb_matrix)[:, ids]`` bit for
    bit, at a cost proportional to ``ids.size``.
    """
    full_stop = herb_matrix.shape[0] // HERB_BLOCK * HERB_BLOCK
    split = int(np.searchsorted(ids, full_stop))
    pieces = []
    if split:
        pieces.append(packed_scores(syndrome, herb_matrix, ids[:split], row_block))
    if split < ids.size:
        tail = score_herb_tiles(syndrome, herb_matrix[full_stop:], row_block=row_block)
        pieces.append(tail[:, ids[split:] - full_stop])
    return pieces[0] if len(pieces) == 1 else np.hstack(pieces)


# ----------------------------------------------------------------------
# The exact top-k screen
# ----------------------------------------------------------------------
#: Unit roundoffs of float32 and float64, float32's smallest normal, and the
#: largest absolute error of rounding a value below it to float32.
_U32, _U64 = 2.0**-24, 2.0**-53
_TINY32, _UNDERFLOW32 = 2.0**-126, 2.0**-150

#: Largest ``‖q‖₂``, ``max‖h‖₂`` and ``‖q‖₂·max‖h‖₂`` the screen accepts.
#: Every float32 product and partial sum of a screened score is then at
#: most ``2**100`` in magnitude, far inside float32's range (~``2**128``).
SCREEN_NORM_LIMIT = 2.0**100


def _float32_herbs(herb_embeddings: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
    """``(float32 copy, max row norm)`` of a snapshot's herb matrix.

    The copy is ``None`` when a row norm is not finite or exceeds
    :data:`SCREEN_NORM_LIMIT`: the screen could not bound its error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        max_norm = float(np.sqrt(np.einsum("ij,ij->i", herb_embeddings, herb_embeddings).max()))
    if not max_norm <= SCREEN_NORM_LIMIT:
        return None, max_norm
    return herb_embeddings.astype(np.float32), max_norm


def float32_score_error(query_norms, herb_norms, dim: int):
    """``e``: a bound on a float32 score's distance from the float64 tile score.

    For a query of norm ``query_norms`` and a herb of norm at most
    ``herb_norms`` (both ``‖·‖₂``, broadcasting), in any summation order,
    with a factor of 2 to spare (see :func:`_screened_topk`).  Valid while
    ``query_norms * herb_norms`` stays within :data:`SCREEN_NORM_LIMIT`.
    """
    return 2.0 * (
        ((dim + 2) * _U32 + dim * _U64) * query_norms * herb_norms
        + _UNDERFLOW32 * np.sqrt(dim) * (query_norms + herb_norms)
        + dim * _TINY32
    )


def screen_floor(kth32: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """The float32 screen bound per row: at most ``kth32 - 2 * margin``.

    ``kth32`` is each row's ``k``-th best float32 score and ``margin`` its
    float32-versus-float64 error bound.  Rounding the bound to float32 may
    round it up, so it is stepped one float32 down.
    """
    bound = (kth32.astype(np.float64) - 2.0 * margin).astype(np.float32)
    return np.nextafter(bound, np.float32(-np.inf))


def _screened_topk(
    task: ShardTask, herb_embeddings: np.ndarray, float32_copy: LazyValue
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`shard_topk` of the task's float64 scores, from a float32 screen.

    Returns ``None`` where the screen does not apply; the caller then runs
    the full float64 scan.  Otherwise the shard is scored once in float32,
    and every herb whose float32 score reaches :func:`screen_floor` of its
    row survives.  With ``d`` the dimension, the margin
    ``e = 2·[((d+2)·2⁻²⁴ + d·2⁻⁵³)·‖q‖₂·max‖h‖₂ + 2⁻¹⁵⁰·√d·(‖q‖₂ + max‖h‖₂)
    + d·2⁻¹²⁶]`` bounds the float32 score's distance from the float64 tile
    score, in any summation order, with a factor of 2 to spare.  The first
    term is relative rounding: two conversions and ``d`` products and sums.
    The second covers values below float32's smallest normal, which convert
    with an absolute error of up to 2⁻¹⁵⁰, and the third products and sums
    that underflow; so ±0 and subnormal magnitudes need no fallback.
    ``k`` float32 scores reach ``T32``, the ``k``-th best, so the ``k``-th
    best float64 score is at least ``T32 - e``, and every member of the
    canonical top ``k``, ties included, has a float32 score of at least
    ``T32 - 2e``: it survives.  The survivors' union is re-scored through
    the float64 tile grid (:func:`gathered_scores`) and ranked canonically,
    so the answer is bit-identical to the full scan's.
    """
    width, k = task.stop - task.start, task.k
    if width // HERB_BLOCK < PRUNE_GROUPS_PER_K * k or task.num_rows == 0:
        return None  # the width rule of top_k_indices: too narrow to gain
    herbs32, herb_norm = float32_copy.get(lambda: _float32_herbs(herb_embeddings))
    if herbs32 is None or not gather_invariant(herb_embeddings.shape[1], task.row_block):
        return None
    queries = task.syndrome[: task.num_rows]
    with np.errstate(over="ignore", invalid="ignore"):
        query_norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    largest = query_norms.max()
    if not (largest <= SCREEN_NORM_LIMIT and largest * herb_norm <= SCREEN_NORM_LIMIT):
        return None  # non-finite, or too near float32's range
    if query_norms.min() == 0.0:
        return None  # a zero row ties every herb, so all of them would survive
    dim = queries.shape[1]
    screen = score_herb_tiles(
        queries.astype(np.float32),
        herbs32[task.start : task.stop],
        row_block=task.num_rows,
        herb_block=width,
    )
    _, best32 = shard_topk(screen, 0, k)
    floor = screen_floor(best32[:, k - 1], float32_score_error(query_norms, herb_norm, dim))
    union = np.flatnonzero((screen >= floor[:, None]).any(axis=0))
    del screen
    if union.size > width // 4:
        return None  # the screen kept too much to be worth a second pass
    exact = gathered_scores(
        task.syndrome, herb_embeddings[task.start : task.stop], union, task.row_block
    )
    local, scores = shard_topk(exact[: task.num_rows], 0, k)
    return union[local] + task.start, scores


def execute_shard_task(
    task: ShardTask,
    herb_embeddings: np.ndarray,
    float32_copy: Optional[LazyValue] = None,
) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Run one :class:`ShardTask` against an attached herb-embedding matrix.

    This is the single execution function behind every backend — calling
    thread, pool thread, or remote shard worker — which is what makes the
    numerics backend-independent: the same tile grid
    (:func:`~repro.models.base.score_herb_tiles`) runs everywhere.

    ``float32_copy`` is the attached snapshot's own holder of its float32
    herb copy (:attr:`~repro.models.base.WeightSnapshot.float32_copy`).
    With it, a ``"topk"`` task on a wide shard runs the float32 screen
    (:func:`_screened_topk`), which returns the full scan's answer bit for
    bit; without it, or where the screen does not apply, the task scores
    every herb in float64.
    """
    if task.op not in ("score", "topk"):
        raise ValueError(f"unknown shard-task op {task.op!r}")
    if not 0 <= task.start < task.stop <= herb_embeddings.shape[0]:
        raise ValueError(
            f"shard task interval [{task.start}, {task.stop}) does not fit the attached "
            f"snapshot ({herb_embeddings.shape[0]} herbs) — stale or mismatched snapshot?"
        )
    if task.op == "topk":
        if task.k <= 0:
            raise ValueError("topk task needs a positive k")
        if float32_copy is not None:
            screened = _screened_topk(task, herb_embeddings, float32_copy)
            if screened is not None:
                return screened
    scores = score_herb_tiles(
        task.syndrome, herb_embeddings[task.start : task.stop], row_block=task.row_block
    )
    if task.op == "score":
        return scores
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

        Called when a parameter-version bump retires a snapshot, so remote
        attachments do not accumulate across weight updates.  In-process
        backends hold no attachments; this is a no-op.
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
    # The remote backend lives in its own module with the worker runtime;
    # import it lazily so registry lookups see it without backends.py
    # importing half the serving stack at module load.
    from . import distributed  # noqa: F401  (registers "remote")


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
        matrix, copy = snapshot.herb_embeddings, snapshot.float32_copy
        return [execute_shard_task(task, matrix, copy) for task in tasks]


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
        matrix, copy = snapshot.herb_embeddings, snapshot.float32_copy
        return list(self._executor.map(lambda task: execute_shard_task(task, matrix, copy), tasks))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def status(self) -> Dict[str, Any]:
        alive = self.num_workers if self._executor is not None else 0
        return {"backend": self.name, "workers": self.num_workers, "workers_alive": alive}
