"""Serving layer: cached-propagation inference over trained recommenders.

The training-time forward pass re-runs the full-graph propagation on every
call because parameters change between batches.  At inference time parameters
are frozen, so :class:`InferenceEngine` propagates once, caches the node
embeddings and serves every subsequent scoring / top-k request from the cache
with sparse (CSR) pooling — turning evaluation and serving into pure
matrix-multiply work.

Every request scores through one exact path,
:class:`~repro.inference.sharding.ShardedHerbIndex`: the herb matrix cut
into tile-aligned column shards (one by default, more for vocabularies too
large, or cores too many, for one contiguous matmul), whose scores and top-k
merges are bit-identical to ``score_sets`` for any shard count.  Shard work
travels as picklable
:class:`~repro.inference.backends.ShardTask` values referencing immutable
:class:`~repro.models.base.WeightSnapshot` exports, so a
:class:`~repro.inference.backends.ComputeBackend` can place it anywhere:
serial NumPy/BLAS, a thread pool, remote shard-worker servers
(:mod:`~repro.inference.distributed`), or anything registered via
:func:`~repro.inference.backends.register_backend`.

For vocabularies where even one full scan per request is too much,
:mod:`~repro.inference.retrieval` adds a sub-linear two-stage top-k: a
float32 first pass over IVF-probed k-means lists keeps a small survivor
pool, which is then re-scored through the identical fixed-tile arithmetic —
so listed scores stay bit-exact while only recall is approximate, and the
exact path remains the default oracle (``retrieval="exact"``).
"""

from .backends import (
    ComputeBackend,
    NumpyBackend,
    ShardTask,
    ThreadPoolBackend,
    available_backends,
    default_worker_count,
    execute_shard_task,
    get_backend,
    register_backend,
)
from .distributed import (
    RemoteBackend,
    ShardWorkerHandler,
    ShardWorkerServer,
)
from .engine import MAX_CACHED_INDEX_VERSIONS, InferenceEngine, Recommendation
from .options import RETRIEVAL_MODES, EngineOptions
from .retrieval import ApproxHerbIndex, RetrievalReport, kmeans_partition
from .sharding import HerbShard, ShardedHerbIndex, merge_topk

__all__ = [
    "EngineOptions",
    "InferenceEngine",
    "MAX_CACHED_INDEX_VERSIONS",
    "RETRIEVAL_MODES",
    "Recommendation",
    "ApproxHerbIndex",
    "RetrievalReport",
    "kmeans_partition",
    "ComputeBackend",
    "NumpyBackend",
    "ShardTask",
    "ThreadPoolBackend",
    "RemoteBackend",
    "ShardWorkerHandler",
    "ShardWorkerServer",
    "available_backends",
    "default_worker_count",
    "execute_shard_task",
    "get_backend",
    "register_backend",
    "HerbShard",
    "ShardedHerbIndex",
    "merge_topk",
]
