"""Benchmark — remote shard execution: parity, with the wire cost reported.

The shard-task protocol lets shard tasks leave the process: the ``remote``
backend ships the weight snapshot once per worker and then sends each
scoring call as small npz frames (a syndrome block out, top-k candidates
back).  This benchmark builds a **synthetic 50k-herb vocabulary** and drives
the same tile-aligned shards through two placements:

* serial ``numpy`` (the reference),
* a ``remote`` fan-out to two in-process shard-worker servers — the full TCP
  wire path (snapshot push, task/result npz frames).

**Parity is the gate (hard failure everywhere):** scores and merged top-k
through the remote workers are bit-identical to the serial path — the whole
point of the fixed tile grid + canonical merge.  The remote time is printed
for information only: with both "machines" on localhost it mostly prices the
wire codec, so it sets no floor.  The in-host pooled speedup floor (≥2x over
serial shards) is gated on the ``threads`` backend in
``bench_sharded_scoring.py``.

Runs standalone too (CI smoke): ``python benchmarks/bench_distributed_scoring.py``.
"""

import time

import numpy as np

from repro.evaluation.metrics import top_k_indices
from repro.inference import (
    NumpyBackend,
    RemoteBackend,
    ShardWorkerServer,
    ShardedHerbIndex,
    default_worker_count,
)
from repro.models.base import SCORING_BLOCK, _pad_rows

NUM_HERBS = 50_000
DIM = 64
NUM_ROWS = 256
K = 20
NUM_SHARDS = max(4, 2 * default_worker_count())
#: Best-of-N timing to keep the report stable on noisy machines.
TIMING_REPEATS = 3


def _build():
    rng = np.random.default_rng(42)
    herbs = rng.normal(size=(NUM_HERBS, DIM))
    syndrome = _pad_rows(rng.normal(size=(NUM_ROWS, DIM)), SCORING_BLOCK)
    return herbs, syndrome


def _best_of(func, repeats=TIMING_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def measure():
    """Score + top-k a 50k-herb vocabulary serially and over remote workers."""
    herbs, syndrome = _build()
    index = ShardedHerbIndex(herbs, num_shards=NUM_SHARDS)
    serial = NumpyBackend()
    reference_scores = index.score(syndrome, backend=serial)
    reference_topk = top_k_indices(reference_scores[:NUM_ROWS], K)
    with ShardWorkerServer() as worker_a, ShardWorkerServer() as worker_b:
        remote = RemoteBackend(
            worker_addrs=[f"{host}:{port}" for host, port in (worker_a.address, worker_b.address)],
            timeout_s=60.0,
        )
        try:
            ids, _ = index.topk(syndrome, NUM_ROWS, K, backend=remote)
            identical = bool(
                np.array_equal(index.score(syndrome, backend=remote), reference_scores)
                and np.array_equal(ids, reference_topk)
            )
            remote_seconds = _best_of(lambda: index.topk(syndrome, NUM_ROWS, K, backend=remote))
        finally:
            remote.close()
    serial_seconds = _best_of(lambda: index.topk(syndrome, NUM_ROWS, K, backend=serial))
    return {
        "num_herbs": NUM_HERBS,
        "num_rows": NUM_ROWS,
        "num_shards": index.num_shards,
        "serial_seconds": serial_seconds,
        "remote_seconds": remote_seconds,
        "serial_rows_per_s": NUM_ROWS / serial_seconds,
        "remote_rows_per_s": NUM_ROWS / remote_seconds,
        "identical": identical,
    }


def _report(stats):
    return (
        f"vocabulary={stats['num_herbs']:,} herbs  rows={stats['num_rows']} "
        f"shards={stats['num_shards']} remote workers=2\n"
        f"serial shards (numpy):      {stats['serial_seconds']:.3f}s "
        f"({stats['serial_rows_per_s']:.0f} rows/s)\n"
        f"remote workers (loopback):  {stats['remote_seconds']:.3f}s "
        f"({stats['remote_rows_per_s']:.0f} rows/s, wire cost, informational)\n"
        f"bit-identical to serial: {stats['identical']}"
    )


def test_distributed_scoring(benchmark):
    from _bench_utils import record_report, run_once

    stats = run_once(benchmark, measure)
    record_report(
        "Distributed scoring — 50k-herb vocabulary, serial vs remote", _report(stats)
    )
    assert stats["identical"], "remote scoring must be bit-identical to the serial path"


if __name__ == "__main__":
    stats = measure()
    print(_report(stats))
    if not stats["identical"]:
        raise SystemExit("remote scoring diverged from the serial path")
