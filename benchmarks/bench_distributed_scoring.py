"""Benchmark — distributed shard execution: parity and process-pool throughput.

PR 4 let shard tasks fan across threads; the shard-task protocol lets them
leave the process entirely.  This benchmark builds a **synthetic 50k-herb
vocabulary** and drives the same tile-aligned shards through three
placements:

* serial ``numpy`` (the reference),
* a ``processes`` pool — weight snapshot published once into shared memory,
  workers attach zero-copy, tasks cross as small pickles,
* a ``remote`` fan-out to two in-process shard-worker servers — the full
  TCP wire path (snapshot push, task/result npz frames).

It checks two things:

* **Parity (hard failure everywhere):** scores and merged top-k from
  both distributed backends are bit-identical to the serial path — the
  whole point of the fixed tile grid + canonical merge.
* **Throughput:** shard top-k through the process pool vs the same shards
  scored serially.  Unlike the ``threads`` backend (which needs BLAS to
  release the GIL), worker processes sidestep the GIL entirely; the pytest
  harness asserts the ≥2x floor on machines with ≥2 cores (a single-core
  box cannot parallelise CPU-bound matmuls, so there the run reports parity
  and flags the speedup as not measurable).  The remote path is measured
  for visibility only — with both "machines" on localhost it mostly prices
  the wire codec.

Runs standalone too (CI smoke): ``python benchmarks/bench_distributed_scoring.py``.
"""

import time

import numpy as np

from repro.evaluation.metrics import top_k_indices
from repro.inference import (
    NumpyBackend,
    ProcessPoolBackend,
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
NUM_WORKERS = default_worker_count()
NUM_SHARDS = max(4, 2 * NUM_WORKERS)
#: Best-of-N timing to keep the assertion stable on noisy CI machines.
TIMING_REPEATS = 5
SPEEDUP_FLOOR = 2.0


def _build():
    rng = np.random.default_rng(42)
    herbs = rng.normal(size=(NUM_HERBS, DIM))
    syndrome = _pad_rows(rng.normal(size=(NUM_ROWS, DIM)), SCORING_BLOCK)
    return herbs, syndrome


def _best_of(func, repeats=TIMING_REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _identical(index, syndrome, backend, reference_scores, reference_topk) -> bool:
    ids, _ = index.topk(syndrome, NUM_ROWS, K, backend=backend)
    return bool(
        np.array_equal(index.score(syndrome, backend=backend), reference_scores)
        and np.array_equal(ids, reference_topk)
    )


def measure():
    """Score + top-k a 50k-herb vocabulary through every distributed path."""
    herbs, syndrome = _build()
    index = ShardedHerbIndex(herbs, num_shards=NUM_SHARDS)
    serial = NumpyBackend()
    pool = ProcessPoolBackend(num_workers=NUM_WORKERS)
    stats = {
        "num_herbs": NUM_HERBS,
        "num_rows": NUM_ROWS,
        "num_shards": index.num_shards,
        "num_workers": NUM_WORKERS,
        "cpu_count": default_worker_count(),
    }
    try:
        # --- parity: the reason distribution is allowed to exist ---------
        reference_scores = index.score(syndrome, backend=serial)
        reference_topk = top_k_indices(reference_scores[:NUM_ROWS], K)
        identical = _identical(index, syndrome, pool, reference_scores, reference_topk)

        with ShardWorkerServer() as worker_a, ShardWorkerServer() as worker_b:
            remote = RemoteBackend(
                worker_addrs=[
                    f"{host}:{port}" for host, port in (worker_a.address, worker_b.address)
                ],
                timeout_s=60.0,
            )
            try:
                identical &= _identical(
                    index, syndrome, remote, reference_scores, reference_topk
                )
                remote_seconds, _ = _best_of(
                    lambda: index.topk(syndrome, NUM_ROWS, K, backend=remote), repeats=2
                )
            finally:
                remote.close()

        # --- throughput: serial shards vs process-pooled shards ----------
        def run(backend):
            return index.topk(syndrome, NUM_ROWS, K, backend=backend)

        run(pool)  # warm: spawn workers + attach the shared-memory snapshot
        serial_seconds, _ = _best_of(lambda: run(serial))
        pooled_seconds, _ = _best_of(lambda: run(pool))
    finally:
        pool.close()

    stats.update(
        serial_seconds=serial_seconds,
        pooled_seconds=pooled_seconds,
        remote_seconds=remote_seconds,
        speedup=serial_seconds / pooled_seconds,
        serial_rows_per_s=NUM_ROWS / serial_seconds,
        pooled_rows_per_s=NUM_ROWS / pooled_seconds,
        remote_rows_per_s=NUM_ROWS / remote_seconds,
        identical=identical,
    )
    return stats


def _report(stats):
    return (
        f"vocabulary={stats['num_herbs']:,} herbs  rows={stats['num_rows']} "
        f"shards={stats['num_shards']} workers={stats['num_workers']} "
        f"(machine schedules {stats['cpu_count']} core(s))\n"
        f"serial shards (numpy):      {stats['serial_seconds']:.3f}s "
        f"({stats['serial_rows_per_s']:.0f} rows/s)\n"
        f"process-pooled shards:      {stats['pooled_seconds']:.3f}s "
        f"({stats['pooled_rows_per_s']:.0f} rows/s)\n"
        f"remote workers (loopback):  {stats['remote_seconds']:.3f}s "
        f"({stats['remote_rows_per_s']:.0f} rows/s, wire-cost visibility only)\n"
        f"process-pool speedup: {stats['speedup']:.1f}x   "
        f"bit-identical across backends: {stats['identical']}"
    )


def test_distributed_scoring(benchmark):
    import pytest
    from _bench_utils import record_report, run_once

    stats = run_once(benchmark, measure)
    record_report(
        "Distributed scoring — 50k-herb vocabulary, serial vs processes vs remote",
        _report(stats),
    )
    assert stats["identical"], "distributed scoring must be bit-identical to the serial path"
    if stats["cpu_count"] < 2:
        pytest.skip("process-pool speedup needs >= 2 cores; parity asserted above")
    assert stats["speedup"] >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x process-pool speedup, got {stats['speedup']:.1f}x"
    )


if __name__ == "__main__":
    import sys

    stats = measure()
    print(_report(stats))
    # Parity is a hard failure; the wall-clock ratio only warns here so a
    # noisy or single-core runner cannot fail an unrelated PR (the pytest
    # harness above still asserts the 2x floor on multi-core machines).
    if not stats["identical"]:
        raise SystemExit("distributed scoring diverged from the serial path")
    if stats["cpu_count"] < 2:
        print(
            "note: single-core machine — process-pool speedup not measurable "
            "(parity verified)",
            file=sys.stderr,
        )
    elif stats["speedup"] < SPEEDUP_FLOOR:
        print(
            f"warning: speedup {stats['speedup']:.1f}x below the "
            f"{SPEEDUP_FLOOR}x target (noisy machine?)",
            file=sys.stderr,
        )
