"""Benchmark — sub-linear top-k: float32 first pass + exact re-rank at 1M herbs.

Exact serving scores every herb and ranks full rows, so request cost grows
linearly with the vocabulary.  :class:`~repro.inference.retrieval.ApproxHerbIndex`
replaces the full ranking with a cheap float32 first pass over the IVF-probed
k-means lists and re-scores only the ``candidate_factor * k`` survivors
through the identical fixed-tile arithmetic.  This benchmark builds
a **synthetic 1M-herb clustered vocabulary** (a mixture of Gaussians — the
structure real embedding spaces have and the regime IVF exists for) and
hard-gates the two promises the tier makes:

* **Recall (hard failure):** recall@k against the exact oracle must be
  >= 0.99 for the IVF configuration, and every herb both paths list must
  carry a bit-identical score.
* **Speedup (hard failure):** the IVF configuration must answer >= 3x faster
  than exact ``ShardedHerbIndex.topk`` on the same serial backend.  The gain
  is algorithmic (rank ~40 survivors instead of 1M herbs), not a parallelism
  artifact, so the floor holds on any machine.

Runs standalone too: ``python benchmarks/bench_approx_topk.py`` (full gate)
or ``--smoke`` for the CI quick path — a small vocabulary where only the
recall/bit-identity gates apply (wall-clock ratios are noise at that size).
"""

import sys
import time

import numpy as np

from repro.inference import ApproxHerbIndex, ShardedHerbIndex
from repro.models.base import SCORING_BLOCK, WeightSnapshot, _pad_rows

NUM_HERBS = 1_000_000
SMOKE_NUM_HERBS = 20_000
DIM = 64
NUM_ROWS = 64
K = 10
CANDIDATE_FACTOR = 4
NUM_LISTS = 256
NPROBE = 16
NUM_CLUSTERS = 512  # generative mixture components (independent of NUM_LISTS)
TIMING_REPEATS = 3
RECALL_FLOOR = 0.99
SPEEDUP_FLOOR = 3.0


def _build(num_herbs, num_clusters, seed=42):
    """Clustered vocabulary + queries drawn near vocabulary rows."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(num_clusters, DIM))
    herbs = centers[rng.integers(num_clusters, size=num_herbs)]
    herbs += rng.normal(scale=0.4, size=herbs.shape)
    anchors = herbs[rng.integers(num_herbs, size=NUM_ROWS)]
    queries = anchors + rng.normal(scale=0.2, size=anchors.shape)
    return WeightSnapshot.from_matrix(herbs), _pad_rows(queries, SCORING_BLOCK)


def _best_of(func, repeats=TIMING_REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _recall_and_parity(results, exact_ids, exact_scores):
    """(recall@k, bit_identical-on-hits) of approx ``results`` vs the oracle."""
    hits, identical = 0, True
    for row, (ids, scores) in enumerate(results):
        oracle = {
            int(herb): exact_scores[row, column]
            for column, herb in enumerate(exact_ids[row])
        }
        for herb, score in zip(ids, scores):
            if int(herb) in oracle:
                hits += 1
                identical &= score == oracle[int(herb)]
    return hits / (len(results) * K), identical


def measure(num_herbs=NUM_HERBS, num_clusters=NUM_CLUSTERS, num_lists=NUM_LISTS, nprobe=NPROBE):
    """Exact vs IVF top-k over one clustered vocabulary."""
    snapshot, syndrome = _build(num_herbs, num_clusters)
    exact = ShardedHerbIndex(snapshot, num_shards=1)
    ivf = ApproxHerbIndex(
        snapshot, candidate_factor=CANDIDATE_FACTOR, num_lists=num_lists, nprobe=nprobe
    )
    ks = [K] * NUM_ROWS

    exact_seconds, (exact_ids, exact_scores) = _best_of(
        lambda: exact.topk(syndrome, NUM_ROWS, K)
    )
    ivf_seconds, (ivf_results, ivf_report) = _best_of(
        lambda: ivf.topk(syndrome, ks, exact_index=exact)
    )

    ivf_recall, ivf_identical = _recall_and_parity(ivf_results, exact_ids, exact_scores)
    return {
        "num_herbs": num_herbs,
        "num_rows": NUM_ROWS,
        "k": K,
        "candidate_factor": CANDIDATE_FACTOR,
        "num_lists": ivf.num_lists,
        "nprobe": ivf.nprobe,
        "exact_seconds": exact_seconds,
        "ivf_seconds": ivf_seconds,
        "ivf_speedup": exact_seconds / ivf_seconds,
        "ivf_recall": ivf_recall,
        "identical": ivf_identical,
        "fallbacks": ivf_report.fallback_rows,
    }


def _report(stats):
    return (
        f"vocabulary={stats['num_herbs']:,} herbs  rows={stats['num_rows']} "
        f"k={stats['k']} pool={stats['candidate_factor']}x  "
        f"ivf={stats['num_lists']} lists / {stats['nprobe']} probed\n"
        f"exact topk (serial):         {stats['exact_seconds']:.3f}s\n"
        f"float32 IVF + re-rank:       {stats['ivf_seconds']:.3f}s "
        f"({stats['ivf_speedup']:.1f}x, recall@{stats['k']}={stats['ivf_recall']:.4f})\n"
        f"listed scores bit-identical to exact: {stats['identical']}  "
        f"fallback rows: {stats['fallbacks']}"
    )


def _gate_recall(stats):
    if stats["ivf_recall"] < RECALL_FLOOR:
        raise SystemExit(f"recall gate failed: IVF {stats['ivf_recall']:.4f} < {RECALL_FLOOR}")
    if not stats["identical"]:
        raise SystemExit("a listed score diverged from the exact oracle's")


def test_approx_topk(benchmark):
    from _bench_utils import record_report, run_once

    stats = run_once(benchmark, measure)
    record_report("Approximate top-k — 1M-herb vocabulary, exact vs two-stage", _report(stats))
    assert stats["ivf_recall"] >= RECALL_FLOOR, f"IVF recall {stats['ivf_recall']:.4f}"
    assert stats["identical"], "a listed score diverged from the exact oracle's"
    assert stats["ivf_speedup"] >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x over exact serial top-k, "
        f"got {stats['ivf_speedup']:.1f}x"
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    if smoke:
        # same probe *ratio* as the full run, with the mixture and list count
        # scaled to the vocabulary so lists stay well-populated
        stats = measure(SMOKE_NUM_HERBS, num_clusters=64, num_lists=64, nprobe=4)
    else:
        stats = measure(NUM_HERBS)
    print(_report(stats))
    _gate_recall(stats)
    if smoke:
        # wall-clock ratios are dominated by fixed costs at 20k herbs — the
        # smoke gate certifies recall/bit-identity only
        sys.exit(0)
    if stats["ivf_speedup"] < SPEEDUP_FLOOR:
        raise SystemExit(
            f"speedup gate failed: {stats['ivf_speedup']:.1f}x < {SPEEDUP_FLOOR}x "
            "over exact serial top-k"
        )
