"""``topk_50k`` and ``topk_50k_approx``: top-k over a 50,000-herb vocabulary.

Both load the same seeded 50k x 64 clustered vocabulary from disk and answer
64-row query blocks with one ``k`` per call.  ``topk_50k`` times exact
``ShardedHerbIndex.topk`` (the default retrieval and the oracle);
``topk_50k_approx`` times ``ApproxHerbIndex.topk`` with 256 IVF lists,
nprobe 16 and candidate factor 4.  Every answer is checked after timing.
``ShardedHerbIndex.score``'s matrix must first equal an independent
``queries @ herbs.T`` (``checks.scores_match``); then exact answers must
match ``checks.canonical_topk`` over it, and approximate answers must list
scores bit-identical to it.  Recall is reported.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from checks import approx_failures, exact_failures, scores_match
from repro.inference import ApproxHerbIndex, ShardedHerbIndex
from repro.models.base import WeightSnapshot
from common import (
    NUMPY,
    SETUP_REPEATS,
    ProbeLog,
    at_reference_speed,
    median,
    peak_rss_mb,
    percentile,
    run_worker,
)
from inputs import TOPK_ROWS, topk_inputs

CANDIDATE_FACTOR = 4
NUM_LISTS = 256
NPROBE = 16
#: The exact workload's set-up is milliseconds; more repeats steady its median.
EXACT_SETUP_REPEATS = 9
TRACE_CALLS = 4


def _build(vocab_path: str, approx: bool):
    """Vocabulary load, ``WeightSnapshot.from_matrix`` and the index build(s)."""
    snapshot = WeightSnapshot.from_matrix(np.load(vocab_path))
    exact = ShardedHerbIndex(snapshot, num_shards=1)
    if not approx:
        return exact, None
    index = ApproxHerbIndex(
        snapshot, candidate_factor=CANDIDATE_FACTOR, num_lists=NUM_LISTS, nprobe=NPROBE
    )
    return exact, index


def _call(exact, approx_index, block: np.ndarray, k: int):
    if approx_index is None:
        return exact.topk(block, TOPK_ROWS, k)
    return approx_index.topk(block, [k] * TOPK_ROWS, exact_index=exact)


def _same_answer(first, second, approx: bool) -> bool:
    """Whether a repeated call answered exactly as the block's first call."""
    first_rows, second_rows = (first[0], second[0]) if approx else ([first], [second])
    return all(
        np.array_equal(a_ids, b_ids) and np.array_equal(a_scores, b_scores)
        for (a_ids, a_scores), (b_ids, b_scores) in zip(first_rows, second_rows)
    )


def check_answers(
    exact, herbs: np.ndarray, answers: Dict[int, object], blocks, ks, approx: bool
):
    """``(failed rows, hits, rows)`` over one answer per distinct block.

    A block whose score matrix is wrong fails all its rows: the matrix is
    the reference the answers are checked against.
    """
    failed = hits = rows = 0
    for index, answer in answers.items():
        matrix = exact.score(blocks[index])[:TOPK_ROWS]
        rows += TOPK_ROWS
        if not scores_match(matrix, blocks[index], herbs):
            failed += TOPK_ROWS
            continue
        if approx:
            block_failed, block_hits = approx_failures(answer[0], matrix, ks[index])
            hits += block_hits
        else:
            block_failed = exact_failures(answer[0], answer[1], matrix, ks[index])
        failed += block_failed
    return failed, hits, rows


def measure(spec: dict) -> dict:
    """Worker side of the end-to-end run."""
    approx = spec["approx"]
    blocks = np.load(spec["blocks"])
    ks = spec["ks"]
    setups = []
    probes = ProbeLog()
    exact = approx_index = None
    for _ in range(SETUP_REPEATS if approx else EXACT_SETUP_REPEATS):
        exact = approx_index = None
        gc.collect()
        probes.take("setup")
        started = time.process_time()
        exact, approx_index = _build(spec["vocab"], approx)
        setups.append(time.process_time() - started)
    probes.take("setup")
    _call(exact, approx_index, blocks[0], ks[0])  # warm-up, untimed
    probes.take("run")
    answers: Dict[int, object] = {}
    calls: List[float] = []
    marks: List[int] = []
    mismatched = 0
    started, probes_wall = time.perf_counter(), probes.wall_s
    while time.perf_counter() - started < spec["seconds"]:
        index = len(calls) % len(blocks)
        marks.append(len(probes.samples["run"]))
        call_start = time.process_time()
        answer = _call(exact, approx_index, blocks[index], ks[index])
        calls.append(time.process_time() - call_start)
        probes.maybe("run")
        if index in answers:
            mismatched += not _same_answer(answers[index], answer, approx)
        else:
            answers[index] = answer
    wall_s = time.perf_counter() - started - (probes.wall_s - probes_wall)
    rss = peak_rss_mb()
    failed, hits, rows = check_answers(exact, np.load(spec["vocab"]), answers, blocks, ks, approx)
    checked_k = sum(ks[index] for index in answers) * TOPK_ROWS
    return {
        "setups": setups,
        "calls_s": calls,
        "call_marks": marks,
        "wall_s": wall_s,
        "probes": probes.samples,
        "rss_mb": rss,
        "failed": failed + mismatched * TOPK_ROWS,
        "recall": hits / checked_k if approx else None,
        "rows_checked": rows,
    }


def _write_inputs(seed: int, workdir: Path):
    herbs, blocks, ks = topk_inputs(seed)
    vocab, queries = workdir / "topk-vocab.npy", workdir / "topk-blocks.npy"
    np.save(vocab, herbs)
    np.save(queries, blocks)
    return str(vocab), str(queries), ks


def run(seed: int, seconds: float, workdir: Path, approx: bool) -> dict:
    vocab, queries, ks = _write_inputs(seed, workdir)
    result = run_worker(
        {
            "module": "topk",
            "entry": "measure",
            "approx": approx,
            "vocab": vocab,
            "blocks": queries,
            "ks": ks,
            "seconds": seconds,
        },
        workdir,
    )
    calls = result["calls_s"]
    metrics, scaling = at_reference_speed(
        {
            "setup_s": median(result["setups"]),
            "throughput": len(calls) * TOPK_ROWS / sum(calls),
            "p50_ms": percentile(calls, 50) * 1e3,
            "p90_ms": percentile(calls, 90) * 1e3,
            "peak_rss_mb": result["rss_mb"],
        },
        result["probes"],
        NUMPY,
        calls,
        result["call_marks"],
    )
    return {
        "metrics": metrics,
        "attempted": len(calls) * TOPK_ROWS,
        "failed": result["failed"],
        "detail": dict(
            scaling,
            calls=len(calls),
            rows_per_wall_s=len(calls) * TOPK_ROWS / result["wall_s"],
            recall_at_k=result["recall"],
            rows_checked=result["rows_checked"],
            setup_runs_cpu_s=result["setups"],
        ),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def measure_traced(spec: dict) -> dict:
    """Worker side: untraced then traced calls on both paths."""
    import repro.inference.backends as backends
    from tracing import Spans, patched

    blocks = np.load(spec["blocks"])[:TRACE_CALLS]
    ks = spec["ks"][:TRACE_CALLS]
    spans = Spans()
    herbs = np.load(spec["vocab"])
    snapshot = WeightSnapshot.from_matrix(herbs)
    exact = spans.wrap("index_build", ShardedHerbIndex)(snapshot, num_shards=1)
    approx_index = spans.wrap("approx_build", ApproxHerbIndex)(
        snapshot, candidate_factor=CANDIDATE_FACTOR, num_lists=NUM_LISTS, nprobe=NPROBE
    )
    timings: Dict[str, List[float]] = {}
    answers: Dict[str, Dict[int, object]] = {"exact": {}, "approx": {}}

    def drive(name: str, index_or_none) -> None:
        """Answer every block once; untraced passes run first and warm up."""
        if name.endswith("plain"):
            _call(exact, index_or_none, blocks[0], ks[0])
        timings[name] = []
        for index in range(len(blocks)):
            started = time.perf_counter()
            answer = _call(exact, index_or_none, blocks[index], ks[index])
            timings[name].append(time.perf_counter() - started)
            answers[name.split("-")[0]][index] = answer

    drive("exact-plain", None)
    tile_score = spans.wrap("tile_score", backends.score_herb_tiles)
    select = spans.wrap("select", backends.shard_topk)
    with patched(backends, "score_herb_tiles", tile_score), patched(
        backends, "shard_topk", select
    ):
        drive("exact-traced", None)
    drive("approx-plain", approx_index)
    with patched(approx_index, "candidates", spans.wrap("first_pass", approx_index.candidates)):
        drive("approx-traced", approx_index)
    reports = [answer[1] for answer in answers["approx"].values()]
    first_pass = spans.durations("first_pass")
    rerank = [total - first for total, first in zip(timings["approx-traced"], first_pass)]
    exact_failed, _, _ = check_answers(exact, herbs, answers["exact"], blocks, ks, False)
    approx_failed, hits, _ = check_answers(exact, herbs, answers["approx"], blocks, ks, True)
    exact_traced, exact_plain = sum(timings["exact-traced"]), sum(timings["exact-plain"])
    approx_traced, approx_plain = sum(timings["approx-traced"]), sum(timings["approx-plain"])
    answered = sum(r.rows - r.fallback_rows for r in reports)
    return {
        "metrics": {
            "inference.index_build_s": spans.total("index_build"),
            "inference.approx_build_s": spans.total("approx_build"),
            "inference.tile_score_ms": spans.median_ms("tile_score"),
            "inference.topk_select_ms": spans.median_ms("select"),
            "inference.approx_first_pass_ms": median(first_pass) * 1e3,
            "inference.approx_rerank_ms": median(rerank) * 1e3,
            "inference.approx_fallback_rows": sum(r.fallback_rows for r in reports),
            "inference.approx_pool_mean": sum(r.candidates for r in reports) / max(answered, 1),
            "recall_at_k": hits / (sum(ks) * TOPK_ROWS),
            "topk_50k.span_coverage": (spans.total("tile_score") + spans.total("select"))
            / exact_traced,
            "topk_50k.trace_overhead": exact_traced / exact_plain - 1.0,
            "topk_50k_approx.span_coverage": sum(first_pass) / approx_traced,
            "topk_50k_approx.trace_overhead": approx_traced / approx_plain - 1.0,
        },
        "attempted": 2 * len(blocks) * TOPK_ROWS,
        "failed": exact_failed + approx_failed,
    }


def run_traced(seed: int, workdir: Path) -> dict:
    vocab, queries, ks = _write_inputs(seed, workdir)
    return run_worker(
        {
            "module": "topk",
            "entry": "measure_traced",
            "vocab": vocab,
            "blocks": queries,
            "ks": ks,
        },
        workdir,
    )
