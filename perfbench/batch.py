"""``batch_default``: ``run_batch_file`` (what ``repro batch`` runs) over JSONL files.

A closed loop: input files of 4,096 valid records are scored one after the
other, each to its own output file with the fsynced checkpoint sidecar, the
default 1,024-record window and ``k`` drawn from {5, 10, 20}, until the
run's seconds are spent.  Per-window times come from ``run_batch_file``'s
own ``progress`` callback, which fires once per durable window.

A window's time is its CPU time, scaled to reference host speed by the
probes taken just before and after its file, plus the time the process
waited outside ``score_lines``: reading, writing and the fsyncs of the
output and the checkpoint sidecar.  Waiting on a disk takes
no CPU time, so without that part a change that adds fsyncs or blocking
writes would move no metric.  Wall time inside ``score_lines`` beyond its
CPU time is CPU the host stole, and is left out.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List

from checks import batch_line_ok, reference_answers
from common import (
    INTERPRETER_HEAVY,
    SETUP_REPEATS,
    SETUP_WEIGHTS,
    ProbeLog,
    local_slowdowns,
    median,
    peak_rss_mb,
    percentile,
    run_worker,
    slowdown,
)
from inputs import default_checkpoint, write_batch_files

#: Distinct input files; the timed loop cycles through them.
BATCH_FILES = 8
WINDOW = 1024
TRACE_FILES = 2


def _load_catalog(checkpoint: str):
    """``Pipeline.load`` + catalog + warm-up, as ``repro batch`` builds them."""
    from repro.api import Pipeline
    from repro.io.catalog import ModelCatalog

    pipeline = Pipeline.load(checkpoint)
    pipeline.engine  # noqa: B018 — warm the propagation before scoring
    catalog = ModelCatalog()
    catalog.add(pipeline.model_name, pipeline, checkpoint_path=checkpoint)
    return catalog


def _setup(checkpoint: str, probes: ProbeLog):
    """Set-up, timed ``SETUP_REPEATS`` times from cold corpus caches."""
    from repro.experiments.datasets import experiment_corpus, experiment_split

    catalog, seconds = None, []
    for _ in range(SETUP_REPEATS):
        if catalog is not None:
            catalog.close()
        experiment_split.cache_clear()
        experiment_corpus.cache_clear()
        gc.collect()
        probes.take("setup")
        started = time.process_time()
        catalog = _load_catalog(checkpoint)
        seconds.append(time.process_time() - started)
    probes.take("setup")
    return catalog, seconds


def _score_file(catalog, source: str, target: str) -> Dict[str, object]:
    """One ``run_batch_file`` call: CPU seconds and off-CPU waits, per window.

    ``score_lines`` is timed on both clocks (four clock reads per window)
    so that the wait outside it can be told apart from CPU time the host
    stole while scoring.
    """
    import repro.batch.runner as runner
    from tracing import patched

    score_lines = runner.score_lines
    scoring = [0.0, 0.0]  #: CPU and wall seconds in ``score_lines`` since the last window
    windows: List[List[float]] = []  #: ``[cpu_s, wait_s]`` per window

    def timed_score_lines(*args, **kwargs):
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            return score_lines(*args, **kwargs)
        finally:
            scoring[0] += time.process_time() - cpu
            scoring[1] += time.perf_counter() - wall

    def wait_since(cpu: float, wall: float) -> float:
        outside_wall = time.perf_counter() - wall - scoring[1]
        outside_cpu = time.process_time() - cpu - scoring[0]
        return max(0.0, outside_wall - outside_cpu)

    mark = [time.process_time(), time.perf_counter()]

    def progress(_stats) -> None:
        wait = wait_since(*mark)
        cpu = time.process_time()
        windows.append([cpu - mark[0], wait])
        scoring[:] = [0.0, 0.0]
        mark[:] = [cpu, time.perf_counter()]

    cpu, wall = time.process_time(), time.perf_counter()
    with patched(runner, "score_lines", timed_score_lines):
        stats = runner.run_batch_file(catalog, source, target, window=WINDOW, progress=progress)
    file_cpu, file_wall = time.process_time() - cpu, time.perf_counter() - wall
    return {
        "records": stats.records,
        "errors": stats.errors,
        "seconds": file_cpu,
        "wait_s": sum(w for _, w in windows) + wait_since(*mark),
        "wall_s": file_wall,
        "windows": windows,
        "sha256": hashlib.sha256(Path(target).read_bytes()).hexdigest(),
    }


def measure(spec: dict) -> dict:
    """Worker side of the end-to-end run."""
    probes = ProbeLog()
    catalog, setups = _setup(spec["checkpoint"], probes)
    inputs, outputs = spec["inputs"], spec["outputs"]
    try:
        _score_file(catalog, inputs[0], outputs[0])  # warm-up, untimed
        files: List[dict] = []
        probes.take("run")  # file i runs between run probes i and i + 1
        started = time.perf_counter()
        while time.perf_counter() - started < spec["seconds"]:
            index = len(files) % len(inputs)
            files.append(dict(_score_file(catalog, inputs[index], outputs[index]), index=index))
            # between files, not between windows: a probe inside run_batch_file
            # slowed the window after it (window p90 84 ms against 64 ms)
            probes.take("run")
        rss = peak_rss_mb()
    finally:
        catalog.close()
    return {"setups": setups, "files": files, "rss_mb": rss, "probes": probes.samples}


def count_failures(checkpoint: Path, files: List[dict], inputs, outputs) -> int:
    """Wrong or missing result lines, plus records of reruns whose bytes changed."""
    records_of = {}
    for index in {f["index"] for f in files}:
        with open(inputs[index], encoding="utf-8") as handle:
            records_of[index] = [json.loads(line) for line in handle]
    expected = reference_answers(
        checkpoint,
        ((tuple(r["symptoms"]), r["k"]) for records in records_of.values() for r in records),
    )
    failed = 0
    for index, records in records_of.items():
        with open(outputs[index], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        failed += abs(len(lines) - len(records))
        for line, record in zip(lines, records):
            answer = expected[(tuple(record["symptoms"]), record["k"])]
            failed += not batch_line_ok(
                line, record["id"], answer.model, answer.herbs, answer.herb_ids, answer.scores
            )
    first_hash = {}
    for f in files:
        first_hash.setdefault(f["index"], f["sha256"])
        if f["sha256"] != first_hash[f["index"]]:
            failed += f["records"]
        failed += f["errors"]
    return failed


def _file_specs(seed: int, workdir: Path, count: int):
    inputs = write_batch_files(seed, count, workdir)
    outputs = [str(path.with_suffix(".out.jsonl")) for path in inputs]
    return [str(path) for path in inputs], outputs


def run(seed: int, seconds: float, workdir: Path) -> dict:
    checkpoint = default_checkpoint()
    inputs, outputs = _file_specs(seed, workdir, BATCH_FILES)
    result = run_worker(
        {
            "module": "batch",
            "entry": "measure",
            "checkpoint": str(checkpoint),
            "inputs": inputs,
            "outputs": outputs,
            "seconds": seconds,
        },
        workdir,
    )
    files = result["files"]
    records = sum(f["records"] for f in files)
    probes = result["probes"]
    setup_slow = slowdown(probes["setup"], SETUP_WEIGHTS)
    # file i ran after i + 1 run probes: a window pays the speed of its own file
    file_slow = local_slowdowns(range(1, len(files) + 1), probes["run"], INTERPRETER_HEAVY)
    raw = [cpu + wait for f in files for cpu, wait in f["windows"]]
    scaled = [cpu / s + wait for f, s in zip(files, file_slow) for cpu, wait in f["windows"]]
    busy_s = sum(f["seconds"] / s + f["wait_s"] for f, s in zip(files, file_slow))
    metrics = {
        "setup_s": median(result["setups"]) / setup_slow,
        "throughput": records / busy_s,
        "p50_ms": percentile(scaled, 50) * 1e3,
        "peak_rss_mb": result["rss_mb"],
    }
    return {
        "metrics": metrics,
        "attempted": records,
        "failed": count_failures(checkpoint, files, inputs, outputs),
        "detail": {
            "raw": {
                "setup_s": median(result["setups"]),
                "throughput": records / sum(f["seconds"] + f["wait_s"] for f in files),
                "p50_ms": percentile(raw, 50) * 1e3,
                "p90_ms": percentile(raw, 90) * 1e3,
                "peak_rss_mb": result["rss_mb"],
            },
            "setup_slowdown": setup_slow,
            "run_slowdown": slowdown(probes["run"], INTERPRETER_HEAVY),
            "file_slowdowns": file_slow,
            "probes": probes,
            "files": len(files),
            "windows": len(raw),
            "io_wait_s": sum(f["wait_s"] for f in files),
            "cpu_s": sum(f["seconds"] for f in files),
            "records_per_wall_s": records / sum(f["wall_s"] for f in files),
            "setup_runs_cpu_s": result["setups"],
        },
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def measure_traced(spec: dict) -> dict:
    """Worker side: untraced files, then the same files with spans."""
    import repro.batch.runner as runner
    from tracing import Spans, patched, replay_layers

    catalog = _load_catalog(spec["checkpoint"])
    inputs, outputs = spec["inputs"], spec["outputs"]
    spans = Spans()
    windows: List[List[str]] = []

    def recording_score_lines(catalog, lines, *args, **kwargs):
        windows.append(list(lines))
        return traced_score_lines(catalog, lines, *args, **kwargs)

    traced_score_lines = spans.wrap("score_lines", runner.score_lines)
    try:
        _score_file(catalog, inputs[0], outputs[0])  # warm-up
        plain = [_score_file(catalog, i, o) for i, o in zip(inputs, outputs)]
        with patched(runner, "score_lines", recording_score_lines), patched(
            runner, "decode_record", spans.wrap("decode", runner.decode_record)
        ), patched(runner, "encode_result", spans.wrap("encode", runner.encode_result)):
            traced = []
            for source, target in zip(inputs, outputs):
                before = len(spans.records["score_lines"])
                result = _score_file(catalog, source, target)
                scored = spans.durations("score_lines")[before:]
                traced.append(dict(result, io_s=result["wall_s"] - sum(scored)))
        with catalog.lease() as pipeline:
            calls = []
            for lines in windows:
                records = [json.loads(line) for line in lines]
                calls.append(([r["symptoms"] for r in records], [r["k"] for r in records]))
            layers = replay_layers(pipeline, calls)
    finally:
        catalog.close()
    traced_s = sum(f["wall_s"] for f in traced)
    plain_s = sum(f["wall_s"] for f in plain)
    return {
        "metrics": {
            "batch.decode_us": median(spans.durations("decode")) * 1e6,
            "batch.encode_us": median(spans.durations("encode")) * 1e6,
            "batch.score_lines_ms": spans.median_ms("score_lines"),
            "batch.io_s": median([f["io_s"] for f in traced]),
            "api.recommend_many_window_ms": median(layers["api"]) * 1e3,
            "models.encode_syndrome_window_ms": median(layers["encode"]) * 1e3,
            "inference.select_window_ms": median(layers["select"]) * 1e3,
            "batch_default.span_coverage": spans.total("score_lines") / traced_s,
            "batch_default.trace_overhead": traced_s / plain_s - 1.0,
        },
        "files": [dict(f, index=i) for i, f in enumerate(traced)],
    }


def run_traced(seed: int, workdir: Path) -> dict:
    checkpoint = default_checkpoint()
    inputs, outputs = _file_specs(seed, workdir, TRACE_FILES)
    result = run_worker(
        {
            "module": "batch",
            "entry": "measure_traced",
            "checkpoint": str(checkpoint),
            "inputs": inputs,
            "outputs": outputs,
        },
        workdir,
    )
    files = result["files"]
    return {
        "metrics": result["metrics"],
        "attempted": sum(f["records"] for f in files),
        "failed": count_failures(checkpoint, files, inputs, outputs),
    }
