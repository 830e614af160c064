"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests/selftest.py``
(the file name keeps it out of the program's default test collection; the
slowest tests run the benchmark command itself).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from common import ROOT, declared, pin_blas_threads, require_source_tree  # noqa: E402

pin_blas_threads()
require_source_tree()

import checks  # noqa: E402
import inputs  # noqa: E402


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


# ----------------------------------------------------------------------
# Inputs come from the seed alone
# ----------------------------------------------------------------------
def test_request_inputs_depend_on_the_seed_only(tmp_path):
    def lines(seed):
        return [request.line for request in inputs.serve_requests(seed, 300)]

    assert lines(7) == lines(7)
    assert lines(7) != lines(8)
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((first, 7), (again, 7), (other, 8)):
        directory.mkdir()
        inputs.write_batch_files(seed, 2, directory)
    for name in ("batch-0.jsonl", "batch-1.jsonl"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
        assert (first / name).read_bytes() != (other / name).read_bytes()


def test_topk_inputs_depend_on_the_seed_only():
    herbs, blocks, ks = inputs.topk_inputs(7)
    herbs_again, blocks_again, ks_again = inputs.topk_inputs(7)
    herbs_other, blocks_other, _ = inputs.topk_inputs(8)
    assert herbs.tobytes() == herbs_again.tobytes()
    assert blocks.tobytes() == blocks_again.tobytes() and ks == ks_again
    assert herbs.tobytes() != herbs_other.tobytes()
    assert blocks.tobytes() != blocks_other.tobytes()


def test_paper_corpus_depends_on_the_seed_only(tmp_path):
    paths = [tmp_path / f"{name}.tsv" for name in ("a", "b", "c")]
    for path, seed in zip(paths, (7, 7, 8)):
        inputs.write_paper_corpus(seed, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


# ----------------------------------------------------------------------
# The checkers reject a corrupted answer
# ----------------------------------------------------------------------
HERBS = ["herb_001", "herb_017", "herb_005"]
SCORES = [0.91234567891, 0.5, -0.25]


def test_serve_checker_rejects_a_flipped_herb_or_score():
    assert checks.serve_answer_ok(" ".join(HERBS), False, HERBS, SCORES)
    assert not checks.serve_answer_ok("herb_001 herb_005 herb_017", False, HERBS, SCORES)
    good = json.dumps({"model": "SMGCN", "herbs": HERBS, "scores": [0.912346, 0.5, -0.25]})
    assert checks.serve_answer_ok(good, True, HERBS, SCORES)
    bad_score = good.replace("0.912346", "0.912347")
    bad_herb = good.replace("herb_017", "herb_018")
    assert not checks.serve_answer_ok(bad_score, True, HERBS, SCORES)
    assert not checks.serve_answer_ok(bad_herb, True, HERBS, SCORES)
    assert not checks.serve_answer_ok(None, False, HERBS, SCORES)


def test_batch_checker_rejects_a_flipped_herb_id_or_score():
    from repro.batch.records import encode_result

    ids = [1, 17, 5]
    line = encode_result("rx-1", "SMGCN", HERBS, ids, SCORES)
    assert checks.batch_line_ok(line, "rx-1", "SMGCN", HERBS, ids, SCORES)
    assert not checks.batch_line_ok(line, "rx-1", "SMGCN", HERBS, [1, 18, 5], SCORES)
    nudged = [SCORES[0], float(np.nextafter(SCORES[1], 1.0)), SCORES[2]]
    assert not checks.batch_line_ok(line, "rx-1", "SMGCN", HERBS, ids, nudged)


def test_loss_checker_is_bitwise():
    losses = [397.30138412104384, 200.5]
    assert checks.losses_identical(losses, list(losses))
    assert not checks.losses_identical(losses, [losses[0], float(np.nextafter(200.5, 0.0))])
    assert not checks.losses_identical([float("nan")], [float("nan")])


def _small_indexes():
    from repro.inference import ApproxHerbIndex, ShardedHerbIndex
    from repro.models.base import WeightSnapshot

    rng = np.random.default_rng(3)
    herbs = rng.normal(size=(3000, 16))  # 11 full scoring tiles and a narrower tail
    snapshot = WeightSnapshot.from_matrix(herbs.copy())
    block = rng.normal(size=(64, 16))
    exact = ShardedHerbIndex(snapshot, num_shards=1)
    approx = ApproxHerbIndex(snapshot, candidate_factor=4, num_lists=16, nprobe=4)
    return exact, approx, block, herbs


def test_topk_checkers_accept_the_program_and_reject_corruption():
    exact, approx, block, _ = _small_indexes()
    matrix = exact.score(block)[:64]
    ids, scores = exact.topk(block, 64, 10)
    assert checks.exact_failures(ids, scores, matrix, 10) == 0
    swapped = ids.copy()
    swapped[3, [0, 1]] = swapped[3, [1, 0]]
    assert checks.exact_failures(swapped, scores, matrix, 10) == 1
    nudged = scores.copy()
    nudged[5, 2] = np.nextafter(nudged[5, 2], np.inf)
    assert checks.exact_failures(ids, nudged, matrix, 10) == 1

    rows, _ = approx.topk(block, [10] * 64, exact_index=exact)
    failed, hits = checks.approx_failures(rows, matrix, 10)
    assert failed == 0 and hits > 0
    corrupt = list(rows)
    row_ids, row_scores = corrupt[7]
    row_scores = row_scores.copy()
    row_scores[0] = np.nextafter(row_scores[0], np.inf)
    corrupt[7] = (row_ids, row_scores)
    assert checks.approx_failures(corrupt, matrix, 10)[0] == 1


def _corrupted_tile_scorer(original, corruption: str):
    """``score_herb_tiles`` with the second column tile (or the tail) wrong."""
    from repro.models.base import HERB_BLOCK

    tile = slice(HERB_BLOCK, 2 * HERB_BLOCK)

    def scorer(syndrome, herb_matrix, **kwargs):
        scores = original(syndrome, herb_matrix, **kwargs)
        if corruption == "float32":
            low = syndrome.astype(np.float32) @ herb_matrix[tile].T.astype(np.float32)
            scores[:, tile] = low.astype(np.float64)
        elif corruption == "offset":
            scores[:, tile] = scores[:, :HERB_BLOCK]
        else:  # the narrower tail tile is skipped
            scores = scores[:, : herb_matrix.shape[0] // HERB_BLOCK * HERB_BLOCK]
        return scores

    return scorer


@pytest.mark.parametrize("corruption", ["float32", "offset", "tail"])
@pytest.mark.parametrize("approx_path", [False, True])
def test_topk_check_rejects_a_corrupted_tile_scorer(corruption, approx_path):
    """The program's score matrix is not trusted as its own reference."""
    import repro.inference.backends as backends
    import topk
    from tracing import patched

    exact, approx, block, herbs = _small_indexes()
    blocks, ks = block[None], [10]

    def answer():
        if approx_path:
            return approx.topk(block, [10] * 64, exact_index=exact)
        return exact.topk(block, 64, 10)

    honest = topk.check_answers(exact, herbs, {0: answer()}, blocks, ks, approx_path)
    assert honest[0] == 0 and honest[2] == 64
    corrupted = _corrupted_tile_scorer(backends.score_herb_tiles, corruption)
    with patched(backends, "score_herb_tiles", corrupted):
        try:
            answers = {0: answer()}
        except (IndexError, ValueError):
            return  # the corrupted program cannot even answer: nothing to check
        failed, _, rows = topk.check_answers(exact, herbs, answers, blocks, ks, approx_path)
    assert failed == rows == 64


# ----------------------------------------------------------------------
# The command's output matches BENCHMARK.json
# ----------------------------------------------------------------------
def test_declarations_are_complete():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_end_to_end_run_prints_every_declared_metric_and_no_other():
    result = _result(_command("--workload", "topk_50k", "--seed", "3", "--seconds", "1"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared("end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_traced_run_prints_every_declared_layer_metric_and_no_other():
    result = _result(
        _command("--workload", "topk_50k", "--seed", "3", "--seconds", "1", "--trace", "1")
    )
    assert result["correct"] and result["failed"] == 0
    units = declared("per_layer")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache"))
    completed = _command("--workload", "topk_50k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
