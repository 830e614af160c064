"""Crash-resume: SIGKILL (real and injected) must never lose or dup a record.

Two layers:

* an in-process harness that wraps the output stream via the runner's
  ``_output_filter`` seam and dies mid-write after a randomized byte budget —
  fast enough to sweep dozens of crash points, including crashes *during*
  resume and torn (partially-written) tail lines past the fsync watermark;
* one real ``SIGKILL`` of a ``repro batch`` subprocess at a random moment,
  followed by ``--resume`` until completion, asserting the concatenated
  output is bit-identical to an uninterrupted run.
"""

import gc
import json
import os
import random
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.batch.checkpoint import (
    BatchCheckpoint,
    CheckpointStateError,
    checkpoint_path_for,
)
from repro.batch.runner import BatchError, run_batch_file


class SimulatedCrash(BaseException):
    """Out-of-band like SIGKILL: not an Exception, so no handler cleans up."""


class CrashingFile:
    """Binary file wrapper that dies after ``budget`` bytes, mid-write.

    Writes up to the budget (possibly a torn partial line), then raises
    without flushing — the closest in-process stand-in for a hard kill.
    """

    def __init__(self, raw, budget):
        self._raw = raw
        self._budget = budget

    def write(self, data):
        if len(data) > self._budget:
            self._raw.write(data[: self._budget])
            self._raw.flush()
            raise SimulatedCrash()
        self._budget -= len(data)
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def run_to_completion(catalog, source, target, window, budgets):
    """Crash at each budget in turn (resuming), then finish cleanly."""
    crashes = 0
    for budget in budgets:
        try:
            run_batch_file(
                catalog,
                source,
                target,
                window=window,
                resume=crashes > 0,
                _output_filter=lambda raw, b=budget: CrashingFile(raw, b),
            )
            break  # budget exceeded the remaining output: ran to completion
        except SimulatedCrash:
            crashes += 1
    else:
        run_batch_file(catalog, source, target, window=window, resume=crashes > 0)
    return crashes


class TestInjectedCrashes:
    def test_resume_is_bit_identical_across_crash_points(
        self, batch_catalog, corpus_factory, tmp_path
    ):
        source, _ = corpus_factory(120)
        baseline = tmp_path / "baseline.jsonl"
        run_batch_file(batch_catalog, source, baseline, window=16)
        expected = baseline.read_bytes()

        rng = random.Random(2024)
        for trial in range(8):
            target = tmp_path / f"crashed-{trial}.jsonl"
            # several crashes per trial, at randomized byte offsets
            budgets = sorted(rng.randrange(0, len(expected)) for _ in range(3))
            crashes = run_to_completion(
                batch_catalog, source, target, window=16, budgets=budgets
            )
            assert target.read_bytes() == expected, f"trial {trial} diverged"
            state = BatchCheckpoint.load(checkpoint_path_for(target))
            assert state.complete
            assert crashes >= 1  # budgets below corpus size must actually crash

    def test_torn_tail_past_watermark_is_discarded(
        self, batch_catalog, corpus_factory, tmp_path
    ):
        """Bytes written after the last fsynced checkpoint must be re-scored,
        even when the crash left a torn half-line at the end of the file."""
        source, _ = corpus_factory(60)
        baseline = tmp_path / "baseline.jsonl"
        run_batch_file(batch_catalog, source, baseline, window=8)
        expected = baseline.read_bytes()

        target = tmp_path / "torn.jsonl"
        with pytest.raises(SimulatedCrash):
            run_batch_file(
                batch_catalog,
                source,
                target,
                window=8,
                _output_filter=lambda raw: CrashingFile(raw, len(expected) // 2),
            )
        state = BatchCheckpoint.load(checkpoint_path_for(target))
        size_on_disk = target.stat().st_size
        assert size_on_disk > state.output_offset  # a torn tail exists
        tail = target.read_bytes()[state.output_offset :]
        assert not tail.endswith(b"\n") or len(tail) > 0

        run_batch_file(batch_catalog, source, target, window=8, resume=True)
        assert target.read_bytes() == expected

    def test_resume_of_complete_run_rescores_nothing(
        self, batch_catalog, corpus_factory, tmp_path
    ):
        source, ids = corpus_factory(25)
        target = tmp_path / "out.jsonl"
        run_batch_file(batch_catalog, source, target, window=8)
        before = target.read_bytes()
        stats = run_batch_file(batch_catalog, source, target, window=8, resume=True)
        assert stats.records == 0
        assert stats.resumed_records == len(ids)
        assert target.read_bytes() == before

    def test_resume_with_missing_sidecar_starts_fresh(
        self, batch_catalog, corpus_factory, tmp_path
    ):
        source, _ = corpus_factory(10)
        target = tmp_path / "out.jsonl"
        stats = run_batch_file(batch_catalog, source, target, window=4, resume=True)
        assert stats.records == 10

    def test_resume_rejects_swapped_input(self, batch_catalog, corpus_factory, tmp_path):
        source, _ = corpus_factory(40, name="first.jsonl")
        target = tmp_path / "out.jsonl"
        with pytest.raises(SimulatedCrash):
            run_batch_file(
                batch_catalog,
                source,
                target,
                window=4,
                _output_filter=lambda raw: CrashingFile(raw, 2500),
            )
        assert checkpoint_path_for(target).exists()
        other, _ = corpus_factory(40, name="other.jsonl", start=5000)
        with pytest.raises(BatchError, match="input"):
            run_batch_file(batch_catalog, other, target, window=4, resume=True)

    def test_resume_rejects_truncated_output(
        self, batch_catalog, corpus_factory, tmp_path
    ):
        source, _ = corpus_factory(40)
        target = tmp_path / "out.jsonl"
        with pytest.raises(SimulatedCrash):
            run_batch_file(
                batch_catalog,
                source,
                target,
                window=4,
                _output_filter=lambda raw: CrashingFile(raw, 2500),
            )
        state = BatchCheckpoint.load(checkpoint_path_for(target))
        assert state.output_offset > 0
        with open(target, "r+b") as stream:
            stream.truncate(state.output_offset - 1)  # lost a durable byte
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BatchError, match="shorter"):
                run_batch_file(batch_catalog, source, target, window=4, resume=True)
            gc.collect()
        # the refused resume closed both files instead of leaving them to the GC
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_malformed_sidecar_raises_cleanly(self, tmp_path):
        sidecar = tmp_path / "x.checkpoint"
        sidecar.write_text("not json")
        with pytest.raises(CheckpointStateError):
            BatchCheckpoint.load(sidecar)
        sidecar.write_text(json.dumps({"version": 999}))
        with pytest.raises(CheckpointStateError):
            BatchCheckpoint.load(sidecar)


class TestRealSigkill:
    def test_sigkill_and_resume_until_done(
        self, batch_checkpoint, tmp_path
    ):
        from tests.batch.conftest import make_corpus

        source = tmp_path / "corpus.jsonl"
        ids = make_corpus(source, 3000)
        baseline = tmp_path / "baseline.jsonl"
        target = tmp_path / "killed.jsonl"
        base_cmd = [
            sys.executable,
            "-m",
            "repro",
            "batch",
            "--checkpoint",
            str(batch_checkpoint),
            "--window",
            "32",
        ]
        env = dict(os.environ, PYTHONPATH="src")

        subprocess.run(
            base_cmd + [str(source), "--output", str(baseline)],
            check=True,
            env=env,
            cwd="/root/repo",
        )
        expected = baseline.read_bytes()
        assert expected.count(b"\n") == len(ids)

        # start, wait until output visibly grows, SIGKILL mid-flight
        victim = subprocess.Popen(
            base_cmd + [str(source), "--output", str(target)],
            env=env,
            cwd="/root/repo",
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if target.exists() and 0 < target.stat().st_size < len(expected):
                break
            if victim.poll() is not None:
                pytest.skip("scoring finished before the kill landed")
            time.sleep(0.01)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        assert victim.returncode == -signal.SIGKILL
        assert target.read_bytes() != expected  # genuinely interrupted

        # resume until a run exits 0 (allow a couple of attempts for safety)
        for _ in range(3):
            result = subprocess.run(
                base_cmd + [str(source), "--output", str(target), "--resume"],
                env=env,
                cwd="/root/repo",
            )
            if result.returncode == 0:
                break
        assert result.returncode == 0
        final = target.read_bytes()
        assert final == expected  # bit-identical to the uninterrupted run
        got_ids = [json.loads(line)["id"] for line in final.decode().splitlines()]
        assert got_ids == ids  # no lost, duplicated, or reordered records
