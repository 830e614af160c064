"""CI smoke test for bulk scoring: SIGKILL + --resume == uninterrupted run.

Streams a 10k-record JSONL corpus through ``repro batch`` on 2 shards over
a 2-worker thread backend, twice: once uninterrupted (the baseline), once
with the subprocess SIGKILLed mid-flight — repeatedly — and resumed with
``--resume`` until it exits 0.  Hard gates:

* the resumed output is **bit-identical** to the uninterrupted baseline;
* every record id appears exactly once, in input order (nothing lost,
  nothing scored twice);
* at least one kill actually landed mid-run (otherwise the test proved
  nothing).

Usage::

    PYTHONPATH=src python scripts/batch_smoke.py --checkpoint /tmp/smgcn.npz
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def write_corpus(path: Path, records: int) -> list:
    ids = []
    with open(path, "w", encoding="utf-8") as stream:
        for i in range(records):
            record = {
                "id": f"rx-{i:06d}",
                "symptoms": [i % 30, (i * 7 + 3) % 30],
                "k": 1 + (i % 5),
            }
            ids.append(record["id"])
            stream.write(json.dumps(record) + "\n")
    return ids


def batch_command(args, corpus: Path, output: Path, resume: bool) -> list:
    command = [
        sys.executable, "-m", "repro", "batch", str(corpus),
        "--checkpoint", args.checkpoint,
        "--output", str(output),
        "--window", str(args.window),
        "--shards", "2", "--backend", "threads",
        "--workers", str(args.workers),
    ]
    if resume:
        command.append("--resume")
    return command


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--records", type=int, default=10000)
    parser.add_argument("--window", type=int, default=64)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kills", type=int, default=2, help="SIGKILLs to land")
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    rng = random.Random(args.seed)
    workdir = Path(tempfile.mkdtemp(prefix="batch-smoke-"))
    corpus = workdir / "corpus.jsonl"
    baseline = workdir / "baseline.jsonl"
    target = workdir / "killed.jsonl"
    ids = write_corpus(corpus, args.records)

    started = time.monotonic()
    subprocess.run(
        batch_command(args, corpus, baseline, resume=False), check=True, env=env
    )
    elapsed = time.monotonic() - started
    expected = baseline.read_bytes()
    print(
        f"baseline: {args.records} records in {elapsed:.1f}s "
        f"({args.records / elapsed:.0f} rec/s, {len(expected)} bytes)"
    )

    kills = 0
    runs = 0
    while True:
        runs += 1
        if runs > args.kills + 5:
            print("FAIL: batch run never completed after repeated resumes")
            return 1
        process = subprocess.Popen(
            batch_command(args, corpus, target, resume=runs > 1), env=env
        )

        if kills < args.kills:
            # kill once the output passes a random fraction of the baseline
            threshold = int(rng.uniform(0.05, 0.8) * len(expected))
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if target.exists() and target.stat().st_size >= threshold:
                    process.kill()  # SIGKILL
                    process.wait(timeout=60)
                    kills += 1
                    print(
                        f"kill {kills}/{args.kills} landed at >= {threshold} bytes "
                        f"(run {runs})"
                    )
                    break
                time.sleep(0.002)
            else:
                process.kill()
                print("FAIL: run made no visible progress within the watchdog window")
                return 1
            if process.returncode == 0:
                print(f"note: run {runs} finished before the kill landed")
                break
            continue
        returncode = process.wait(timeout=600)
        if returncode != 0:
            print(f"FAIL: resume run exited with {returncode}")
            return 1
        break

    if kills == 0:
        print("FAIL: no SIGKILL landed mid-run; nothing was tested")
        return 1

    final = target.read_bytes()
    if final != expected:
        print(
            f"FAIL: resumed output differs from the baseline "
            f"({len(final)} vs {len(expected)} bytes)"
        )
        return 1
    got_ids = [json.loads(line)["id"] for line in final.decode("utf-8").splitlines()]
    if got_ids != ids:
        lost = set(ids) - set(got_ids)
        dupes = len(got_ids) - len(set(got_ids))
        print(f"FAIL: id mismatch — {len(lost)} lost, {dupes} duplicated")
        return 1

    print(
        f"batch smoke test passed: {kills} SIGKILLs, {runs} runs, "
        f"{len(ids)} records bit-identical after resume"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
