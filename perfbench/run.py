"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures one workload end to end with no instrumentation and
prints every end-to-end metric.  ``--trace 1`` is the separate traced run: it
drives every workload briefly with spans recorded from the benchmark's own
code and prints every per-layer metric, each workload's span coverage and
its tracing overhead.  Both check every answer they time.  The last line of
standard output is the JSON result; the line before it carries the
environment fingerprint and run details.  The exit code is non-zero when an
answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import pin_blas_threads, require_source_tree

pin_blas_threads()  # before anything imports numpy

WORKLOADS = ("batch_default", "train_paper", "topk_50k", "topk_50k_approx")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _end_to_end(workload: str, seed: int, seconds: float, workdir) -> dict:
    if workload == "batch_default":
        import batch

        return batch.run(seed, seconds, workdir)
    if workload == "train_paper":
        import train

        return train.run(seed, seconds, workdir)
    import topk

    return topk.run(seed, seconds, workdir, approx=workload == "topk_50k_approx")


def _traced(seed: int, workdir) -> dict:
    import batch
    import serve
    import topk
    import train

    parts = [
        serve.run_traced(seed, workdir),
        batch.run_traced(seed, workdir),
        train.run_traced(seed, workdir),
        topk.run_traced(seed, workdir),
    ]
    merged = {"metrics": {}, "attempted": 0, "failed": 0, "detail": {}}
    for name, part in zip(("serve", "batch", "train", "topk"), parts):
        merged["metrics"].update(part["metrics"])
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        if "detail" in part:
            merged["detail"][name] = part["detail"]
    return merged


def main(argv=None) -> int:
    args = _parse(argv)
    require_source_tree()
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    from common import declared, environment, run_dir

    started = time.perf_counter()
    workdir = run_dir()
    try:
        if args.trace:
            outcome = _traced(args.seed, workdir)
        else:
            outcome = _end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared("per_layer" if args.trace else "end_to_end")
    missing = set(units) ^ set(outcome["metrics"])
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "wall_s": time.perf_counter() - started,
                "detail": outcome.get("detail", {}),
                "environment": environment(),
            }
        )
    )
    correct = outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": outcome["metrics"][name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
