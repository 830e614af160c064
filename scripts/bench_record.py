#!/usr/bin/env python3
"""Keep the benchmark's results: append perfbench runs to ``BENCH_<workload>.json``.

``perfbench/run.py`` prints its result and exits.  This script runs it for
the given workloads and seeds and appends what it printed to a committed
trajectory file per workload, so a speed claim is a number in the
repository rather than prose.

Usage::

    # record seeds 1-10 of the working tree, labelled "change"
    python3 scripts/bench_record.py --workload topk_50k --seeds 1-10 --seconds 10

    # alternate two checkouts seed by seed (one entry each, in --tree order)
    python3 scripts/bench_record.py --workload topk_50k --seeds 1-10 --seconds 10 \\
        --tree parent=../parent --tree change=.

    # record, then compare with the last committed entry
    python3 scripts/bench_record.py --workload topk_50k --seeds 1-3 --seconds 10 --compare

    # no seeds: compare the file's last two entries
    python3 scripts/bench_record.py --workload topk_50k --compare

Each run keeps perfbench's final result line (``correct``, ``attempted``,
``failed`` and every end-to-end metric) and, from the line before it, the
environment fingerprint and the workload's ``detail`` (raw figures such as
``setup_runs_cpu_s`` and the host-speed slowdowns they are divided by).
One invocation appends one entry per ``--tree``: ``{"label", "seconds",
"runs": [{"seed", "result", "environment", "detail"}, ...]}``.
With several trees, each seed runs every tree once, and the order flips
from one seed to the next, so neither side always runs first.
``--compare`` compares the file's newest entry with the one before it (the
last committed one, when a single tree was recorded), printing per metric
the median and interquartile range (IQR) of both entries, the change of
the median, whether that change exceeds the baseline's IQR, and on how
many shared seeds the new entry was better, with the direction each metric
improves in taken from ``BENCHMARK.json``.  When both entries carry
``setup_runs_cpu_s``, the ``setup_s`` line is followed by the median raw
set-up CPU of each, so a ``setup_s`` change can be told from a change of
the host-speed divisor.  The exit code is 1 when any recorded run failed
an operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> List[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def parse_output(stdout: str) -> Dict[str, object]:
    """The run record from perfbench's output: its last two lines."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("perfbench printed fewer than two lines")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": details["seed"],
        "result": result,
        "environment": details["environment"],
        "detail": details.get("detail", {}),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Run ``perfbench/run.py`` in ``tree`` once and return its run record."""
    command = [
        sys.executable,
        str(tree / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1 = an answer was wrong; the result still prints
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return parse_output(done.stdout)


def load_entries(path: Path) -> List[Dict[str, object]]:
    return json.loads(path.read_text()) if path.exists() else []


def append_entry(path: Path, entry: Dict[str, object]) -> None:
    entries = load_entries(path)
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation."""
    ordered = sorted(values)

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def _metric_values(entry: Dict[str, object], name: str) -> Dict[int, float]:
    return {
        run["seed"]: run["result"]["metrics"][name]["value"]
        for run in entry["runs"]
        if name in run["result"]["metrics"]
    }


def _median_setup_cpu(entry: Dict[str, object]) -> Optional[float]:
    """Median over runs of each run's median raw set-up CPU seconds, if recorded."""
    medians = [
        _quartiles(run["detail"]["setup_runs_cpu_s"])[1]
        for run in entry["runs"]
        if run.get("detail", {}).get("setup_runs_cpu_s")
    ]
    return _quartiles(medians)[1] if medians else None


def compare(
    baseline: Dict[str, object], newest: Dict[str, object], better: Dict[str, str]
) -> List[str]:
    """One line per metric: medians, IQRs, median change and paired wins."""
    lines = [f"{newest['label']} vs {baseline['label']}:"]
    for name, direction in better.items():
        old, new = _metric_values(baseline, name), _metric_values(newest, name)
        if not old or not new:
            continue
        old_q1, old_median, old_q3 = _quartiles(list(old.values()))
        new_q1, new_median, new_q3 = _quartiles(list(new.values()))
        delta = new_median - old_median
        relative = delta / old_median if old_median else float("nan")
        shared = sorted(set(old) & set(new))
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (new[seed] - old[seed]) > 0 for seed in shared)
        lines.append(
            f"  {name}: {old_median:.4g} [IQR {old_q3 - old_q1:.3g}] -> "
            f"{new_median:.4g} [IQR {new_q3 - new_q1:.3g}], median {relative:+.1%} "
            f"({'beyond' if abs(delta) > old_q3 - old_q1 else 'within'} the baseline IQR; "
            f"better on {wins} of {len(shared)} shared seeds, {direction} is better)"
        )
        if name == "setup_s":
            old_setup, new_setup = _median_setup_cpu(baseline), _median_setup_cpu(newest)
            if old_setup and new_setup:
                lines.append(
                    f"    raw set-up CPU (median): {old_setup * 1e3:.4g} ms -> "
                    f"{new_setup * 1e3:.4g} ms ({new_setup / old_setup - 1:+.1%})"
                )
    failed = sum(run["result"]["failed"] for run in newest["runs"])
    lines.append(f"  failed operations: {failed} in {len(newest['runs'])} runs")
    return lines


def directions(benchmark: Path = ROOT / "BENCHMARK.json") -> Dict[str, str]:
    """Each end-to-end metric's improving direction, in declaration order."""
    declared = json.loads(benchmark.read_text())["end_to_end"]
    return {metric["name"]: metric["better"] for metric in declared}


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=[], help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--tree",
        action="append",
        default=None,
        metavar="LABEL=PATH",
        help="a checkout to run (repeatable; default: change=<this repository>)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=ROOT,
        help="where BENCH_<workload>.json is appended (default: the repository root)",
    )
    parser.add_argument("--compare", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    trees = [spec.partition("=")[::2] for spec in args.tree or [f"change={ROOT}"]]
    failed = 0
    for workload in args.workload:
        path = args.out_dir / f"BENCH_{workload}.json"
        entries = {label: [] for label, _ in trees}
        for turn, seed in enumerate(args.seeds):
            for label, tree in trees[:: -1 if turn % 2 else 1]:
                record = run_once(Path(tree).resolve(), workload, seed, args.seconds)
                failed += record["result"]["failed"]
                entries[label].append(record)
                print(f"{workload} seed {seed} {label}: {json.dumps(record['result'])}")
        for label, runs in entries.items():
            if runs:
                append_entry(path, {"label": label, "seconds": args.seconds, "runs": runs})
        if args.compare:
            recorded = load_entries(path)
            if len(recorded) < 2:
                print(f"{workload}: no earlier entry to compare with")
            else:
                print("\n".join(compare(recorded[-2], recorded[-1], directions())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
