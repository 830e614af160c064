"""``scripts/bench_record.py``: parsing, appending and comparing perfbench results.

Canned perfbench output stands in for real runs, so these tests run no
benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

ENVIRONMENT = {"git_sha": "abc123", "source_fingerprint": "f00d", "nproc": 2, "blas_threads": 1}


def canned_output(
    seed, throughput, p50_ms, failed=0, setup_s=None, setup_runs_cpu_s=(0.005, 0.006, 0.007)
):
    """perfbench's last two lines: run details, then the result."""
    detail = {"setup_slowdown": 0.8, "setup_runs_cpu_s": list(setup_runs_cpu_s)}
    details = {
        "workload": "topk_50k",
        "seed": seed,
        "trace": 0,
        "detail": detail,
        "environment": ENVIRONMENT,
    }
    result = {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            "throughput": {"value": throughput, "unit": "ops/s"},
            "p50_ms": {"value": p50_ms, "unit": "ms"},
        },
    }
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return f"progress noise\n{json.dumps(details)}\n{json.dumps(result)}\n"


def entry(label, values):
    runs = [bench_record.parse_output(canned_output(seed, *pair)) for seed, pair in values.items()]
    return {"label": label, "seconds": 10.0, "runs": runs}


BETTER = {"throughput": "higher", "p50_ms": "lower"}


def test_parse_seeds():
    assert bench_record.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_record.parse_seeds("5") == [5]


def test_parse_output_keeps_result_and_environment():
    record = bench_record.parse_output(canned_output(4, 1200.0, 55.0, setup_s=0.0075))
    assert record["seed"] == 4
    assert record["environment"] == ENVIRONMENT
    assert record["result"]["metrics"]["throughput"]["value"] == 1200.0
    assert record["detail"] == {"setup_slowdown": 0.8, "setup_runs_cpu_s": [0.005, 0.006, 0.007]}
    # --compare reads the raw set-up CPU back from the kept detail
    slower = bench_record.parse_output(
        canned_output(4, 1200.0, 55.0, setup_s=0.01, setup_runs_cpu_s=[0.009])
    )
    parent, change = {"label": "parent", "runs": [record]}, {"label": "change", "runs": [slower]}
    lines = bench_record.compare(parent, change, {"setup_s": "lower"})
    assert lines[2] == "    raw set-up CPU (median): 6 ms -> 9 ms (+50.0%)"
    with pytest.raises(ValueError):
        bench_record.parse_output("only one line\n")


def test_append_keeps_earlier_entries(tmp_path):
    path = tmp_path / "BENCH_topk_50k.json"
    first = entry("parent", {1: (1000.0, 50.0)})
    second = entry("change", {1: (2000.0, 25.0)})
    bench_record.append_entry(path, first)
    bench_record.append_entry(path, second)
    assert bench_record.load_entries(path) == [first, second]
    assert bench_record.load_entries(tmp_path / "missing.json") == []


def test_compare_reports_medians_iqr_and_paired_wins():
    parent = entry("parent", {1: (1000.0, 50.0), 2: (1100.0, 52.0), 3: (1200.0, 54.0)})
    change = entry("change", {1: (2000.0, 25.0), 2: (1050.0, 26.0), 3: (2200.0, 27.0)})
    lines = bench_record.compare(parent, change, BETTER)
    assert lines[0] == "change vs parent:"
    throughput, p50, failed = lines[1:]
    assert throughput.startswith("  throughput: 1100 [IQR 100] -> 2000 [IQR 575], median +81.8%")
    assert "beyond the baseline IQR; better on 2 of 3 shared seeds, higher is better" in throughput
    assert p50.startswith("  p50_ms: 52 [IQR 2] -> 26 [IQR 1], median -50.0%")
    assert "better on 3 of 3 shared seeds, lower is better" in p50
    assert failed == "  failed operations: 0 in 3 runs"


def test_compare_within_iqr_and_failed_operations():
    parent = entry("parent", {1: (1000.0, 50.0), 2: (1200.0, 60.0)})
    change = entry("change", {2: (1190.0, 55.0), 3: (1010.0, 51.0, 2)})
    throughput = bench_record.compare(parent, change, {"throughput": "higher"})[1]
    assert "median +0.0%" in throughput and "within the baseline IQR" in throughput
    assert "better on 0 of 1 shared seeds" in throughput
    assert bench_record.compare(parent, change, BETTER)[-1] == "  failed operations: 2 in 2 runs"


def test_directions_follow_benchmark_declaration():
    better = bench_record.directions()
    assert better["throughput"] == "higher"
    assert better["p50_ms"] == "lower"


def test_compare_without_seeds_reads_the_last_two_entries(tmp_path, capsys):
    path = tmp_path / "BENCH_topk_50k.json"
    bench_record.append_entry(path, entry("parent", {1: (1000.0, 50.0)}))
    bench_record.append_entry(path, entry("change", {1: (2000.0, 25.0)}))
    argv = ["--workload", "topk_50k", "--out-dir", str(tmp_path), "--compare"]
    assert bench_record.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("change vs parent:\n  throughput: 1000 [IQR 0] -> 2000")
    assert len(bench_record.load_entries(path)) == 2  # nothing run, nothing appended
