"""Shared plumbing: paths, BLAS pinning, metric declarations, statistics,
processes, the environment fingerprint and the host speed probes.

Every process the benchmark starts runs with one BLAS thread (see
``pin_blas_threads``): on a 2-core machine, 8,192 requests in 64-row
``recommend_batch`` calls took 0.297-0.359 s with two OpenBLAS threads and
0.365-0.367 s with one.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Environment variables that fix the BLAS thread pool size at load time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3


def pin_blas_threads() -> None:
    """Pin BLAS to one thread in this process and every process it starts.

    Must run before numpy is imported: OpenBLAS reads the variables once.
    """
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def require_source_tree() -> None:
    """Exit non-zero when the program's sources are not next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: pinned BLAS, the program on the path."""
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"  # same string hashing, so same set/dict layouts, every run
    return env


def source_fingerprint() -> str:
    """Hash of the program's sources; keys cached artefacts built from them."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cache_dir() -> Path:
    """Artefacts reused across runs of the same sources (checkpoint, corpora)."""
    path = BENCH_DIR / ".cache" / source_fingerprint()
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_dir() -> Path:
    """A per-run scratch directory inside the checkout (removed by the caller)."""
    path = BENCH_DIR / ".cache" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def declared(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGTERM, wait, then SIGKILL: the process has ended when this returns."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_worker(spec: dict, workdir: Path, timeout: float = 170.0) -> dict:
    """Run ``worker.py`` on ``spec`` in a fresh process; returns its result dict."""
    spec_path = workdir / "worker-spec.json"
    result_path = workdir / "worker-result.json"
    if result_path.exists():
        result_path.unlink()
    spec_path.write_text(json.dumps(dict(spec, result_path=str(result_path))))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)], env=child_env()
    )
    try:
        code = proc.wait(timeout)
    finally:
        stop_process(proc)
    if code != 0 or not result_path.exists():
        raise RuntimeError(f"benchmark worker failed with exit code {code}")
    return json.loads(result_path.read_text())


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8", errors="replace") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(lib, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> Dict[str, object]:
    """Git sha, CPU count, interpreter and library versions, BLAS set-up."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_fingerprint": source_fingerprint(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


# ----------------------------------------------------------------------
# Host speed probe
# ----------------------------------------------------------------------
#: Probe CPU seconds ``(interpreter, numpy)`` on the reference host, the
#: 2-core VM the bounds were set on; CPU-time metrics are reported at this
#: host speed.
REFERENCE_PROBE_S = (0.030, 0.060)

PROBE_REPEATS = 4

#: Weights on the probe's two parts, by the kind of work a phase does.  In a
#: busy host period the interpreter probe slowed 2.2x and the numpy probe
#: 1.45x, so work mostly done by the interpreter must follow the former.
#: ``INTERPRETER_HEAVY`` is for set-up everywhere (loading, parsing, Python
#: loops building graphs and indexes) and for batch scoring (the record
#: codec and vocab parse): against the (1, 1) weights it cut the gap between
#: a quiet and a busy period from -10% to 0% on batch throughput and from
#: +17% to +4% on approximate top-k set-up.
INTERPRETER_HEAVY = (4.0, 1.0)
INTERPRETER_AND_NUMPY = (1.0, 1.0)
NUMPY = (0.0, 1.0)
SETUP_WEIGHTS = INTERPRETER_HEAVY


def host_probe(records, matrix) -> Tuple[float, float]:
    """CPU seconds of two fixed reference tasks: ``(interpreter, numpy)``.

    The interpreter task is object work like the program's own (JSON round
    trips of small records, a dict and a sort); the numpy task is stable
    argsorts of a 2 x 50,000 matrix.  Both repeat small inputs, so the probe
    adds little to the worker's peak RSS.
    """
    import gc

    import numpy as np

    gc.disable()  # a collection triggered by earlier garbage is not host speed
    try:
        started = time.process_time()
        for _ in range(PROBE_REPEATS):
            decoded = json.loads(json.dumps(records))
            by_id = {record["id"]: record for record in decoded}
            sorted(by_id, key=str)
        middle = time.process_time()
        for _ in range(PROBE_REPEATS):
            np.argsort(-matrix, axis=1, kind="stable")
        return middle - started, time.process_time() - middle
    finally:
        gc.enable()


class ProbeLog:
    """Host speed, sampled between timed operations.

    Two fixed tasks that never touch the program (``host_probe``) are timed
    in CPU seconds, before each set-up and after the last (a set-up takes up
    to 2 s, and one probe before it missed the host's changes) and at most
    every ``every_s`` seconds between the timed operations.  On a shared host the CPU time of
    the same work drifted by a third and more between runs minutes apart,
    and the probes drift with it.
    """

    def __init__(self, every_s: float = 0.5) -> None:
        import numpy as np

        self.every_s = every_s
        self.samples: Dict[str, List[Tuple[float, float]]] = {"setup": [], "run": []}
        self._matrix = np.random.default_rng(0).normal(size=(2, 50_000))
        self._records = [
            {"id": f"rx-{i:05d}", "symptoms": [f"symptom_{i % 97:03d}", i % 31], "k": 10}
            for i in range(2_000)
        ]
        #: CPU and wall seconds the probes took, for callers to subtract
        self.cpu_s = self.wall_s = 0.0
        self._last = float("-inf")

    def take(self, phase: str) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        self.samples[phase].append(host_probe(self._records, self._matrix))
        self._last = time.perf_counter()
        self.cpu_s += time.process_time() - cpu
        self.wall_s += self._last - wall

    def maybe(self, phase: str) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.take(phase)


def slowdown(samples: Sequence[Sequence[float]], weights: Tuple[float, float]) -> float:
    """Mean probe time over the reference's: 1.2 means 20% slower.

    The mean, not the median: the host switches between a fast and a slow
    state within seconds, and work pays the time-weighted mix of both.
    """
    reference = weights[0] * REFERENCE_PROBE_S[0] + weights[1] * REFERENCE_PROBE_S[1]
    return sum(weights[0] * py + weights[1] * np_s for py, np_s in samples) / (
        len(samples) * reference
    )


def local_slowdowns(
    marks: Sequence[int], samples: Sequence[Sequence[float]], weights: Tuple[float, float]
) -> List[float]:
    """Each operation's slowdown, from the probes just before and after it.

    ``marks[i]`` is how many probes had been taken when operation ``i``
    began.  The host's speed changes within seconds, and an operation pays
    the speed of its own moment: in a busy host period, scaling each step
    by the run's mean left train's p50 with an IQR/median spread of 0.08
    over ten runs, against 0.02 this way.
    """
    return [slowdown(samples[max(mark - 1, 0) : mark + 1], weights) for mark in marks]


def at_reference_speed(
    raw: Dict[str, float],
    probes: Dict[str, List[Tuple[float, float]]],
    run_weights: Tuple[float, float],
    operations: Sequence[float],
    marks: Sequence[int],
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics scaled to reference host speed, plus the raw ones.

    ``setup_s`` is divided by the set-up phase's slowdown (``SETUP_WEIGHTS``)
    and ``throughput`` multiplied by the run phase's.  ``p50_ms`` is the
    median of the timed ``operations`` (CPU seconds), each divided by its
    own slowdown (``local_slowdowns``).  Other raw figures (the p90) stay in
    the details only.
    """
    setup = slowdown(probes["setup"], SETUP_WEIGHTS)
    run = slowdown(probes["run"], run_weights)
    local = local_slowdowns(marks, probes["run"], run_weights)
    metrics = {
        "setup_s": raw["setup_s"] / setup,
        "throughput": raw["throughput"] * run,
        "p50_ms": percentile([op / s for op, s in zip(operations, local)], 50) * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, {"raw": raw, "setup_slowdown": setup, "run_slowdown": run, "probes": probes}
