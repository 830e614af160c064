"""Benchmark — C10K-style concurrency on the event-loop TCP front-end.

Drives >= 1000 *simultaneously open* TCP connections against the serving
front-end from a single-threaded ``selectors`` client driver, measuring
end-to-end throughput and client-observed p99 latency, and asserting every
response is bit-identical to the sequential ``Pipeline.recommend`` oracle —
concurrency must never change an answer.

A second phase floods the front-end far past a deliberately small
``max_pending`` budget (~2x the offered load the budget can hold) with
shedding on, and asserts the overload contract: excess requests are refused
with a fast ``error: overloaded``, while the p99 latency of the *accepted*
requests stays bounded — a bounded queue means bounded waiting, no collapse.

Runs standalone too (CI smoke): ``python benchmarks/bench_concurrency.py``.
"""

import selectors
import socket
import time

import numpy as np

from repro.api import Pipeline
from repro.experiments.datasets import get_profile
from repro.serving import (
    OVERLOADED_RESPONSE,
    AdmissionController,
    AsyncSocketServer,
    MicroBatcher,
    RecommendationHandler,
    ServerStats,
)

NUM_CONNECTIONS = {"smoke": 1000, "default": 1500}
REQUESTS_PER_CONNECTION = 2
FLOOD_CONNECTIONS = {"smoke": 400, "default": 800}
FLOOD_PIPELINED = 8
FLOOD_MAX_PENDING = 32
#: Accepted-request p99 ceiling under flood: a bounded pending queue caps
#: waiting at roughly (max_pending / batch size) flush cycles.
FLOOD_P99_BOUND_MS = 1000.0
MAX_BATCH = 64
MAX_WAIT_MS = 2.0
K = 10
QUERIES = ["0 3", "1 2", "0 1 4", "2", "3 4", "1 3 4", "0 2", "2 4"]


def _build():
    return Pipeline(
        "SMGCN",
        scale="default",
        trainer_config=get_profile("default").trainer_config(epochs=0),
    ).fit()


def _serving_stack(pipeline, admission=None):
    stats = ServerStats()
    handler = RecommendationHandler(pipeline, k=K, stats=stats)
    batcher = MicroBatcher(
        handler, max_batch_size=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, stats=stats
    )
    server = AsyncSocketServer(
        batcher,
        stats=stats,
        admission=admission or AdmissionController(max_connections=1 << 14),
    ).start()
    return server, batcher, stats


def _drive(address, plans, pipelined=False, deadline_s=300.0):
    """Single-threaded selectors driver: every plan is one live connection.

    Request/response mode (default) measures per-request latency; pipelined
    mode fires each connection's whole plan at once (the flood shape).
    Returns (answers per connection, client-observed latencies in seconds).
    """
    selector = selectors.DefaultSelector()
    latencies = []
    answers = [[] for _ in plans]
    live = 0
    for index, plan in enumerate(plans):
        sock = socket.create_connection(address, timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        state = {"index": index, "plan": plan, "next": 0, "in": bytearray(), "sent_at": 0.0}
        if pipelined:
            sock.sendall("".join(line + "\n" for line in plan).encode("utf-8"))
            state["next"] = len(plan)
        else:
            sock.sendall((plan[0] + "\n").encode("utf-8"))
            state["next"] = 1
            state["sent_at"] = time.perf_counter()
        selector.register(sock, selectors.EVENT_READ, state)
        live += 1
    deadline = time.monotonic() + deadline_s
    while live and time.monotonic() < deadline:
        for key, _ in selector.select(timeout=1.0):
            sock, state = key.fileobj, key.data
            try:
                chunk = sock.recv(65536)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            done = not chunk
            if chunk:
                state["in"] += chunk
                while b"\n" in state["in"]:
                    line, _, rest = bytes(state["in"]).partition(b"\n")
                    state["in"] = bytearray(rest)
                    answers[state["index"]].append(line.decode("utf-8").strip())
                    if not pipelined:
                        latencies.append(time.perf_counter() - state["sent_at"])
                        if state["next"] < len(state["plan"]):
                            sock.sendall(
                                (state["plan"][state["next"]] + "\n").encode("utf-8")
                            )
                            state["next"] += 1
                            state["sent_at"] = time.perf_counter()
                done = len(answers[state["index"]]) >= len(state["plan"])
            if done:
                selector.unregister(sock)
                sock.close()
                live -= 1
    for key in list(selector.get_map().values()):
        key.fileobj.close()
    selector.close()
    if live:
        raise RuntimeError(f"{live} connections never finished — a front-end hung")
    return answers, latencies


def _concurrency_phase(pipeline, oracle, num_connections):
    plans = [
        [QUERIES[(conn + r) % len(QUERIES)] for r in range(REQUESTS_PER_CONNECTION)]
        for conn in range(num_connections)
    ]
    server, batcher, stats = _serving_stack(pipeline)
    try:
        started = time.perf_counter()
        answers, latencies = _drive(server.address, plans)
        elapsed = time.perf_counter() - started
    finally:
        server.stop()
        batcher.close()
    identical = all(
        got == [oracle[query] for query in plan] for plan, got in zip(plans, answers)
    )
    total = num_connections * REQUESTS_PER_CONNECTION
    return {
        "connections": num_connections,
        "requests": total,
        "seconds": elapsed,
        "rps": total / elapsed,
        "p99_ms": float(np.percentile(latencies, 99) * 1000.0),
        "mean_batch_size": stats.mean_batch_size,
        "identical": identical,
    }


def _flood_phase(pipeline, oracle, num_connections):
    admission = AdmissionController(
        max_connections=1 << 14,
        max_pending=FLOOD_MAX_PENDING,
        client_quota=FLOOD_PIPELINED,
    )
    server, batcher, stats = _serving_stack(pipeline, admission=admission)
    plans = [
        [QUERIES[(conn + r) % len(QUERIES)] for r in range(FLOOD_PIPELINED)]
        for conn in range(num_connections)
    ]
    try:
        started = time.perf_counter()
        answers, _ = _drive(server.address, plans, pipelined=True)
        elapsed = time.perf_counter() - started
    finally:
        server.stop()
        batcher.close()
    served = shed = mismatched = 0
    for plan, got in zip(plans, answers):
        for query, answer in zip(plan, got):
            if answer == OVERLOADED_RESPONSE:
                shed += 1
            elif answer == oracle[query]:
                served += 1
            else:
                mismatched += 1
    return {
        "connections": num_connections,
        "offered": num_connections * FLOOD_PIPELINED,
        "served": served,
        "shed": shed,
        "mismatched": mismatched,
        "seconds": elapsed,
        "served_rps": served / elapsed,
        # server-side latency covers accepted requests only: shed requests
        # never enter the batcher, which is exactly the overload contract
        "accepted_p99_ms": stats.latency_ms(99),
        "rejected_overload": stats.rejected_overload,
        "rejected_quota": stats.rejected_quota,
    }


def measure(scale="smoke"):
    pipeline = _build()
    handler = RecommendationHandler(pipeline, k=K)
    oracle = {query: handler([query])[0] for query in QUERIES}
    pipeline.engine  # warm the propagation outside the timed region

    results = {"scale": scale}
    results["async"] = _concurrency_phase(pipeline, oracle, NUM_CONNECTIONS[scale])
    results["flood"] = _flood_phase(pipeline, oracle, FLOOD_CONNECTIONS[scale])
    return results


def _report(results):
    lines = [
        f"scale={results['scale']} "
        f"requests/conn={REQUESTS_PER_CONNECTION} max_batch={MAX_BATCH}"
    ]
    phase = results["async"]
    lines.append(
        f"  async: {phase['connections']} concurrent connections, "
        f"{phase['requests']} requests in {phase['seconds']:.2f}s "
        f"({phase['rps']:.0f} req/s, p99 {phase['p99_ms']:.1f} ms, "
        f"mean batch {phase['mean_batch_size']:.1f}) "
        f"identical: {phase['identical']}"
    )
    flood = results["flood"]
    lines.append(
        f"  flood: {flood['offered']} offered over {flood['connections']} connections "
        f"(pending budget {FLOOD_MAX_PENDING}) -> {flood['served']} served "
        f"({flood['served_rps']:.0f} req/s), {flood['shed']} shed, "
        f"{flood['mismatched']} mismatched; accepted p99 {flood['accepted_p99_ms']:.1f} ms"
    )
    return "\n".join(lines)


def test_concurrency_and_overload(benchmark, bench_scale):
    from _bench_utils import record_report, run_once

    results = run_once(benchmark, lambda: measure(bench_scale))
    record_report("C10K concurrency — event loop", _report(results))
    assert results["async"]["identical"], "async responses diverged from the sequential oracle"
    flood = results["flood"]
    assert flood["mismatched"] == 0, "an accepted answer diverged under overload"
    assert flood["shed"] > 0, "the flood never exceeded the pending budget"
    assert flood["served"] > 0, "the flood starved every request"
    assert flood["accepted_p99_ms"] <= FLOOD_P99_BOUND_MS, (
        f"accepted-request p99 {flood['accepted_p99_ms']:.0f} ms exceeds the "
        f"{FLOOD_P99_BOUND_MS:.0f} ms bound — the pending queue is not bounding latency"
    )


if __name__ == "__main__":
    import sys

    results = measure("smoke")
    print(_report(results))
    # Correctness gates are hard failures; the latency bound only warns here
    # so a noisy shared CI runner cannot fail an unrelated PR (the pytest
    # harness above still asserts the bound).
    failures = []
    if not results["async"]["identical"]:
        failures.append("async responses diverged from the sequential oracle")
    if results["flood"]["mismatched"]:
        failures.append("an accepted answer diverged under overload")
    if not results["flood"]["shed"]:
        failures.append("the flood never exceeded the pending budget")
    if failures:
        raise SystemExit("; ".join(failures))
    if results["flood"]["accepted_p99_ms"] > FLOOD_P99_BOUND_MS:
        print(
            f"warning: accepted p99 {results['flood']['accepted_p99_ms']:.0f} ms "
            f"above the {FLOOD_P99_BOUND_MS:.0f} ms bound (noisy machine?)",
            file=sys.stderr,
        )
    print("concurrency benchmark passed")
