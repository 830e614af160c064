"""The serving part of the traced run: ``repro serve`` driven by an open loop.

``serve_default`` is not an end-to-end workload (its wall-clock latencies
did not hold steady on a shared host; see README.md), but the traced run
drives the server this way to measure the serving layers.  The client is
one single-threaded process (this one) holding two connections.  Request
``i`` is due at ``t0 + i / SERVE_RATE`` whether or not earlier ones were
answered; its latency is timed from when it was due, so a stall also
charges the requests queued behind it.  A ``stats`` line goes out once per
second, as a metrics scraper's would.
"""

from __future__ import annotations

import gc
import json
import re
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from checks import reference_answers, serve_answer_ok
from common import BENCH_DIR, child_env, cpu_seconds, median, percentile, stop_process
from inputs import ServeRequest, default_checkpoint, serve_requests

#: Offered load, requests/s: about a quarter of the closed-loop capacity
#: measured on a 2-core machine (see README.md), so the server keeps up
#: even while the host steals a third of the CPU.
SERVE_RATE = 1000
#: Two connections carry many independent users, so one connection may hold
#: as many unanswered requests as the server-wide pending limit (1024);
#: the default per-connection quota of 32 would shed them during a stall.
CLIENT_QUOTA = 1024
CONNECTIONS = 2
STATS_INTERVAL_S = 1.0
#: Untimed traffic sent before the measured phase.
WARMUP_S = 1.0
#: How long to wait for stragglers after the last request was due.
DRAIN_S = 10.0
_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class Server(NamedTuple):
    proc: subprocess.Popen
    address: tuple


def launch(command: Sequence[str]) -> Server:
    """Start a server; returns once it printed ``listening on host:port``."""
    proc = subprocess.Popen(
        list(command),
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    lines: List[str] = []
    for line in proc.stderr:
        lines.append(line)
        match = _LISTENING.search(line)
        if match:
            # keep draining so the server never blocks on a full pipe
            threading.Thread(
                target=lambda: lines.extend(proc.stderr), daemon=True
            ).start()
            address = (match.group(1), int(match.group(2)))
            return Server(proc, address)
    stop_process(proc)
    raise RuntimeError("server exited before listening:\n" + "".join(lines))


def serve_command(checkpoint: Path) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--checkpoint",
        str(checkpoint),
        "--port",
        "0",
        "--k",
        "10",
        "--client-quota",
        str(CLIENT_QUOTA),
    ]


def traced_command(checkpoint: Path, spans_path: Path) -> List[str]:
    return [sys.executable, str(BENCH_DIR / "traced_server.py"), str(checkpoint), str(spans_path)]


class LoopResult(NamedTuple):
    responses: List[Optional[str]]
    latency_s: List[Optional[float]]  #: answer time minus due time
    late_s: List[float]  #: send time minus due time
    stats_rtt_s: List[float]
    stats_ok: bool
    t0: float
    last_answer: float


def open_loop(address, lines: Sequence[str], rate: float) -> LoopResult:
    """Send ``lines`` on schedule over ``CONNECTIONS`` sockets; collect answers."""
    socks = [socket.create_connection(address) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    for index, sock in enumerate(socks):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, index)
    payloads = [(line + "\n").encode() for line in lines]
    count = len(payloads)
    interval = 1.0 / rate
    pending = [deque() for _ in socks]
    outbufs = [bytearray() for _ in socks]
    inbufs = [bytearray() for _ in socks]
    responses: List[Optional[str]] = [None] * count
    latency: List[Optional[float]] = [None] * count
    late = [0.0] * count
    stats_rtt: List[float] = []
    stats_ok = True
    gc.collect()
    gc.disable()  # a collector pause would make the generator late
    t0 = time.perf_counter() + 0.02
    deadline = t0 + count * interval + DRAIN_S
    next_stats = t0 + STATS_INTERVAL_S
    sent = 0
    last_answer = t0
    try:
        while True:
            now = time.perf_counter()
            while sent < count and t0 + sent * interval <= now:
                due = t0 + sent * interval
                conn = sent % CONNECTIONS
                outbufs[conn] += payloads[sent]
                pending[conn].append((sent, due))
                late[sent] = now - due
                sent += 1
            if sent < count and next_stats <= now:
                outbufs[0] += b"stats\n"
                pending[0].append((-1, now))
                next_stats += STATS_INTERVAL_S
            for conn, sock in enumerate(socks):
                if outbufs[conn]:
                    try:
                        written = sock.send(outbufs[conn])
                    except BlockingIOError:
                        written = 0
                    del outbufs[conn][:written]
            if sent == count and not any(pending) or now > deadline:
                break
            if any(outbufs):
                timeout = 0.0005
            elif sent < count:
                timeout = max(0.0, t0 + sent * interval - time.perf_counter())
            else:
                timeout = 0.05
            for key, _ in selector.select(timeout):
                conn = key.data
                try:
                    data = socks[conn].recv(1 << 16)
                except BlockingIOError:
                    continue
                if not data:
                    raise RuntimeError("server closed a connection")
                arrived = time.perf_counter()
                buffer = inbufs[conn]
                buffer += data
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    text = buffer[:newline].decode("utf-8", errors="replace")
                    del buffer[: newline + 1]
                    index, due = pending[conn].popleft()
                    if index < 0:
                        stats_rtt.append(arrived - due)
                        stats_ok &= text.startswith("requests=")
                    else:
                        responses[index] = text
                        latency[index] = arrived - due
                        last_answer = arrived
    finally:
        gc.enable()
        selector.close()
        for sock in socks:
            sock.close()
    return LoopResult(responses, latency, late, stats_rtt, stats_ok, t0, last_answer)


def count_failures(
    checkpoint: Path, requests: Sequence[ServeRequest], responses: Sequence[Optional[str]]
) -> int:
    expected = reference_answers(checkpoint, ((r.tokens, r.k) for r in requests))
    failed = 0
    for request, response in zip(requests, responses):
        answer = expected[(request.tokens, request.k)]
        failed += not serve_answer_ok(response, request.json_mode, answer.herbs, answer.scores)
    return failed


def _phase(server: Server, requests: Sequence[ServeRequest]) -> dict:
    """Warm-up then the measured open loop against a running server."""
    warm = int(WARMUP_S * SERVE_RATE)
    warm_result = open_loop(server.address, [r.line for r in requests[:warm]], SERVE_RATE)
    cpu_before = cpu_seconds(server.proc.pid)
    result = open_loop(server.address, [r.line for r in requests[warm:]], SERVE_RATE)
    cpu_used = cpu_seconds(server.proc.pid) - cpu_before
    return {"warm": warm_result, "result": result, "cpu_s": cpu_used}


def _summary(result: LoopResult) -> dict:
    answered = [lat for lat in result.latency_s if lat is not None]
    if not answered:
        raise RuntimeError("no request was answered")
    return {
        "answered": len(answered),
        "answered_per_s": len(answered) / (result.last_answer - result.t0),
        "p50_ms": percentile(answered, 50) * 1e3,
        "p90_ms": percentile(answered, 90) * 1e3,
        "late_p99_ms": percentile(result.late_s, 99) * 1e3,
        "late_max_ms": max(result.late_s) * 1e3,
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
TRACE_SECONDS = 3.0


def _parse_line(line: str):
    """``(tokens, k)`` of a generated request line (text or JSON)."""
    if line.startswith("{"):
        payload = json.loads(line)
        return payload["symptoms"], payload["k"]
    k_token, *tokens = line.split()
    return tokens, int(k_token[2:])


def run_traced(seed: int, workdir: Path) -> dict:
    """Per-layer serving numbers, span coverage and tracing overhead."""
    from repro.api import Pipeline

    checkpoint = default_checkpoint()
    warm = int(WARMUP_S * SERVE_RATE)
    requests = serve_requests(seed, warm + int(TRACE_SECONDS * SERVE_RATE))
    spans_path = workdir / "serve-spans.json"
    server = launch(traced_command(checkpoint, spans_path))
    try:
        traced = _phase(server, requests)
    finally:
        stop_process(server.proc)
    flushes = json.loads(spans_path.read_text())["flushes"]
    plain = launch(serve_command(checkpoint))
    try:
        untraced = _phase(plain, requests)
    finally:
        stop_process(plain.proc)

    result = traced["result"]
    failed = 0
    for phase in (traced, untraced):
        responses = phase["warm"].responses + phase["result"].responses
        failed += count_failures(checkpoint, requests, responses)
        failed += not phase["result"].stats_ok

    # the handler call that answered each request: flushes in server order,
    # matched to requests in send order by line content
    answered_by: Dict[str, deque] = defaultdict(deque)
    for start, end, lines in flushes:
        for line in lines:
            answered_by[line].append(end - start)
    handler_s = [
        answered_by[request.line].popleft() if answered_by[request.line] else None
        for request in requests
    ]
    frontend_ms = [
        (latency - handled) * 1e3
        for latency, handled in zip(result.latency_s, handler_s[warm:])
        if latency is not None and handled is not None
    ]
    phase_start = result.t0
    phase_flushes = [f for f in flushes if f[0] >= phase_start]
    busy = sum(end - start for start, end, _ in phase_flushes)
    answered = sum(lat is not None for lat in result.latency_s)

    pipeline = Pipeline.load(checkpoint)
    try:
        calls = []
        for _, _, lines in phase_flushes:
            parsed = [_parse_line(line) for line in lines]
            calls.append(([tokens for tokens, _ in parsed], [k for _, k in parsed]))
        from tracing import replay_layers

        layers = replay_layers(pipeline, calls)
    finally:
        pipeline.close()

    traced_summary, untraced_summary = _summary(result), _summary(untraced["result"])
    return {
        "metrics": {
            "serving.handler_batch_ms": median([e - s for s, e, _ in phase_flushes]) * 1e3,
            "serving.flush_size": sum(len(f[2]) for f in phase_flushes) / len(phase_flushes),
            "serving.frontend_ms": median(frontend_ms),
            "serving.server_cpu_ms_per_req": traced["cpu_s"] * 1e3 / answered,
            "serving.stats_read_ms": median(result.stats_rtt_s) * 1e3,
            "api.recommend_many_ms": median(layers["api"]) * 1e3,
            "models.encode_syndrome_ms": median(layers["encode"]) * 1e3,
            "inference.select_ms": median(layers["select"]) * 1e3,
            "serve_default.span_coverage": busy / (result.last_answer - result.t0),
            "serve_default.trace_overhead": traced_summary["p50_ms"] / untraced_summary["p50_ms"]
            - 1.0,
        },
        "attempted": 2 * len(requests),
        "failed": failed,
        # the generator's lateness shows whether the loop was really open
        "detail": {"rate": SERVE_RATE, "traced": traced_summary, "untraced": untraced_summary},
    }
