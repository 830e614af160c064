"""CI smoke test for socket serving: concurrent clients == sequential answers.

Starts ``repro serve --port`` as a real subprocess on a trained checkpoint,
fires concurrent socket clients at it, and asserts every response is
bit-identical to the sequential ``Pipeline.recommend`` baseline computed
in this process.  Finishes with a graceful SIGTERM and checks the server
reported its stats.

Usage::

    PYTHONPATH=src python scripts/serving_smoke.py --checkpoint /tmp/smgcn.npz
"""

import argparse
import signal
import socket
import subprocess
import sys
import threading


def _start_server(checkpoint: str, k: int, max_wait_ms: float):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--checkpoint", checkpoint,
            "--port", "0", "--k", str(k),
            "--max-wait-ms", str(max_wait_ms),
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    # watchdog: a server that hangs before printing anything would otherwise
    # block the readline loop forever (the CI step would stall, not fail)
    watchdog = threading.Timer(120, process.kill)
    watchdog.start()
    try:
        for line in process.stderr:
            if line.startswith("listening on "):
                address = line.split()[2]
                host, port = address.rsplit(":", 1)
                # keep draining stderr so the server never blocks on a full pipe
                threading.Thread(
                    target=lambda: [None for _ in process.stderr], daemon=True
                ).start()
                return process, host, int(port)
    finally:
        watchdog.cancel()
    process.kill()
    raise RuntimeError("server did not report a listening address")


def _client(host, port, lines, responses, index):
    with socket.create_connection((host, port), timeout=30) as connection:
        reader = connection.makefile("r", encoding="utf-8")
        answers = []
        for line in lines:
            connection.sendall((line + "\n").encode("utf-8"))
            answers.append(reader.readline().strip())
        responses[index] = answers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--requests", type=int, default=2, help="requests per client")
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()

    from repro.api import Pipeline

    pipeline = Pipeline.load(args.checkpoint)
    queries = ["0 3", "1 2", "0 1 4", "2", "3 4"]
    expected = {
        query: " ".join(pipeline.decode_herbs(pipeline.recommend(query, k=args.k)))
        for query in queries
    }

    process, host, port = _start_server(args.checkpoint, args.k, max_wait_ms=20.0)
    try:
        plans = [
            [queries[(client + round_) % len(queries)] for round_ in range(args.requests)]
            for client in range(args.clients)
        ]
        responses = [None] * args.clients
        threads = [
            threading.Thread(target=_client, args=(host, port, plans[i], responses, i))
            for i in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)

        total = mismatches = 0
        for plan, answers in zip(plans, responses):
            assert answers is not None, "a client thread never finished"
            for query, answer in zip(plan, answers):
                total += 1
                if answer != expected[query]:
                    mismatches += 1
                    print(f"MISMATCH {query!r}: {answer!r} != {expected[query]!r}")
        with socket.create_connection((host, port), timeout=10) as connection:
            connection.sendall(b"stats\n")
            stats_line = connection.makefile("r").readline().strip()
        print(f"{total} concurrent responses checked, {mismatches} mismatches")
        print(f"server stats: {stats_line}")
        if mismatches or total != args.clients * args.requests:
            return 1
        if not stats_line.startswith("requests="):
            print("stats control line malformed")
            return 1
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(30)
        except subprocess.TimeoutExpired:
            process.kill()
            print("server did not shut down gracefully")
            return 1
    if process.returncode != 0:
        print(f"server exited with {process.returncode}")
        return 1
    print("serving smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
