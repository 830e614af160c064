#!/usr/bin/env python3
"""End-to-end smoke runner: every serving surface gives the oracle's herb list.

Trains two smoke checkpoints (seeds 0 and 7), builds one seeded request
stream from their symptom vocabulary and one oracle per checkpoint
(``Pipeline.load`` -> ``recommend`` -> ``decode_herbs``), then runs each
scenario: real ``repro`` subprocesses fed the stream, each scenario's
gates in its docstring.  A valid request must get the oracle's herbs (in
JSON mode, its scores rounded to 6 places; ``repro batch`` writes them
exactly), a malformed line an error, and every server must stop on
SIGTERM with exit 0 and a stats report.  Exits 1 when any gate fails.

Usage::

    PYTHONPATH=src python scripts/smoke.py [SCENARIO ...]   # default: all
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
)
K = 5
SEED = 2020
OVERLOADED = "error: overloaded"
LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")
MALFORMED = (
    "k=0 0 3",
    "k=3",
    "no_such_symptom",
    "99999",
    "{not json",
    '{"symptoms": [0, 3], "bogus": 1}',
    '{"symptoms": []}',
)


class Request(NamedTuple):
    """One line of the stream; ``symptoms`` is None for a malformed ``raw`` line."""

    symptoms: Optional[Tuple]
    k: Optional[int]
    json: bool
    raw: str = ""


Oracle = Dict[Request, Tuple[Tuple[str, ...], Tuple[float, ...]]]


def request_stream(symptom_tokens: Sequence[str]) -> List[Request]:
    """The runner's one input: 48 seeded valid requests with every malformed line mixed in."""
    rng = random.Random(SEED)
    stream = [Request(None, None, raw.startswith("{"), raw) for raw in MALFORMED]
    for _ in range(48):
        ids = rng.sample(range(len(symptom_tokens)), rng.randint(1, 4))
        symptoms = tuple(symptom_tokens[i] if rng.random() < 0.5 else i for i in ids)
        stream.append(Request(symptoms, rng.choice((None, 1, 3, 10)), rng.random() < 0.3))
    rng.shuffle(stream)
    return stream


def render(request: Request, model: Optional[str] = None) -> str:
    """The request as one protocol line, routed to ``model`` when given."""
    if request.symptoms is None:
        return request.raw
    if request.json:
        payload = {"symptoms": list(request.symptoms), "k": request.k, "model": model}
        return json.dumps({key: value for key, value in payload.items() if value is not None})
    prefix = [f"model={model}"] * bool(model) + [f"k={request.k}"] * bool(request.k)
    return " ".join(prefix + [str(symptom) for symptom in request.symptoms])


def build_oracle(path: Path, stream: Sequence[Request]) -> Oracle:
    """Herbs and scores for every valid request, from the checkpoint in-process."""
    from repro.api import Pipeline

    pipeline = Pipeline.load(path)
    try:
        oracle = {}
        for request in stream:
            if request.symptoms is not None:
                found = pipeline.recommend(list(request.symptoms), k=request.k or K)
                oracle[request] = (tuple(pipeline.decode_herbs(found)), found.scores)
        return oracle
    finally:
        pipeline.close()


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def verdict(request: Request, answer: str, oracle: Oracle, digits: Optional[int] = 6) -> str:
    """How one answer counts: ``served`` (the oracle's answer), ``shed``,
    ``rejected`` (a malformed line's error), ``mismatch`` (a valid request
    answered wrongly) or ``failure`` (a malformed line answered with a
    recommendation).  JSON scores must equal the oracle's rounded to
    ``digits`` places (exactly when ``digits`` is None)."""
    if answer == OVERLOADED:
        return "shed"
    payload = None
    if answer.startswith("{"):
        try:
            payload = json.loads(answer)
        except ValueError:
            payload = {}
        error = not isinstance(payload, dict) or "error" in payload
    else:
        error = answer.startswith("error")
    if request.symptoms is None:
        return "rejected" if error else "failure"
    herbs, scores = oracle[request]
    if error:
        return "mismatch"
    if payload is None:
        return "served" if answer.split() == list(herbs) else "mismatch"
    expected = [score if digits is None else round(float(score), digits) for score in scores]
    served = payload.get("herbs") == list(herbs) and payload.get("scores") == expected
    return "served" if served else "mismatch"


def tally(plans, answers, oracle: Oracle, digits: Optional[int] = 6):
    """Count every connection's answers; returns (counts, failure messages).

    A connection answered with one ``error: overloaded`` line and then EOF
    was refused at the connection cap; any other short answer list fails.
    """
    counts, failures = Counter(), []
    for plan, lines in zip(plans, answers):
        if lines is None:
            failures.append("a connection hung: still open at the deadline")
        elif len(lines) < len(plan) and lines == [OVERLOADED]:
            counts["refused"] += 1
        elif len(lines) != len(plan):
            failures.append(f"connection answered {len(lines)}/{len(plan)} lines: {lines[:3]!r}")
        else:
            for request, line in zip(plan, lines):
                kind = verdict(request, line, oracle, digits)
                counts[kind] += 1
                if kind in ("mismatch", "failure"):
                    failures.append(f"{kind}: {render(request)!r} -> {line!r}")
    return counts, failures


def answered_exactly(counts: Counter, plans) -> List[str]:
    """Every request served or, when malformed, rejected: nothing shed or refused."""
    requests = [request for plan in plans for request in plan]
    malformed = sum(request.symptoms is None for request in requests)
    expected = Counter(served=len(requests) - malformed, rejected=malformed)
    if +counts == +expected:
        return []
    return [f"answers counted {dict(counts)}, expected {dict(expected)}"]


def rollout_version(model: str, request: Request, answer: str, oracles) -> str:
    """Which published answer a rollout reply is: ``stable``, ``v1``, ``v2``,
    ``either`` (both versions answer alike) or ``failure``."""
    if model == "stable":
        return "stable" if verdict(request, answer, oracles["b"]) == "served" else "failure"
    v1 = verdict(request, answer, oracles["a"]) == "served"
    v2 = verdict(request, answer, oracles["b"]) == "served"
    return "either" if v1 and v2 else "v1" if v1 else "v2" if v2 else "failure"


def rollout_tally(connections: Sequence[Sequence[str]]):
    """Gate one rollout on each connection's answer versions, in request order."""
    counts = Counter(version for versions in connections for version in versions)
    failures = [f"{counts['failure']} failed or wrong answers"] * bool(counts["failure"])
    if not counts["v1"]:
        failures.append("primary never answered v1: the swap was not seen under traffic")
    if not counts["v2"]:
        failures.append("primary never answered v2")
    for index, versions in enumerate(connections):
        if "v2" in versions and "v1" in versions[versions.index("v2") :]:
            failures.append(f"connection {index} saw v1 after v2")
    return counts, failures


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def spawn(*args: str, **popen) -> subprocess.Popen:
    """``python -m repro ARGS`` as a subprocess running this checkout's source."""
    command = [sys.executable, "-m", "repro", *args]
    return subprocess.Popen(command, text=True, env=ENV, cwd=ROOT, **popen)


class Server:
    """A ``repro serve --port 0`` or ``repro shard-worker`` subprocess, listening."""

    def __init__(self, *args: str) -> None:
        self.name = args[0]
        self.process = spawn(*args, "--port", "0", stderr=subprocess.PIPE)
        self.stderr: List[str] = []
        # watchdog: a server that hangs before printing anything would
        # otherwise block this readline loop forever
        watchdog = threading.Timer(120, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stderr:
                self.stderr.append(line)
                match = LISTENING.search(line)
                if match:
                    self.address = (match[1], int(match[2]))
                    break
            else:
                self.process.kill()
                raise RuntimeError(f"{self.name} never listened: {''.join(self.stderr)}")
        finally:
            watchdog.cancel()
        # keep draining stderr so the server never blocks on a full pipe
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)

    def ask(self, line: str) -> str:
        return ask(self.address, line)

    def stop(self) -> List[str]:
        """SIGTERM; the failures: a hang, a non-zero exit or no stats report."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = None
        self.process.wait()
        self._drain.join(10)
        self.process.stderr.close()
        if code is None:
            return [f"{self.name} ignored SIGTERM"]
        tail = "".join(self.stderr[-20:])
        if code != 0:
            return [f"{self.name} exited {code} on SIGTERM:\n{tail}"]
        if "serving stats:" not in tail:
            return [f"{self.name} quit without a stats report:\n{tail}"]
        return []


@contextlib.contextmanager
def running(failures: List[str], *args: str):
    """A started server, SIGTERM-stopped on exit with its failures recorded."""
    server = Server(*args)
    try:
        yield server
    finally:
        failures.extend(server.stop())


def ask(address, line: str) -> str:
    """Send one line on a fresh connection and read one line back."""
    with socket.create_connection(address, timeout=30) as connection:
        connection.sendall((line + "\n").encode("utf-8"))
        with connection.makefile("r", encoding="utf-8") as reader:
            return reader.readline().strip()


def swarm(address, plans: Sequence[Sequence[Request]]):
    """Drive every plan concurrently from one thread: each connection pipelines
    its whole plan at once, then collects one answer line per request.
    A connection still open after 90 s answers None."""
    selector = selectors.DefaultSelector()
    answers: List[Optional[List[str]]] = [None] * len(plans)
    for index, plan in enumerate(plans):
        sock = socket.create_connection(address, timeout=30)
        try:
            sock.sendall("".join(render(request) + "\n" for request in plan).encode("utf-8"))
        except OSError:
            pass  # refused at the connection cap: what it answered is read below
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, [index, b"", []])
    deadline = time.monotonic() + 90
    while selector.get_map() and time.monotonic() < deadline:
        for key, _ in selector.select(timeout=1.0):
            index, pending, lines = state = key.data
            try:
                chunk = key.fileobj.recv(65536)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            *complete, state[1] = (pending + chunk).split(b"\n")
            lines += [line.decode("utf-8").strip() for line in complete]
            if not chunk or len(lines) >= len(plans[index]):  # done, or EOF
                answers[index] = lines
                selector.unregister(key.fileobj)
                key.fileobj.close()
    for key in selector.get_map().values():
        key.fileobj.close()
    selector.close()
    return answers


def rotations(stream: Sequence[Request], connections: int, length: int, step: int):
    """One plan per connection: ``length`` requests of the stream, cyclically,
    each plan starting ``step`` requests after the one before."""
    return [
        [stream[(plan * step + turn) % len(stream)] for turn in range(length)]
        for plan in range(connections)
    ]


def wait_until(condition, timeout_s: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class Fixture(NamedTuple):
    workdir: Path
    checkpoints: Dict[str, Path]
    stream: List[Request]
    oracles: Dict[str, Oracle]


def prepare(workdir: Path) -> Fixture:
    """Train both smoke checkpoints, then build the stream and their oracles."""
    from repro.api import Pipeline

    checkpoints = {"a": workdir / "a.npz", "b": workdir / "b.npz"}
    train = ("train", "--model", "SMGCN", "--scale", "smoke", "--epochs", "1")
    trainers = [
        spawn(*train, "--seed", str(seed), "--checkpoint", str(path), stdout=subprocess.DEVNULL)
        for seed, path in zip((0, 7), checkpoints.values())
    ]
    if any(trainer.wait() != 0 for trainer in trainers):
        raise RuntimeError("repro train failed")
    pipeline = Pipeline.load(checkpoints["a"])
    vocab = pipeline.symptom_vocab
    stream = request_stream([vocab.token_of(i) for i in range(len(vocab))])
    pipeline.close()
    oracles = {label: build_oracle(path, stream) for label, path in checkpoints.items()}
    return Fixture(workdir, checkpoints, stream, oracles)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def stdin(fx: Fixture) -> List[str]:
    """The stream through ``repro serve`` on stdin: plain, ``--shards 4 --backend
    threads`` and ``--retrieval approx --candidate-factor 2``.  Every line is
    answered exactly and the server exits 0."""
    failures: List[str] = []
    configs = (
        (),
        ("--shards", "4", "--backend", "threads"),
        ("--retrieval", "approx", "--candidate-factor", "2"),
    )
    serve = ("serve", "--checkpoint", str(fx.checkpoints["a"]), "--k", str(K))
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    processes = [spawn(*serve, *config, **pipes) for config in configs]
    text = "".join(render(request) + "\n" for request in fx.stream)
    for config, process in zip(configs, processes):
        out, err = process.communicate(text, timeout=120)
        counts, found = tally([fx.stream], [out.splitlines()], fx.oracles["a"])
        found += answered_exactly(counts, [fx.stream])
        if process.returncode != 0:
            found.append(f"exited {process.returncode}: {err}")
        label = " ".join(config) or "plain"
        topology = [line.strip() for line in err.splitlines() if "topology" in line]
        print(f"stdin {label}: {dict(counts)}; {topology}")
        failures += [f"{label}: {failure}" for failure in found]
    return failures


def serving(fx: Fixture) -> List[str]:
    """Ten concurrent TCP clients: every answer exact, and the ``stats``
    control line starts ``requests=``."""
    failures: List[str] = []
    plans = rotations(fx.stream, connections=10, length=8, step=8)
    serve = ("serve", "--checkpoint", str(fx.checkpoints["a"]), "--k", str(K))
    with running(failures, *serve, "--max-wait-ms", "20") as server:
        counts, found = tally(plans, swarm(server.address, plans), fx.oracles["a"])
        failures += found + answered_exactly(counts, plans)
        stats_line = server.ask("stats")
        print(f"serving: {dict(counts)} over {len(plans)} connections; stats: {stats_line}")
        if not stats_line.startswith("requests="):
            failures.append(f"stats control line malformed: {stats_line!r}")
    return failures


def overload(fx: Fixture) -> List[str]:
    """200 connections pipeline 5 requests each past ``--max-pending 8``:
    nothing hangs, something is served and something shed, accepted answers
    are exact, the server answers afterwards, and its ``rejected_*``
    counters add up to the sheds and refusals the clients saw."""
    failures: List[str] = []
    plans = rotations(fx.stream, connections=200, length=5, step=1)
    serve = ("serve", "--checkpoint", str(fx.checkpoints["a"]), "--k", str(K))
    admission = ("--max-pending", "8", "--client-quota", "4", "--max-wait-ms", "5")
    with running(failures, *serve, *admission) as server:
        started = time.monotonic()
        counts, found = tally(plans, swarm(server.address, plans), fx.oracles["a"])
        print(f"overload: {dict(counts)} in {time.monotonic() - started:.1f}s")
        failures += found  # a hang, a wrong answer or a short answer list
        if not counts["served"]:
            failures.append("nothing was served: the flood found no capacity at all")
        if not counts["shed"] + counts["refused"]:
            failures.append("nothing was shed: the flood did not exceed the pending budget")
        probe = next(request for request in fx.stream if request.symptoms is not None)
        if verdict(probe, server.ask(render(probe)), fx.oracles["a"]) != "served":
            failures.append("the server answered wrongly after the flood")
        stats_line = server.ask("stats")
        print(f"overload stats: {stats_line}")
        counters = dict(part.split("=", 1) for part in stats_line.split() if "=" in part)
        reported = int(counters["rejected_overload"]) + int(counters["rejected_quota"])
        if reported != counts["shed"] + counts["refused"]:
            failures.append(
                f"stats report {reported} rejections; clients saw "
                f"{counts['shed']} shed and {counts['refused']} refused"
            )
    return failures


def _rollout_client(address, requests, versions: List[str], oracles, stop) -> None:
    """Alternate primary/stable requests on one connection until ``stop``."""
    try:
        with socket.create_connection(address, timeout=30) as connection:
            with connection.makefile("r", encoding="utf-8") as reader:
                for turn in itertools.count():
                    if stop.is_set():
                        return
                    model, request = ("primary", "stable")[turn % 2], requests[turn % len(requests)]
                    connection.sendall((render(request, model) + "\n").encode("utf-8"))
                    answer = reader.readline().strip()
                    versions.append(rollout_version(model, request, answer, oracles))
                    if versions[-1] == "failure":
                        print(f"FAILED model={model} {render(request)!r}: {answer!r}")
    except OSError as error:
        print(f"rollout client connection failed: {error}")
        versions.append("failure")


def rollout(fx: Fixture) -> List[str]:
    """Eight clients alternate a two-entry catalog; ``reload`` rolls primary
    to stable's checkpoint once every client has seen primary's v1.  Gates:
    no failed request, stable never drifts, each connection sees v1, then
    v2, never v1 again; ``models`` reports versions 2/1, nothing draining
    and (sharded) 1..2 cached index versions.  Runs plain and with
    ``--shards 2 --backend threads --workers 2``."""
    failures: List[str] = []
    valid = [request for request in fx.stream if request.symptoms is not None]
    plans = rotations(valid, connections=8, length=len(valid), step=5)
    catalog = (f"primary={fx.checkpoints['a']}", f"stable={fx.checkpoints['b']}")
    serve = ("serve", "--model", catalog[0], "--model", catalog[1], "--k", str(K))
    for config in ((), ("--shards", "2", "--backend", "threads", "--workers", "2")):
        found: List[str] = []
        label = " ".join(config) or "plain"
        with running(found, *serve, "--max-wait-ms", "10", *config) as server:
            stop = threading.Event()
            connections: List[List[str]] = [[] for _ in plans]
            clients = [
                threading.Thread(
                    target=_rollout_client,
                    args=(server.address, plan, versions, fx.oracles, stop),
                )
                for plan, versions in zip(plans, connections)
            ]
            for client in clients:
                client.start()
            try:
                if not wait_until(lambda: all("v1" in v for v in connections)):
                    found.append("some client never saw primary's v1")
                reply = server.ask(f"reload primary {fx.checkpoints['b']}")
                if not reply.startswith("ok: primary now v2"):
                    found.append(f"reload failed: {reply!r}")
                elif not wait_until(lambda: all(v.count("v2") >= 3 for v in connections)):
                    found.append("some client never saw primary's v2 three times")
            finally:
                stop.set()
                for client in clients:
                    client.join(60)
            if any(client.is_alive() for client in clients):
                found.append("a client never finished")
            counts, tallied = rollout_tally(connections)
            found += tallied
            records = {record["name"]: record for record in json.loads(server.ask("models"))}
            if (records["primary"]["version"], records["stable"]["version"]) != (2, 1):
                found.append(f"catalog versions wrong after rollout: {records}")
            for name, record in records.items():
                cached = record.get("cached_index_versions", 0)
                if cached > 2 or (config and cached < 1):
                    found.append(f"{name} caches {cached} shard-index versions; expected 1..2")
                if record["draining"] or record.get("draining_index_versions", 0):
                    found.append(f"{name} still drains after the clients stopped: {record}")
            cache = {name: entry.get("cached_index_versions", 0) for name, entry in records.items()}
            print(f"rollout {label}: {dict(counts)}; index cache {cache}")
        failures += [f"{label}: {failure}" for failure in found]
    return failures


def batch(fx: Fixture) -> List[str]:
    """10k records through ``repro batch --shards 2 --backend threads``: the
    uninterrupted baseline is exact; a run SIGKILLed twice at random
    progress and finished with ``--resume`` writes the baseline's
    bytes, every id once, in input order."""
    rng, kills = random.Random(SEED), 2
    requests = [fx.stream[i % len(fx.stream)] for i in range(10_000)]
    ids = [f"rx-{i:06d}" if request.symptoms else None for i, request in enumerate(requests)]
    corpus, baseline, target = (fx.workdir / f"{name}.jsonl" for name in ("in", "base", "out"))
    with open(corpus, "w", encoding="utf-8") as stream:
        for record_id, request in zip(ids, requests):
            if record_id is None:
                stream.write(request.raw + "\n")  # a malformed record answers id null
            else:
                record = {"id": record_id, "symptoms": list(request.symptoms), "k": request.k}
                record = {key: value for key, value in record.items() if value is not None}
                stream.write(json.dumps(record) + "\n")
    scoring = ("--checkpoint", str(fx.checkpoints["a"]), "--k", str(K), "--window", "64")
    engine = ("--shards", "2", "--backend", "threads", "--workers", "2")

    def run(output: Path, resume: bool) -> subprocess.Popen:
        flags = ("--output", str(output), *["--resume"] * resume)
        return spawn("batch", str(corpus), *scoring, *engine, *flags)

    started = time.monotonic()
    if run(baseline, False).wait() != 0:
        return ["the uninterrupted run failed"]
    expected = baseline.read_bytes()
    counts, failures = tally([requests], [expected.decode().splitlines()], fx.oracles["a"], None)
    failures += answered_exactly(counts, [requests])
    print(f"batch baseline: {dict(counts)} in {time.monotonic() - started:.1f}s")

    landed = 0
    for attempt in range(kills + 1):
        process = run(target, attempt > 0)
        if attempt < kills:
            # kill once the output passes a random fraction of the baseline
            threshold = int(rng.uniform(0.05, 0.8) * len(expected))
            if not wait_until(
                lambda: process.poll() is not None
                or (target.exists() and target.stat().st_size >= threshold),
                timeout_s=300,
            ):
                process.kill()
                return failures + ["a run made no visible progress within 300 s"]
            if process.poll() is None:
                process.kill()  # SIGKILL
                landed += 1
                print(f"kill {landed} landed at >= {threshold} bytes (run {attempt + 1})")
        if process.wait(timeout=600) not in (0, -signal.SIGKILL):
            return failures + [f"run {attempt + 1} exited {process.returncode}"]
    if process.returncode != 0:
        failures.append(f"the final --resume run exited {process.returncode}")
    if not landed:
        failures.append("no SIGKILL landed mid-run; nothing was tested")
    final = target.read_bytes()
    if final != expected:
        failures.append(f"resumed output differs ({len(final)} vs {len(expected)} bytes)")
    got_ids = [json.loads(line)["id"] for line in final.decode().splitlines()]
    if got_ids != ids:
        failures.append(f"ids lost, repeated or reordered: {len(got_ids)} lines, {len(ids)} ids")
    print(f"batch: {landed} SIGKILLs, {kills + 1} runs, {len(final)} bytes")
    return failures


def distributed(fx: Optional[Fixture]) -> List[str]:
    """A synthetic 3,000-herb, 4-shard index scored through two ``repro
    shard-worker`` subprocesses: scores and top-k bit-identical to the
    serial backend, both workers alive, and ``stats`` naming
    ``backend=shard-worker`` and its ``snapshot=``."""
    import numpy as np

    from repro.inference import NumpyBackend, RemoteBackend, ShardedHerbIndex
    from repro.models.base import SCORING_BLOCK, _pad_rows

    failures: List[str] = []
    rows, k = 50, 15
    rng = np.random.default_rng(7)
    index = ShardedHerbIndex(rng.normal(size=(3_000, 32)), num_shards=4)
    syndrome = _pad_rows(rng.normal(size=(rows, 32)), SCORING_BLOCK)
    reference = (index.score(syndrome, backend=NumpyBackend()), *index.topk(syndrome, rows, k))
    with contextlib.ExitStack() as stack:
        workers = [stack.enter_context(running(failures, "shard-worker")) for _ in range(2)]
        addresses = [f"{host}:{port}" for host, port in (worker.address for worker in workers)]
        remote = RemoteBackend(worker_addrs=addresses, timeout_s=30.0)
        try:
            scores = index.score(syndrome, backend=remote)
            got = (scores, *index.topk(syndrome, rows, k, backend=remote))
            for name, mine, theirs in zip(("scores", "top-k ids", "top-k scores"), got, reference):
                if not np.array_equal(mine, theirs):
                    failures.append(f"remote {name} diverged from the serial backend")
            status = remote.status()
            if status["workers_alive"] != len(workers):
                failures.append(f"liveness reported {status}")
        finally:
            remote.close()
        for address, worker in zip(addresses, workers):
            stats_line = worker.ask("stats")
            print(f"shard worker {address}: {stats_line}")
            if "backend=shard-worker" not in stats_line or "snapshot=" not in stats_line:
                failures.append(f"worker stats line lacks its backend or snapshot: {stats_line!r}")
    return failures


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (stdin, serving, overload, rollout, batch, distributed)
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO", help=f"any of {', '.join(SCENARIOS)}"
    )
    names = parser.parse_args(argv).scenarios or list(SCENARIOS)
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")
    failed = []
    with tempfile.TemporaryDirectory(prefix="smoke-") as workdir:
        started = time.monotonic()
        fixture = prepare(Path(workdir)) if set(names) - {"distributed"} else None
        print(f"checkpoints, stream and oracles ready in {time.monotonic() - started:.1f}s")
        for name in names:
            started = time.monotonic()
            try:
                failures = SCENARIOS[name](fixture)
            except Exception:
                failures = [traceback.format_exc()]
            for failure in failures:
                print(f"FAIL {name}: {failure}")
            elapsed = time.monotonic() - started
            print(f"{name}: {'FAILED' if failures else 'passed'} in {elapsed:.1f}s")
            failed += [name] * bool(failures)
    print(f"smoke: {len(names) - len(failed)} of {len(names)} scenarios passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
