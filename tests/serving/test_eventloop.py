"""Event-loop front-end tests: line reassembly on the wire, bit-identity with
the scoring stack, and admission control.

The wire tests send awkward byte streams (trickled one byte at a time, split
across TCP segments, EOF mid-line, oversized lines, invalid UTF-8) and assert
the answers a line-at-a-time reader would give — the event loop's reassembly
buffer must be invisible on the wire.  The admission tests use stub handlers
(echo, or gated on a ``threading.Event``) so shedding, quotas, idle reaping
and slow-client drops are exercised deterministically and fast.
"""

import json
import socket
import threading
import time

import pytest

from repro.serving import (
    LINE_TOO_LONG_RESPONSE,
    MAX_LINE_BYTES,
    OVERLOADED_RESPONSE,
    AdmissionController,
    AsyncSocketServer,
    MicroBatcher,
    RecommendationHandler,
    ServerStats,
)

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def echo_handler(lines):
    return [f"ok {line}" for line in lines]


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def sequential_answer(pipeline, line, k=10):
    return " ".join(pipeline.decode_herbs(pipeline.recommend(line, k=k)))


class GatedHandler:
    """Blocks every batch on an event — makes 'scoring is busy' a test knob."""

    def __init__(self):
        self.gate = threading.Event()

    def __call__(self, lines):
        assert self.gate.wait(30), "test gate never opened"
        return [f"ok {line}" for line in lines]


@pytest.fixture()
def echo_stack():
    """An echo server on the event-loop front-end."""
    stats = ServerStats()
    batcher = MicroBatcher(echo_handler, max_batch_size=16, max_wait_ms=2.0, stats=stats)
    server = AsyncSocketServer(batcher, stats=stats).start()
    yield server, stats
    server.stop()
    batcher.close()


def make_async(handler, admission=None, control=None, **batcher_kwargs):
    stats = ServerStats()
    batcher_kwargs.setdefault("max_batch_size", 16)
    batcher_kwargs.setdefault("max_wait_ms", 2.0)
    batcher = MicroBatcher(handler, stats=stats, **batcher_kwargs)
    server = AsyncSocketServer(
        batcher, stats=stats, control=control, admission=admission
    ).start()
    return server, batcher, stats


# ----------------------------------------------------------------------
# Wire behaviour: reassembly must be invisible to the client
# ----------------------------------------------------------------------


class TestLineReassembly:
    def test_request_trickled_one_byte_at_a_time(self, echo_stack):
        server, _ = echo_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            for byte in b"hello event loop\n":
                connection.sendall(bytes([byte]))
            assert reader.readline().strip() == "ok hello event loop"

    def test_pipelined_requests_split_across_segments(self, echo_stack):
        server, _ = echo_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"alpha\nbe")
            time.sleep(0.05)  # force the split to land in separate recv()s
            connection.sendall(b"ta\ngamma\n")
            assert [reader.readline().strip() for _ in range(3)] == [
                "ok alpha",
                "ok beta",
                "ok gamma",
            ]

    def test_eof_with_trailing_partial_line_still_answered(self, echo_stack):
        server, _ = echo_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"no trailing newline")
            connection.shutdown(socket.SHUT_WR)
            assert reader.readline().strip() == "ok no trailing newline"
            assert reader.readline() == ""

    def test_oversized_line_answered_and_closed(self, echo_stack):
        server, _ = echo_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"b" * (MAX_LINE_BYTES + 1))
            assert reader.readline().strip() == LINE_TOO_LONG_RESPONSE
            assert reader.readline() == ""

    def test_line_exactly_at_the_bound_is_served(self, echo_stack):
        server, _ = echo_stack
        content = b"q" + b" " * (MAX_LINE_BYTES - 2)  # MAX - 1 bytes of content
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(content + b"\n")
            assert reader.readline().strip() == "ok q"

    def test_custom_line_bound_is_enforced(self):
        stats = ServerStats()
        batcher = MicroBatcher(echo_handler, max_wait_ms=2.0, stats=stats)
        try:
            with AsyncSocketServer(batcher, stats=stats, max_line_bytes=64) as server:
                with socket.create_connection(server.address, timeout=10) as connection:
                    reader = connection.makefile("r", encoding="utf-8")
                    connection.sendall(b"q" * 63 + b"\n")
                    assert reader.readline().strip() == "ok " + "q" * 63
                    connection.sendall(b"q" * 64 + b"\n")
                    assert reader.readline().strip() == LINE_TOO_LONG_RESPONSE
                    assert reader.readline() == ""
        finally:
            batcher.close()

    def test_unbounded_line_reassembled_across_segments(self):
        # the newline search resumes where the last segment ended; a newline
        # opening a fresh segment and a pipelined line after it must both land
        sizes = lambda lines: [f"ok {len(line)}" for line in lines]  # noqa: E731
        stats = ServerStats()
        batcher = MicroBatcher(sizes, max_wait_ms=2.0, stats=stats)
        chunk = b"z" * MAX_LINE_BYTES
        try:
            with AsyncSocketServer(batcher, stats=stats, max_line_bytes=None) as server:
                with socket.create_connection(server.address, timeout=10) as connection:
                    reader = connection.makefile("r", encoding="utf-8")
                    for _ in range(3):
                        connection.sendall(chunk)
                        time.sleep(0.02)  # land each chunk in its own recv()s
                    connection.sendall(b"\nabc\n")
                    assert reader.readline().strip() == f"ok {3 * MAX_LINE_BYTES}"
                    assert reader.readline().strip() == "ok 3"
        finally:
            batcher.close()

    def test_invalid_utf8_answered_and_closed(self, echo_stack):
        server, _ = echo_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"\xff\xfe\n")
            assert reader.readline().strip() == "error: request is not valid UTF-8"
            assert reader.readline() == ""

    def test_blank_line_closes_connection_but_not_server(self, echo_stack):
        server, _ = echo_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            connection.sendall(b"\n")
            assert connection.makefile("r", encoding="utf-8").readline() == ""
        with socket.create_connection(server.address, timeout=10) as connection:
            connection.sendall(b"still alive\n")
            reader = connection.makefile("r", encoding="utf-8")
            assert reader.readline().strip() == "ok still alive"


# ----------------------------------------------------------------------
# Bit-identity against the real scoring stack
# ----------------------------------------------------------------------


#: Parametrizes a test over the exact oracle and the approx retrieval tier.
BOTH_RETRIEVALS = pytest.mark.parametrize(
    "serving_pipeline", ["exact", "approx"], indirect=True, ids=["exact", "approx"]
)


class TestAsyncScoringParity:
    QUERIES = ["0 3", "1 2 4", "k=2 0 3", "2", "0 1 2 3", "no_such_symptom"]

    @pytest.fixture()
    def async_stack(self, serving_pipeline):
        stats = ServerStats()
        handler = RecommendationHandler(serving_pipeline, k=5, stats=stats)
        batcher = MicroBatcher(handler, max_batch_size=64, max_wait_ms=10.0, stats=stats)
        server = AsyncSocketServer(batcher, stats=stats).start()
        stats.set_backend_info(serving_pipeline.engine.backend_status)
        yield server, stats
        stats.set_backend_info(None)
        server.stop()
        batcher.close()

    def _ask(self, address, lines):
        with socket.create_connection(address, timeout=30) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(("".join(line + "\n" for line in lines)).encode("utf-8"))
            return [reader.readline().strip() for _ in lines]

    def test_responses_bit_identical_to_the_handler(self, pipeline, async_stack):
        async_server, _ = async_stack
        async_answers = self._ask(async_server.address, self.QUERIES)
        assert async_answers == RecommendationHandler(pipeline, k=5)(self.QUERIES)
        assert async_answers[0] == sequential_answer(pipeline, "0 3", k=5)
        assert async_answers[2] == sequential_answer(pipeline, "0 3", k=2)
        assert async_answers[5].startswith("error: unknown symptom token")

    @BOTH_RETRIEVALS
    def test_concurrent_clients_bit_identical_to_sequential(
        self, serving_pipeline, async_stack
    ):
        pipeline = serving_pipeline  # baseline through the same retrieval mode
        server, stats = async_stack
        queries = ["0 3", "1 2", "2 4 5", "0 1 2", "3", "1 4", "0 2 5", "2 3 4"]
        num_clients, rounds = 8, 3
        plans = [
            [queries[(client + round_) % len(queries)] for round_ in range(rounds)]
            for client in range(num_clients)
        ]
        barrier = threading.Barrier(num_clients)
        responses = [None] * num_clients

        def client(index):
            with socket.create_connection(server.address, timeout=30) as connection:
                reader = connection.makefile("r", encoding="utf-8")
                answers = []
                for line in plans[index]:
                    barrier.wait(timeout=30)
                    connection.sendall((line + "\n").encode("utf-8"))
                    answers.append(reader.readline().strip())
                responses[index] = answers

        threads = [threading.Thread(target=client, args=(i,)) for i in range(num_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)

        expected = {query: sequential_answer(pipeline, query, k=5) for query in queries}
        for plan, answers in zip(plans, responses):
            assert answers is not None, "a client never finished"
            assert answers == [expected[query] for query in plan]
        assert stats.requests == num_clients * rounds
        assert stats.mean_batch_size > 1, "burst load must actually aggregate"

    def test_json_request_parity(self, pipeline, async_stack):
        server, _ = async_stack
        request = json.dumps({"symptoms": "0 3", "k": 4})
        [answer] = self._ask(server.address, [request])
        payload = json.loads(answer)
        assert payload["herbs"] == sequential_answer(pipeline, "0 3", k=4).split()

    def test_stats_control_line_reports_gauge_and_percentiles(self, async_stack):
        server, _ = async_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"0 3\n")
            assert reader.readline().strip().startswith("herb_")
            # a pipelined stats probe races the scoring it follows (it runs
            # on the side executor): ask after the answer arrives so the
            # counters are settled
            connection.sendall(b"stats\n")
            stats_line = reader.readline().strip()
        assert stats_line.startswith("requests=1 ")
        assert "p99_ms=" in stats_line
        assert "connections=1" in stats_line
        assert "rejected_overload=0" in stats_line


# ----------------------------------------------------------------------
# Admission control (async-only behaviour)
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_connection_cap_refuses_with_explicit_line(self):
        admission = AdmissionController(max_connections=2)
        server, batcher, stats = make_async(echo_handler, admission=admission)
        try:
            first = socket.create_connection(server.address, timeout=10)
            second = socket.create_connection(server.address, timeout=10)
            readers = [c.makefile("r", encoding="utf-8") for c in (first, second)]
            for connection, reader in zip((first, second), readers):
                connection.sendall(b"hi\n")
                assert reader.readline().strip() == "ok hi"
            # both admitted slots are taken: the third client is accepted,
            # told why, and closed — not silently dropped
            with socket.create_connection(server.address, timeout=10) as third:
                reader = third.makefile("r", encoding="utf-8")
                assert reader.readline().strip() == OVERLOADED_RESPONSE
                assert reader.readline() == ""
            assert stats.rejected_overload >= 1
            first.close()
            readers[0].close()

            # the freed slot becomes usable once the loop notices the close
            def can_connect():
                with socket.create_connection(server.address, timeout=10) as probe:
                    probe.sendall(b"again\n")
                    return probe.makefile("r", encoding="utf-8").readline().strip() == "ok again"

            assert wait_until(can_connect), "closed connection never freed its slot"
            second.close()
            readers[1].close()
        finally:
            server.stop()
            batcher.close()

    def test_pending_queue_sheds_fast_while_scoring_is_stuck(self):
        handler = GatedHandler()
        admission = AdmissionController(max_pending=2, client_quota=10)
        server, batcher, stats = make_async(handler, admission=admission)
        try:
            filler = socket.create_connection(server.address, timeout=10)
            filler.sendall(b"one\ntwo\n")  # fills the entire pending budget
            assert wait_until(lambda: server.admission.pending == 2)

            started = time.monotonic()
            with socket.create_connection(server.address, timeout=10) as victim:
                victim.sendall(b"three\n")
                answer = victim.makefile("r", encoding="utf-8").readline().strip()
            elapsed = time.monotonic() - started
            # the whole point of shedding: rejection must not wait for scoring
            assert answer == OVERLOADED_RESPONSE
            assert elapsed < 2.0, f"shed response took {elapsed:.1f}s"
            assert stats.rejected_overload == 1

            handler.gate.set()
            reader = filler.makefile("r", encoding="utf-8")
            assert reader.readline().strip() == "ok one"
            assert reader.readline().strip() == "ok two"
            filler.close()
        finally:
            handler.gate.set()
            server.stop()
            batcher.close()

    def test_client_quota_sheds_in_request_order(self):
        handler = GatedHandler()
        admission = AdmissionController(client_quota=2, max_pending=100)
        server, batcher, stats = make_async(handler, admission=admission)
        try:
            with socket.create_connection(server.address, timeout=10) as connection:
                connection.sendall(b"a\nb\nc\nd\ne\n")  # quota admits 2, sheds 3
                assert wait_until(lambda: stats.rejected_quota == 3)
                handler.gate.set()
                reader = connection.makefile("r", encoding="utf-8")
                answers = [reader.readline().strip() for _ in range(5)]
            # responses come back in request order: admitted first two, then
            # the shed tail — line N of output still answers line N of input
            assert answers == ["ok a", "ok b"] + [OVERLOADED_RESPONSE] * 3
            assert stats.rejected_quota == 3
        finally:
            handler.gate.set()
            server.stop()
            batcher.close()

    def test_idle_connections_reaped_but_busy_ones_spared(self):
        handler = GatedHandler()
        admission = AdmissionController(idle_timeout_s=0.3)
        server, batcher, stats = make_async(handler, admission=admission)
        try:
            busy = socket.create_connection(server.address, timeout=10)
            busy.sendall(b"working\n")  # outstanding response: must be spared
            idler = socket.create_connection(server.address, timeout=10)
            assert idler.makefile("r", encoding="utf-8").readline() == "", (
                "idle connection was not reaped"
            )
            # the client can see the FIN before the loop thread records the
            # counter — poll rather than assert the instantaneous value
            assert wait_until(lambda: stats.idle_closed == 1)
            handler.gate.set()
            assert busy.makefile("r", encoding="utf-8").readline().strip() == "ok working"
            busy.close()
            idler.close()
        finally:
            handler.gate.set()
            server.stop()
            batcher.close()

    def test_slow_reader_does_not_stall_other_clients(self):
        big_handler = lambda lines: ["x" * 100_000 for _ in lines]  # noqa: E731
        server, batcher, _ = make_async(big_handler)
        try:
            slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(server.address)
            slow.sendall(b"flood\n" * 8)  # ~800 KB of responses it never reads

            started = time.monotonic()
            with socket.create_connection(server.address, timeout=10) as other:
                other.sendall(b"me too\n")
                answer = other.makefile("r", encoding="utf-8").readline().strip()
            elapsed = time.monotonic() - started
            assert answer == "x" * 100_000
            assert elapsed < 5.0, f"a slow reader stalled another client {elapsed:.1f}s"
            slow.close()
        finally:
            server.stop()
            batcher.close()

    def test_never_draining_client_is_dropped(self):
        # each response fits the outbuf cap (the cap's contract); the unread
        # *pile-up* of responses is what overflows it
        big_handler = lambda lines: ["y" * 32_000 for _ in lines]  # noqa: E731
        admission = AdmissionController(max_outbuf_bytes=1 << 16, client_quota=1000)
        server, batcher, _ = make_async(big_handler, admission=admission)
        try:
            slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(server.address)
            # 256 responses x 32 KB = 8 MB >> kernel buffers + the 64 KiB cap
            slow.sendall(b"drown\n" * 256)
            assert wait_until(lambda: server.slow_clients_closed >= 1), (
                "server never dropped the unread client"
            )
            slow.close()
            # the loop survived the drop and still serves
            with socket.create_connection(server.address, timeout=10) as other:
                other.sendall(b"probe\n")
                assert other.makefile("r", encoding="utf-8").readline().strip() == "y" * 32_000
        finally:
            server.stop()
            batcher.close()


    def test_unbounded_outbuf_keeps_a_late_reader(self):
        # the same pile-up that drops a client under a cap is delivered in
        # full, in order, once the cap is disabled
        big_handler = lambda lines: [line + "y" * 32_000 for line in lines]  # noqa: E731
        admission = AdmissionController(max_outbuf_bytes=None, client_quota=1000)
        server, batcher, _ = make_async(big_handler, admission=admission)
        try:
            late = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            late.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            late.settimeout(10)
            late.connect(server.address)
            late.sendall(b"".join(f"{i}\n".encode() for i in range(256)))
            time.sleep(0.5)  # let the unread responses pile up server-side
            reader = late.makefile("r", encoding="utf-8")
            answers = [reader.readline().strip() for _ in range(256)]
            assert answers == [f"{i}" + "y" * 32_000 for i in range(256)]
            assert server.slow_clients_closed == 0
            late.close()
        finally:
            server.stop()
            batcher.close()

# ----------------------------------------------------------------------
# Control lines and lifecycle on the event loop
# ----------------------------------------------------------------------


class TestControlAndLifecycle:
    def test_control_lines_answered_while_scoring_is_stuck(self):
        handler = GatedHandler()
        control = lambda line: "catalog: none" if line == "models" else None  # noqa: E731
        server, batcher, _ = make_async(handler, control=control)
        try:
            stuck = socket.create_connection(server.address, timeout=10)
            stuck.sendall(b"blocked request\n")
            # a second client's control line must not queue behind scoring:
            # control runs on the side executor, not the batcher thread
            started = time.monotonic()
            with socket.create_connection(server.address, timeout=10) as connection:
                connection.sendall(b"models\n")
                answer = connection.makefile("r", encoding="utf-8").readline().strip()
            elapsed = time.monotonic() - started
            assert answer == "catalog: none"
            assert elapsed < 2.0, f"control line waited {elapsed:.1f}s on scoring"
            handler.gate.set()
            assert stuck.makefile("r", encoding="utf-8").readline().strip() == "ok blocked request"
            stuck.close()
        finally:
            handler.gate.set()
            server.stop()
            batcher.close()

    def test_unhandled_control_verb_falls_back_to_scoring(self):
        control = lambda line: None  # noqa: E731 — "not a control line after all"
        server, batcher, _ = make_async(echo_handler, control=control)
        try:
            with socket.create_connection(server.address, timeout=10) as connection:
                connection.sendall(b"models extra operand\n")
                reader = connection.makefile("r", encoding="utf-8")
                assert reader.readline().strip() == "ok models extra operand"
        finally:
            server.stop()
            batcher.close()

    def test_control_response_ordered_behind_earlier_request(self):
        handler = GatedHandler()
        control = lambda line: "catalog: none" if line == "models" else None  # noqa: E731
        server, batcher, _ = make_async(handler, control=control)
        try:
            with socket.create_connection(server.address, timeout=10) as connection:
                connection.sendall(b"first\nmodels\n")
                connection.settimeout(0.5)
                # the control answer is ready, but slot order holds it behind
                # the gated scoring answer
                with pytest.raises(socket.timeout):
                    connection.recv(1)
                handler.gate.set()
                connection.settimeout(10)
                reader = connection.makefile("r", encoding="utf-8")
                assert reader.readline().strip() == "ok first"
                assert reader.readline().strip() == "catalog: none"
        finally:
            handler.gate.set()
            server.stop()
            batcher.close()

    def test_stop_is_prompt(self):
        server, batcher, _ = make_async(echo_handler)
        with socket.create_connection(server.address, timeout=10) as connection:
            connection.sendall(b"warm\n")
            assert connection.makefile("r", encoding="utf-8").readline().strip() == "ok warm"
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        batcher.close()
        assert elapsed < 2.0, f"stop() took {elapsed:.1f}s"
        assert not server._thread.is_alive()

    def test_stop_refuses_new_connections(self):
        server, batcher, _ = make_async(echo_handler)
        address = server.address
        server.stop()
        batcher.close()
        try:
            with socket.create_connection(address, timeout=2) as connection:
                connection.sendall(b"anyone\n")
                line = connection.makefile("r", encoding="utf-8").readline().strip()
                assert line in ("", OVERLOADED_RESPONSE)
        except OSError:
            pass  # refused outright — also fine

    def test_admission_controller_validates_parameters(self):
        for bad in (
            {"max_connections": 0},
            {"max_pending": -1},
            {"client_quota": 0},
            {"idle_timeout_s": -1.0},
            {"max_outbuf_bytes": 0},
        ):
            with pytest.raises(ValueError):
                AdmissionController(**bad)
        assert AdmissionController(idle_timeout_s=0).idle_timeout_s is None
        assert AdmissionController(max_outbuf_bytes=None).max_outbuf_bytes is None

    def test_max_line_bytes_validated(self):
        batcher = MicroBatcher(echo_handler)
        try:
            for bad in (0, -1):
                with pytest.raises(ValueError, match="max_line_bytes"):
                    AsyncSocketServer(batcher, max_line_bytes=bad)
        finally:
            batcher.close()
