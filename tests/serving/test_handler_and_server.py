"""Serving stack tests: protocol handler isolation and socket end-to-end.

The socket test drives N concurrent client threads against a real
:class:`~repro.serving.AsyncSocketServer` and asserts every response is
bit-identical to the sequential ``pipeline.recommend`` baseline — the
determinism guarantee the fixed-block scoring path provides — and that burst
load actually aggregated (``mean_batch_size > 1``).
"""

import socket
import threading

import pytest

from repro.serving import (
    LINE_TOO_LONG_RESPONSE,
    MAX_LINE_BYTES,
    AsyncSocketServer,
    MicroBatcher,
    RecommendationHandler,
    ServerStats,
    serve_lines,
)


def sequential_answer(pipeline, line, k=10):
    """The single-request baseline: what `repro predict` would print."""
    return " ".join(pipeline.decode_herbs(pipeline.recommend(line, k=k)))


class TestRecommendationHandler:
    def test_batch_matches_sequential(self, pipeline):
        handler = RecommendationHandler(pipeline, k=5)
        lines = ["0 3", "1 2 4", "2", "0 1 2 3"]
        assert handler(lines) == [sequential_answer(pipeline, line, k=5) for line in lines]

    def test_bad_token_isolated_from_batchmates(self, pipeline):
        handler = RecommendationHandler(pipeline, k=5)
        responses = handler(["0 3", "no_such_symptom", "1 2"])
        assert responses[0] == sequential_answer(pipeline, "0 3", k=5)
        assert responses[1] == "error: unknown symptom token 'no_such_symptom'"
        assert responses[2] == sequential_answer(pipeline, "1 2", k=5)

    def test_k_prefix_overrides_default(self, pipeline):
        handler = RecommendationHandler(pipeline, k=10)
        responses = handler(["k=2 0 3", "0 3"])
        assert responses[0] == sequential_answer(pipeline, "0 3", k=2)
        assert len(responses[0].split()) == 2
        assert len(responses[1].split()) == 10

    def test_bad_k_prefix_is_an_error_line(self, pipeline):
        handler = RecommendationHandler(pipeline, k=5)
        for bad in ("k=0 0 3", "k=-2 0 3", "k=abc 0 3"):
            assert handler([bad])[0].startswith("error: k must be a positive integer")

    def test_numeric_looking_tokens_int_cannot_read(self, pipeline):
        """``²`` passes ``isdigit`` but not ``int``: a token, and no ``k``."""
        handler = RecommendationHandler(pipeline, k=5)
        assert handler(["k=² 0 3", "k=--1 0 3", "0 ²", "--1"]) == [
            "error: k must be a positive integer, got 'k=²'",
            "error: k must be a positive integer, got 'k=--1'",
            "error: unknown symptom token '²'",
            "error: unknown symptom token '--1'",
        ]
        # what int() reads still parses: non-ASCII decimal digits and -0
        assert handler(["k=٣ -0 ３"]) == [sequential_answer(pipeline, "0 3", k=3)]

    def test_empty_line_is_an_error_line(self, pipeline):
        handler = RecommendationHandler(pipeline, k=5)
        assert handler(["   "])[0] == "error: no symptoms given"

    def test_scoring_failure_retried_per_request(self, pipeline, monkeypatch):
        handler = RecommendationHandler(pipeline, k=5)
        expected = {line: sequential_answer(pipeline, line, k=5) for line in ("0 3", "1 2")}
        real_recommend_ids = pipeline._recommend_ids

        def poisoned_ids(sets, ks):
            if len(sets) > 1:  # the batched call dies; per-request retries survive
                raise RuntimeError("batched scoring exploded")
            return real_recommend_ids(sets, ks)

        monkeypatch.setattr(pipeline, "_recommend_ids", poisoned_ids)
        responses = handler(["0 3", "1 2"])
        assert responses == [expected["0 3"], expected["1 2"]]

    def test_poisoned_request_isolated_in_scoring_fallback(self, pipeline, monkeypatch):
        """Only the request whose scoring fails answers with ``error:``."""
        handler = RecommendationHandler(pipeline, k=5)
        expected = sequential_answer(pipeline, "0 3", k=5)
        real_recommend_ids = pipeline._recommend_ids

        def poisoned_ids(sets, ks):
            if any(set(s) == {1, 2} for s in sets):
                raise RuntimeError("poisoned request")
            return real_recommend_ids(sets, ks)

        monkeypatch.setattr(pipeline, "_recommend_ids", poisoned_ids)
        responses = handler(["0 3", "1 2"])
        assert responses[0] == expected
        assert responses[1] == "error: poisoned request"

    def test_errors_recorded_in_stats(self, pipeline):
        stats = ServerStats()
        handler = RecommendationHandler(pipeline, k=5, stats=stats)
        handler(["0 3", "bogus_token"])
        assert stats.errors == 1

    def test_rejects_non_positive_default_k(self, pipeline):
        with pytest.raises(ValueError):
            RecommendationHandler(pipeline, k=0)


#: Parametrizes a test over the exact oracle and the approx retrieval tier.
BOTH_RETRIEVALS = pytest.mark.parametrize(
    "serving_pipeline", ["exact", "approx"], indirect=True, ids=["exact", "approx"]
)


class TestSocketServer:
    NUM_CLIENTS = 8
    ROUNDS = 3

    @pytest.fixture()
    def serving_stack(self, serving_pipeline):
        stats = ServerStats()
        handler = RecommendationHandler(serving_pipeline, k=5, stats=stats)
        batcher = MicroBatcher(handler, max_batch_size=64, max_wait_ms=25.0, stats=stats)
        server = AsyncSocketServer(batcher, stats=stats).start()
        stats.set_backend_info(serving_pipeline.engine.backend_status)
        yield server, stats
        stats.set_backend_info(None)
        server.stop()
        batcher.close()

    def _client(self, address, lines, out, index, barrier):
        with socket.create_connection(address, timeout=30) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            answers = []
            for line in lines:
                barrier.wait(timeout=30)  # burst: every client fires together
                connection.sendall((line + "\n").encode("utf-8"))
                answers.append(reader.readline().strip())
            out[index] = answers

    @BOTH_RETRIEVALS
    def test_concurrent_clients_bit_identical_to_sequential(
        self, serving_pipeline, serving_stack
    ):
        pipeline = serving_pipeline  # baseline through the same retrieval mode
        server, stats = serving_stack
        queries = ["0 3", "1 2", "2 4 5", "0 1 2", "3", "1 4", "0 2 5", "2 3 4"]
        plans = [
            [queries[(client + round_) % len(queries)] for round_ in range(self.ROUNDS)]
            for client in range(self.NUM_CLIENTS)
        ]
        barrier = threading.Barrier(self.NUM_CLIENTS)
        responses = [None] * self.NUM_CLIENTS
        threads = [
            threading.Thread(
                target=self._client,
                args=(server.address, plans[i], responses, i, barrier),
            )
            for i in range(self.NUM_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)

        expected = {query: sequential_answer(pipeline, query, k=5) for query in queries}
        for plan, answers in zip(plans, responses):
            assert answers is not None, "a client thread never finished"
            assert answers == [expected[query] for query in plan]
        assert stats.requests == self.NUM_CLIENTS * self.ROUNDS
        assert stats.mean_batch_size > 1, "burst load must actually aggregate"

    def test_stats_control_line(self, serving_stack):
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"0 3\n")
            assert reader.readline().strip().startswith("herb_")
            # stats runs on the server's side executor, so a probe pipelined
            # behind a request may read the counters before that request
            # lands: ask once the answer is in
            connection.sendall(b"stats\n")
            stats_line = reader.readline().strip()
        assert stats_line.startswith("requests=1 ")
        assert "mean_batch=" in stats_line

    def test_stats_control_line_reports_backend_topology(self, serving_stack):
        server, stats = serving_stack
        stats.set_backend_info(
            lambda: {"backend": "threads", "shards": 4, "workers": 2, "workers_alive": 2}
        )
        try:
            with socket.create_connection(server.address, timeout=10) as connection:
                reader = connection.makefile("r", encoding="utf-8")
                connection.sendall(b"stats\n")
                stats_line = reader.readline().strip()
        finally:
            stats.set_backend_info(None)
        assert "backend=threads" in stats_line
        assert "shards=4" in stats_line
        assert "workers_alive=2/2" in stats_line

    @pytest.mark.parametrize("serving_pipeline", ["approx"], indirect=True)
    def test_stats_control_line_reports_retrieval_counters(self, serving_stack):
        """The approx tier's counters reach operators through ``stats``."""
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"0 3\n1 2\nstats\n")
            assert reader.readline().strip().startswith("herb_")
            assert reader.readline().strip().startswith("herb_")
            stats_line = reader.readline().strip()
        assert "retrieval=approx" in stats_line
        assert "candidate_factor=2" in stats_line
        assert "approx_requests=" in stats_line
        assert "approx_fallbacks=" in stats_line
        assert "approx_pool_mean=" in stats_line

    def test_stats_control_line_reports_exact_retrieval_by_default(self, serving_stack):
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"stats\n")
            stats_line = reader.readline().strip()
        assert "retrieval=exact" in stats_line
        assert "approx_requests=" not in stats_line

    def test_error_response_keeps_connection_alive(self, serving_stack):
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"totally_bogus\n0 3\n")
            assert reader.readline().strip().startswith("error: unknown symptom token")
            assert reader.readline().strip().startswith("herb_")

    def test_stop_is_prompt_and_joins_loop_thread(self, pipeline):
        """Shutdown must wake the loop parked in select(), not sit out the
        join timeout, and leave no loop thread behind."""
        import time

        batcher = MicroBatcher(RecommendationHandler(pipeline, k=5), max_wait_ms=1.0)
        server = AsyncSocketServer(batcher).start()
        time.sleep(0.05)  # let the loop thread park in select()
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        batcher.close()
        assert elapsed < 2.0, f"stop() stalled {elapsed:.1f}s joining the loop thread"
        assert not server._thread.is_alive()

    def test_stop_refuses_new_connections(self, pipeline):
        stats = ServerStats()
        batcher = MicroBatcher(RecommendationHandler(pipeline, k=5), max_wait_ms=1.0)
        server = AsyncSocketServer(batcher).start()
        address = server.address
        server.stop()
        batcher.close()
        # Either the connect is refused outright, or a race with the kernel's
        # listen backlog lets it establish — in which case it must never be
        # served (EOF instead of a response line).
        try:
            with socket.create_connection(address, timeout=2) as connection:
                connection.sendall(b"0 3\n")
                assert connection.makefile("r", encoding="utf-8").readline() == ""
        except OSError:
            pass

    def test_oversized_request_line_answered_and_closed(self, serving_stack):
        """A client streaming past MAX_LINE_BYTES without a newline gets one
        clear error line and a closed connection, not an OOM."""
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"a" * (MAX_LINE_BYTES + 10))
            assert reader.readline().strip() == LINE_TOO_LONG_RESPONSE
            assert reader.readline() == ""  # EOF: the connection was closed
        # the server itself keeps serving
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"0 3\n")
            assert reader.readline().strip().startswith("herb_")

    def test_request_line_at_the_bound_still_served(self, serving_stack):
        """Content of MAX_LINE_BYTES - 1 bytes (+ newline) is a legal line."""
        server, _ = serving_stack
        line = b"0 3" + b" " * (MAX_LINE_BYTES - 1 - 3) + b"\n"
        assert len(line) == MAX_LINE_BYTES
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(line)
            assert reader.readline().strip().startswith("herb_")

    def test_invalid_utf8_answered_and_closed(self, serving_stack):
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"\xff\xfe broken\n")
            assert reader.readline().strip() == "error: request is not valid UTF-8"
            assert reader.readline() == ""

    def test_connection_gauge_tracks_open_clients(self, serving_stack):
        server, stats = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            # close the reader too: an open makefile() keeps the socket fd
            # alive past the with-block, so the server would never see EOF
            with connection.makefile("r", encoding="utf-8") as reader:
                connection.sendall(b"0 3\n")
                reader.readline()
                assert stats.connections == 1
                assert "connections=1" in stats.to_line()
        deadline = threading.Event()
        for _ in range(100):  # the close is handled on the server thread
            if stats.connections == 0:
                break
            deadline.wait(0.05)
        assert stats.connections == 0

    def test_blank_line_closes_connection_but_not_server(self, serving_stack):
        server, _ = serving_stack
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"\n")
            assert reader.readline() == ""  # EOF: our side was closed
        with socket.create_connection(server.address, timeout=10) as connection:
            reader = connection.makefile("r", encoding="utf-8")
            connection.sendall(b"0 3\n")
            assert reader.readline().strip().startswith("herb_")
