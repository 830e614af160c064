"""Tests for ServerStats, including the backend-topology extension.

The ``stats`` control line historically reported counters only; it now also
carries the serving topology (active compute backend, shard count, worker
liveness) whenever a backend-info provider is attached — and must degrade to
plain counters, never crash, when the provider is missing or failing.
"""

import numpy as np
import pytest

from repro.serving import ServerStats


class TestCounters:
    def test_line_without_provider_is_pure_counters(self):
        stats = ServerStats()
        stats.record_request(0.002)
        line = stats.to_line()
        assert line.startswith("requests=1 ")
        assert "backend=" not in line

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            ServerStats().latency_ms(101)

    def test_p99_reported_in_line_snapshot_and_text(self):
        stats = ServerStats()
        for latency_ms in range(1, 101):  # p99 lands near the 99 ms sample
            stats.record_request(latency_ms / 1000.0)
        view = stats.snapshot()
        assert view["p50_ms"] <= view["p95_ms"] <= view["p99_ms"]
        assert 98.0 <= view["p99_ms"] <= 100.0
        assert "p99_ms=" in stats.to_line()
        assert "latency p99" in stats.to_text()

    @pytest.mark.parametrize("num_samples", [0, 1, 2, 1000, 4096])
    def test_snapshot_percentiles_equal_latency_ms(self, num_samples):
        """One copy and one percentile call give latency_ms's values, bit for bit."""
        stats = ServerStats(max_samples=3000)  # 4096 samples wrap the window
        for latency_s in np.random.default_rng(num_samples).lognormal(-6.0, 1.0, num_samples):
            stats.record_request(latency_s)
        view = stats.snapshot()
        for q in (50, 95, 99):
            assert view[f"p{q}_ms"] == stats.latency_ms(q)
            assert type(view[f"p{q}_ms"]) is float


class TestAdmissionCounters:
    def test_connection_gauge_rises_and_falls(self):
        stats = ServerStats()
        stats.record_connection_open()
        stats.record_connection_open()
        stats.record_connection_close()
        assert stats.connections == 1
        assert "connections=1" in stats.to_line()
        assert stats.snapshot()["connections"] == 1

    def test_shed_counters_in_line_and_snapshot(self):
        stats = ServerStats()
        stats.record_rejected_overload()
        stats.record_rejected_overload()
        stats.record_rejected_quota()
        stats.record_idle_closed()
        assert (stats.rejected_overload, stats.rejected_quota, stats.idle_closed) == (2, 1, 1)
        line = stats.to_line()
        assert "rejected_overload=2" in line
        assert "rejected_quota=1" in line
        assert "idle_closed=1" in line
        view = stats.snapshot()
        assert view["rejected_overload"] == 2
        assert view["rejected_quota"] == 1
        assert view["idle_closed"] == 1

    def test_text_admission_line_only_when_shedding_happened(self):
        stats = ServerStats()
        assert "admission" not in stats.to_text()
        stats.record_rejected_overload()
        assert "admission" in stats.to_text()
        assert "1 overload" in stats.to_text()


class TestBackendInfo:
    def test_line_reports_backend_shards_and_liveness(self):
        stats = ServerStats()
        stats.set_backend_info(
            lambda: {"backend": "threads", "shards": 4, "workers": 4, "workers_alive": 3}
        )
        line = stats.to_line()
        assert "backend=threads" in line
        assert "shards=4" in line
        assert "workers_alive=3/4" in line

    def test_extra_keys_are_carried(self):
        stats = ServerStats()
        stats.set_backend_info(lambda: {"backend": "shard-worker", "snapshot": "m1-v3.9"})
        assert "snapshot=m1-v3.9" in stats.to_line()

    def test_text_gains_topology_line(self):
        stats = ServerStats()
        stats.set_backend_info(lambda: {"backend": "remote", "shards": 2, "workers": 2})
        assert "topology" in stats.to_text()
        assert "backend=remote" in stats.to_text()

    def test_failing_provider_degrades_to_counters(self):
        stats = ServerStats()

        def boom():
            raise RuntimeError("worker ping timed out")

        stats.set_backend_info(boom)
        assert stats.backend_info() == {}
        assert "backend=" not in stats.to_line()

    def test_detach(self):
        stats = ServerStats()
        stats.set_backend_info(lambda: {"backend": "numpy"})
        assert "backend=numpy" in stats.to_line()
        stats.set_backend_info(None)
        assert "backend=" not in stats.to_line()

    def test_snapshot_counters_unaffected(self):
        stats = ServerStats()
        stats.set_backend_info(lambda: {"backend": "threads", "workers": 2})
        stats.record_batch(3)
        view = stats.snapshot()
        assert view["batches"] == 1
        assert "backend" not in view, "numeric snapshot must stay numeric"
