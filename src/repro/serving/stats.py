"""Thread-safe serving counters: requests, batches, batch sizes, latencies.

Every front-end (stdin, socket) and the :class:`~repro.serving.batcher.MicroBatcher`
share one :class:`ServerStats`; the CLI reports it on shutdown and the socket
protocol exposes it live via the ``stats`` control line.

Beyond the counters, a stats object can carry a **backend-info provider**
(:meth:`ServerStats.set_backend_info`): a callable returning the serving
topology — active compute backend, shard count, worker liveness (see
:meth:`~repro.inference.engine.InferenceEngine.backend_status`).  It is
invoked per ``stats`` request, so the reported liveness is current, not a
startup snapshot.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, Optional

import numpy as np

__all__ = ["ServerStats"]


class ServerStats:
    """Aggregate serving metrics, safe to record from many threads.

    Latency samples are kept in a bounded window (``max_samples``) so a
    long-lived server reports recent percentiles without unbounded memory.
    """

    def __init__(self, max_samples: int = 100_000) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._batches = 0
        self._batched_requests = 0
        self._connections = 0
        self._rejected_overload = 0
        self._rejected_quota = 0
        self._idle_closed = 0
        self._latencies_s = deque(maxlen=max_samples)
        #: per-model ``[requests, errors]`` tallies, keyed by catalog entry
        #: name — a multi-model server's breakdown of the global counters.
        self._per_model: Dict[str, list] = {}
        self._backend_info: Optional[Callable[[], Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Backend topology
    # ------------------------------------------------------------------
    def set_backend_info(self, provider: Optional[Callable[[], Dict[str, Any]]]) -> None:
        """Attach a callable reporting the serving topology (backend, shards,
        worker liveness).  Pass ``None`` to detach."""
        self._backend_info = provider

    def backend_info(self) -> Dict[str, Any]:
        """The provider's current view, or ``{}`` (also when the provider
        itself fails — stats must never take down a stats request)."""
        provider = self._backend_info
        if provider is None:
            return {}
        try:
            return dict(provider())
        except Exception:  # noqa: BLE001 — reporting must stay harmless
            return {}

    def _backend_suffix(self) -> str:
        info = self.backend_info()
        if not info:
            return ""
        parts = []
        if "backend" in info:
            parts.append(f"backend={info['backend']}")
        if "shards" in info:
            parts.append(f"shards={info['shards']}")
        if "workers" in info:
            alive = info.get("workers_alive", info["workers"])
            parts.append(f"workers_alive={alive}/{info['workers']}")
        for key, value in info.items():
            if key not in ("backend", "shards", "workers", "workers_alive", "worker_addrs"):
                parts.append(f"{key}={value}")
        return " " + " ".join(parts) if parts else ""

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_batch(self, size: int) -> None:
        """One flush of ``size`` requests through the scoring call."""
        with self._lock:
            self._batches += 1
            self._batched_requests += size

    def record_request(self, latency_s: float) -> None:
        """One answered request and its queue-to-response latency."""
        with self._lock:
            self._requests += 1
            self._latencies_s.append(float(latency_s))

    def record_connection_open(self) -> None:
        """A front-end accepted (and admitted) one client connection."""
        with self._lock:
            self._connections += 1

    def record_connection_close(self) -> None:
        """One admitted connection ended (either side closed it)."""
        with self._lock:
            self._connections -= 1

    def record_rejected_overload(self) -> None:
        """One connection or request refused with ``error: overloaded``
        because the connection cap or the pending queue was full."""
        with self._lock:
            self._rejected_overload += 1

    def record_rejected_quota(self) -> None:
        """One request shed because its connection hit its in-flight quota."""
        with self._lock:
            self._rejected_quota += 1

    def record_idle_closed(self) -> None:
        """One connection closed by the read-idle timeout."""
        with self._lock:
            self._idle_closed += 1

    def record_model_request(self, model: str) -> None:
        """Attribute one answered request to a catalog entry.

        Orthogonal to :meth:`record_request` (the batcher's global latency
        tally): the handler calls this once per request it answers, with the
        entry name it routed to, building the per-model breakdown."""
        with self._lock:
            self._per_model.setdefault(model, [0, 0])[0] += 1

    def record_error(self, model: Optional[str] = None) -> None:
        """One request answered with an ``error:`` response line.

        When the failure is attributable to a catalog entry (routing
        succeeded but scoring failed), ``model`` files it under that entry's
        breakdown too — parse failures carry no model and stay global-only.
        """
        with self._lock:
            self._errors += 1
            if model is not None:
                tally = self._per_model.setdefault(model, [0, 0])
                tally[0] += 1
                tally[1] += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        with self._lock:
            return self._requests

    @property
    def errors(self) -> int:
        with self._lock:
            return self._errors

    @property
    def batches(self) -> int:
        with self._lock:
            return self._batches

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            return self._batched_requests / self._batches if self._batches else 0.0

    @property
    def connections(self) -> int:
        """Live gauge: admitted connections currently open."""
        with self._lock:
            return self._connections

    @property
    def rejected_overload(self) -> int:
        with self._lock:
            return self._rejected_overload

    @property
    def rejected_quota(self) -> int:
        with self._lock:
            return self._rejected_quota

    @property
    def idle_closed(self) -> int:
        with self._lock:
            return self._idle_closed

    def per_model(self) -> Dict[str, Dict[str, int]]:
        """Per-catalog-entry ``{"requests": n, "errors": n}`` breakdown."""
        with self._lock:
            return {
                name: {"requests": tally[0], "errors": tally[1]}
                for name, tally in sorted(self._per_model.items())
            }

    def latency_ms(self, percentile: float) -> float:
        """The given latency percentile in milliseconds (0.0 with no samples)."""
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must lie in [0, 100]")
        with self._lock:
            if not self._latencies_s:
                return 0.0
            samples = np.asarray(self._latencies_s, dtype=np.float64)
        return float(np.percentile(samples, percentile) * 1000.0)

    def snapshot(self) -> Dict[str, Any]:
        """A consistent point-in-time view of every metric.

        The latency window is copied once and its three percentiles come
        from one ``np.percentile`` call, equal to :meth:`latency_ms`'s.
        """
        per_model = self.per_model()
        with self._lock:
            samples = np.asarray(self._latencies_s, dtype=np.float64)
            view: Dict[str, Any] = {
                "requests": self._requests,
                "errors": self._errors,
                "batches": self._batches,
                "mean_batch_size": (
                    self._batched_requests / self._batches if self._batches else 0.0
                ),
                "p50_ms": 0.0,
                "p95_ms": 0.0,
                "p99_ms": 0.0,
                "connections": self._connections,
                "rejected_overload": self._rejected_overload,
                "rejected_quota": self._rejected_quota,
                "idle_closed": self._idle_closed,
            }
        if samples.size:
            percentiles = np.percentile(samples, [50, 95, 99]) * 1000.0
            view["p50_ms"], view["p95_ms"], view["p99_ms"] = percentiles.tolist()
        if per_model:
            view["models"] = per_model
        return view

    def to_line(self) -> str:
        """Single-line summary — the socket protocol's ``stats`` response.

        With a backend-info provider attached, the counters are followed by
        the serving topology, e.g.
        ``... p95_ms=1.2 backend=threads shards=4 workers_alive=4/4``.
        """
        view = self.snapshot()
        models = ""
        per_model = view.get("models")
        if per_model:
            breakdown = ",".join(
                f"{name}:{tally['requests']}/{tally['errors']}"
                for name, tally in per_model.items()
            )
            models = f" models={breakdown}"
        return (
            f"requests={view['requests']:.0f} errors={view['errors']:.0f} "
            f"batches={view['batches']:.0f} mean_batch={view['mean_batch_size']:.2f} "
            f"p50_ms={view['p50_ms']:.3f} p95_ms={view['p95_ms']:.3f} "
            f"p99_ms={view['p99_ms']:.3f} connections={view['connections']:.0f} "
            f"rejected_overload={view['rejected_overload']:.0f} "
            f"rejected_quota={view['rejected_quota']:.0f} "
            f"idle_closed={view['idle_closed']:.0f}"
            f"{models}{self._backend_suffix()}"
        )

    def to_text(self) -> str:
        """Multi-line summary, printed by the CLI on shutdown."""
        view = self.snapshot()
        lines = [
            "serving stats:",
            f"  requests         {view['requests']:.0f} ({view['errors']:.0f} errors)",
            f"  batches          {view['batches']:.0f}",
            f"  mean batch size  {view['mean_batch_size']:.2f}",
            f"  latency p50      {view['p50_ms']:.3f} ms",
            f"  latency p95      {view['p95_ms']:.3f} ms",
            f"  latency p99      {view['p99_ms']:.3f} ms",
        ]
        shed = (
            view["rejected_overload"] + view["rejected_quota"] + view["idle_closed"]
        )
        if shed:
            lines.append(
                f"  admission        {view['rejected_overload']:.0f} overload, "
                f"{view['rejected_quota']:.0f} quota, "
                f"{view['idle_closed']:.0f} idle-closed"
            )
        for name, tally in view.get("models", {}).items():
            lines.append(
                f"  model {name:<10} {tally['requests']} requests"
                f" ({tally['errors']} errors)"
            )
        suffix = self._backend_suffix()
        if suffix:
            lines.append(f"  topology        {suffix.strip()}")
        return "\n".join(lines)
