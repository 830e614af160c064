"""``repro serve`` as the serve workload runs it, rebuilt with a timed handler.

Usage: ``python3 traced_server.py CHECKPOINT SPANS_JSON``.  Wires the same
public objects the serve command does (catalog, ``RecommendationHandler``,
``MicroBatcher``, ``AsyncSocketServer`` with the serve workload's admission limits)
but hands the batcher a wrapper that records each handler call's start, end
and request lines.  On SIGTERM it stops and writes those spans to
``SPANS_JSON``.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time

from common import require_source_tree


def main(checkpoint: str, spans_path: str) -> int:
    require_source_tree()
    from repro.api import Pipeline
    from repro.io.catalog import ModelCatalog
    from repro.serving import (
        AdmissionController,
        AsyncSocketServer,
        CatalogControl,
        MicroBatcher,
        RecommendationHandler,
        ServerStats,
    )

    pipeline = Pipeline.load(checkpoint)
    pipeline.engine  # noqa: B018 — warm the propagation before traffic
    catalog = ModelCatalog()
    catalog.add(pipeline.model_name, pipeline, checkpoint_path=checkpoint)
    stats = ServerStats()
    stats.set_backend_info(lambda: catalog.entry().pipeline.engine.backend_status())
    handler = RecommendationHandler(catalog, k=10, stats=stats)
    flushes = []

    def timed_handler(lines):
        start = time.perf_counter()
        answers = handler(lines)
        flushes.append((start, time.perf_counter(), list(lines)))
        return answers

    batcher = MicroBatcher(timed_handler, max_batch_size=64, max_wait_ms=5.0, stats=stats)
    server = AsyncSocketServer(
        batcher,
        stats=stats,
        host="127.0.0.1",
        port=0,
        control=CatalogControl(catalog).handle,
        admission=AdmissionController(
            max_connections=1024, max_pending=1024, client_quota=1024, idle_timeout_s=300.0
        ),
    ).start()
    shutdown = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: shutdown.set())
    host, port = server.address
    print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
    while not shutdown.wait(0.5):
        pass
    server.stop()
    batcher.close()
    catalog.close()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"flushes": flushes}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
