"""The stdin front-end, and the request-line bound every front-end shares.

:func:`serve_lines` drains a piped burst of request lines through the shared
:class:`~repro.serving.batcher.MicroBatcher`, so the burst aggregates into one
pooling matmul per flush instead of one model call per request.  The TCP
front-end is :class:`~repro.serving.eventloop.AsyncSocketServer`.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable, Iterable

from .batcher import MicroBatcher

__all__ = ["LINE_TOO_LONG_RESPONSE", "MAX_LINE_BYTES", "serve_lines"]

#: A request line (including its newline) may be at most this many bytes.
#: Both front-ends enforce it while reading, so a client streaming gigabytes
#: without a newline exhausts a constant, not the process: the offender is
#: answered with :data:`LINE_TOO_LONG_RESPONSE` and its connection closed.
MAX_LINE_BYTES = 64 * 1024

LINE_TOO_LONG_RESPONSE = "error: request line too long"


def serve_lines(
    lines: Iterable[str],
    write: Callable[[str], None],
    batcher: MicroBatcher,
) -> int:
    """Drain request lines through the batcher, answering in input order.

    A reader thread pulls ahead of the scorer so a piped burst queues many
    requests at once (letting the batcher hit its size trigger), while the
    caller's thread writes responses strictly in submission order: response N
    always answers line N.  A blank line or EOF stops reading; everything
    already queued is still answered.  Returns how many requests were served.
    """
    futures: "queue.Queue" = queue.Queue()

    def pump() -> None:
        try:
            for raw_line in lines:
                if len(raw_line) > MAX_LINE_BYTES:
                    # answer in order like any other response, then stop
                    # reading — the stream is not trustworthy past this point
                    too_long: Future = Future()
                    too_long.set_result(LINE_TOO_LONG_RESPONSE)
                    futures.put(too_long)
                    break
                line = raw_line.strip()
                if not line:
                    break
                try:
                    futures.put(batcher.submit(line))
                except RuntimeError:  # batcher closed under us — stop reading
                    break
        finally:
            futures.put(None)

    reader = threading.Thread(target=pump, name="stdin-reader", daemon=True)
    reader.start()
    answered = 0
    while True:
        future = futures.get()
        if future is None:
            break
        try:
            response = future.result()
        except Exception as error:  # noqa: BLE001 — keep the response stream aligned
            response = f"error: {error}"
        write(response)
        answered += 1
    reader.join()
    return answered
