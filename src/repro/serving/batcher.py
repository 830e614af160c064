"""Micro-batching request aggregator — many producers, one scoring call.

:class:`MicroBatcher` queues requests submitted from any number of threads and
flushes them through a single handler call when either ``max_batch_size``
requests are pending or the oldest request has waited ``max_wait_ms``,
whichever comes first.  Submitters get a :class:`concurrent.futures.Future`
that resolves to their request's result, so per-request latency stays bounded
while the expensive scoring matmul amortises over the whole batch.

Two drive modes:

* **threaded** (production, the default): a daemon worker thread owns the
  flush loop and sleeps between deadlines;
* **manual** (``start=False``): no thread is created and nothing flushes until
  :meth:`poll` is called, which — combined with an injected ``clock`` — makes
  flush timing fully deterministic for tests, no sleeps anywhere.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence

from .stats import ServerStats

__all__ = ["MicroBatcher"]


@dataclass
class _Pending:
    payload: Any
    future: Future = field(repr=False)
    enqueued_at: float = 0.0


class MicroBatcher:
    """Aggregate concurrent requests into batches for one handler call.

    ``handler`` receives the list of batch payloads and must return one
    result per payload (in order); each result resolves its request's future.
    If the handler raises, every future in that batch fails with the same
    exception — per-request error isolation is the handler's contract (see
    :class:`~repro.serving.handler.RecommendationHandler`), the batcher's is
    that a failing batch can never kill the worker or hang a submitter.
    """

    def __init__(
        self,
        handler: Callable[[List[Any]], Sequence[Any]],
        max_batch_size: int = 64,
        max_wait_ms: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[ServerStats] = None,
        start: bool = True,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self._handler = handler
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self._clock = clock
        self._stats = stats
        self._pending: Deque[_Pending] = deque()
        #: the batch currently inside a handler call — tracked so a
        #: non-draining close can fail its futures if the flush is stuck.
        self._inflight: List[_Pending] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Launch the worker thread (threaded mode)."""
        with self._wakeup:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._thread is not None:
                raise RuntimeError("MicroBatcher is already running")
            self._thread = threading.Thread(
                target=self._run, name="micro-batcher", daemon=True
            )
        self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests; by default flush what is still queued.

        With ``drain=False`` queued futures fail with ``RuntimeError``
        instead — including, after the worker join times out, the batch
        stuck inside a blocked handler call, so no waiter can hang forever
        on a flush that will never return (the non-draining join is bounded
        by default for the same reason).  Idempotent; in threaded mode joins
        the worker.
        """
        rejected: List[_Pending] = []
        with self._wakeup:
            self._closed = True
            if not drain:
                rejected = list(self._pending)
                self._pending.clear()
            self._wakeup.notify_all()
        self._fail(rejected, "MicroBatcher closed before flush")
        if self._thread is not None:
            if timeout is None and not drain:
                # drain=False means "stop now, abandon queued work" — waiting
                # unboundedly on a wedged handler would contradict that
                timeout = 5.0
            self._thread.join(timeout)
            if not drain:
                with self._lock:
                    stuck = list(self._inflight)
                self._fail(stuck, "MicroBatcher closed during a blocked flush")
        elif drain:
            self.poll()  # manual mode: closing makes every pending request ready

    @staticmethod
    def _fail(requests: List[_Pending], reason: str) -> None:
        for request in requests:
            try:
                request.future.set_exception(RuntimeError(reason))
            except InvalidStateError:
                pass  # the flush resolved it first — the waiter got an answer

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Future:
        """Queue one request; the returned future resolves to its result."""
        future: Future = Future()
        with self._wakeup:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._pending.append(_Pending(payload, future, self._clock()))
            self._wakeup.notify_all()
        return future

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Flush every currently-ready batch in the calling thread.

        Manual-mode drive for deterministic tests: readiness is evaluated
        against the injected clock (size reached, oldest request past its
        deadline, or the batcher closed).  Returns how many requests flushed.
        """
        flushed = 0
        while True:
            batch = self._take_batch(ready_only=True)
            if not batch:
                return flushed
            self._flush(batch)
            flushed += len(batch)

    def _take_batch(self, ready_only: bool) -> List[_Pending]:
        with self._wakeup:
            if not self._pending:
                return []
            if ready_only and not self._ready_locked():
                return []
            batch = [
                self._pending.popleft()
                for _ in range(min(self.max_batch_size, len(self._pending)))
            ]
            self._inflight = batch
            return batch

    def _ready_locked(self) -> bool:
        if self._closed or len(self._pending) >= self.max_batch_size:
            return True
        return self._clock() - self._pending[0].enqueued_at >= self.max_wait_s

    def _flush(self, batch: List[_Pending]) -> None:
        payloads = [request.payload for request in batch]
        try:
            results = list(self._handler(payloads))
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results for {len(batch)} requests"
                )
        except BaseException as error:  # noqa: BLE001 — a batch must never kill the worker
            for request in batch:
                try:
                    request.future.set_exception(error)
                except InvalidStateError:
                    pass  # already failed by a non-draining close
            if self._stats is not None:
                self._stats.record_batch(len(batch))
            return
        finally:
            with self._lock:
                self._inflight = []
        now = self._clock()
        if self._stats is not None:
            self._stats.record_batch(len(batch))
        for request, result in zip(batch, results):
            if self._stats is not None:
                self._stats.record_request(now - request.enqueued_at)
            try:
                request.future.set_result(result)
            except InvalidStateError:
                pass  # a non-draining close failed this future while we scored

    # ------------------------------------------------------------------
    # Worker loop (threaded mode)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._pending:
                    if self._closed:
                        return
                    self._wakeup.wait()
                if not self._ready_locked():
                    remaining = self.max_wait_s - (
                        self._clock() - self._pending[0].enqueued_at
                    )
                    self._wakeup.wait(max(remaining, 0.0))
                    continue  # re-evaluate readiness after the wait
            batch = self._take_batch(ready_only=False)
            if batch:
                self._flush(batch)
