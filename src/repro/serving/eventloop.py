"""Event-loop TCP front-end: thousands of connections, one thread, explicit
admission control.

:class:`AsyncSocketServer` multiplexes every client connection onto a single
``selectors``-based loop instead of spawning a thread per connection, and
feeds a :class:`~repro.serving.batcher.MicroBatcher` /
:class:`~repro.serving.handler.RecommendationHandler` stack (or any object
with the same ``submit(line) -> Future`` contract, such as the shard
worker's handler) — line protocol, JSON protocol, ``stats``/``models``/
``reload``/``canary`` control lines.  Around it sits the production-traffic
machinery, made explicit as an :class:`AdmissionController`:

* **connection cap** — past ``max_connections`` a new client is *accepted*,
  answered with one ``error: overloaded`` line and closed, rather than left
  to rot in the kernel's SYN queue;
* **bounded pending queue** — at most ``max_pending`` scoring requests may
  be in flight server-wide; excess requests shed immediately with
  ``error: overloaded`` instead of queueing into unbounded latency;
* **per-client quota** — one connection may pipeline at most
  ``client_quota`` unanswered requests, so a single firehose client cannot
  monopolise the pending budget;
* **read-idle timeout** — a connection with no outstanding work and no
  bytes read for ``idle_timeout_s`` is closed (``idle_closed`` counter);
* **bounded write buffering** — responses to a slow reader accumulate in a
  per-connection outbound buffer; past ``max_outbuf_bytes`` the connection
  is dropped, so one never-draining client can neither wedge the loop nor
  hoard memory.  Size the cap above the largest single response: the bound
  is on the *pile-up* of unread responses, and one response bigger than the
  cap would drop even a healthy reader;
* **bounded request lines** — a line longer than ``max_line_bytes`` is
  answered ``error: request line too long`` and its connection closed.

Admission errors are always the plain-text line ``error: overloaded`` (even
for JSON requests): shedding must not pay for parsing.

Scoring runs on the batcher's worker thread; completed futures cross back
into the loop through a completion queue plus a ``socketpair`` wakeup, and
every connection's responses are released strictly in request order (a
per-connection queue of response slots), so line N of output answers line N
of input.  ``stats`` and
catalog control lines (``reload`` builds and warms a whole engine) execute
on a one-thread side executor so they can never stall the loop.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Deque, Optional, Set, Tuple

from .batcher import MicroBatcher
from .server import LINE_TOO_LONG_RESPONSE, MAX_LINE_BYTES
from .stats import ServerStats

__all__ = ["AdmissionController", "AsyncSocketServer", "OVERLOADED_RESPONSE"]

#: The fast-rejection response: sent when the connection cap, the pending
#: queue or a client's quota refuses a request.  One line, then (for the
#: connection cap) the socket closes.
OVERLOADED_RESPONSE = "error: overloaded"

_RECV_BYTES = 65536
#: Sentinels distinguishing the listener and wake sockets from connections
#: in the selector's ``data`` slot.
_LISTENER = object()
_WAKE = object()


class AdmissionController:
    """Admission policy for the event-loop front-end, plus its live gauges.

    Pure single-threaded state — only the loop thread reads or writes the
    ``connections``/``pending`` gauges.  ``idle_timeout_s=None`` (or ``0``)
    disables idle reaping; ``max_outbuf_bytes=None`` leaves write buffering
    unbounded.
    """

    def __init__(
        self,
        max_connections: int = 1024,
        max_pending: int = 1024,
        client_quota: int = 32,
        idle_timeout_s: Optional[float] = 300.0,
        max_outbuf_bytes: Optional[int] = 1 << 20,
    ) -> None:
        if max_connections <= 0:
            raise ValueError("max_connections must be positive")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if client_quota <= 0:
            raise ValueError("client_quota must be positive")
        if idle_timeout_s is not None and idle_timeout_s < 0:
            raise ValueError("idle_timeout_s must be non-negative (0/None disables)")
        if max_outbuf_bytes is not None and max_outbuf_bytes <= 0:
            raise ValueError("max_outbuf_bytes must be positive (None disables)")
        self.max_connections = max_connections
        self.max_pending = max_pending
        self.client_quota = client_quota
        self.idle_timeout_s = idle_timeout_s if idle_timeout_s else None
        self.max_outbuf_bytes = max_outbuf_bytes
        #: live gauges, owned by the loop thread
        self.connections = 0
        self.pending = 0

    def admit_connection(self) -> bool:
        return self.connections < self.max_connections

    def admit_request(self, connection_inflight: int) -> Optional[str]:
        """``None`` to admit, or the rejecting limit: ``"quota"``/``"overload"``."""
        if connection_inflight >= self.client_quota:
            return "quota"
        if self.pending >= self.max_pending:
            return "overload"
        return None


class _Slot:
    """One response-in-order slot: filled when its request's answer is ready."""

    __slots__ = ("ready", "text")

    def __init__(self, text: Optional[str] = None) -> None:
        self.ready = text is not None
        self.text = text


class _Connection:
    __slots__ = (
        "sock",
        "inbuf",
        "scanned",
        "outbuf",
        "responses",
        "inflight",
        "last_read",
        "draining",
        "fin_sent",
        "peer_eof",
        "closed",
        "mask",
    )

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        #: bytes of ``inbuf`` already searched for a newline, so reassembling
        #: a multi-megabyte line stays linear in its length
        self.scanned = 0
        self.outbuf = bytearray()
        #: response slots in request order; only a ready prefix may be sent
        self.responses: Deque[_Slot] = deque()
        #: scoring requests in flight (counted against the client quota)
        self.inflight = 0
        self.last_read = now
        #: protocol over: discard further input, flush, FIN, await peer EOF.
        #: Closing outright would RST past unread client bytes and could
        #: destroy the final response in flight.
        self.draining = False
        self.fin_sent = False
        self.peer_eof = False
        self.closed = False
        self.mask = 0  # currently registered selector interest


class AsyncSocketServer:
    """Single-threaded event-loop TCP front-end over a shared micro-batcher.

    ``start``/``address``/``stop``/context manager lifecycle, plus the
    admission-control behaviour described in the module docstring.
    ``max_line_bytes=None`` disables the request-line bound, for trusted
    internal protocols whose lines are legitimately huge (shard-worker
    weight snapshots travel as one line).
    """

    def __init__(
        self,
        batcher: MicroBatcher,
        stats: Optional[ServerStats] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        control: Optional[Callable[[str], Optional[str]]] = None,
        admission: Optional[AdmissionController] = None,
        backlog: int = 1024,
        max_line_bytes: Optional[int] = MAX_LINE_BYTES,
    ) -> None:
        if max_line_bytes is not None and max_line_bytes <= 0:
            raise ValueError("max_line_bytes must be positive (None disables)")
        self._batcher = batcher
        self._stats = stats
        self._control = control
        self.admission = admission if admission is not None else AdmissionController()
        self._host = host
        self._port = port
        self._backlog = backlog
        self._max_line_bytes = max_line_bytes
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._conns: Set[_Connection] = set()
        self._completions: Deque[Tuple[_Connection, _Slot, Future, bool]] = deque()
        self._completion_lock = threading.Lock()
        self._stop_requested = False
        #: connections dropped for never draining their responses (tests/ops)
        self.slow_clients_closed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncSocketServer":
        if self._listener is not None:
            raise RuntimeError("AsyncSocketServer is already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(self._backlog)
        listener.setblocking(False)
        self._listener = listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, _LISTENER)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        # control lines (a reload builds and warms an engine) and stats
        # (liveness pings) must never block the loop: one side thread
        # serialises them and their answers come back as ordinary slots
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="serve-control")
        self._thread = threading.Thread(target=self._run, name="event-loop", daemon=True)
        self._thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` to the real port."""
        if self._listener is None:
            raise RuntimeError("AsyncSocketServer is not running")
        return self._listener.getsockname()[:2]

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting, close every connection, join the loop thread."""
        if self._thread is None:
            return
        self._stop_requested = True
        self._wake()
        self._thread.join(timeout)

    def __enter__(self) -> "AsyncSocketServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x01")
        except (OSError, AttributeError):
            pass  # loop already gone, or wake buffer full (it will wake anyway)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            while not self._stop_requested:
                events = self._selector.select(self._select_timeout())
                for key, mask in events:
                    data = key.data
                    if data is _LISTENER:
                        self._accept_ready()
                    elif data is _WAKE:
                        self._drain_wake()
                    elif not data.closed:
                        self._service_connection(data, mask)
                self._drain_completions()
                self._reap_idle()
        finally:
            self._teardown()

    def _select_timeout(self) -> Optional[float]:
        idle = self.admission.idle_timeout_s
        if idle is None:
            return None
        deadline = None
        for conn in self._conns:
            if conn.responses or conn.outbuf:
                continue
            candidate = conn.last_read + idle
            if deadline is None or candidate < deadline:
                deadline = candidate
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    def _drain_wake(self) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _teardown(self) -> None:
        for conn in list(self._conns):
            self._close(conn)
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._selector is not None:
            self._selector.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Accepting
    # ------------------------------------------------------------------
    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed — shutting down
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            if self._stop_requested or not self.admission.admit_connection():
                # accept-then-refuse: the client gets one explicit line back
                # instead of a silent SYN-queue drop it cannot distinguish
                # from a network failure; counted first, so the count is
                # already visible once the client has read the refusal
                if self._stats is not None and not self._stop_requested:
                    self._stats.record_rejected_overload()
                try:
                    sock.send((OVERLOADED_RESPONSE + "\n").encode("utf-8"))
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            conn = _Connection(sock, time.monotonic())
            self._conns.add(conn)
            self.admission.connections += 1
            if self._stats is not None:
                self._stats.record_connection_open()
            self._update_interest(conn)

    # ------------------------------------------------------------------
    # Per-connection I/O
    # ------------------------------------------------------------------
    def _service_connection(self, conn: _Connection, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._pump_out(conn)
        if not conn.closed and mask & selectors.EVENT_READ:
            self._on_readable(conn)

    def _on_readable(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not chunk:
            conn.peer_eof = True
            if conn.draining:
                self._pump_out(conn)  # the half-close dance may now finish
                return
            # EOF — a trailing request without a newline still gets answered
            if conn.inbuf:
                raw = bytes(conn.inbuf)
                conn.inbuf.clear()
                self._handle_line(conn, raw)
            self._begin_drain(conn)
            return
        if conn.draining:
            return  # protocol is over: discard input, only await the EOF
        conn.last_read = time.monotonic()
        conn.inbuf += chunk
        self._split_lines(conn)

    def _split_lines(self, conn: _Connection) -> None:
        bound = self._max_line_bytes
        while not conn.closed and not conn.draining:
            newline = conn.inbuf.find(b"\n", conn.scanned)
            if newline < 0:
                conn.scanned = len(conn.inbuf)
                if bound is not None and len(conn.inbuf) >= bound:
                    self._respond_inline(conn, LINE_TOO_LONG_RESPONSE)
                    self._begin_drain(conn)
                return
            conn.scanned = 0
            if bound is not None and newline >= bound:
                self._respond_inline(conn, LINE_TOO_LONG_RESPONSE)
                self._begin_drain(conn)
                return
            raw = conn.inbuf[:newline]
            del conn.inbuf[: newline + 1]
            self._handle_line(conn, raw)

    def _handle_line(self, conn: _Connection, raw: bytes) -> None:
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            self._respond_inline(conn, "error: request is not valid UTF-8")
            self._begin_drain(conn)
            return
        if not line:
            self._begin_drain(conn)
            return
        if line == "stats":
            if self._stats is None:
                self._respond_inline(conn, "no stats")
            else:
                # off the loop: the topology probe may ping remote workers
                self._track(conn, self._executor.submit(self._stats.to_line), counted=False)
            return
        if self._control is not None and line.split(None, 1)[0] in ("models", "reload", "canary"):
            self._track(conn, self._executor.submit(self._control_line, line), counted=False)
            return
        verdict = self.admission.admit_request(conn.inflight)
        if verdict is not None:
            if self._stats is not None:
                if verdict == "quota":
                    self._stats.record_rejected_quota()
                else:
                    self._stats.record_rejected_overload()
            self._respond_inline(conn, OVERLOADED_RESPONSE)
            return
        try:
            future = self._batcher.submit(line)
        except RuntimeError:
            self._respond_inline(conn, "error: server is shutting down")
            self._begin_drain(conn)
            return
        self._track(conn, future, counted=True)

    def _control_line(self, line: str) -> str:
        """Run a control-verb line on the side thread; falls back to scoring.

        The control hook returning ``None`` means the line was not a control
        line after all (e.g. ``models`` with stray operands) — it is then
        scored through the batcher, still off the loop thread.
        """
        handled = self._control(line)
        if handled is not None:
            return handled
        try:
            return self._batcher.submit(line).result()
        except RuntimeError:
            return "error: server is shutting down"

    # ------------------------------------------------------------------
    # Response ordering
    # ------------------------------------------------------------------
    def _track(self, conn: _Connection, future: Future, counted: bool) -> None:
        slot = _Slot()
        conn.responses.append(slot)
        if counted:
            conn.inflight += 1
            self.admission.pending += 1
        future.add_done_callback(
            lambda f, c=conn, s=slot, n=counted: self._completed(c, s, f, n)
        )

    def _completed(self, conn: _Connection, slot: _Slot, future: Future, counted: bool) -> None:
        """Future done — runs on the batcher/executor thread; hand to the loop."""
        with self._completion_lock:
            self._completions.append((conn, slot, future, counted))
        self._wake()

    def _drain_completions(self) -> None:
        while True:
            with self._completion_lock:
                if not self._completions:
                    return
                conn, slot, future, counted = self._completions.popleft()
            if counted:
                conn.inflight -= 1
                self.admission.pending -= 1
            try:
                text = future.result()
            except Exception as error:  # noqa: BLE001 — keep the stream aligned
                text = f"error: {error}"
            slot.ready = True
            slot.text = text
            if not conn.closed:
                self._flush_ready(conn)

    def _respond_inline(self, conn: _Connection, text: str) -> None:
        conn.responses.append(_Slot(text))
        self._flush_ready(conn)

    def _flush_ready(self, conn: _Connection) -> None:
        while conn.responses and conn.responses[0].ready:
            slot = conn.responses.popleft()
            conn.outbuf += slot.text.encode("utf-8")
            conn.outbuf += b"\n"
        self._pump_out(conn)

    def _pump_out(self, conn: _Connection) -> None:
        if conn.closed:
            return
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
                if sent:
                    del conn.outbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._close(conn)
                return
        cap = self.admission.max_outbuf_bytes
        if cap is not None and len(conn.outbuf) > cap:
            # a reader that never drains: drop it before it hoards memory
            self.slow_clients_closed += 1
            self._close(conn)
            return
        if conn.draining and not conn.outbuf and not conn.responses:
            if not conn.fin_sent:
                conn.fin_sent = True
                try:
                    conn.sock.shutdown(socket.SHUT_WR)
                except OSError:
                    self._close(conn)
                    return
            if conn.peer_eof:
                self._close(conn)
                return
        self._update_interest(conn)

    def _update_interest(self, conn: _Connection) -> None:
        # READ stays on while draining: input is discarded, but the peer's
        # EOF is what lets the half-closed connection finally close.
        mask = 0
        if not conn.peer_eof:
            mask |= selectors.EVENT_READ
        if conn.outbuf:
            mask |= selectors.EVENT_WRITE
        if mask == conn.mask:
            return
        if conn.mask == 0:
            self._selector.register(conn.sock, mask, conn)
        elif mask == 0:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, mask, conn)
        conn.mask = mask

    # ------------------------------------------------------------------
    # Closing
    # ------------------------------------------------------------------
    def _begin_drain(self, conn: _Connection) -> None:
        """Stop reading; close once every outstanding response is flushed."""
        if conn.closed or conn.draining:
            return
        conn.draining = True
        conn.inbuf.clear()
        self._pump_out(conn)

    def _close(self, conn: _Connection, idle: bool = False) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.mask:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.mask = 0
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.discard(conn)
        self.admission.connections -= 1
        if self._stats is not None:
            self._stats.record_connection_close()
            if idle:
                self._stats.record_idle_closed()

    def _reap_idle(self) -> None:
        idle = self.admission.idle_timeout_s
        if idle is None or not self._conns:
            return
        now = time.monotonic()
        for conn in list(self._conns):
            if conn.closed or conn.responses or conn.outbuf:
                continue  # work outstanding — the client is waiting on us
            # draining connections are reapable too: a client that never
            # closes after its FIN would otherwise pin a connection slot
            if now - conn.last_read >= idle:
                self._close(conn, idle=not conn.draining)
