"""Asyncio serving front end: thousands of connections, one process.

The :class:`~repro.serve.scheduler.ServingEngine` is thread-based — a
blocking client occupies a thread for the life of its request, so one
process holds only as many open connections as it affords threads.  This
module is the **connection tier** that removes that cap: an event loop
multiplexes any number of open sockets onto the same engine, whose
dispatcher threads keep batching exactly as before.

Two pieces:

- :class:`VectorSearchServer` — an ``asyncio.start_server`` front end
  speaking the length-prefixed binary protocol of
  :mod:`repro.serve.protocol` (framing constants shared with the
  hardware network models in :mod:`repro.net.wire`).  Connections
  pipeline freely and responses return in completion order, correlated
  by request id.  Search frames go straight to ``engine.submit`` with no
  task or asyncio future per request: one connection's completions wake
  the loop once per burst and leave as one joined ``write``.  Quota
  sheds answer with an error frame carrying the token bucket's
  ``retry_after_s``.  Search frames are the only request it serves: a
  shard worker's plan and stats frames go to its own blocking server
  (:mod:`repro.serve.workers`), and any other frame here is a protocol
  error that drops the connection.
- :class:`AsyncClient` — the matching client: ``submit`` pipelines,
  ``search`` awaits one answer, remote sheds re-raise as the same
  :class:`~repro.serve.scheduler.AdmissionError` /
  :class:`~repro.serve.scheduler.QuotaExceededError` the local engine
  uses (``retry_after_s`` included), so callers cannot tell a local
  engine from a remote one.

In-process asyncio code needs no bridge of its own:
``await asyncio.wrap_future(engine.submit(q, k))`` resolves on the loop,
and cancelling it cancels the queued engine request (the dispatcher
drops it at batch time without touching its batch-mates).  Stop the
engine with ``await asyncio.to_thread(engine.stop)`` where the loop must
stay live while the dispatchers drain.

**Pair the engine with ``policy="shed"``.**  The server (and any caller
on the loop) calls ``engine.submit`` on the event loop; under the
``block`` policy a full queue (or an exhausted quota) would park the
whole loop — every connection, not just the offender.  Shed turns
backpressure into an exception on exactly the request that hit it,
which is the only per-connection signal an event loop can deliver.

**Invariant (bit-identical results).**  The async tier changes how bytes
reach the engine, never what it computes; ids/dists cross the wire as
raw i64/f32, so a remote answer equals direct ``IVFPQIndex.search`` bit
for bit.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future
from functools import partial

import numpy as np

from repro.net.wire import FRAME_ERROR, FRAME_RESULT, FRAME_SEARCH
from repro.obs.trace import SpanContext
from repro.serve.backends import BackendUnavailableError
from repro.serve.protocol import (
    ProtocolError,
    RemoteServeError,
    SearchFrame,
    decode_error,
    decode_result,
    decode_search,
    encode_exception,
    encode_result,
    encode_search,
    read_frame,
    remote_exception,
)
from repro.serve.qos import DEFAULT_TENANT
from repro.serve.scheduler import ServeResult, ServingEngine

__all__ = [
    "AsyncClient",
    "RemoteServeError",
    "VectorSearchServer",
]

#: Search frames one connection may have read but not yet answered.  At
#: the cap its reader waits for a flush before reading the next frame,
#: so one client's unsent replies stay bounded whatever the engine's
#: admission queue depth.
_CONN_INFLIGHT_CAP = 256


class VectorSearchServer:
    """Socket front end: the binary protocol over ``asyncio.start_server``.

    Each accepted connection runs one reader loop that hands search
    frames straight to ``engine.submit``, so a single connection can
    pipeline any number of requests and receives responses in completion
    order (request ids correlate them).  The engine's completions for one
    connection wake the loop once per burst, and the burst's replies
    leave as one joined ``write``.  The reader drains the transport
    before every frame: a client that stops reading its replies stops
    being read, and one with :data:`_CONN_INFLIGHT_CAP` searches
    unanswered is not read until some are.  A client that disconnects
    mid-request has its in-flight engine requests cancelled — the
    dispatcher drops them at batch time, batch-mates unaffected.

    Parameters
    ----------
    engine : the :class:`ServingEngine` search frames go to.  Start/stop
        of the engine stays with the caller; the server only owns
        sockets.
    host, port : listen address; port 0 picks a free port (see
        :attr:`address` after :meth:`start`).
    backlog : listen backlog — size it to the expected connection storm
        (an accept burst beyond it retries in the kernel, slowly).

    **Connection metrics.**  The engine's metrics registry additionally
    records this server's per-connection traffic: the
    ``connections_opened`` / ``frames_in`` / ``frames_out`` /
    ``protocol_errors`` counters and the ``connections_open`` /
    ``connections_peak`` gauges, all visible in
    :meth:`~repro.serve.metrics.MetricsRegistry.snapshot`.

    **Tracing.**  A search frame carrying a sampled trace context
    records two children of the client's span on the engine's tracer:
    ``frontend.submit`` (frame decoded → ``engine.submit`` returned) and
    ``frontend.reply`` (engine resolve → the joined ``write`` returned).
    """

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 1024,
        metrics_port: int | None = None,
    ):
        #: The engine search frames go to.
        self.engine = engine
        self.host = host
        self.port = port
        self.backlog = backlog
        #: Optional plaintext metrics endpoint: when set, :meth:`start`
        #: additionally listens on ``(host, metrics_port)`` and answers
        #: every connection with one Prometheus text exposition of the
        #: engine registry (``repro.obs.timeline.to_prometheus``), then
        #: closes — the scrape contract of a stock Prometheus target
        #: without pulling in an HTTP stack.  Port 0 picks a free port
        #: (see :attr:`metrics_address`).
        self.metrics_port = metrics_port
        self.metrics = engine.metrics
        self.tracer = engine.tracer
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        #: Open-connection registry: handler task -> its stream writer.
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._open = 0
        self._peak = 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not running (call start())")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def metrics_address(self) -> tuple[str, int]:
        """The bound metrics ``(host, port)`` (after :meth:`start`)."""
        if self._metrics_server is None:
            raise RuntimeError("metrics endpoint is not running")
        host, port = self._metrics_server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> "VectorSearchServer":
        """Bind and start accepting connections; returns self."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, backlog=self.backlog
        )
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics_conn, self.host, self.metrics_port
            )
        return self

    async def stop(self) -> None:
        """Stop accepting, drop every open connection (idempotent).

        Connections are dropped by aborting their transports (the reader
        loops then exit and cancel their own in-flight engine requests)
        rather than by cancelling the handler tasks — asyncio's stream
        machinery logs a cancelled handler as an error.  An abort, unlike
        ``close``, does not wait to flush unsent replies, so a client that
        stopped reading cannot hold up the stop.  They are dropped before
        ``wait_closed``, which from Python 3.12 waits for every
        connection to end.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        conns = dict(self._conns)
        for writer in conns.values():
            writer.transport.abort()
        if conns:
            await asyncio.gather(*conns.keys(), return_exceptions=True)
        await server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None

    async def __aenter__(self) -> "VectorSearchServer":
        """Async context entry: start listening."""
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        """Async context exit: stop listening and drop connections."""
        await self.stop()

    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read frames, submit searches, write replies.

        A search frame goes straight to ``engine.submit`` (a refusal is
        answered with its error frame at once).  The engine future's
        done-callback queues the answer on this connection's completion
        list; only the first completion of a burst wakes the loop, and
        ``flush`` writes the whole burst as one joined ``write``.  Any
        other frame type drops the connection.  The reader awaits
        ``drain`` before every frame, so a client that stops reading
        stops being read, and with :data:`_CONN_INFLIGHT_CAP` searches
        unanswered it waits for a flush, so a connection never has more
        searches than that in flight.
        """
        conn = asyncio.current_task()
        if conn is not None:
            self._conns[conn] = writer
        m = self.metrics
        # The handler runs on the event loop, so _open/_peak mutate
        # single-threaded; the registry copies them out as gauges.
        self._open += 1
        self._peak = max(self._peak, self._open)
        m.inc("connections_opened")
        m.set_gauge("connections_open", self._open)
        m.max_gauge("connections_peak", self._peak)
        loop = asyncio.get_running_loop()
        engine, tracer = self.engine, self.tracer
        inflight: set[Future] = set()  # engine futures not yet flushed
        room = asyncio.Event()  # set by flush once inflight is below the cap
        done: list = []  # (request, engine future, reply span) to write
        done_lock = threading.Lock()

        def send(frames: list[bytes]) -> None:
            # The one write path of every reply on this connection.
            if frames and not writer.is_closing():
                writer.write(b"".join(frames))
                m.inc("frames_out", len(frames))

        def flush() -> None:
            # On the loop: answer every completion queued since the wake-up.
            nonlocal done
            with done_lock:
                burst, done = done, []
            frames, spans = [], []
            for req, fut, span in burst:
                inflight.discard(fut)
                if fut.cancelled():
                    continue
                exc = fut.exception()
                frames.append(
                    _result_frame(req.request_id, fut.result())
                    if exc is None
                    else encode_exception(req.request_id, exc)
                )
                if span is not None:
                    spans.append(span)
            send(frames)
            for span in spans:
                span.end()
            if len(inflight) < _CONN_INFLIGHT_CAP:
                room.set()

        def completed(req: SearchFrame, fut: Future) -> None:
            # On a dispatcher thread (inline on the loop for a cache hit or
            # a cancel): queue the answer, wake the loop once per burst.
            span = None
            if req.trace is not None and tracer is not None:
                span = tracer.continue_trace(req.trace, "frontend.reply")
            with done_lock:
                done.append((req, fut, span))
                wake = len(done) == 1
            if wake:
                try:
                    loop.call_soon_threadsafe(flush)
                except RuntimeError:
                    pass  # loop already closed; nobody is left to answer

        def search(req: SearchFrame) -> None:
            span = None
            if req.trace is not None and tracer is not None:
                span = tracer.continue_trace(req.trace, "frontend.submit")
            try:
                fut = engine.submit(
                    req.query, req.k, req.nprobe,
                    tenant=req.tenant, priority=req.priority, trace=req.trace,
                )
            except Exception as exc:  # shed, quota, wrong dimension, stopped
                fut = None
                send([encode_exception(req.request_id, exc)])
            if span is not None:
                span.end()
            if fut is not None:
                inflight.add(fut)
                fut.add_done_callback(partial(completed, req))

        try:
            while True:
                while len(inflight) >= _CONN_INFLIGHT_CAP:
                    room.clear()
                    await room.wait()
                try:
                    # Backpressure: while the transport holds unread
                    # replies above its high-water mark, read nothing.
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                try:
                    frame = await read_frame(reader)
                    if frame is None:
                        break  # clean close
                    ftype, payload = frame
                    # Response frames, and a shard worker's plan and stats
                    # requests, are not valid client traffic.
                    if ftype != FRAME_SEARCH:
                        raise ProtocolError(f"unserved frame type 0x{ftype:02x}")
                    req = decode_search(payload)
                except ProtocolError:
                    m.inc("protocol_errors")
                    break  # garbage, mid-frame EOF or another kind: drop
                m.inc("frames_in")
                search(req)
        finally:
            # Disconnect (or server stop): abandon this connection's
            # in-flight requests.  The dispatcher drops a cancelled engine
            # request at batch time, sparing its batch-mates.
            for fut in inflight:
                fut.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if conn is not None:
                self._conns.pop(conn, None)
            self._open -= 1
            m.set_gauge("connections_open", self._open)

    async def _serve_metrics_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One metrics scrape: write the text exposition, close.

        The endpoint is deliberately one-shot plaintext (connect → read
        to EOF), so ``curl``, ``nc``, and a Prometheus file_sd target
        all work without the server growing an HTTP dependency.
        """
        from repro.obs.timeline import to_prometheus

        try:
            writer.write(to_prometheus(self.metrics.snapshot()).encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _result_frame(request_id: int, res: ServeResult) -> bytes:
    """The result frame of one answered search."""
    return encode_result(
        request_id, res.ids, res.dists,
        queue_us=res.queue_us, exec_us=res.exec_us,
        batch_size=res.batch_size, cache_hit=res.cache_hit,
        coverage=res.coverage,
    )


class AsyncClient:
    """Protocol client: pipelined requests over one connection.

    ``submit`` sends a frame and returns an :class:`asyncio.Future`;
    ``search`` awaits one answer.  A background reader task correlates
    responses by request id, so any number of requests may be in flight.
    Remote sheds raise the same exceptions the local engine raises —
    :class:`AdmissionError` for a full queue, :class:`QuotaExceededError`
    (with ``retry_after_s`` from the server's token bucket) for quota —
    and server failures raise :class:`RemoteServeError`.

    Closing the client abandons its in-flight requests: pending futures
    fail with :class:`ConnectionResetError` locally, and the server
    cancels the matching engine requests.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, tuple[asyncio.Future, str]] = {}
        self._next_id = 0
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncClient":
        """Open a connection to a :class:`VectorSearchServer`."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int | None = None,
        *,
        tenant: str = DEFAULT_TENANT,
        priority: bool = False,
        trace: SpanContext | None = None,
    ) -> "asyncio.Future[ServeResult]":
        """Send one request; returns a future for its (remote) result.

        A sampled ``trace`` rides the frame's trace-context tail, so the
        server continues the caller's trace (and sampling decision).
        """
        if self._closed:
            raise ConnectionResetError("client is closed")
        rid = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = (fut, tenant)
        self._writer.write(
            encode_search(
                rid, query, k, nprobe, tenant=tenant, priority=priority,
                trace=trace,
            )
        )
        return fut

    async def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int | None = None,
        *,
        tenant: str = DEFAULT_TENANT,
        priority: bool = False,
        trace: SpanContext | None = None,
    ) -> ServeResult:
        """Submit one query and await its :class:`ServeResult`."""
        fut = self.submit(
            query, k, nprobe, tenant=tenant, priority=priority, trace=trace
        )
        await self._writer.drain()
        return await fut

    async def close(self) -> None:
        """Close the connection; in-flight requests fail locally.

        Idempotent, and always closes the socket, also after the server
        dropped the connection (the reader loop already marked the
        client closed then).
        """
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._fail_pending(ConnectionResetError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncClient":
        """Async context entry: the connected client."""
        return self

    async def __aexit__(self, *exc) -> None:
        """Async context exit: close the connection."""
        await self.close()

    @property
    def in_flight(self) -> int:
        """Requests sent but not yet answered."""
        return len(self._pending)

    # ------------------------------------------------------------------ #
    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for fut, _tenant in pending.values():
            if not fut.done():
                fut.set_exception(exc)

    def _dispatch(self, ftype: int, payload: bytes) -> None:
        """Resolve the pending future a response frame addresses."""
        if ftype == FRAME_ERROR:
            decoded = decode_error(payload)
        elif ftype == FRAME_RESULT:
            decoded = decode_result(payload)
        else:
            raise ProtocolError(f"server sent frame type 0x{ftype:02x}")
        entry = self._pending.pop(decoded.request_id, None)
        if entry is None or entry[0].done():
            return  # response to an abandoned request; drop
        fut, tenant = entry
        if ftype == FRAME_ERROR:
            fut.set_exception(remote_exception(decoded))
            return
        fut.set_result(
            ServeResult(
                ids=np.array(decoded.ids, dtype=np.int64, copy=True),
                dists=np.array(decoded.dists, dtype=np.float32, copy=True),
                queue_us=decoded.queue_us,
                exec_us=decoded.exec_us,
                batch_size=decoded.batch_size,
                cache_hit=decoded.cache_hit,
                coverage=decoded.coverage,
                tenant=tenant,
            )
        )

    async def _read_loop(self) -> None:
        """Background reader: frames in, pending futures resolved."""
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    self._fail_pending(
                        BackendUnavailableError("server closed the connection")
                    )
                    self._closed = True
                    return
                self._dispatch(*frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # protocol or socket error: fail waiters
            # Typed shard-error signal: waiters see the same
            # BackendUnavailableError a blocking RemoteBackend raises, so
            # replica failover and degrade mode engage identically on the
            # async path.
            self._fail_pending(BackendUnavailableError(str(exc)))
            self._closed = True
