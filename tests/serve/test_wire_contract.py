"""The wire tier's shared contracts, through both of its clients.

The asyncio reader (:func:`repro.serve.protocol.read_frame`) and the
blocking :class:`~repro.serve.workers.RemoteBackend` reader must reject
the same malformed streams; the error table must map an exception on the
server to the same exception at :class:`~repro.serve.aio.AsyncClient`
and at :class:`RemoteBackend`; an engine-less (shard worker) server
must serve preselect and stats frames only; and the module-level codec
names the benchmark wraps to count frames must stay on the request path.

Everything runs in-process: servers on a background event loop, fake
workers on a thread, no worker processes.
"""

import asyncio
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.serve.aio as aio
import repro.serve.workers as workers
from repro.ann.ivf import IVFPQIndex
from repro.ann.partition import replicate_index
from repro.data.synthetic import make_clustered
from repro.obs.trace import Tracer
from repro.net.wire import (
    FRAME_HEADER,
    FRAME_RESULT,
    MAX_FRAME_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
)
from repro.serve import (
    AdmissionError,
    AsyncClient,
    QuotaExceededError,
    RemoteBackend,
    RemoteServeError,
    ServingEngine,
    VectorSearchServer,
)
from repro.serve.backends import BackendUnavailableError
from repro.serve.protocol import ProtocolError, encode_search, read_frame

D = 8
K = 3
NPROBE = 2

#: Malformed reply streams, by what is wrong with them.
MALFORMED = {
    "bad_magic": FRAME_HEADER.pack(0xDEAD, WIRE_VERSION, FRAME_RESULT, 0),
    "wrong_version": FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION + 1, FRAME_RESULT, 0),
    "unknown_type": FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0x7F, 0),
    "oversized": FRAME_HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION, FRAME_RESULT, MAX_FRAME_BYTES + 1
    ),
    "eof_mid_header": FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, FRAME_RESULT, 0)[:5],
    "eof_mid_payload": FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, FRAME_RESULT, 64)
    + bytes(10),
}
#: Streams cut short, which the blocking reader may report as a reset.
TRUNCATED = {"eof_mid_header", "eof_mid_payload"}

#: One call of each kind a RemoteBackend makes.
CALLS = {
    "search_batch_preselected": lambda b: b.search_batch_preselected(
        np.zeros((1, D), np.float32), np.zeros((1, NPROBE), np.int32), K
    ),
    "stats": lambda b: b.stats(),
}


def _recv_exact(conn: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise ConnectionResetError("peer closed")
        buf += chunk
    return buf


@contextmanager
def fake_worker(reply: bytes):
    """A listening socket that answers each connection's first request
    frame with ``reply``, then closes its sending side."""
    lsock = socket.create_server(("127.0.0.1", 0))
    lsock.settimeout(0.1)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                continue
            with conn:
                conn.settimeout(10)
                try:
                    header = _recv_exact(conn, FRAME_HEADER.size)
                    _recv_exact(conn, FRAME_HEADER.unpack(header)[3])
                    conn.sendall(reply)
                    conn.shutdown(socket.SHUT_WR)
                    while conn.recv(1 << 16):
                        pass  # wait for the client to hang up
                except OSError:
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield lsock.getsockname()[:2]
    finally:
        stop.set()
        thread.join(10)
        lsock.close()


@pytest.mark.parametrize("name", sorted(MALFORMED))
class TestBothReadersRejectMalformedStreams:
    def test_asyncio_reader(self, name):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(MALFORMED[name])
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(go())

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_remote_backend(self, name, call):
        """Every call kind fails promptly into the typed shard error,
        caused by the malformed frame itself."""
        with fake_worker(MALFORMED[name]) as (host, port):
            backend = RemoteBackend(host, port)
            t0 = time.perf_counter()
            with pytest.raises(BackendUnavailableError) as info:
                CALLS[call](backend)
            elapsed = time.perf_counter() - t0
            backend.close()
        cause = info.value.__cause__
        allowed = (ProtocolError, ConnectionResetError) if name in TRUNCATED else ProtocolError
        assert isinstance(cause, allowed), repr(cause)
        assert elapsed < 5.0


def test_remote_backend_times_out_without_retry(monkeypatch):
    """A worker that accepts but never answers is wedged, not gone: the
    call fails once, typed, after the RPC timeout (no retry doubles the
    stall)."""
    monkeypatch.setattr(workers, "RPC_TIMEOUT_S", 0.3)
    # The kernel completes the handshake on a listening socket nobody
    # accepts from, so the request is sent and no reply ever comes.
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        backend = RemoteBackend(*lsock.getsockname()[:2])
        t0 = time.perf_counter()
        with pytest.raises(BackendUnavailableError, match="did not answer") as info:
            CALLS["stats"](backend)
        elapsed = time.perf_counter() - t0
        backend.close()
    assert isinstance(info.value.__cause__, TimeoutError)
    assert elapsed < 0.6  # a retry would take >= 0.3 + 0.05 + 0.3 s


# --------------------------------------------------------------------- #
# In-process servers for the blocking client.


@contextmanager
def served(backend, preselect_backend=None):
    """A started server on a background event loop, yielded: a front end
    with an engine over ``backend``, or an engine-less shard worker
    server when ``backend`` is None."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(30)

    engine = (
        ServingEngine(backend, max_batch=4, policy="shed").start()
        if backend is not None
        else None
    )
    server = run(
        VectorSearchServer(engine, preselect_backend=preselect_backend).start()
    )
    try:
        yield server
    finally:
        run(server.stop())
        if engine is not None:
            engine.stop()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


class RaisingBackend:
    """Answers with zeros, or raises ``exc`` from both scan entry points."""

    def __init__(self):
        self.exc: Exception | None = None

    def _answer(self, nq: int, k: int):
        if self.exc is not None:
            raise self.exc
        return np.zeros((nq, k), np.int64), np.zeros((nq, k), np.float32)

    def search_batch(self, queries, k, nprobe=None):
        return self._answer(np.atleast_2d(queries).shape[0], k)

    def search_batch_preselected(self, queries_t, probed, k):
        return self._answer(np.atleast_2d(queries_t).shape[0], k)


#: Server-side exception → (client-side type, client-side message).
ERROR_TABLE = [
    (
        QuotaExceededError("tenant over quota", retry_after_s=1.5),
        QuotaExceededError,
        "tenant over quota",
    ),
    (AdmissionError("queue full"), AdmissionError, "queue full"),
    (ValueError("bad plan"), RemoteServeError, "ValueError: bad plan"),
]


def _check_mapped(exc: Exception, raised: Exception, want_type, want_msg) -> None:
    assert type(exc) is want_type
    assert str(exc) == want_msg
    if isinstance(raised, QuotaExceededError):
        assert exc.retry_after_s == 1.5


@pytest.mark.parametrize(("raised", "want_type", "want_msg"), ERROR_TABLE)
class TestErrorTable:
    def test_through_async_client(self, raised, want_type, want_msg):
        backend = RaisingBackend()
        with served(backend) as server:
            host, port = server.address

            async def go():
                async with await AsyncClient.connect(host, port) as client:
                    backend.exc = raised
                    with pytest.raises(want_type) as info:
                        await client.search(np.zeros(D, np.float32), K)
                    backend.exc = None
                    await client.search(np.zeros(D, np.float32), K)
                return info.value

            _check_mapped(asyncio.run(go()), raised, want_type, want_msg)

    @pytest.mark.parametrize("call", ["search_batch_preselected"])
    def test_through_remote_backend(self, raised, want_type, want_msg, call):
        backend = RaisingBackend()
        with served(None, preselect_backend=backend) as server:
            remote = RemoteBackend(*server.address)
            backend.exc = raised
            with pytest.raises(want_type) as info:
                CALLS[call](remote)
            _check_mapped(info.value, raised, want_type, want_msg)
            # The failed call left the connection aligned: the next one
            # answers.
            backend.exc = None
            ids, _ = CALLS[call](remote)
            assert ids.shape == (1, K)
            remote.close()


@pytest.fixture(scope="module")
def tiny_index():
    vecs = make_clustered(560, D, n_clusters=8, seed=5)
    index = IVFPQIndex(d=D, nlist=8, m=2, ksub=16, seed=0)
    index.train(vecs[:500])
    index.add(vecs[:500])
    return index, vecs[500:]


class TestPreselectAlignment:
    def test_out_of_range_cell_then_next_call_succeeds(self, tiny_index):
        index, queries = tiny_index
        engine_view, scan_view, plan_view = replicate_index(index, 3)
        queries_t, probed = plan_view.preselect(queries[:4], NPROBE)
        bad = probed.copy()
        bad[0, 0] = index.nlist  # one past the last cell
        ref_ids, ref_dists = index.search(queries[:4], K, NPROBE)
        with served(engine_view, preselect_backend=scan_view) as server:
            remote = RemoteBackend(*server.address)
            with pytest.raises(RemoteServeError, match="ValueError"):
                remote.search_batch_preselected(queries_t, bad, K)
            ids, dists = remote.search_batch_preselected(queries_t, probed, K)
            remote.close()
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)


class TestWorkerServer:
    """An engine-less server is a shard worker: preselect and stats
    frames only."""

    def test_needs_an_engine_or_a_preselect_backend(self):
        with pytest.raises(ValueError, match="preselect_backend"):
            VectorSearchServer(None)

    def test_search_frame_drops_the_connection(self, tiny_index):
        index, queries = tiny_index
        (scan_view,) = replicate_index(index, 1)
        queries_t, probed = index.preselect(queries[:4], NPROBE)
        with served(None, preselect_backend=scan_view) as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(encode_search(1, queries[0], K, NPROBE))
                assert sock.recv(1 << 16) == b""  # dropped, no reply
            counters = server.metrics.snapshot().counters
            assert counters["protocol_errors"] == 1
            # The server itself keeps serving its one request kind.
            remote = RemoteBackend(*server.address)
            ids, _ = remote.search_batch_preselected(queries_t, probed, K)
            assert ids.shape == (4, K)
            assert remote.stats()["metrics"]["counters"]["completed"] == 4
            remote.close()

    def test_failed_traced_call_leaves_no_spans(self, tiny_index):
        """A traced preselect whose scan raises ships no spans (an error
        frame has no room for them) and strands none in the worker."""
        index, queries = tiny_index
        (scan_view,) = replicate_index(index, 1)
        queries_t, probed = index.preselect(queries[:4], NPROBE)
        bad = probed.copy()
        bad[0, 0] = -5
        router = Tracer(sample_rate=1.0, seed=0)
        with served(None, preselect_backend=scan_view) as server:
            remote = RemoteBackend(*server.address)
            with router.start_trace("request"):
                with pytest.raises(RemoteServeError, match="ValueError"):
                    remote.search_batch_preselected(queries_t, bad, K)
            with router.start_trace("request"):
                remote.search_batch_preselected(queries_t, probed, K)
            remote.close()
            assert len(server.tracer) == 0
        scans = [s for s in router.spans() if s["name"] == "worker_scan"]
        assert len(scans) == 1


class TestCodecHooks:
    """The benchmark counts wire frames, and its smoke corrupts answers,
    by replacing these four module globals; both clients must call them
    by name from their own modules."""

    HOOKS = [
        (aio, "encode_search"),
        (aio, "decode_result"),
        (workers, "encode_preselect"),
        (workers, "decode_batch_result"),
    ]

    def test_wrapped_codecs_see_the_traffic(self, tiny_index, monkeypatch):
        index, queries = tiny_index
        counts = {}
        for module, name in self.HOOKS:
            inner = getattr(module, name)
            key = f"{module.__name__}.{name}"
            counts[key] = 0

            def counting(*args, _inner=inner, _key=key, **kwargs):
                counts[_key] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        engine_view, scan_view, plan_view = replicate_index(index, 3)
        queries_t, probed = plan_view.preselect(queries[:4], NPROBE)
        with served(engine_view, preselect_backend=scan_view) as server:
            host, port = server.address

            async def one_search():
                async with await AsyncClient.connect(host, port) as client:
                    return await client.search(queries[0], K, NPROBE)

            res = asyncio.run(one_search())
            remote = RemoteBackend(host, port)
            remote.search_batch_preselected(queries_t, probed, K)
            remote.close()
        assert res.ids.shape == (K,)
        assert all(n > 0 for n in counts.values()), counts
