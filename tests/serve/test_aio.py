"""Tests for the asyncio serving front end (repro/serve/aio.py).

No pytest-asyncio in the container: each test drives its own event loop
with ``asyncio.run`` — which also matches how the harness embeds the
async tier inside synchronous benchmarks.
"""

import asyncio
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.ann.ivf import IVFPQIndex
from repro.data.synthetic import make_clustered
from repro.serve import (
    AdmissionError,
    AsyncClient,
    QuotaExceededError,
    RemoteServeError,
    ServingEngine,
    TenantPolicy,
    VectorSearchServer,
    WFQDiscipline,
)

D = 16
K = 5
NPROBE = 4


class FakeBackend:
    """Deterministic stand-in: ids derive from the query's first element."""

    def __init__(self, delay_s: float = 0.0, fail: bool = False):
        self.delay_s = delay_s
        self.fail = fail

    def search_batch(self, queries, k, nprobe=None):
        if self.fail:
            raise RuntimeError("backend exploded")
        if self.delay_s:
            time.sleep(self.delay_s)
        queries = np.atleast_2d(queries)
        base = queries[:, 0].astype(np.int64)[:, None]
        ids = base * 100 + np.arange(k, dtype=np.int64)[None, :]
        dists = np.tile(np.arange(k, dtype=np.float32), (queries.shape[0], 1))
        return ids, dists


class GatedBackend(FakeBackend):
    """Backend whose calls block on an event — deterministic occupancy."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.calls = 0

    def search_batch(self, queries, k, nprobe=None):
        self.calls += 1
        self.entered.release()
        assert self.gate.wait(timeout=30), "gate never opened"
        return super().search_batch(queries, k, nprobe)


@pytest.fixture(scope="module")
def small_index():
    vecs = make_clustered(2200, D, n_clusters=32, seed=11)
    index = IVFPQIndex(d=D, nlist=32, m=4, ksub=32, seed=0)
    index.train(vecs[:2000])
    index.add(vecs[:2000])
    index.invlists
    return index, vecs[2000:]


async def _await_entered(backend: GatedBackend) -> None:
    """Await a dispatcher parking inside the gated backend (loop-safe)."""
    await asyncio.to_thread(backend.entered.acquire, True, 30)


class TestAsyncEngineFacade:
    """In-process asyncio callers await the engine's own futures through
    ``asyncio.wrap_future``: the loop-side contract the server relies on."""

    def test_results_bit_identical_to_direct_search(self, small_index):
        index, queries = small_index
        ref_ids, ref_dists = index.search(queries, K, NPROBE)

        async def serve():
            engine = ServingEngine(
                index, max_batch=8, max_wait_us=5000.0,
                queue_depth=4 * len(queries), policy="shed",
            )
            with engine:
                futs = [
                    asyncio.wrap_future(engine.submit(q, K, NPROBE))
                    for q in queries
                ]
                return await asyncio.gather(*futs)

        got = asyncio.run(serve())
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref_ids)
        np.testing.assert_array_equal(np.stack([g.dists for g in got]), ref_dists)

    def test_shed_raises_from_submit(self):
        """Backpressure reaches the async caller as an exception, never a
        blocked event loop."""
        be = GatedBackend()

        async def go():
            engine = ServingEngine(
                be, max_batch=1, queue_depth=1, policy="shed"
            )
            with engine:
                q = np.zeros(D, dtype=np.float32)
                first = engine.submit(q, K)  # dequeued into the backend
                await _await_entered(be)
                second = engine.submit(q, K)  # fills the queue slot
                with pytest.raises(AdmissionError, match="shed"):
                    engine.submit(q, K)
                be.gate.set()
                await asyncio.gather(
                    asyncio.wrap_future(first), asyncio.wrap_future(second)
                )

        asyncio.run(go())

    def test_quota_shed_carries_retry_after(self):
        async def go():
            discipline = WFQDiscipline(
                {"t": TenantPolicy(rate_qps=0.5, burst=1)}, depth=16
            )
            engine = ServingEngine(
                FakeBackend(), max_batch=4, policy="shed",
                discipline=discipline,
            )
            with engine:
                q = np.zeros(D, dtype=np.float32)
                await asyncio.wrap_future(engine.submit(q, K, tenant="t"))
                with pytest.raises(QuotaExceededError) as exc_info:
                    engine.submit(q, K, tenant="t")
                # One token burned, refill at 0.5/s: ~2 s until the next.
                assert exc_info.value.retry_after_s == pytest.approx(2.0, rel=0.1)

        asyncio.run(go())

    def test_cancel_while_queued_skips_backend_and_spares_batch_mates(self):
        """A cancelled waiter's request is dropped at dispatch: the
        backend never sees it and co-queued requests are unaffected."""
        be = GatedBackend()

        async def go():
            engine = ServingEngine(be, max_batch=1, queue_depth=8)
            with engine:

                def submit(v):
                    q = np.full(D, v, dtype=np.float32)
                    return asyncio.wrap_future(engine.submit(q, K))

                blocker = submit(1)  # occupies the dispatcher
                await _await_entered(be)
                doomed = submit(2)
                survivor = submit(3)
                doomed.cancel()
                # Done-callbacks run on the next loop pass; yield so the
                # cancellation reaches the engine future before dispatch.
                await asyncio.sleep(0)
                be.gate.set()
                res = await survivor
                assert res.ids[0] == 300  # bit-identical to its own query
                await blocker
                with pytest.raises(asyncio.CancelledError):
                    await doomed
            # max_batch=1: one call per *served* request; the cancelled
            # one never reached the backend.
            assert be.calls == 2
            assert engine.metrics.snapshot().counters["cancelled"] == 1

        asyncio.run(go())

    def test_stop_with_pending_waiters_resolves_them_all(self):
        """stop() drains: every pending await gets its answer, not a
        cancellation."""
        be = FakeBackend(delay_s=0.005)

        async def go():
            engine = ServingEngine(be, max_batch=2)
            engine.start()
            q = np.zeros(D, dtype=np.float32)
            futs = [asyncio.wrap_future(engine.submit(q, K)) for _ in range(8)]
            await asyncio.to_thread(engine.stop)
            results = await asyncio.gather(*futs)
            assert all(r.ids.shape == (K,) for r in results)

        asyncio.run(go())


def _free_server(engine):
    """A server on an ephemeral localhost port."""
    return VectorSearchServer(engine)


class TestSocketServer:
    def test_pipelined_requests_bit_identical_over_wire(self, small_index):
        index, queries = small_index
        ref_ids, ref_dists = index.search(queries, K, NPROBE)

        async def serve():
            engine = ServingEngine(
                index, max_batch=8, max_wait_us=5000.0,
                queue_depth=4 * len(queries), policy="shed",
            )
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        futs = [client.submit(q, K, NPROBE) for q in queries]
                        assert client.in_flight == len(queries)
                        return await asyncio.gather(*futs)

        got = asyncio.run(serve())
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref_ids)
        np.testing.assert_array_equal(np.stack([g.dists for g in got]), ref_dists)

    def test_tenant_and_priority_cross_the_wire(self):
        seen = {}

        async def go():
            discipline = WFQDiscipline(
                {"gold": TenantPolicy(weight=2.0, priority=True)}, depth=64
            )
            engine = ServingEngine(
                FakeBackend(), max_batch=4, policy="shed", discipline=discipline
            )
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        res = await client.search(
                            np.zeros(D, dtype=np.float32), K,
                            tenant="gold", priority=True,
                        )
                        seen["tenant"] = res.tenant
            snap = engine.metrics.snapshot()
            seen["tenants"] = set(snap.tenants)

        asyncio.run(go())
        assert seen["tenant"] == "gold"
        assert "gold" in seen["tenants"]

    def test_quota_error_frame_carries_retry_after(self):
        async def go():
            discipline = WFQDiscipline(
                {"t": TenantPolicy(rate_qps=0.5, burst=1)}, depth=16
            )
            engine = ServingEngine(
                FakeBackend(), max_batch=4, policy="shed",
                discipline=discipline,
            )
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        q = np.zeros(D, dtype=np.float32)
                        await client.search(q, K, tenant="t")
                        with pytest.raises(QuotaExceededError) as exc_info:
                            await client.search(q, K, tenant="t")
                        assert exc_info.value.retry_after_s == pytest.approx(
                            2.0, rel=0.1
                        )

        asyncio.run(go())

    def test_backend_failure_surfaces_as_remote_error(self):
        be = FakeBackend(fail=True)

        async def go():
            engine = ServingEngine(be, max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        with pytest.raises(RemoteServeError, match="exploded"):
                            await client.search(np.zeros(D, dtype=np.float32), K)
                        # The connection survives a failed request.
                        be.fail = False
                        res = await client.search(
                            np.zeros(D, dtype=np.float32), K
                        )
                        assert res.ids.shape == (K,)

        asyncio.run(go())

    def test_client_disconnect_mid_request_cancels_without_poisoning(self):
        """A vanished client's queued request is dropped; the engine and
        other connections keep serving."""
        be = GatedBackend()

        async def go():
            engine = ServingEngine(be, max_batch=1, queue_depth=8)
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    keeper = await AsyncClient.connect(host, port)
                    leaver = await AsyncClient.connect(host, port)
                    q = lambda v: np.full(D, v, dtype=np.float32)  # noqa: E731
                    blocker = keeper.submit(q(1), K)
                    await keeper._writer.drain()
                    await _await_entered(be)  # dispatcher parked in backend
                    doomed = leaver.submit(q(2), K)
                    await leaver._writer.drain()
                    # Give the server a beat to enqueue the request, then
                    # vanish with it still queued behind the blocker.
                    await asyncio.sleep(0.05)
                    await leaver.close()
                    with pytest.raises(ConnectionResetError):
                        await doomed
                    await asyncio.sleep(0.05)  # let the server see the EOF
                    be.gate.set()
                    res = await blocker
                    assert res.ids[0] == 100
                    # New connections still served after the disconnect.
                    async with await AsyncClient.connect(host, port) as c3:
                        res3 = await c3.search(q(3), K)
                        assert res3.ids[0] == 300
                    await keeper.close()
            counters = engine.metrics.snapshot().counters
            assert counters.get("cancelled", 0) == 1

        asyncio.run(go())

    def test_garbage_bytes_drop_connection_not_server(self):
        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(b"GET / HTTP/1.1\r\n\r\n")
                    await writer.drain()
                    # Server drops the connection at the bad magic.
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    # And still serves well-formed clients.
                    async with await AsyncClient.connect(host, port) as client:
                        res = await client.search(np.zeros(D, dtype=np.float32), K)
                        assert res.ids.shape == (K,)

        asyncio.run(go())

    def test_server_stop_fails_pending_client_futures(self):
        be = GatedBackend()

        async def go():
            engine = ServingEngine(be, max_batch=1, queue_depth=8)
            with engine:
                server = await _free_server(engine).start()
                host, port = server.address
                client = await AsyncClient.connect(host, port)
                fut = client.submit(np.zeros(D, dtype=np.float32), K)
                await client._writer.drain()
                await _await_entered(be)
                await server.stop()  # drops the connection mid-request
                with pytest.raises(ConnectionError):
                    await fut
                await client.close()
                be.gate.set()

        asyncio.run(go())

    def test_close_after_server_drop_closes_the_socket(self):
        """The reader loop marks the client closed when the server drops
        the connection; close() must still close the transport."""

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                server = await _free_server(engine).start()
                client = await AsyncClient.connect(*server.address)
                await client.search(np.zeros(D, dtype=np.float32), K)
                await server.stop()
                await asyncio.wait_for(client._read_task, 10)  # saw EOF
                await client.close()
                return client._writer.is_closing()

        assert asyncio.run(go())

    def test_address_requires_started_server(self):
        server = VectorSearchServer(ServingEngine(FakeBackend()))
        with pytest.raises(RuntimeError, match="not running"):
            server.address


class DimGatedBackend(GatedBackend):
    """A gated backend that advertises its dimension (the engine then
    refuses a wrong-dimension query at submit)."""

    d = D


def _tap_submits(engine: ServingEngine) -> list:
    """Record every engine future ``engine.submit`` hands out."""
    futs, submit = [], engine.submit

    def tapped(*args, **kwargs):
        fut = submit(*args, **kwargs)
        futs.append(fut)
        return fut

    engine.submit = tapped
    return futs


#: A stalled client's traffic: 4 KiB search frames, 12 KiB replies.
STALL_REQUESTS, STALL_D, STALL_K = 3000, 1024, 1024


async def _stall_client(server):
    """Pipeline search frames from a raw socket that reads nothing.

    The socket has a small receive buffer and sends ``STALL_REQUESTS``
    frames from a thread.  Returns ``(sock, sender, counters)`` once the
    server has stopped reading it and answering it (``frames_in`` and
    ``frames_out`` flat over a poll), after asserting that it did stop
    short of the last frame.
    """
    from repro.serve.protocol import encode_search

    requests = b"".join(
        encode_search(i, np.full(STALL_D, i % 251, dtype=np.float32), STALL_K)
        for i in range(STALL_REQUESTS)
    )
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(60)
    sock.connect(server.address)
    sender = asyncio.ensure_future(asyncio.to_thread(sock.sendall, requests))
    seen = None
    try:
        while True:
            await asyncio.sleep(0.25)
            counters = server.metrics.snapshot().counters
            flow = (counters["frames_in"], counters.get("frames_out", 0))
            if flow == seen:
                break
            seen = flow
        assert seen[0] < STALL_REQUESTS, "the server kept reading a client that reads nothing"
    except BaseException:
        _drop(sock)
        raise
    return sock, sender, counters


def _drop(sock) -> None:
    """Close a stalled client's socket, waking a send blocked on it.

    It holds unread replies, so the close resets the connection and no
    server stop waits on it.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already reset by the server
    sock.close()


class SlowFirstBatchBackend(FakeBackend):
    """Its first batch takes ``first_s``: meanwhile the server's reader
    outpaces the engine, as it does behind any stall of the dispatcher."""

    def __init__(self, first_s: float):
        super().__init__()
        self.first_s = first_s
        self.calls = 0

    def search_batch(self, queries, k, nprobe=None):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.first_s)
        return super().search_batch(queries, k, nprobe)


class TestCoalescedReplies:
    """One loop wake-up and one ``write`` per engine batch and connection."""

    def test_one_wakeup_and_one_write_per_batch(self):
        be = GatedBackend()
        queries = [np.full(D, v, dtype=np.float32) for v in range(1, 9)]
        ref_ids, ref_dists = FakeBackend().search_batch(np.stack(queries), K)
        counts = {"wakeups": 0, "writes": 0}

        async def go():
            # The window only closes at max_batch: all 8 form one batch.
            engine = ServingEngine(
                be, max_batch=8, max_wait_us=30e6, policy="shed"
            )
            futs = _tap_submits(engine)
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        pending = [client.submit(q, K) for q in queries]
                        await client._writer.drain()
                        await _await_entered(be)
                        assert len(futs) == 8
                        loop = asyncio.get_running_loop()
                        (writer,) = server._conns.values()
                        transport = writer.transport
                        wake, write = loop.call_soon_threadsafe, transport.write

                        def counted_wake(*args, **kwargs):
                            counts["wakeups"] += 1
                            return wake(*args, **kwargs)

                        def counted_write(data):
                            counts["writes"] += 1
                            return write(data)

                        loop.call_soon_threadsafe = counted_wake
                        transport.write = counted_write
                        # The server's done-callback on each future runs
                        # before this one, so once all 8 have fired every
                        # completion is queued for the one flush.
                        resolved = threading.Semaphore(0)
                        for fut in futs:
                            fut.add_done_callback(lambda _f: resolved.release())
                        be.gate.set()
                        for _ in futs:  # blocks the loop on purpose
                            assert resolved.acquire(timeout=30)
                        got = await asyncio.gather(*pending)
                        del loop.call_soon_threadsafe, transport.write
                    return got, server.metrics.snapshot().counters

        got, counters = asyncio.run(go())
        assert be.calls == 1
        assert counts == {"wakeups": 1, "writes": 1}
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref_ids)
        np.testing.assert_array_equal(np.stack([g.dists for g in got]), ref_dists)
        assert all(g.batch_size == 8 for g in got)
        assert counters["frames_in"] == counters["frames_out"] == 8

    def test_wrong_dimension_query_is_refused_alone(self):
        """A query the engine refuses at submit gets its error frame at
        once; the valid queries around it are answered."""
        be = DimGatedBackend()
        be.gate.set()
        values = [1, 2, 3, 4, 5, 6, 7, 8]

        async def go():
            engine = ServingEngine(
                be, max_batch=8, max_wait_us=30e6, policy="shed"
            )
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        good = [
                            client.submit(np.full(D, v, dtype=np.float32), K)
                            for v in values[:4]
                        ]
                        bad = client.submit(np.zeros(D + 1, dtype=np.float32), K)
                        good += [
                            client.submit(np.full(D, v, dtype=np.float32), K)
                            for v in values[4:]
                        ]
                        with pytest.raises(RemoteServeError, match="dim"):
                            await bad
                        got = await asyncio.gather(*good)
                    return got, server.metrics.snapshot().counters

        got, counters = asyncio.run(go())
        for v, res in zip(values, got):
            np.testing.assert_array_equal(res.ids, v * 100 + np.arange(K))
        assert be.calls == 1
        assert counters["frames_in"] == counters["frames_out"] == 9

    @pytest.mark.parametrize("queue_depth", [64, 4096])
    def test_client_that_never_reads_stops_being_read(self, queue_depth):
        """A client that pipelines but never reads: the server stops
        reading it, its unwritten replies stay bounded, other connections
        are served, and once it reads every request is answered."""
        from repro.serve.aio import _CONN_INFLIGHT_CAP
        from repro.serve.protocol import HEADER_SIZE, decode_result, parse_header

        n, k = STALL_REQUESTS, STALL_K
        # The admission queue or, when that is deeper, the per-connection
        # cap bounds a connection's requests in flight.
        max_batch = 16
        bound = min(queue_depth + max_batch, _CONN_INFLIGHT_CAP)

        def read_replies(sock) -> dict:
            buf, replies = bytearray(), {}
            while len(replies) < n:
                chunk = sock.recv(1 << 16)
                assert chunk, "server closed the connection"
                buf += chunk
                while len(buf) >= HEADER_SIZE:
                    _, length = parse_header(bytes(buf[:HEADER_SIZE]))
                    if len(buf) < HEADER_SIZE + length:
                        break
                    res = decode_result(bytes(buf[HEADER_SIZE:HEADER_SIZE + length]))
                    replies[res.request_id] = res
                    del buf[:HEADER_SIZE + length]
            return replies

        async def go():
            # The first batch outlasts reading the whole pipeline, yet
            # not a poll of _stall_client.
            engine = ServingEngine(
                SlowFirstBatchBackend(0.2), max_batch=max_batch,
                queue_depth=queue_depth,
            )
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    sock, sender, counters = await _stall_client(server)
                    try:
                        (writer,) = server._conns.values()
                        unsent = writer.transport.get_write_buffer_size()
                        in_flight = counters["frames_in"] - counters.get("frames_out", 0)
                        async with await AsyncClient.connect(host, port) as other:
                            res = await other.search(
                                np.full(D, 7, dtype=np.float32), K
                            )
                            assert res.ids[0] == 700
                        replies = await asyncio.to_thread(read_replies, sock)
                        await sender
                    finally:
                        _drop(sock)
                    return unsent, in_flight, replies

        unsent, in_flight, replies = asyncio.run(go())
        # Replies not yet handed to the kernel: the transport's high-water
        # mark plus what was in flight when reading stopped, not n replies.
        assert in_flight <= bound
        assert unsent < (64 << 10) + bound * (12 * k + 64)
        assert sorted(replies) == list(range(n))
        for i, res in replies.items():
            np.testing.assert_array_equal(res.ids, (i % 251) * 100 + np.arange(k))

    def test_server_stop_drops_a_client_that_never_reads(self):
        """stop() does not wait for a stalled client to read its replies."""

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=16, queue_depth=64)
            with engine:
                server = await _free_server(engine).start()
                sock, sender, _ = await _stall_client(server)
                stopping = asyncio.ensure_future(server.stop())
                try:
                    done, _ = await asyncio.wait({stopping}, timeout=10)
                    assert stopping in done, "stop() waited on a client that reads nothing"
                    assert server.metrics.snapshot().gauges["connections_open"] == 0
                finally:
                    _drop(sock)
                    await asyncio.gather(stopping, sender, return_exceptions=True)

        asyncio.run(go())

    def test_every_reply_arrives_under_thread_churn(self):
        """More dispatcher threads than cores resolve into the completion
        lists while the loop flushes them, with the interpreter switching
        threads as often as it can: a lost append or a lost wake-up would
        leave a request unanswered."""
        connections, per_conn = 4, 400

        async def go():
            engine = ServingEngine(
                FakeBackend(), max_batch=8, max_wait_us=50.0, dispatchers=4,
                queue_depth=connections * per_conn, policy="shed",
            )
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    clients = [
                        await AsyncClient.connect(host, port)
                        for _ in range(connections)
                    ]
                    try:
                        futs = [
                            c.submit(np.full(D, v, dtype=np.float32), K)
                            for c in clients
                            for v in range(per_conn)
                        ]
                        got = await asyncio.wait_for(asyncio.gather(*futs), 60)
                    finally:
                        for c in clients:
                            await c.close()
                    return got, server.metrics.snapshot().counters

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, counters = asyncio.run(go())
        finally:
            sys.setswitchinterval(interval)
        want = np.arange(per_conn)[:, None] * 100 + np.arange(K)[None, :]
        np.testing.assert_array_equal(
            np.stack([g.ids for g in got]), np.tile(want, (connections, 1))
        )
        assert counters["frames_out"] == connections * per_conn

    def test_traced_search_records_frontend_spans(self):
        """A search frame with a sampled trace context records
        ``frontend.submit`` and ``frontend.reply`` under the client's span."""
        from repro.obs.trace import Tracer

        async def go():
            engine = ServingEngine(
                FakeBackend(), max_batch=4, policy="shed",
                tracer=Tracer(sample_rate=0.0),
            )
            client_tracer = Tracer(sample_rate=1.0)
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        root = client_tracer.start_trace("client.request")
                        await client.search(
                            np.zeros(D, dtype=np.float32), K, trace=root.context()
                        )
                        root.end()
                        # An untraced request records nothing.
                        await client.search(np.zeros(D, dtype=np.float32), K)
            return root, engine.tracer.drain()

        root, spans = asyncio.run(go())
        by_name = {s["name"]: s for s in spans}
        assert sorted(by_name) == [
            "batch_assembly", "exec", "frontend.reply", "frontend.submit",
            "queue", "request",
        ]
        submit, reply = by_name["frontend.submit"], by_name["frontend.reply"]
        for s in (submit, reply, by_name["request"]):
            assert (s["trace"], s["parent"]) == (root.trace_id, root.span_id)
        assert submit["ts"] + submit["dur"] <= reply["ts"]
        assert reply["ts"] + reply["dur"] <= root.t0_us + root.dur_us


class TestConnectionMetrics:
    def test_connection_and_frame_counters(self):
        """The registry sees opens, peak concurrency, and frame flow."""
        snap_open = {}

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    c1 = await AsyncClient.connect(host, port)
                    c2 = await AsyncClient.connect(host, port)
                    q = np.zeros(D, dtype=np.float32)
                    await c1.search(q, K)
                    await c2.search(q, K)
                    await asyncio.sleep(0.02)  # both handlers registered
                    snap_open["mid"] = server.metrics.snapshot()
                    await c1.close()
                    await c2.close()
                    await asyncio.sleep(0.05)  # handlers observed the EOFs
                    snap_open["end"] = server.metrics.snapshot()

        asyncio.run(go())
        mid, end = snap_open["mid"], snap_open["end"]
        assert mid.counters["connections_opened"] == 2
        assert mid.gauges["connections_open"] == 2
        assert mid.gauges["connections_peak"] == 2
        assert mid.counters["frames_in"] == 2
        assert mid.counters["frames_out"] == 2
        assert end.gauges["connections_open"] == 0
        assert end.gauges["connections_peak"] == 2
        assert "protocol_errors" not in end.counters

    def test_garbage_counts_as_protocol_error(self):
        counters = {}

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(b"\x00" * 32)
                    await writer.drain()
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    counters.update(server.metrics.snapshot().counters)

        asyncio.run(go())
        assert counters["protocol_errors"] == 1

    def test_unexpected_frame_type_counts_and_drops(self):
        """A well-formed frame the server cannot serve (a RESULT sent *to*
        it) is a protocol error, not a crash."""
        from repro.serve.protocol import encode_result

        counters = {}

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        encode_result(
                            1, np.zeros(K, dtype=np.int64),
                            np.zeros(K, dtype=np.float32),
                        )
                    )
                    await writer.drain()
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    counters.update(server.metrics.snapshot().counters)

        asyncio.run(go())
        assert counters["protocol_errors"] == 1


class TestPreselectFrames:
    def test_preselect_frame_served_bit_identical(self, small_index):
        """A raw preselect frame to a shard worker's server answers
        exactly like the in-process preselected scan."""
        from repro.ann.partition import replicate_index
        from repro.net.wire import FRAME_BATCH_RESULT
        from repro.serve.protocol import (
            decode_batch_result,
            encode_preselect,
            recv_frame,
        )
        from repro.serve.workers import ShardServer

        index, queries = small_index
        scan_view, plan_view = replicate_index(index, 2)
        queries_t, probed = plan_view.preselect(queries[:12], NPROBE)
        ref_ids, ref_dists = index.search_batch_preselected(
            queries_t, probed, K
        )
        server = ShardServer(scan_view).start()
        try:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(encode_preselect(9, queries_t, probed, K))
                ftype, payload = recv_frame(sock)
        finally:
            server.stop()
        res = decode_batch_result(payload)
        assert ftype == FRAME_BATCH_RESULT
        assert res.request_id == 9
        np.testing.assert_array_equal(res.ids, ref_ids)
        np.testing.assert_array_equal(res.dists, ref_dists)
        assert res.codes_scanned > 0

    @pytest.mark.parametrize("kind", ["preselect", "stats"])
    def test_preselect_frame_rejected_without_backend(self, kind):
        """A front end serves search frames only: a shard worker's plan
        or stats request is a protocol error that drops the connection."""
        from repro.serve.protocol import encode_preselect, encode_stats_request

        frame = (
            encode_preselect(
                1, np.zeros((1, D), dtype=np.float32),
                np.zeros((1, 2), dtype=np.int64), K,
            )
            if kind == "preselect"
            else encode_stats_request(1)
        )
        counters = {}

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(frame)
                    await writer.drain()
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    counters.update(server.metrics.snapshot().counters)

        asyncio.run(go())
        assert counters["protocol_errors"] == 1
        assert "frames_in" not in counters


class TestTelemetryEndpoints:
    """The Prometheus scrape port."""

    def test_metrics_port_serves_prometheus_text(self):
        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with VectorSearchServer(engine, metrics_port=0) as server:
                    host, port = server.address
                    async with await AsyncClient.connect(host, port) as client:
                        await client.search(np.zeros(D, dtype=np.float32), K)
                    mhost, mport = server.metrics_address
                    scrapes = []
                    # One-shot endpoint: every connect gets a fresh
                    # exposition and then EOF — no HTTP framing.
                    for _ in range(2):
                        reader, writer = await asyncio.open_connection(
                            mhost, mport
                        )
                        scrapes.append((await reader.read()).decode())
                        writer.close()
                        await writer.wait_closed()
                    return scrapes

        for text in asyncio.run(go()):
            assert "# TYPE repro_completed_total counter" in text
            assert "repro_completed_total 1.0" in text
            assert 'repro_request_latency_us{series="total",quantile="0.99"}' \
                in text

    def test_metrics_address_requires_metrics_port(self):
        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            with engine:
                async with _free_server(engine) as server:
                    with pytest.raises(RuntimeError, match="metrics"):
                        server.metrics_address

        asyncio.run(go())
