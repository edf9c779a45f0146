"""Tests for the asyncio serving front end (repro/serve/aio.py).

No pytest-asyncio in the container: each test drives its own event loop
with ``asyncio.run`` — which also matches how the harness embeds the
async tier inside synchronous benchmarks.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.ann.ivf import IVFPQIndex
from repro.data.synthetic import make_clustered
from repro.serve import (
    AdmissionError,
    AsyncClient,
    AsyncServingEngine,
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
    def test_results_bit_identical_to_direct_search(self, small_index):
        index, queries = small_index
        ref_ids, ref_dists = index.search(queries, K, NPROBE)

        async def serve():
            engine = ServingEngine(
                index, max_batch=8, max_wait_us=5000.0,
                queue_depth=4 * len(queries), policy="shed",
            )
            async with AsyncServingEngine(engine) as aeng:
                futs = [aeng.submit(q, K, NPROBE) for q in queries]
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
            async with AsyncServingEngine(engine) as aeng:
                q = np.zeros(D, dtype=np.float32)
                first = aeng.submit(q, K)  # dequeued into the backend
                await _await_entered(be)
                second = aeng.submit(q, K)  # fills the queue slot
                with pytest.raises(AdmissionError, match="shed"):
                    aeng.submit(q, K)
                be.gate.set()
                await asyncio.gather(first, second)

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
            async with AsyncServingEngine(engine) as aeng:
                q = np.zeros(D, dtype=np.float32)
                await aeng.submit(q, K, tenant="t")
                with pytest.raises(QuotaExceededError) as exc_info:
                    aeng.submit(q, K, tenant="t")
                # One token burned, refill at 0.5/s: ~2 s until the next.
                assert exc_info.value.retry_after_s == pytest.approx(2.0, rel=0.1)

        asyncio.run(go())

    def test_cancel_while_queued_skips_backend_and_spares_batch_mates(self):
        """A cancelled waiter's request is dropped at dispatch: the
        backend never sees it and co-queued requests are unaffected."""
        be = GatedBackend()

        async def go():
            engine = ServingEngine(be, max_batch=1, queue_depth=8)
            async with AsyncServingEngine(engine) as aeng:
                q = lambda v: np.full(D, v, dtype=np.float32)  # noqa: E731
                blocker = aeng.submit(q(1), K)  # occupies the dispatcher
                await _await_entered(be)
                doomed = aeng.submit(q(2), K)
                survivor = aeng.submit(q(3), K)
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
            aeng = AsyncServingEngine(engine).start()
            q = np.zeros(D, dtype=np.float32)
            futs = [aeng.submit(q, K) for _ in range(8)]
            await aeng.stop()
            results = await asyncio.gather(*futs)
            assert all(r.ids.shape == (K,) for r in results)

        asyncio.run(go())


def _free_server(engine_or_aeng):
    """A server on an ephemeral localhost port."""
    return VectorSearchServer(engine_or_aeng)


class TestSocketServer:
    def test_pipelined_requests_bit_identical_over_wire(self, small_index):
        index, queries = small_index
        ref_ids, ref_dists = index.search(queries, K, NPROBE)

        async def serve():
            engine = ServingEngine(
                index, max_batch=8, max_wait_us=5000.0,
                queue_depth=4 * len(queries), policy="shed",
            )
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                server = await _free_server(aeng).start()
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
            async with AsyncServingEngine(engine) as aeng:
                server = await _free_server(aeng).start()
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


class TestConnectionMetrics:
    def test_connection_and_frame_counters(self):
        """The registry sees opens, peak concurrency, and frame flow."""
        snap_open = {}

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
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
        """A raw preselect frame answers exactly like the in-process
        preselected scan."""
        from repro.ann.partition import replicate_index
        from repro.serve.protocol import (
            decode_batch_result,
            encode_preselect,
            read_frame,
        )

        index, queries = small_index
        engine_view, scan_view, plan_view = replicate_index(index, 3)
        queries_t, probed = plan_view.preselect(queries[:12], NPROBE)
        ref_ids, ref_dists = scan_view.search_batch_preselected(
            queries_t, probed, K
        )

        async def go():
            engine = ServingEngine(engine_view, max_batch=4, policy="shed")
            async with AsyncServingEngine(engine) as aeng:
                server = VectorSearchServer(aeng, preselect_backend=scan_view)
                async with server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(encode_preselect(9, queries_t, probed, K))
                    await writer.drain()
                    ftype, payload = await read_frame(reader)
                    writer.close()
                    await writer.wait_closed()
                    return ftype, decode_batch_result(payload)

        ftype, res = asyncio.run(go())
        from repro.net.wire import FRAME_BATCH_RESULT

        assert ftype == FRAME_BATCH_RESULT
        assert res.request_id == 9
        np.testing.assert_array_equal(res.ids, ref_ids)
        np.testing.assert_array_equal(res.dists, ref_dists)
        assert res.codes_scanned > 0

    def test_preselect_frame_rejected_without_backend(self):
        """Servers not configured for the preselect path treat the frame
        as a protocol error rather than guessing."""
        from repro.serve.protocol import encode_preselect

        counters = {}

        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        encode_preselect(
                            1, np.zeros((1, D), dtype=np.float32),
                            np.zeros((1, 2), dtype=np.int64), K,
                        )
                    )
                    await writer.drain()
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    counters.update(server.metrics.snapshot().counters)

        asyncio.run(go())
        assert counters["protocol_errors"] == 1


class TestTelemetryEndpoints:
    """The Prometheus scrape port and the stats-frame event drain."""

    def test_metrics_port_serves_prometheus_text(self):
        async def go():
            engine = ServingEngine(FakeBackend(), max_batch=4, policy="shed")
            async with AsyncServingEngine(engine) as aeng:
                async with VectorSearchServer(aeng, metrics_port=0) as server:
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
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
                    with pytest.raises(RuntimeError, match="metrics"):
                        server.metrics_address

        asyncio.run(go())

    def test_stats_frame_drains_engine_event_journal(self):
        from repro.obs.events import EventLog
        from repro.serve.protocol import (
            FRAME_STATS,
            decode_stats,
            encode_stats_request,
            read_frame,
        )

        events = EventLog()

        async def scrape(host, port, rid):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_stats_request(rid, drain_events=True))
            await writer.drain()
            ftype, payload = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            assert ftype == FRAME_STATS
            return decode_stats(payload)

        async def go():
            engine = ServingEngine(
                FakeBackend(), max_batch=4, policy="shed", events=events
            )
            async with AsyncServingEngine(engine) as aeng:
                async with _free_server(aeng) as server:
                    host, port = server.address
                    events.emit("shed", tenant="bulk", depth=3)
                    first = await scrape(host, port, 7)
                    second = await scrape(host, port, 8)
                    return first, second

        first, second = asyncio.run(go())
        assert first.request_id == 7
        (ev,) = first.data["events"]
        assert ev["type"] == "shed" and ev["tenant"] == "bulk"
        assert first.data["dropped_events"] == 0
        assert second.data["events"] == []  # the drain emptied the journal
        assert len(events) == 0
