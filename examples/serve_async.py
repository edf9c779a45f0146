#!/usr/bin/env python
"""Async serving: one event loop, hundreds of connections, one engine.

Builds an index, starts the micro-batching engine behind a
``VectorSearchServer`` (the length-prefixed binary socket protocol), and
drives it with many concurrent client connections from one process:

- a **closed-loop sweep**: N connections each awaiting one request at a
  time — the thread-free way to hold far more clients than threads;
- a **pipelining demo**: one connection with many requests in flight,
  answered in completion order and correlated by request id;
- a **quota shed**: a rate-limited tenant is refused with a
  ``retry_after_s`` hint derived from its token bucket's refill rate.

Results are bit-identical to direct search — the wire carries raw
i64/f32 — and the engine batches exactly as it does for thread clients.
"""

import asyncio
import time

import numpy as np

from repro.harness.serve_bench import build_serving_index
from repro.serve import (
    AsyncClient,
    QuotaExceededError,
    ServingEngine,
    TenantPolicy,
    VectorSearchServer,
    WFQDiscipline,
)

K = 10
NPROBE = 8
CONNECTIONS = 256
REQUESTS_PER_CONN = 4


async def closed_loop_sweep(host: str, port: int, pool: np.ndarray) -> None:
    """N connections, each a closed loop; report wall time and tails."""
    lat_us: list[float] = []

    async def drive(ci: int) -> None:
        async with await AsyncClient.connect(host, port) as client:
            for r in range(REQUESTS_PER_CONN):
                q = pool[(ci * REQUESTS_PER_CONN + r) % len(pool)]
                t0 = time.perf_counter()
                await client.search(q, K, NPROBE)
                lat_us.append((time.perf_counter() - t0) * 1e6)

    t0 = time.perf_counter()
    await asyncio.gather(*(drive(i) for i in range(CONNECTIONS)))
    wall = time.perf_counter() - t0
    lat = np.array(lat_us)
    print(
        f"{CONNECTIONS} connections x {REQUESTS_PER_CONN} requests: "
        f"{len(lat) / wall:,.0f} QPS, p50 {np.percentile(lat, 50):,.0f}us, "
        f"p99 {np.percentile(lat, 99):,.0f}us"
    )


async def pipelining_demo(host: str, port: int, pool: np.ndarray) -> None:
    """One connection, 32 requests in flight at once."""
    async with await AsyncClient.connect(host, port) as client:
        futs = [client.submit(pool[i], K, NPROBE) for i in range(32)]
        print(f"pipelined {client.in_flight} requests on one connection...")
        results = await asyncio.gather(*futs)
    batches = sorted({r.batch_size for r in results})
    print(f"...all {len(results)} answered (batch sizes {batches})")


async def quota_demo(host: str, port: int, pool: np.ndarray) -> None:
    """A metered tenant sheds with a precise retry-after hint."""
    async with await AsyncClient.connect(host, port) as client:
        await client.search(pool[0], K, NPROBE, tenant="metered")
        try:
            await client.search(pool[1], K, NPROBE, tenant="metered")
        except QuotaExceededError as exc:
            print(
                f"tenant 'metered' shed over the wire: retry in "
                f"{exc.retry_after_s:.2f}s (token-bucket refill)"
            )


async def main() -> None:
    print("== build index ==")
    index, pool = build_serving_index()
    print(f"{index.ntotal} vectors, nlist={index.nlist}, m={index.m}\n")

    # Shed policy: an event loop needs backpressure as exceptions, never
    # as a blocked loop.  The metered tenant exists for the quota demo.
    discipline = WFQDiscipline(
        {"metered": TenantPolicy(rate_qps=0.5, burst=1)},
        depth=4 * CONNECTIONS,
    )
    engine = ServingEngine(
        index, max_batch=64, max_wait_us=500.0, policy="shed",
        discipline=discipline,
    )
    engine.start()
    try:
        # In process, the loop awaits the engine's own future directly.
        res = await asyncio.wrap_future(engine.submit(pool[0], K, NPROBE))
        print(f"in-process await: top id {res.ids[0]}")
        async with VectorSearchServer(engine, backlog=CONNECTIONS) as server:
            host, port = server.address
            print(f"== serving on {host}:{port} ==")
            await closed_loop_sweep(host, port, pool)
            await pipelining_demo(host, port, pool)
            await quota_demo(host, port, pool)
    finally:
        # Joining the dispatchers must not block the loop.
        await asyncio.to_thread(engine.stop)


if __name__ == "__main__":
    asyncio.run(main())
