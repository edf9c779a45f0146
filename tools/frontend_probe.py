#!/usr/bin/env python3
"""Null-backend probe: what the socket front end costs per query.

    python tools/frontend_probe.py

A child process serves ``VectorSearchServer -> ServingEngine(max_batch=16)``
over a backend that returns zero arrays, so no search runs.  One
``AsyncClient`` keeps 16 requests in flight for ``SECONDS``; the probe
prints the rate and the server process's CPU time per query (user + sys
from ``/proc/<pid>/stat``, Linux only).  Nothing is gated: both figures
depend on the host.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

D, K, IN_FLIGHT, SECONDS = 64, 10, 16, 10.0


class ZeroBackend:
    """Answers every query with zero ids and distances."""

    d = D

    def search_batch(self, queries, k, nprobe=None):
        n = len(queries)
        return np.zeros((n, k), np.int64), np.zeros((n, k), np.float32)


def serve(conn) -> None:
    """Child process: serve until the parent sends on ``conn``."""
    from repro.serve import ServingEngine, VectorSearchServer

    async def main() -> None:
        engine = ServingEngine(ZeroBackend(), max_batch=IN_FLIGHT).start()
        async with VectorSearchServer(engine) as server:
            conn.send(server.address)
            await asyncio.to_thread(conn.recv)
        await asyncio.to_thread(engine.stop)

    asyncio.run(main())


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid``."""
    stat = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")


async def drive(address, seconds: float) -> int:
    """Closed loop of ``IN_FLIGHT`` searches; returns the number answered."""
    from repro.serve import AsyncClient

    query, deadline, done = np.zeros(D, np.float32), time.perf_counter() + seconds, 0

    async def lane(client) -> None:
        nonlocal done
        while time.perf_counter() < deadline:
            await client.search(query, K)
            done += 1

    async with await AsyncClient.connect(*address) as client:
        await asyncio.gather(*(lane(client) for _ in range(IN_FLIGHT)))
    return done


def main(seconds: float = SECONDS) -> None:
    """Run the probe for ``seconds`` and print qps and server CPU per query."""
    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=serve, args=(child,), daemon=True)
    proc.start()
    child.close()  # so that recv() fails, not hangs, if the child dies
    try:
        address = parent.recv()
        cpu0, t0 = cpu_s(proc.pid), time.perf_counter()
        n = asyncio.run(drive(address, seconds))
        wall, cpu = time.perf_counter() - t0, cpu_s(proc.pid) - cpu0
        parent.send("stop")
        proc.join(30)
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join()
    print(f"qps {n / wall:.0f}")
    print(f"server_cpu_us_per_q {cpu / max(n, 1) * 1e6:.1f}")


if __name__ == "__main__":
    main()
