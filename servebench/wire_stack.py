"""The online_wire system under test, run in a process of its own.

    python3 servebench/wire_stack.py --work DIR [--trace 1] [--tiny]

Builds the serving stack ``VectorSearchServer -> ServingEngine ->
ShardedBackend`` (router-side preselect planner) ``-> WorkerPool`` (two
mmap worker processes) over the pinned corpus, ``SETUP_REPEATS`` times,
timing each set-up from the start of training to a listening server, and
keeps the last one.  It then prints one JSON ``ready`` line on stdout and
serves until stdin says ``stop``.  The engine's tracer samples nothing
itself; it records the spans of requests whose search frame carries a
sampled trace context.  With ``--trace 1`` the commands ``count 1`` /
``count 0`` switch counting of router <-> worker frames on and off;
``stop`` tears everything down and prints one JSON line with the
router-side layer figures and the recorded spans.

The corpus is derived exactly as the benchmark process derives it, so no
vectors cross the process boundary.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path

import common

common.require_repro()

from common import FULL, TINY, make_corpus, new_index  # noqa: E402
from outcome import SETUP_REPEATS  # noqa: E402
from spans import FrameCount, Spans  # noqa: E402

import repro.serve.workers as workers_mod  # noqa: E402
from repro.ann import load_index_dir, save_index_dir  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.serve import ServingEngine, VectorSearchServer, WorkerPool  # noqa: E402

N_WORKERS = 2
#: Engine micro-batch bound: the 16 requests the client keeps in flight.
MAX_BATCH = 16
SCATTER = "scatter"


class Stack:
    """One built and listening instance of the stack."""

    async def start(self, corpus, geo, index_dir: Path) -> "Stack":
        index = new_index(geo).train(corpus.train)
        index.add(corpus.base)
        save_index_dir(index, index_dir)
        self.index_dir = index_dir
        self.pool = WorkerPool(index_dir, N_WORKERS).start()
        self.planner = load_index_dir(index_dir, mmap=True)
        self.backend = self.pool.sharded_backend(preselect=self.planner)
        self.tracer = Tracer(sample_rate=0.0, capacity=1 << 20)
        self.engine = ServingEngine(self.backend, max_batch=MAX_BATCH, tracer=self.tracer)
        self.engine.start()
        self.server = VectorSearchServer(self.engine)
        await self.server.start()
        return self

    async def stop(self) -> None:
        await self.server.stop()
        await asyncio.to_thread(self.engine.stop)
        self.pool.stop()


def router_layers(spans: Spans, frames: FrameCount) -> dict:
    """Router- and worker-side per-layer figures from the recorded spans."""
    merge_us = []
    for s in spans.by_name[SCATTER]:
        kids = spans.children.get(s["span"], ())
        rpc = [c["dur"] for c in kids if c["name"] == "shard_rpc"]
        pre = sum(c["dur"] for c in kids if c["name"] == "preselect")
        if rpc:
            merge_us.append(s["dur"] - pre - max(rpc))
    queries = spans.arg_sum(SCATTER, "nq")
    rpc_us = spans.per_call_us("shard_rpc")
    exec_us = spans.per_call_us("worker_scan")
    return {
        **spans.kernel_layers(queries),
        "ann.codes_per_q": spans.arg_sum("ivf_pq_scan", "codes") / max(queries, 1),
        "ann.queries_per_call": spans.arg_sum("ivf_coarse", "nq")
        / max(spans.calls("ivf_coarse"), 1),
        "routing.scatter_us_per_batch": spans.per_call_us(SCATTER),
        "routing.merge_us_per_batch": sum(merge_us) / max(len(merge_us), 1),
        "workers.rpc_us_per_batch": rpc_us,
        "workers.exec_us_per_batch": exec_us,
        "workers.rpc_residue_us_per_batch": rpc_us - exec_us,
        "worker_frames": frames.frames,
        "worker_bytes": frames.bytes,
    }


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


async def serve(args) -> None:
    geo = TINY if args.tiny else FULL
    corpus = make_corpus(geo, with_gt=False)
    work = Path(args.work)
    setups, stack = [], None
    for rep in range(SETUP_REPEATS):
        if stack is not None:
            await stack.stop()
            shutil.rmtree(stack.index_dir, ignore_errors=True)
        t0 = time.perf_counter()
        stack = await Stack().start(corpus, geo, work / f"index{rep}")
        setups.append(time.perf_counter() - t0)
    frames = (FrameCount(workers_mod, "encode_preselect", "decode_batch_result")
              if args.trace else None)
    try:
        host, port = stack.server.address
        emit({
            "ready": True, "host": host, "port": port, "setup_s": setups,
            "index_dir": str(stack.index_dir),
            "router_pid": os.getpid(),
            "worker_pids": [w["pid"] for w in stack.pool.stats()["workers"]],
        })
        while True:
            line = (await asyncio.to_thread(sys.stdin.readline)).strip()
            if line in ("", "stop"):
                break
            if line.startswith("count ") and frames is not None:
                frames.on = line == "count 1"
                emit({"count": frames.on})
    finally:
        await stack.stop()
    spans = Spans(stack.tracer.drain())
    emit({
        "done": True,
        "layers": router_layers(spans, frames) if args.trace else {},
        "spans": spans.spans,
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="online_wire system under test")
    p.add_argument("--work", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    asyncio.run(serve(p.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
