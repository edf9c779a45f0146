"""online_wire: a closed loop of 16 requests over one ``AsyncClient`` socket.

The system under test (``wire_stack.py``) runs in its own process with two
mmap worker processes below it, so this generator never shares a GIL with
it.  Every answer is compared bit for bit with ``IVFPQIndex.search`` on
the saved index once the timed phase is over.

In a traced run the client opens a ``client.request`` span per request
and sends its context on the search frame, so the stack's engine, router
and workers record their spans in the same trace.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from common import TINY, WORK_ROOT, cpu_seconds, make_corpus, pct, pss_mb
from outcome import TRACE_WINDOW_S, Outcome, latency_ms

import repro.serve.aio as aio_mod
from repro.ann import load_index_dir, recall_at_k
from repro.obs.trace import Tracer
from repro.serve import AsyncClient
from spans import FrameCount, Spans, layer_table

#: Requests the client keeps in flight.
IN_FLIGHT = 16
#: Untraced warm-up before timing: touches every worker's cell tables.
WARM_S = 2.0
#: Longest wait for a line from the stack (set-up included).
REPLY_TIMEOUT_S = 120.0
ROOT_SPAN = "client.request"


class Launcher:
    """The ``wire_stack.py`` process and its line-based control channel."""

    def __init__(self, work: Path, trace: bool, tiny: bool):
        cmd = [sys.executable, str(Path(__file__).with_name("wire_stack.py")),
               "--work", str(work), "--trace", str(int(trace))]
        if tiny:
            cmd.append("--tiny")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def read(self, timeout_s: float = REPLY_TIMEOUT_S) -> dict:
        """The stack's next JSON line; kill it if none comes in time."""
        box: list[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout_s)
        if not box:
            self.proc.kill()
            raise RuntimeError(f"wire stack sent nothing for {timeout_s:.0f}s")
        if not box[0]:
            raise RuntimeError(f"wire stack exited early (code {self.proc.wait()})")
        return json.loads(box[0])

    def send(self, cmd: str) -> dict | None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        """Ask the stack to stop; kill it if it does not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Log:
    """Per-request records of one phase."""

    def __init__(self) -> None:
        self.qi: list[int] = []
        self.t0: list[int] = []
        self.t1: list[int] = []
        self.res: list = []

    def __len__(self) -> int:
        return len(self.qi)


class Window(NamedTuple):
    """One stretch of the closed loop with the stack's CPU seconds over it."""

    traced: bool
    log: Log
    wall_s: float
    cpu_s: np.ndarray  # router, then each worker


async def closed_loop(client, queries, order, geo, counter: list[int],
                      seconds: float, tracer: Tracer) -> Log:
    """``IN_FLIGHT`` outstanding requests for ``seconds``.

    Query ``order[i]`` is sent ``i``-th, so no query repeats before every
    one has been sent once.
    """
    log = Log()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)

    async def lane() -> None:
        while time.perf_counter_ns() < deadline:
            qi = int(order[counter[0] % len(order)])
            counter[0] += 1
            span = tracer.start_trace(ROOT_SPAN, args={"rid": qi})
            t0 = time.perf_counter_ns()
            res = await client.search(queries[qi], geo.k, geo.nprobe, trace=span.context())
            t1 = time.perf_counter_ns()
            span.end()
            log.t1.append(t1)
            log.t0.append(t0)
            log.qi.append(qi)
            log.res.append(res)

    await asyncio.gather(*(lane() for _ in range(IN_FLIGHT)))
    return log


async def drive(launcher: Launcher, ready: dict, corpus, order, geo, seconds: float,
                tracer: Tracer, frames: FrameCount | None) -> dict:
    client = await AsyncClient.connect(ready["host"], ready["port"])
    pids = [ready["router_pid"], *ready["worker_pids"]]
    counter = [0]

    async def window(traced: bool, length_s: float) -> Window:
        if frames is not None:
            # Frames are counted while untraced, so that no span payload
            # inflates them.  A blocking round trip, but nothing is in
            # flight between windows.
            launcher.send(f"count {int(not traced)}")
            frames.on = not traced
            tracer.sample_rate = float(traced)
        cpu0, t0 = [cpu_seconds(p) for p in pids], time.perf_counter()
        log = await closed_loop(client, corpus.queries, order, geo, counter, length_s, tracer)
        wall = time.perf_counter() - t0
        return Window(traced, log, wall, np.subtract([cpu_seconds(p) for p in pids], cpu0))

    try:
        warm = await closed_loop(client, corpus.queries, order, geo, counter, WARM_S, tracer)
        if frames is not None:
            n = max(2, int(round(seconds / TRACE_WINDOW_S)))
            windows = [await window(w % 2 == 1, TRACE_WINDOW_S) for w in range(n)]
            frames.on = False
            tracer.sample_rate = 0.0
            launcher.send("count 0")
            mem = 0.0
        else:
            windows = [await window(False, seconds)]
            mem = sum(pss_mb(p) for p in pids)
    finally:
        await client.close()
    return {"logs": [warm, *(w.log for w in windows)], "windows": windows, "mem": mem}


def check(logs, index_dir: str, corpus, geo, out: Outcome) -> np.ndarray:
    """Compare every answer with direct search on the saved index.

    Returns the answered ids of the ground-truth queries (for recall).
    """
    index = load_index_dir(index_dir)
    used = sorted({qi for log in logs for qi in log.qi} | set(range(geo.n_gt)))
    ref_ids = np.full((len(corpus.queries), geo.k), -2, dtype=np.int64)
    ref_d = np.zeros((len(corpus.queries), geo.k), dtype=np.float32)
    used = np.asarray(used)
    for s in range(0, len(used), geo.batch):
        rows = used[s : s + geo.batch]
        ref_ids[rows], ref_d[rows] = index.search(corpus.queries[rows], geo.k, geo.nprobe)
    answered = np.full((geo.n_gt, geo.k), -2, dtype=np.int64)
    for log in logs:
        for qi, res in zip(log.qi, log.res):
            out.attempted += 1
            if not (np.array_equal(res.ids, ref_ids[qi])
                    and np.array_equal(res.dists, ref_d[qi])):
                out.fail(f"query {qi}: wire answer differs from IVFPQIndex.search")
            if qi < geo.n_gt:
                answered[qi] = res.ids
    if (answered == -2).any():
        out.fail("not every ground-truth query was answered")
    return answered


def run(seed: int, geo, seconds: float, trace: bool) -> Outcome:
    corpus = make_corpus(geo)
    # The seed only sets the order the queries are sent in; the queries
    # with ground truth go first, so every run answers all of them.
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(geo.n_gt),
                            geo.n_gt + rng.permutation(len(corpus.queries) - geo.n_gt)])
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="wire-", dir=WORK_ROOT))
    tracer = Tracer(sample_rate=0.0, capacity=1 << 20)
    frames = FrameCount(aio_mod, "encode_search", "decode_result") if trace else None
    launcher = Launcher(work, trace, geo == TINY)
    try:
        try:
            ready = launcher.read()
            driven = asyncio.run(drive(launcher, ready, corpus, order, geo, seconds,
                                       tracer, frames))
            done = launcher.send("stop")
        finally:
            launcher.close()
        out = Outcome()
        answered = check(driven["logs"], ready["index_dir"], corpus, geo, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    windows = driven["windows"]
    if trace:
        spans = Spans(tracer.drain() + done["spans"])
        out.layers, out.trace = _layers(windows, done, spans, frames,
                                        len(ready["worker_pids"]))
        return out
    (timed,) = windows
    log = timed.log
    p50, p95 = latency_ms(np.subtract(log.t1, log.t0))
    out.e2e = {
        "qps": len(log) / timed.wall_s,
        "p50_ms": p50,
        "p95_ms": p95,
        "cpu_us_per_q": timed.cpu_s.sum() / len(log) * 1e6,
        "recall_at_10": recall_at_k(answered, corpus.gt),
        "mem_mb": driven["mem"],
        "setup_s": statistics.median(ready["setup_s"]),
    }
    return out


def _layers(windows: list[Window], done: dict, spans: Spans, frames: FrameCount,
            n_workers: int):
    """Per-layer figures over the traced windows, and the layer table.

    Frame counts come from the untraced windows, where no span payload
    rides on the frames.
    """
    traced = [w for w in windows if w.traced]
    plain = [w for w in windows if not w.traced]
    n = sum(len(w.log) for w in traced)
    n_plain = sum(len(w.log) for w in plain)
    res = [r for w in traced for r in w.log.res]
    lat_us = np.concatenate([np.subtract(w.log.t1, w.log.t0) / 1e3 for w in traced])
    queue = np.array([r.queue_us for r in res])
    exe = np.array([r.exec_us for r in res])
    cpu = np.sum([w.cpu_s for w in traced], axis=0)
    qps = lambda ws: float(np.median([len(w.log) / w.wall_s for w in ws]))  # noqa: E731
    router = done["layers"]
    table = layer_table(spans, ROOT_SPAN)
    layers = {
        **{k: v for k, v in router.items() if "." in k},
        "engine.queue_us_p50": pct(queue, 50),
        "engine.exec_us_p50": pct(exe, 50),
        "engine.batch_mean": float(np.mean([r.batch_size for r in res])),
        "workers.cpu_us_per_q": cpu[1 : 1 + n_workers].sum() / n * 1e6,
        "router.cpu_us_per_q": cpu[0] / n * 1e6,
        "wire.client_minus_engine_us_p50": pct(lat_us - queue - exe, 50),
        "wire.frames_per_q": (frames.frames + router["worker_frames"]) / n_plain,
        "wire.bytes_per_q": (frames.bytes + router["worker_bytes"]) / n_plain,
        "trace.overhead_ratio": qps(traced) / qps(plain),
        "trace.unattributed_share": table["unattributed_share"],
    }
    return layers, {"tables": {"online_wire": table}, "spans": spans.spans}
