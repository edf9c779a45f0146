"""offline_batch: back-to-back ``IVFPQIndex.search`` on fixed query batches.

Only the kernel runs here — no engine, router, wire or cache — so kernel
work shows on this workload and serving-layer work must not.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from common import make_corpus, new_index, pss_mb
from spans import Spans, layer_table
from outcome import SETUP_REPEATS, TRACE_WINDOW_S, Outcome, latency_ms

from repro.ann import recall_at_k
from repro.obs.trace import Tracer

ROOT_SPAN = "ann.search"


def _phase(index, batches, reference, geo, seconds: float, out: Outcome,
           tracer: Tracer) -> dict:
    """Search the fixed batches round-robin for ``seconds``; check each answer.

    Each call runs under a ``ann.search`` root span when ``tracer`` samples,
    so the index's stage timers record beneath it.
    """
    lat_ns: list[int] = []
    cpu0 = time.process_time()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        b = i % len(batches)
        t0 = time.perf_counter_ns()
        with tracer.start_trace(ROOT_SPAN, args={"n": geo.batch}):
            ids, dists = index.search(batches[b], geo.k, geo.nprobe)
        t1 = time.perf_counter_ns()
        lat_ns.append(t1 - t0)
        out.attempted += 1
        ref_ids, ref_dists = reference[b]
        if not (np.array_equal(ids, ref_ids) and np.array_equal(dists, ref_dists)):
            out.fail(f"batch {b} (call {i}) differs from the reference pass")
        i += 1
        if t1 >= deadline:
            break
    wall = (time.perf_counter_ns() - start) / 1e9
    cpu = time.process_time() - cpu0
    nq = i * geo.batch
    return {"qps": nq / wall, "lat_ns": lat_ns, "cpu_us_per_q": cpu / nq * 1e6}


def run(seed: int, geo, seconds: float, trace: bool) -> Outcome:
    corpus = make_corpus(geo)
    batches = [
        np.ascontiguousarray(corpus.queries[i * geo.batch : (i + 1) * geo.batch])
        for i in range(geo.n_batches)
    ]
    setups = []
    for _ in range(SETUP_REPEATS):
        index = None  # the previous build is freed before the next one
        t0 = time.perf_counter()
        index = new_index(geo).train(corpus.train)
        index.add(corpus.base)
        index.warm_gather_cache()  # flushes the added codes and primes gathers
        setups.append(time.perf_counter() - t0)
    # Reference pass: the answers every timed call must reproduce bit for
    # bit; it doubles as the warm-up pass, and its counts are exact.
    s = index.stats
    codes0, calls0 = s.codes_scanned, s.preselect_batches
    reference = [index.search(b, geo.k, geo.nprobe) for b in batches]
    codes_per_q = (s.codes_scanned - codes0) / (geo.batch * geo.n_batches)
    queries_per_call = geo.batch * geo.n_batches / (s.preselect_batches - calls0)
    found = np.vstack([r[0] for r in reference])[: geo.n_gt]
    # The seed only sets the order the batches are searched in.
    order = np.random.default_rng(seed).permutation(geo.n_batches)
    batches = [batches[i] for i in order]
    reference = [reference[i] for i in order]
    out = Outcome()
    tracer = Tracer(sample_rate=0.0, capacity=1 << 20)
    if trace:
        windows = []
        for w in range(max(2, round(seconds / TRACE_WINDOW_S))):
            tracer.sample_rate = float(w % 2)
            res = _phase(index, batches, reference, geo, TRACE_WINDOW_S, out, tracer)
            windows.append((w % 2 == 1, res["qps"]))
        qps = lambda on: statistics.median(q for t, q in windows if t == on)  # noqa: E731
        spans = Spans(tracer.drain())
        table = layer_table(spans, ROOT_SPAN)
        out.layers = {
            **spans.kernel_layers(spans.arg_sum(ROOT_SPAN, "n")),
            "ann.codes_per_q": codes_per_q,
            "ann.queries_per_call": queries_per_call,
            "trace.overhead_ratio": qps(True) / qps(False),
            "trace.unattributed_share": table["unattributed_share"],
        }
        out.trace = {"tables": {"offline_batch": table}, "spans": spans.spans}
        return out
    res = _phase(index, batches, reference, geo, seconds, out, tracer)
    p50, p95 = latency_ms(res["lat_ns"])
    out.e2e = {
        "qps": res["qps"],
        "p50_ms": p50,
        "p95_ms": p95,
        "cpu_us_per_q": res["cpu_us_per_q"],
        "recall_at_10": recall_at_k(found, corpus.gt),
        "mem_mb": pss_mb(os.getpid()),
        "setup_s": statistics.median(setups),
    }
    return out
