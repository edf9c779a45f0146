"""mixed_update: cached reads interleaved with inserts and deletes, in process.

``ServingEngine`` with a ``QueryResultCache`` over a
``DynamicVectorService`` (there is no wire frame for writes).  One
generator thread keeps ``IN_FLIGHT`` reads outstanding, drawn from a
Zipf-skewed query pool larger than the cache; after every ``CYCLE_READS``
reads it lets the in-flight reads finish, then synchronously inserts
``CYCLE_WRITES`` fresh vectors and deletes as many live ids.  The whole
sequence is drawn from the seed and its length is fixed (``READS_PER_S`` x
seconds), so a faster run does not grow a larger NSW delta than a slower
one.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

from common import CORPUS_SEED, make_corpus, pct, pss_mb
from outcome import Outcome, SETUP_REPEATS, latency_ms
from spans import Spans, layer_table, n_queries, wrap

from repro.ann import brute_force_topk, recall_at_k
from repro.obs.trace import Tracer
from repro.serve import QueryResultCache, ServingEngine
from repro.service.dynamic import DynamicVectorService

IN_FLIGHT = 4
CYCLE_READS = 48
CYCLE_WRITES = 8
#: Reads per second of ``--seconds``: the fixed sequence length.
READS_PER_S = 400
#: Reads draw Zipf(ZIPF_S)-skewed from the first half of the queries (4096
#: at full size, four times the cache); recall uses queries after them.
ZIPF_S = 1.1
CACHE_CAPACITY = 1024
#: Reads before timing (no writes); the cache is cleared after them.
WARM_READS = 2 * CYCLE_READS
#: The engine's per-request root span: end to end for an in-process read.
ROOT_SPAN = "request"


def _pool(corpus) -> int:
    return len(corpus.queries) // 2


def _bootstrap(corpus, geo) -> DynamicVectorService:
    svc = DynamicVectorService(geo.d, nlist=geo.nlist, m=geo.m, ksub=geo.ksub,
                               nprobe=geo.nprobe, seed=CORPUS_SEED)
    svc.bootstrap(corpus.base, train_vectors=corpus.train)
    svc.primary.warm_gather_cache()
    return svc


def _instrument(tracer: Tracer, svc: DynamicVectorService) -> None:
    """Spans around the service and graph calls, which the program does not
    trace; the primary index's stage timers nest under ``dynamic.primary``."""
    wrap(tracer, svc, "search", "dynamic.search", items=n_queries)
    wrap(tracer, svc.primary, "search", "dynamic.primary", items=n_queries)
    wrap(tracer, svc.delta, "search", "dynamic.delta_search", items=n_queries)
    wrap(tracer, svc.delta, "add", "graph.add", items=n_queries)
    wrap(tracer, svc, "insert", "dynamic.insert", items=n_queries)
    wrap(tracer, svc, "delete", "dynamic.delete", items=lambda args, _res: len(args[0]))


class Sequence:
    """The seeded operation sequence and the state needed to check reads."""

    def __init__(self, seed: int, corpus, n_reads: int):
        rng = np.random.default_rng([seed, 0x5EED])
        pool = _pool(corpus)
        p = 1.0 / np.arange(1, pool + 1) ** ZIPF_S
        ranks = rng.permutation(pool)  # which query holds which popularity rank
        self.reads = ranks[rng.choice(pool, size=n_reads, p=p / p.sum())]
        self.rng = rng
        self.corpus = corpus
        self.live = list(range(len(corpus.base)))
        #: id -> ordinal of its deletion; a read submitted after deletion
        #: ordinal j was acknowledged must not return that id.
        self.deleted_at: dict[int, int] = {}
        self.inserted: list[np.ndarray] = []

    def write(self, svc, cycle: int) -> int:
        """One write step: insert fresh vectors, delete as many live ids.

        Returns the number of write calls made (one insert, one delete).
        """
        src = self.corpus.inserts
        rows = (cycle * CYCLE_WRITES + np.arange(CYCLE_WRITES)) % len(src)
        vecs = src[rows]
        ids = svc.insert(vecs)
        self.inserted.append(vecs)
        self.live.extend(int(i) for i in ids)
        victims = []
        for pos in sorted(self.rng.choice(len(self.live), CYCLE_WRITES, replace=False),
                          reverse=True):
            victims.append(self.live[pos])
            self.live[pos] = self.live[-1]
            self.live.pop()
        svc.delete(np.array(victims, dtype=np.int64))
        for v in victims:
            self.deleted_at[v] = len(self.deleted_at)
        return 2

    def check(self, res, deleted_before: int, out: Outcome, what: str) -> None:
        ids, dists = res.ids, res.dists
        finite = np.isfinite(dists)
        if not np.array_equal(finite, ids >= 0) or np.any(np.diff(dists[finite]) < 0) \
                or not finite[: finite.sum()].all():
            out.fail(f"{what}: row not sorted by distance / bad padding")
        for i in ids[ids >= 0]:
            j = self.deleted_at.get(int(i))
            if j is not None and j < deleted_before:
                out.fail(f"{what}: returned id {int(i)} deleted before the read")
                break


def _phase(engine, svc, seq: Sequence, geo, queries, out: Outcome) -> dict:
    """Run the fixed sequence; every read is checked when it completes."""
    cache = engine.cache
    h0, m0, e0 = cache.hits, cache.misses, cache.epoch
    stats = svc.primary.stats
    c0, q0 = stats.codes_scanned, stats.n_queries
    pending: dict = {}
    done_at: dict = {}
    lat_ns, served = [], []
    writes = 0

    def finish(fut) -> None:
        r, t0, deleted_before = pending.pop(fut)
        res = fut.result()
        out.attempted += 1
        seq.check(res, deleted_before, out, f"read {r}")
        # The done callback can run just after wait() returns.
        t1 = done_at.pop(fut, None) or time.perf_counter_ns()
        lat_ns.append(t1 - t0)
        if not res.cache_hit:
            served.append(res)

    cpu0 = time.process_time()
    start = time.perf_counter_ns()
    for r, qi in enumerate(seq.reads):
        if r and r % CYCLE_READS == 0:
            # Writes run with no read in flight: a write step that overlaps
            # reads puts a varying 0-8 % of them in a write-delayed tail,
            # right where p95 sits.
            for fut in wait(list(pending)).done:
                finish(fut)
            writes += seq.write(svc, r // CYCLE_READS - 1)
        while len(pending) >= IN_FLIGHT:
            for fut in wait(list(pending), return_when=FIRST_COMPLETED).done:
                finish(fut)
        t0 = time.perf_counter_ns()
        fut = engine.submit(queries[qi], geo.k, geo.nprobe)
        pending[fut] = (r, t0, len(seq.deleted_at))
        fut.add_done_callback(lambda f: done_at.__setitem__(f, time.perf_counter_ns()))
    for fut in wait(list(pending)).done:
        finish(fut)
    wall = (time.perf_counter_ns() - start) / 1e9
    cpu = time.process_time() - cpu0
    n = len(seq.reads)
    lookups = cache.hits - h0 + cache.misses - m0
    return {
        "qps": n / wall,
        "lat_ns": lat_ns,
        "cpu_us_per_q": cpu / n * 1e6,
        "served": served,
        "hit_rate": (cache.hits - h0) / max(lookups, 1),
        "invalidations_per_kop": (cache.epoch - e0) / (n + writes) * 1e3,
        "codes_per_q": (stats.codes_scanned - c0) / max(stats.n_queries - q0, 1),
    }


def _final_recall(engine, svc, seq: Sequence, corpus, geo, out: Outcome) -> float:
    """Recall@k of engine answers against brute force over the live set."""
    queries = corpus.queries[_pool(corpus) :][: geo.n_gt]
    vecs = np.vstack([corpus.base, *seq.inserted])
    ids = np.arange(len(vecs))
    live = np.ones(len(vecs), dtype=bool)
    live[list(seq.deleted_at)] = False
    pos, _ = brute_force_topk(queries, vecs[live], geo.k)
    truth = ids[live][pos]
    futs = [engine.submit(q, geo.k, geo.nprobe) for q in queries]
    found = np.empty_like(truth)
    for i, fut in enumerate(futs):
        res = fut.result()
        out.attempted += 1
        seq.check(res, len(seq.deleted_at), out, f"recall read {i}")
        found[i] = res.ids
    rec = recall_at_k(found, truth)
    if rec < geo.recall_floor:
        out.fail(f"recall@{geo.k} over the live set {rec:.3f} < floor {geo.recall_floor}")
    return rec


def _run_one(svc, seed, corpus, geo, n_reads, out, tracer: Tracer | None = None) -> dict:
    """One engine over ``svc``: warm-up, the timed sequence, final recall.

    With ``tracer`` (already wrapped around ``svc``) the engine traces every
    request of the timed sequence, and the spans are returned under
    ``"spans"``.
    """
    queries = corpus.queries[: _pool(corpus)]
    engine = ServingEngine(svc, max_batch=IN_FLIGHT, tracer=tracer,
                           cache=QueryResultCache(CACHE_CAPACITY)).start()
    try:
        warm = Sequence(seed + 1, corpus, WARM_READS)
        for qi in warm.reads:
            engine.submit(queries[qi], geo.k, geo.nprobe).result()
        engine.invalidate_cache()
        seq = Sequence(seed, corpus, n_reads)
        if tracer is not None:
            tracer.sample_rate = 1.0
        res = _phase(engine, svc, seq, geo, queries, out)
        if tracer is not None:
            tracer.sample_rate = 0.0
            res["spans"] = tracer.drain()
        res["mem_mb"] = pss_mb(os.getpid())
        res["recall"] = _final_recall(engine, svc, seq, corpus, geo, out)
    finally:
        engine.stop()
    return res


def run(seed: int, geo, seconds: float, trace: bool) -> Outcome:
    corpus = make_corpus(geo, with_gt=False)
    setups, services = [], []
    for _ in range(SETUP_REPEATS):
        # A traced run serves two set-ups (one untraced, one traced); a timed
        # run frees each set-up before the next, so mem_mb counts one service.
        del services[: len(services) - int(trace)]
        gc.collect()
        t0 = time.perf_counter()
        services.append(_bootstrap(corpus, geo))
        setups.append(time.perf_counter() - t0)
    out = Outcome()
    n_reads = int(READS_PER_S * seconds)
    if trace:
        base = _run_one(services[0], seed, corpus, geo, n_reads // 2, out)
        tracer = Tracer(sample_rate=0.0, capacity=1 << 20)
        _instrument(tracer, services[1])
        traced = _run_one(services[1], seed, corpus, geo, n_reads // 2, out, tracer)
        spans = Spans(traced["spans"])
        out.layers = _layers(spans, base, traced)
        out.trace = {"tables": {"mixed_update": layer_table(spans, ROOT_SPAN)},
                     "spans": spans.spans}
        return out
    res = _run_one(services[-1], seed, corpus, geo, n_reads, out)
    p50, p95 = latency_ms(res["lat_ns"])
    out.e2e = {
        "qps": res["qps"],
        "p50_ms": p50,
        "p95_ms": p95,
        "cpu_us_per_q": res["cpu_us_per_q"],
        "recall_at_10": res["recall"],
        "mem_mb": res["mem_mb"],
        "setup_s": statistics.median(setups),
    }
    return out


def _layers(spans: Spans, base: dict, traced: dict) -> dict:
    served = traced["served"]
    ins_us = spans.total_us("dynamic.insert")
    add_us = spans.total_us("graph.add")
    table = layer_table(spans, ROOT_SPAN)
    return {
        **spans.kernel_layers(spans.arg_sum("ivf_coarse", "nq")),
        "ann.codes_per_q": traced["codes_per_q"],
        "ann.queries_per_call": spans.arg_sum("ivf_coarse", "nq")
        / max(spans.calls("ivf_coarse"), 1),
        "engine.queue_us_p50": pct([r.queue_us for r in served], 50),
        "engine.exec_us_p50": pct([r.exec_us for r in served], 50),
        "engine.batch_mean": float(np.mean([r.batch_size for r in served])),
        "cache.hit_rate": traced["hit_rate"],
        "cache.invalidations_per_kop": traced["invalidations_per_kop"],
        "dynamic.search_us_per_batch": spans.per_call_us("dynamic.search"),
        "dynamic.primary_us_per_batch": spans.per_call_us("dynamic.primary"),
        "dynamic.delta_search_us_per_q": spans.per_item_us("dynamic.delta_search"),
        "dynamic.insert_us_per_vec": spans.per_item_us("dynamic.insert"),
        "dynamic.delete_us_per_id": spans.per_item_us("dynamic.delete"),
        "dynamic.write_block_us": (ins_us - add_us) / max(spans.calls("dynamic.insert"), 1),
        "trace.overhead_ratio": traced["qps"] / base["qps"],
        "trace.unattributed_share": table["unattributed_share"],
    }
