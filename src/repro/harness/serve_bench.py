"""Serving benchmarks: micro-batching, replication, and sharding.

The deployment story of Figure 1 implies queries arriving one at a time
from many clients; PR 1's batched query engine is fastest on batches.
:func:`run` quantifies what the dynamic micro-batching scheduler buys when
bridging the two: closed-loop throughput and tail latency for

- a **batch-size-1 baseline** (every request served alone — the seed's
  implicit serving model),
- the **micro-batching scheduler** at several batch windows,
- micro-batching **plus the LRU query cache** on a skewed (repeating)
  query stream.

:func:`run_replicated` measures the scale-out tier on top of that: an
R×S grid of **simulated accelerator devices**
(:class:`~repro.serve.backends.SimulatedDeviceBackend` — exact results,
wall time padded to a modeled device service time plus a LogGP network
hop), replicated behind least-loaded routing and sharded behind exact
scatter-gather merge.  Throughput should scale with the replica count at
flat-or-better tail latency, and per-device service time should shrink
with the shard count — the paper's scale-out claims, measured through the
real scheduler/routing stack.  The scatter/gather collectives for S
shards are additionally modeled with the binary-tree LogGP estimator
(:mod:`repro.net.collectives`) and reported alongside the measured
percentiles.

:func:`run_async` measures the **asyncio connection tier** against the
thread-based front end: C concurrent connections (C up to thousands —
far past what a thread per connection affords) drive the same engine
over a simulated device, threads via :func:`run_closed_loop`, async via
real localhost TCP through :class:`~repro.serve.aio.VectorSearchServer`
/ :class:`~repro.serve.aio.AsyncClient` speaking the binary protocol.

:func:`run_multiproc` measures the **multi-process data plane**: N
worker processes (:class:`~repro.serve.workers.WorkerPool`) each mmap
the same saved index directory and scan their shard with their own GIL,
while the router runs coarse quantization **once per batch** and ships
each worker its pruned cell subset over one preselect frame
(:class:`~repro.serve.routing.ShardedBackend` with a planner).  Unlike
every other mode here, the workers burn real CPU — QPS scaling with N
requires actual cores, so the result records the host's CPU count
alongside the measured curve.

All results are verified bit-identical to direct ``IVFPQIndex.search``
before any timing is reported — a fast wrong answer is not a speedup.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ann.io import load_index_dir, save_index_dir
from repro.ann.ivf import IVFPQIndex
from repro.core.codesign import (
    CodesignReport,
    DesignEval,
    HostConstraints,
    IndexOption,
    SearchSpace,
    TenantSpec,
    TrafficClass,
    TrafficProfile,
    modeled_serving,
)
from repro.core.codesign import search as codesign_search
from repro.core.index_explorer import IndexExplorer, RecallGoal
from repro.data.datasets import Dataset
from repro.data.synthetic import make_clustered
from repro.harness.formatting import format_table
from repro.net.collectives import binary_tree_broadcast_us, binary_tree_reduce_us
from repro.net.loggp import point_to_point_us
from repro.net.wire import (
    batch_result_frame_bytes,
    preselect_frame_bytes,
    result_frame_bytes,
    search_frame_bytes,
)
from repro.obs.events import EventLog
from repro.obs.export import write_chrome_trace
from repro.obs.timeline import BurnRateRule, SLOMonitor, TelemetryCollector
from repro.obs.trace import Tracer
from repro.serve.aio import AsyncClient, AsyncServingEngine, VectorSearchServer
from repro.serve.backends import InstrumentedBackend, SimulatedDeviceBackend
from repro.serve.cache import QueryResultCache
from repro.serve.loadgen import (
    LoadReport,
    TenantWorkload,
    run_closed_loop,
    run_multi_tenant,
    run_open_loop,
    tile_stream,
)
from repro.serve.metrics import LatencyStats
from repro.serve.qos import AdaptiveBatchWindow, TenantPolicy, WFQDiscipline
from repro.serve.routing import build_topology
from repro.serve.scheduler import AdmissionError, ServeResult, ServingEngine
from repro.serve.topology_spec import TopologySpec
from repro.serve.workers import WorkerPool

__all__ = [
    "AsyncConfigRow",
    "AsyncServeResult",
    "ChaosKillRow",
    "ChaosServeResult",
    "CodesignServeResult",
    "CodesignValidation",
    "MultiprocConfigRow",
    "MultiprocServeResult",
    "QosBenchResult",
    "QosTenantRow",
    "ReplicatedConfigRow",
    "ReplicatedServeResult",
    "ServeBenchResult",
    "ServeConfigRow",
    "WindowRow",
    "build_serving_index",
    "default_codesign_traffic",
    "run",
    "run_async",
    "run_chaos",
    "run_codesign",
    "run_multiproc",
    "run_qos",
    "run_replicated",
]

#: Serving workload shape (small enough to train in seconds, large enough
#: that a batched scan beats per-query dispatch).
N_BASE = 8_000
D = 32
NLIST = 128
M = 8
KSUB = 32
K = 10
NPROBE = 8
N_QUERY_POOL = 200


def _row(rows: list, **key):
    """The row whose attributes equal ``key``; KeyError lists the measured keys."""
    for r in rows:
        if all(getattr(r, name) == value for name, value in key.items()):
            return r
    measured = [tuple(getattr(r, name) for name in key) for r in rows]
    raise KeyError(f"no measured row with {key}; measured: {measured}")


class _IdentityVerdict:
    """Result mixin: the run passes when its answers matched direct search."""

    @property
    def checks(self) -> dict[str, bool]:
        """Named pass/fail checks; ``cli`` exits nonzero if any is False."""
        return {"bit_identical": self.bit_identical}


@dataclass(frozen=True)
class ServeConfigRow:
    """One serving configuration's measured outcome."""

    name: str
    max_batch: int
    max_wait_us: float
    cache: bool
    report: LoadReport

    def cells(self) -> list:
        r = self.report
        hit_rate = (
            r.cache_hits / max(r.cache_hits + r.cache_misses, 1) if self.cache else 0.0
        )
        return [
            self.name, self.max_batch, self.max_wait_us,
            "on" if self.cache else "off",
            r.achieved_qps, r.total.p50_us, r.total.p99_us,
            r.mean_batch_size, f"{100 * hit_rate:.0f}%",
        ]


@dataclass
class ServeBenchResult(_IdentityVerdict):
    rows: list[ServeConfigRow]
    bit_identical: bool
    n_clients: int
    n_requests: int
    params: dict = field(default_factory=dict)

    @property
    def baseline(self) -> ServeConfigRow:
        return next(r for r in self.rows if r.max_batch == 1)

    def best_batched(self) -> ServeConfigRow:
        """Highest-QPS micro-batched config (cache off — pure scheduling)."""
        batched = [r for r in self.rows if r.max_batch > 1 and not r.cache]
        return max(batched, key=lambda r: r.report.achieved_qps)

    def format(self) -> str:
        headers = [
            "config", "max_batch", "window_us", "cache",
            "QPS", "p50_us", "p99_us", "mean_batch", "hit%",
        ]
        table = format_table(
            headers, [r.cells() for r in self.rows],
            title=(
                f"serve-bench: closed loop, {self.n_clients} clients, "
                f"{self.n_requests} requests (results bit-identical to "
                f"direct search: {self.bit_identical})"
            ),
        )
        base, best = self.baseline, self.best_batched()
        speedup = best.report.achieved_qps / max(base.report.achieved_qps, 1e-9)
        tail = base.report.total.p99_us / max(best.report.total.p99_us, 1e-9)
        return (
            f"{table}\n\nbest micro-batched ({best.name}): "
            f"{speedup:.2f}x QPS of batch-1 at {tail:.2f}x lower p99"
        )


def build_serving_index(
    n_base: int = N_BASE, d: int = D, nlist: int = NLIST,
    m: int = M, ksub: int = KSUB, seed: int = 0,
) -> tuple[IVFPQIndex, np.ndarray]:
    """A small trained index plus a pool of in-distribution queries."""
    vecs = make_clustered(n_base + N_QUERY_POOL, d, n_clusters=nlist, seed=seed + 42)
    base, queries = vecs[:n_base], vecs[n_base:]
    index = IVFPQIndex(d=d, nlist=nlist, m=m, ksub=ksub, seed=seed)
    index.train(base)
    index.add(base)
    index.invlists  # flush packing so serving never pays it
    return index, queries


def _write_metrics(path, payload: dict) -> None:
    """Dump a full metrics-registry payload as pretty JSON."""
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _serve_block(
    engine: ServingEngine,
    queries: np.ndarray,
    k: int,
    nprobe: int,
    tags: list[dict] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Serve ``queries`` through ``engine`` (not yet started), all in flight.

    ``tags`` optionally gives each request its ``tenant``/``priority``
    keywords.  Returns the stacked ``(ids, dists)`` in query order.
    """
    with engine:
        futs = [
            engine.submit(q, k, nprobe, **(tags[i] if tags else {}))
            for i, q in enumerate(queries)
        ]
        got = [f.result() for f in futs]
    return np.stack([g.ids for g in got]), np.stack([g.dists for g in got])


def _matches_search(
    index: IVFPQIndex, queries: np.ndarray, k: int, nprobe: int,
    got: tuple[np.ndarray, np.ndarray],
) -> bool:
    """Whether ``got = (ids, dists)`` equals ``index.search`` bit for bit."""
    ref_ids, ref_dists = index.search(queries, k, nprobe)
    return bool(np.array_equal(got[0], ref_ids) and np.array_equal(got[1], ref_dists))


def run(
    ctx=None,
    *,
    n_clients: int = 16,
    n_requests: int = 400,
    windows_us: tuple[float, ...] = (0.0, 1000.0, 4000.0),
    max_batch: int = 16,
    k: int = K,
    nprobe: int = NPROBE,
    seed: int = 0,
    trace_path: str | None = None,
    trace_sample: float = 1.0,
    metrics_out: str | None = None,
) -> ServeBenchResult:
    """Run the serving comparison (ctx unused; the index is self-built).

    With ``trace_path`` every configuration serves through one shared
    :class:`~repro.obs.trace.Tracer` (head-sampled at ``trace_sample``)
    and the merged Chrome/Perfetto trace is written there at the end;
    with ``metrics_out`` each configuration's full metrics-registry
    snapshot is dumped as JSON.
    """
    index, queries = build_serving_index(seed=seed)
    check = queries[:64]
    served = _serve_block(
        ServingEngine(index, max_batch=16, max_wait_us=2000.0), check, k, nprobe
    )
    bit_identical = _matches_search(index, check, k, nprobe, served)
    tracer = Tracer(sample_rate=trace_sample, seed=seed) if trace_path is not None else None

    configs: list[tuple[str, int, float, bool]] = [
        ("batch-1", 1, 0.0, False),
    ]
    configs += [
        (f"batched w={int(w)}us", max_batch, w, False) for w in windows_us
    ]
    configs.append(("batched + cache", max_batch, windows_us[-1], True))

    rows: list[ServeConfigRow] = []
    config_metrics: dict[str, dict] = {}
    for name, mb, wait, use_cache in configs:
        backend = InstrumentedBackend(index)
        cache = QueryResultCache(capacity=4 * N_QUERY_POOL) if use_cache else None
        with ServingEngine(
            backend, max_batch=mb, max_wait_us=wait, cache=cache, tracer=tracer
        ) as engine:
            report = run_closed_loop(
                engine, queries, k, nprobe,
                n_clients=n_clients, n_requests=n_requests,
            )
        config_metrics[name] = engine.metrics.snapshot().to_dict()
        rows.append(ServeConfigRow(name, mb, wait, use_cache, report))

    if tracer is not None:
        write_chrome_trace(trace_path, tracer.spans(), dropped=tracer.dropped)
    if metrics_out is not None:
        _write_metrics(metrics_out, {"mode": "basic", "configs": config_metrics})

    return ServeBenchResult(
        rows=rows,
        bit_identical=bit_identical,
        n_clients=n_clients,
        n_requests=n_requests,
        params={
            "n_base": N_BASE, "d": D, "nlist": NLIST, "m": M, "ksub": KSUB,
            "k": k, "nprobe": nprobe, "max_batch": max_batch,
            "windows_us": list(windows_us), "query_pool": N_QUERY_POOL,
        },
    )


# --------------------------------------------------------------------- #
# Replicated / sharded serving matrix.

#: Modeled device service time: pipeline fill plus per-query issue
#: interval; a shard scans 1/S of the data, so the per-query term scales.
#: Sized so modeled device time dominates the host's shard-emulation
#: compute (~1 ms/batch/shard here) the way a real accelerator's scan
#: dominates its host's dispatch work.
DEVICE_FILL_US = 2000.0
DEVICE_PER_QUERY_US = 1000.0


def device_service_us(batch: int, shards: int) -> float:
    """Modeled accelerator time for one batch over a 1/``shards`` slice."""
    return DEVICE_FILL_US + DEVICE_PER_QUERY_US * batch / shards


def device_hop_us(d: int = D, k: int = K) -> float:
    """LogGP wire time per device call: query in, top-K result out.

    Charges full on-wire frame sizes (header + fixed fields + payload,
    :func:`repro.net.wire.search_frame_bytes` /
    :func:`~repro.net.wire.result_frame_bytes`), not bare payload bytes —
    the same framing every byte of the real socket tier pays.
    """
    return point_to_point_us(search_frame_bytes(d)) + point_to_point_us(
        result_frame_bytes(k)
    )


def collective_us(shards: int, d: int = D, k: int = K) -> float:
    """Modeled binary-tree scatter/gather cost across ``shards`` (0 for 1).

    Like :func:`device_hop_us`, charges full framed wire sizes.
    """
    if shards <= 1:
        return 0.0
    return binary_tree_broadcast_us(
        shards, search_frame_bytes(d)
    ) + binary_tree_reduce_us(shards, result_frame_bytes(k))


@dataclass(frozen=True)
class ReplicatedConfigRow:
    """One (replicas, shards) grid point's measured outcome."""

    replicas: int
    shards: int
    policy: str
    report: LoadReport
    #: Modeled per-device service time for a full batch at this shard count.
    device_us: float
    #: Modeled binary-tree scatter/gather collectives for this shard count.
    net_us: float
    #: Batches dispatched per replica of shard 0 (routing balance).
    dispatch_counts: list[int]

    def cells(self) -> list:
        """Row cells for the result table."""
        r = self.report
        balance = "/".join(str(c) for c in self.dispatch_counts)
        return [
            f"R={self.replicas} S={self.shards}",
            r.achieved_qps, r.total.p50_us, r.total.p99_us,
            r.total.p99_us + self.net_us,
            r.mean_batch_size, self.device_us, balance,
        ]


@dataclass
class ReplicatedServeResult(_IdentityVerdict):
    """Outcome of the replicas × shards serving matrix."""

    rows: list[ReplicatedConfigRow]
    bit_identical: bool
    n_clients: int
    n_requests: int
    params: dict = field(default_factory=dict)

    def row(self, replicas: int, shards: int) -> ReplicatedConfigRow:
        """The grid point measured at (``replicas``, ``shards``)."""
        return _row(self.rows, replicas=replicas, shards=shards)

    def replica_speedup(self, replicas: int, shards: int = 1) -> float:
        """QPS of (replicas, shards) over the single-replica column."""
        return (
            self.row(replicas, shards).report.achieved_qps
            / max(self.row(1, shards).report.achieved_qps, 1e-9)
        )

    def format(self) -> str:
        """Human-readable matrix table plus the headline scaling numbers."""
        headers = [
            "topology", "QPS", "p50_us", "p99_us", "p99+net_us",
            "mean_batch", "device_us", "dispatched",
        ]
        table = format_table(
            headers, [r.cells() for r in self.rows],
            title=(
                f"replicated serve: closed loop, {self.n_clients} clients, "
                f"{self.n_requests} requests/config, simulated devices "
                f"(bit-identical to direct search: {self.bit_identical})"
            ),
        )
        shards_1 = sorted({r.replicas for r in self.rows if r.shards == 1})
        lines = [table]
        # Headline requires both the R=1 baseline and a larger R at S=1;
        # a grid measured without them (e.g. --replicas 2,3) skips it.
        if len(shards_1) > 1 and shards_1[0] == 1:
            top = shards_1[-1]
            base = self.row(1, 1).report
            best = self.row(top, 1).report
            lines.append(
                f"\n{top} replicas: {self.replica_speedup(top):.2f}x QPS of 1 "
                f"replica at {base.total.p99_us / max(best.total.p99_us, 1e-9):.2f}x "
                f"lower p99"
            )
        return "".join(lines)


def run_replicated(
    ctx=None,
    *,
    replicas: tuple[int, ...] = (1, 2, 3),
    shards: tuple[int, ...] = (1, 2, 4),
    n_clients: int = 32,
    n_requests: int = 600,
    max_batch: int = 8,
    max_wait_us: float = 500.0,
    policy: str = "least-loaded",
    k: int = K,
    nprobe: int = NPROBE,
    seed: int = 0,
) -> ReplicatedServeResult:
    """Measure the replicas × shards grid (ctx unused; self-built index).

    Each grid point serves the same closed-loop load through a
    :func:`~repro.serve.routing.build_topology` backend of simulated
    devices, with one engine dispatcher per replica so the replica tier
    can actually hold R micro-batches in flight.  ``n_clients`` stays
    fixed across the grid — scaling must come from the topology, not from
    offered load.
    """
    index, queries = build_serving_index(seed=seed)
    check = queries[:32]

    def served(r: int, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Answers through the full R×S engine stack of zero-cost devices."""
        topo = build_topology(
            index, replicas=r, shards=s, policy=policy,
            wrap=lambda v: SimulatedDeviceBackend(v, 0.0),
        )
        engine = ServingEngine(topo, max_batch=8, max_wait_us=2000.0, dispatchers=r)
        return _serve_block(engine, check, k, nprobe)

    # Every grid point (including the collapsed R=1 / S=1 topologies,
    # which take different code paths) must agree with direct search
    # before any of them is timed.
    bit_identical = all(
        _matches_search(index, check, k, nprobe, served(r, s))
        for s in shards
        for r in replicas
    )

    hop = device_hop_us(D, k)
    rows: list[ReplicatedConfigRow] = []
    for s in shards:
        svc = functools.partial(device_service_us, shards=s)
        for r in replicas:
            topo = build_topology(
                index,
                replicas=r,
                shards=s,
                policy=policy,
                wrap=lambda v: SimulatedDeviceBackend(v, svc, hop_us=hop),
                seed=seed,
            )
            with ServingEngine(
                topo, max_batch=max_batch, max_wait_us=max_wait_us, dispatchers=r
            ) as engine:
                report = run_closed_loop(
                    engine, queries, k, nprobe,
                    n_clients=n_clients, n_requests=n_requests,
                )
            # Routing balance of shard 0's replica set (all shards behave
            # alike; with one shard the topology *is* the replica set).
            if r > 1:
                rs = topo.shards[0] if s > 1 else topo
                counts = list(rs.dispatch_counts)
            else:
                counts = [int(engine.metrics.snapshot().counters.get("batches", 0))]
            rows.append(
                ReplicatedConfigRow(
                    replicas=r, shards=s, policy=policy, report=report,
                    device_us=device_service_us(max_batch, s),
                    net_us=collective_us(s, D, k),
                    dispatch_counts=counts,
                )
            )

    return ReplicatedServeResult(
        rows=rows,
        bit_identical=bit_identical,
        n_clients=n_clients,
        n_requests=n_requests,
        params={
            "n_base": N_BASE, "d": D, "nlist": NLIST, "m": M, "ksub": KSUB,
            "k": k, "nprobe": nprobe, "max_batch": max_batch,
            "max_wait_us": max_wait_us, "policy": policy,
            "replicas": list(replicas), "shards": list(shards),
            "device_fill_us": DEVICE_FILL_US,
            "device_per_query_us": DEVICE_PER_QUERY_US,
            "device_hop_us": hop,
        },
    )


# --------------------------------------------------------------------- #
# Multi-tenant QoS benchmark: noisy neighbor + adaptive batch window.

#: Modeled device for the QoS scenarios: a large per-batch fill cost makes
#: batch efficiency matter (the adaptive window's job) and a bounded
#: capacity makes the queue the contended resource (the fair queue's job).
QOS_FILL_US = 6000.0
QOS_PER_QUERY_US = 250.0
QOS_MAX_BATCH = 16


def qos_service_us(batch: int) -> float:
    """Modeled accelerator time for one batch in the QoS scenarios."""
    return QOS_FILL_US + QOS_PER_QUERY_US * batch


def qos_capacity_qps() -> float:
    """Max sustainable throughput of the modeled device (full batches)."""
    return QOS_MAX_BATCH / (qos_service_us(QOS_MAX_BATCH) * 1e-6)


@dataclass(frozen=True)
class QosTenantRow:
    """One tenant's measured outcome under one scheduling mode."""

    mode: str  # "isolated" | "fifo" | "qos"
    tenant: str
    offered_qps: float
    report: LoadReport

    def cells(self) -> list:
        """Row cells for the noisy-neighbor table."""
        r = self.report
        return [
            self.mode, self.tenant, self.offered_qps,
            r.n_completed, r.n_shed,
            r.total.p50_us, r.total.p99_us,
        ]


@dataclass(frozen=True)
class WindowRow:
    """One (load level, window config) point of the adaptive-window sweep."""

    load: str  # "low" | "high"
    config: str  # "w=0" | "w=fixed" | "adaptive"
    rate_qps: float
    report: LoadReport
    #: Modeled device busy time per completed request — the batch-
    #: efficiency axis of the frontier (deterministic, unlike wall time).
    busy_us_per_req: float
    final_window_us: float

    def cells(self) -> list:
        """Row cells for the window-sweep table."""
        r = self.report
        return [
            self.load, self.config, self.rate_qps,
            r.total.p50_us, r.total.p99_us,
            r.mean_batch_size, self.busy_us_per_req, self.final_window_us,
        ]


@dataclass
class QosBenchResult(_IdentityVerdict):
    """Outcome of the multi-tenant QoS benchmark."""

    tenant_rows: list[QosTenantRow]
    window_rows: list[WindowRow]
    bit_identical: bool
    params: dict = field(default_factory=dict)

    # -- noisy neighbor ------------------------------------------------ #
    def victim_p99(self, mode: str) -> float:
        """Worst victim-tenant p99 under ``mode`` (aggressor excluded)."""
        p99s = [
            row.report.total.p99_us
            for row in self.tenant_rows
            if row.mode == mode and row.tenant != "aggressor"
        ]
        if not p99s:
            raise KeyError(f"no victim rows measured for mode {mode!r}")
        return max(p99s)

    # -- adaptive window ----------------------------------------------- #
    def window_row(self, load: str, config: str) -> WindowRow:
        """The sweep point measured at (``load``, ``config``)."""
        return _row(self.window_rows, load=load, config=config)

    def format(self) -> str:
        """Human-readable tables plus the headline isolation numbers."""
        t1 = format_table(
            ["mode", "tenant", "offered_qps", "done", "shed", "p50_us", "p99_us"],
            [r.cells() for r in self.tenant_rows],
            title=(
                "noisy neighbor: victims + 2x-overload aggressor "
                f"(bit-identical to direct search: {self.bit_identical})"
            ),
        )
        t2 = format_table(
            ["load", "config", "rate_qps", "p50_us", "p99_us",
             "mean_batch", "busy_us/req", "window_us"],
            [r.cells() for r in self.window_rows],
            title="adaptive batch window: fixed windows vs SLO controller",
        )
        iso, fifo, qos = (
            self.victim_p99(m) for m in ("isolated", "fifo", "qos")
        )
        lines = [
            t1, "\n\n", t2,
            f"\n\nvictim p99: isolated {iso:.0f}us | FIFO under burst "
            f"{fifo:.0f}us ({fifo / max(iso, 1e-9):.1f}x) | QoS under burst "
            f"{qos:.0f}us ({qos / max(iso, 1e-9):.1f}x)",
        ]
        return "".join(lines)


def run_qos(
    ctx=None,
    *,
    victims: int = 2,
    victim_share: float = 0.15,
    aggressor_mult: float = 2.0,
    duration_s: float = 1.25,
    slo_us: float = 40_000.0,
    max_wait_us: float = 2000.0,
    window_fixed_us: float = 15_000.0,
    low_rate_qps: float = 30.0,
    high_utilization: float = 0.75,
    k: int = K,
    nprobe: int = NPROBE,
    seed: int = 0,
    timeline: str | None = None,
) -> QosBenchResult:
    """Measure the QoS tier (ctx unused; the index is self-built).

    Two scenarios over a modeled accelerator of known capacity C:

    - **noisy neighbor** — ``victims`` tenants at ``victim_share``·C each,
      measured (a) isolated, (b) against an ``aggressor_mult``·C aggressor
      burst through the plain FIFO engine, and (c) through the QoS engine
      (WFQ + a 0.5·C token-bucket quota on the aggressor).  QoS must hold
      the victims' p99 near isolated where FIFO lets it grow with the
      backlog.
    - **adaptive window** — one tenant at a low rate and at
      ``high_utilization``·C, served with a greedy window (0), a fixed
      large window, and the :class:`~repro.serve.qos.AdaptiveBatchWindow`
      controller.  The controller must match the greedy window's latency
      when idle and the large window's batch efficiency under load —
      the frontier neither fixed setting reaches alone.

    With ``timeline`` set, the QoS scenario run (c) carries an
    :class:`~repro.obs.events.EventLog` (``shed`` / ``quota_exceeded``
    events from the scheduler) plus a
    :class:`~repro.obs.timeline.TelemetryCollector` with a p99 burn-rate
    rule against ``slo_us``, and the tick/event stream is written to that
    JSONL path.
    """
    if victims < 1:
        raise ValueError(f"victims must be >= 1, got {victims}")
    index, queries = build_serving_index(seed=seed)
    # Serve through WFQ + quotas + adaptive window.  Tenants rotate across
    # requests (distinct weights, one priority lane) so fair queueing
    # genuinely reorders the stream before it is compared.
    check = queries[:60]
    fair = WFQDiscipline(
        {
            "gold": TenantPolicy(weight=4.0, priority=True),
            "silver": TenantPolicy(weight=2.0),
            "bronze": TenantPolicy(weight=1.0, rate_qps=1e9),
        },
        depth=4 * len(check),
    )
    engine = ServingEngine(
        index, max_batch=8, discipline=fair,
        adaptive_window=AdaptiveBatchWindow(slo_p99_us=50_000.0, max_us=2000.0),
    )
    tenants = ("gold", "silver", "bronze")
    tags = [{"tenant": tenants[i % 3], "priority": i % 3 == 0} for i in range(len(check))]
    served = _serve_block(engine, check, k, nprobe, tags)
    bit_identical = _matches_search(index, check, k, nprobe, served)

    capacity = qos_capacity_qps()
    victim_rate = victim_share * capacity
    aggressor_rate = aggressor_mult * capacity
    victim_names = [f"tenant-{chr(ord('a') + i)}" for i in range(victims)]

    def victim_loads() -> list[TenantWorkload]:
        """One open-loop workload per victim tenant."""
        return [
            TenantWorkload(
                name, rate_qps=victim_rate,
                n_requests=max(int(victim_rate * duration_s), 16),
                k=k, nprobe=nprobe, seed=seed + 17 * (i + 1),
            )
            for i, name in enumerate(victim_names)
        ]

    aggressor_load = TenantWorkload(
        "aggressor", rate_qps=aggressor_rate,
        n_requests=max(int(aggressor_rate * duration_s), 16),
        k=k, nprobe=nprobe, seed=seed + 101,
    )
    total_requests = sum(
        w.n_requests for w in (*victim_loads(), aggressor_load)
    )

    tenant_rows: list[QosTenantRow] = []

    def record(mode: str, reports: dict[str, LoadReport]) -> None:
        """Append one measured row per tenant of a scenario run."""
        for name, rep in sorted(reports.items()):
            offered = aggressor_rate if name == "aggressor" else victim_rate
            tenant_rows.append(QosTenantRow(mode, name, offered, rep))

    def fresh_engine(discipline=None, events=None) -> ServingEngine:
        """A new engine over a fresh simulated device (busy stats reset)."""
        backend = SimulatedDeviceBackend(index, qos_service_us)
        return ServingEngine(
            backend,
            max_batch=QOS_MAX_BATCH,
            max_wait_us=max_wait_us,
            queue_depth=4 * total_requests,
            policy="shed" if discipline is not None else "block",
            discipline=discipline,
            events=events,
        )

    # (a.1) victims alone: the isolated baseline every mode is judged by.
    with fresh_engine() as engine:
        record("isolated", run_multi_tenant(engine, queries, victim_loads()))

    # (a.2) FIFO under the burst: one shared queue, no isolation.
    with fresh_engine() as engine:
        record(
            "fifo",
            run_multi_tenant(engine, queries, [*victim_loads(), aggressor_load]),
        )

    # (a.3) QoS under the same burst: fair queue + aggressor quota.
    policies = {name: TenantPolicy(weight=1.0) for name in victim_names}
    policies["aggressor"] = TenantPolicy(
        weight=1.0, rate_qps=0.5 * capacity, burst=64
    )
    discipline = WFQDiscipline(policies, depth=4 * total_requests)
    qos_events = EventLog() if timeline is not None else None
    collector: TelemetryCollector | None = None
    with fresh_engine(discipline, events=qos_events) as engine:
        if timeline is not None:
            slo = SLOMonitor(
                [BurnRateRule("p99_slo", "p99_us", ">", slo_us, window=3)],
                events=qos_events,
            )
            collector = TelemetryCollector(
                engine.metrics, events=qos_events, slo=slo, interval_s=0.025,
            )
            collector.start()
        try:
            record(
                "qos",
                run_multi_tenant(
                    engine, queries, [*victim_loads(), aggressor_load]
                ),
            )
        finally:
            if collector is not None:
                collector.stop()
    if collector is not None:
        collector.dump_jsonl(timeline)

    # (b) adaptive batch window across the load range.
    high_rate = high_utilization * capacity
    window_rows: list[WindowRow] = []
    for load, rate in (("low", low_rate_qps), ("high", high_rate)):
        n_req = max(int(rate * duration_s), 48)
        # Tile the pool to exactly n_req arrivals so duration_s actually
        # governs how long each sweep point offers load.
        stream = tile_stream(queries, n_req)
        for config in ("w=0", "w=fixed", "adaptive"):
            backend = SimulatedDeviceBackend(index, qos_service_us)
            window = None
            wait = {"w=0": 0.0, "w=fixed": window_fixed_us}.get(config, 0.0)
            if config == "adaptive":
                window = AdaptiveBatchWindow(
                    slo_p99_us=slo_us,
                    max_us=window_fixed_us,
                    target_batch=QOS_MAX_BATCH,
                )
            with ServingEngine(
                backend,
                max_batch=QOS_MAX_BATCH,
                max_wait_us=wait,
                queue_depth=4 * n_req,
                adaptive_window=window,
            ) as engine:
                report = run_open_loop(
                    engine, stream, k, nprobe,
                    rate_qps=rate, seed=seed + 7,
                )
            window_rows.append(
                WindowRow(
                    load=load,
                    config=config,
                    rate_qps=rate,
                    report=report,
                    busy_us_per_req=(
                        backend.busy_us / max(report.n_completed, 1)
                    ),
                    final_window_us=(
                        window.current_us() if window is not None else wait
                    ),
                )
            )

    return QosBenchResult(
        tenant_rows=tenant_rows,
        window_rows=window_rows,
        bit_identical=bit_identical,
        params={
            "n_base": N_BASE, "d": D, "nlist": NLIST, "m": M, "ksub": KSUB,
            "k": k, "nprobe": nprobe,
            "qos_fill_us": QOS_FILL_US, "qos_per_query_us": QOS_PER_QUERY_US,
            "qos_max_batch": QOS_MAX_BATCH,
            "capacity_qps": capacity,
            "victims": victims, "victim_share": victim_share,
            "aggressor_mult": aggressor_mult, "duration_s": duration_s,
            "slo_us": slo_us, "max_wait_us": max_wait_us,
            "window_fixed_us": window_fixed_us,
            "low_rate_qps": low_rate_qps,
            "high_utilization": high_utilization,
            "aggressor_quota_qps": 0.5 * capacity,
        },
    )


# --------------------------------------------------------------------- #
# Async connection-tier benchmark: thread-based vs asyncio front end.

#: Modeled device for the connection-tier scenarios.  Sized like a real
#: accelerator batch (milliseconds): while the device runs, its modeled
#: sleep releases the GIL, so each front end's per-request CPU work
#: (thread wake-ups vs event-loop frame handling) overlaps device time
#: exactly as it would in production — the benchmark measures what the
#: front end *adds*, at a realistic device-to-overhead ratio.
ASYNC_FILL_US = 1000.0
ASYNC_PER_QUERY_US = 200.0
ASYNC_MAX_BATCH = 256

#: Concurrent TCP connects while ramping up a connection sweep (past the
#: kernel accept backlog, SYN retries would serialize the ramp anyway).
CONNECT_CONCURRENCY = 128


def async_service_us(batch: int) -> float:
    """Modeled accelerator time for one batch in the async scenarios."""
    return ASYNC_FILL_US + ASYNC_PER_QUERY_US * batch


@dataclass(frozen=True)
class AsyncConfigRow:
    """One (front end, connection count) point's measured outcome."""

    frontend: str  # "threads" | "async"
    connections: int
    report: LoadReport | None  # None: point skipped (see note)
    #: Seconds to establish every connection (async rows; 0 for threads).
    connect_s: float = 0.0
    note: str = ""

    def cells(self) -> list:
        """Row cells for the result table."""
        if self.report is None:
            return [self.frontend, self.connections, "-", "-", "-", "-", "-",
                    self.note]
        r = self.report
        return [
            self.frontend, self.connections,
            r.achieved_qps, r.total.p50_us, r.total.p99_us,
            r.mean_batch_size, round(self.connect_s, 2), self.note,
        ]


@dataclass
class AsyncServeResult(_IdentityVerdict):
    """Outcome of the connection-count sweep over both front ends."""

    rows: list[AsyncConfigRow]
    bit_identical: bool
    requests_per_conn: int
    params: dict = field(default_factory=dict)

    def row(self, frontend: str, connections: int) -> AsyncConfigRow:
        """The sweep point measured at (``frontend``, ``connections``)."""
        return _row(self.rows, frontend=frontend, connections=connections)

    def p99_ratio(self, connections: int) -> float | None:
        """Async p99 over thread p99 at one connection count (None if
        either side was skipped)."""
        try:
            a = self.row("async", connections).report
            t = self.row("threads", connections).report
        except KeyError:
            return None
        if a is None or t is None:
            return None
        return a.total.p99_us / max(t.total.p99_us, 1e-9)

    def max_async_connections(self) -> int:
        """Largest connection count the async front end completed."""
        done = [
            r.connections for r in self.rows
            if r.frontend == "async" and r.report is not None
            and r.report.n_completed == r.report.n_issued
        ]
        return max(done, default=0)

    def format(self) -> str:
        """Human-readable sweep table plus the headline numbers."""
        table = format_table(
            ["frontend", "conns", "QPS", "p50_us", "p99_us", "mean_batch",
             "connect_s", "note"],
            [r.cells() for r in self.rows],
            title=(
                f"async serve: closed loop per connection, "
                f"{self.requests_per_conn} requests/conn, simulated device "
                f"(bit-identical through the socket protocol: "
                f"{self.bit_identical})"
            ),
        )
        lines = [table]
        lines.append(
            f"\n\nasync front end held {self.max_async_connections()} "
            f"concurrent connections in one process"
        )
        smallest = min(
            (r.connections for r in self.rows if r.frontend == "threads"
             and r.report is not None),
            default=None,
        )
        if smallest is not None and (ratio := self.p99_ratio(smallest)) is not None:
            lines.append(
                f"; p99 at C={smallest}: async/threads = {ratio:.2f}x"
            )
        return "".join(lines)


def _client_report(
    n_issued: int,
    results: list[ServeResult],
    lat_us: list[float],
    n_shed: int,
    n_errors: int,
    wall: float,
) -> LoadReport:
    """A closed-loop report whose total latency is client-observed."""
    return LoadReport(
        mode="closed",
        n_issued=n_issued,
        n_completed=len(results),
        n_shed=n_shed,
        n_errors=n_errors,
        wall_s=wall,
        offered_qps=len(results) / wall if wall > 0 else 0.0,
        total=LatencyStats.from_samples(np.array(lat_us)),
        queue=LatencyStats.from_samples(np.array([r.queue_us for r in results])),
        exec=LatencyStats.from_samples(np.array([r.exec_us for r in results])),
        mean_batch_size=(
            float(np.mean([r.batch_size for r in results])) if results else 0.0
        ),
        cache_hits=0,
        cache_misses=0,
    )


def _drive_thread_closed_loop(
    engine: ServingEngine,
    queries: np.ndarray,
    k: int,
    nprobe: int | None,
    *,
    connections: int,
    requests_per_conn: int,
) -> LoadReport:
    """C client threads, each a closed loop, client-observed latency.

    Mirrors :func:`_drive_async_closed_loop` measurement-for-measurement
    (wall time around each blocking ``search``, thread wake-up included)
    so the thread and async rows compare the same quantity.
    """
    results: list[ServeResult] = []
    lat_us: list[float] = []
    lock = threading.Lock()
    shed = [0]
    errors = [0]

    def drive(ci: int) -> None:
        for r in range(requests_per_conn):
            q = queries[(ci * requests_per_conn + r) % queries.shape[0]]
            t0 = time.perf_counter()
            try:
                res = engine.search(q, k, nprobe)
            except AdmissionError:
                with lock:
                    shed[0] += 1
                continue
            except Exception:
                with lock:
                    errors[0] += 1
                continue
            dt_us = (time.perf_counter() - t0) * 1e6
            with lock:
                lat_us.append(dt_us)
                results.append(res)

    threads = [
        threading.Thread(target=drive, args=(i,)) for i in range(connections)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return _client_report(
        connections * requests_per_conn, results, lat_us, shed[0], errors[0], wall
    )


async def _connect_clients(host: str, port: int, n: int) -> list[AsyncClient]:
    """Open ``n`` client connections, ``CONNECT_CONCURRENCY`` at a time."""
    sem = asyncio.Semaphore(CONNECT_CONCURRENCY)

    async def one() -> AsyncClient:
        async with sem:
            return await AsyncClient.connect(host, port)

    return list(await asyncio.gather(*(one() for _ in range(n))))


async def _drive_async_closed_loop(
    engine: ServingEngine,
    queries: np.ndarray,
    k: int,
    nprobe: int | None,
    *,
    connections: int,
    requests_per_conn: int,
) -> tuple[LoadReport, float]:
    """C connections, each a closed loop over real localhost TCP.

    Latency is **client-observed wall time** (submit to response frame),
    so the protocol and event-loop overhead the async tier adds is *in*
    the numbers — :func:`_drive_thread_closed_loop` measures the same
    quantity around its blocking calls, so the two rows compare like for
    like.  Returns the report plus the connection-ramp seconds.
    """
    results: list[ServeResult] = []
    lat_us: list[float] = []
    n_shed = 0
    n_errors = 0
    async with VectorSearchServer(
        AsyncServingEngine(engine), backlog=max(connections, 128)
    ) as server:
        host, port = server.address
        t_conn = time.perf_counter()
        clients = await _connect_clients(host, port, connections)
        connect_s = time.perf_counter() - t_conn

        async def drive(ci: int, client: AsyncClient) -> None:
            nonlocal n_shed, n_errors
            for r in range(requests_per_conn):
                q = queries[(ci * requests_per_conn + r) % queries.shape[0]]
                t0 = time.perf_counter()
                try:
                    res = await client.search(q, k, nprobe)
                except AdmissionError:
                    n_shed += 1
                    continue
                except Exception:
                    n_errors += 1
                    continue
                lat_us.append((time.perf_counter() - t0) * 1e6)
                results.append(res)

        t0 = time.perf_counter()
        try:
            await asyncio.gather(
                *(drive(i, c) for i, c in enumerate(clients))
            )
            wall = time.perf_counter() - t0
        finally:
            await asyncio.gather(*(c.close() for c in clients))
    report = _client_report(
        connections * requests_per_conn, results, lat_us, n_shed, n_errors, wall
    )
    return report, connect_s


def _serve_over_socket(
    index: IVFPQIndex, queries: np.ndarray, k: int, nprobe: int
) -> tuple[np.ndarray, np.ndarray]:
    """Serve ``queries`` through server + client + protocol; stack answers."""

    async def serve() -> tuple[np.ndarray, np.ndarray]:
        engine = ServingEngine(
            index, max_batch=16, max_wait_us=2000.0, policy="shed",
            queue_depth=4 * len(queries),
        )
        async with AsyncServingEngine(engine) as aeng:
            async with VectorSearchServer(aeng) as srv:
                host, port = srv.address
                async with await AsyncClient.connect(host, port) as client:
                    # Pipelined, not sequential: every query in flight on
                    # one connection at once — the protocol's id
                    # correlation is what this exercises.
                    futs = [client.submit(q, k, nprobe) for q in queries]
                    await client._writer.drain()
                    got = await asyncio.gather(*futs)
        return np.stack([g.ids for g in got]), np.stack([g.dists for g in got])

    return asyncio.run(serve())


def run_async(
    ctx=None,
    *,
    connections: tuple[int, ...] = (64, 512, 4096),
    requests_per_conn: int = 4,
    thread_cap: int = 512,
    max_batch: int = ASYNC_MAX_BATCH,
    max_wait_us: float = 200.0,
    k: int = K,
    nprobe: int = NPROBE,
    seed: int = 0,
) -> AsyncServeResult:
    """Measure thread vs async front ends across connection counts.

    Each sweep point drives one engine (fresh simulated device) with C
    concurrent closed-loop clients: the thread front end uses C client
    threads calling the blocking ``engine.search``; the async front end
    opens C real TCP connections to a :class:`VectorSearchServer` on one
    event loop.  Thread points beyond ``thread_cap`` are skipped — a
    thread per connection at that scale is exactly the limitation the
    async tier exists to remove (ctx unused; the index is self-built).
    """
    if requests_per_conn < 1:
        raise ValueError(f"requests_per_conn must be >= 1, got {requests_per_conn}")
    index, queries = build_serving_index(seed=seed)
    check = queries[:64]
    bit_identical = _matches_search(
        index, check, k, nprobe, _serve_over_socket(index, check, k, nprobe)
    )

    rows: list[AsyncConfigRow] = []
    for conns in connections:

        def fresh_engine() -> ServingEngine:
            backend = SimulatedDeviceBackend(index, async_service_us)
            return ServingEngine(
                backend,
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                queue_depth=2 * conns + 16,
                policy="shed",
            )

        if conns <= thread_cap:
            with fresh_engine() as engine:
                report = _drive_thread_closed_loop(
                    engine, queries, k, nprobe,
                    connections=conns,
                    requests_per_conn=requests_per_conn,
                )
            rows.append(AsyncConfigRow("threads", conns, report))
        else:
            rows.append(
                AsyncConfigRow(
                    "threads", conns, None,
                    note=f"skipped: thread per connection past cap {thread_cap}",
                )
            )

        with fresh_engine() as engine:
            report, connect_s = asyncio.run(
                _drive_async_closed_loop(
                    engine, queries, k, nprobe,
                    connections=conns,
                    requests_per_conn=requests_per_conn,
                )
            )
        rows.append(AsyncConfigRow("async", conns, report, connect_s=connect_s))

    return AsyncServeResult(
        rows=rows,
        bit_identical=bit_identical,
        requests_per_conn=requests_per_conn,
        params={
            "n_base": N_BASE, "d": D, "nlist": NLIST, "m": M, "ksub": KSUB,
            "k": k, "nprobe": nprobe, "max_batch": max_batch,
            "max_wait_us": max_wait_us, "connections": list(connections),
            "requests_per_conn": requests_per_conn, "thread_cap": thread_cap,
            "async_fill_us": ASYNC_FILL_US,
            "async_per_query_us": ASYNC_PER_QUERY_US,
        },
    )


# --------------------------------------------------------------------- #
# Multi-process data plane: mmap shard workers + preselect-once scatter.

#: Multiproc workload shape.  Deliberately scan-heavy (larger corpus,
#: wider vectors, more PQ segments, deeper probes than the single-process
#: modes): the point is real CPU work per shard, so that adding worker
#: processes adds throughput the GIL could never yield in one process.
MP_N_BASE = 40_000
MP_D = 48
MP_NLIST = 128
MP_M = 16
MP_KSUB = 32
MP_K = 10
MP_NPROBE = 16

#: Seconds-scale preset for CI smoke runs (``--workers`` + ``--quick``).
MP_QUICK = {"n_base": 6_000, "d": 32, "nlist": 64, "m": 8, "ksub": 32,
            "nprobe": 8}


def host_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class MultiprocConfigRow:
    """One worker count's measured outcome."""

    workers: int
    report: LoadReport
    #: Coarse-stage runs / queries planned at the router during the load
    #: phase — the preselect-once evidence (queries must equal completed
    #: requests *regardless of the worker count*).
    preselect_batches: int
    preselect_queries: int
    #: Modeled on-wire bytes of one full-batch scatter to one worker:
    #: preselect frame out, batched partial-top-K frame back.
    scatter_bytes: int
    #: Codes each worker reported scanning (sums to the single-process
    #: scan count — shards partition the work, they don't repeat it).
    worker_codes_scanned: list[int]

    def cells(self) -> list:
        """Row cells for the result table."""
        r = self.report
        return [
            self.workers, r.achieved_qps, r.total.p50_us, r.total.p99_us,
            r.mean_batch_size, self.preselect_batches,
            self.preselect_queries, self.scatter_bytes,
            sum(self.worker_codes_scanned),
        ]


@dataclass
class MultiprocServeResult:
    """Outcome of the worker-count sweep over the multi-process plane."""

    rows: list[MultiprocConfigRow]
    bit_identical: bool
    coarse_once: bool
    n_clients: int
    n_requests: int
    host_cpus: int
    params: dict = field(default_factory=dict)

    @property
    def checks(self) -> dict[str, bool]:
        """Named pass/fail checks; ``cli`` exits nonzero if any is False."""
        return {"bit_identical": self.bit_identical, "coarse_once": self.coarse_once}

    def row(self, workers: int) -> MultiprocConfigRow:
        """The sweep point measured at ``workers`` processes."""
        return _row(self.rows, workers=workers)

    def speedup(self, workers: int) -> float:
        """QPS at ``workers`` processes over the 1-worker point."""
        return (
            self.row(workers).report.achieved_qps
            / max(self.row(1).report.achieved_qps, 1e-9)
        )

    def format(self) -> str:
        """Human-readable sweep table plus the headline scaling numbers."""
        table = format_table(
            ["workers", "QPS", "p50_us", "p99_us", "mean_batch",
             "coarse_runs", "planned_q", "scatter_B", "codes_scanned"],
            [r.cells() for r in self.rows],
            title=(
                f"multiproc serve: closed loop, {self.n_clients} clients, "
                f"{self.n_requests} requests/config, {self.host_cpus} host "
                f"CPUs (bit-identical to direct search: {self.bit_identical}; "
                f"coarse ran once per batch: {self.coarse_once})"
            ),
        )
        lines = [table]
        counts = sorted(r.workers for r in self.rows)
        if len(counts) > 1 and counts[0] == 1:
            top = counts[-1]
            lines.append(
                f"\n\n{top} workers: {self.speedup(top):.2f}x QPS of 1 worker "
                f"on {self.host_cpus} CPUs"
            )
            if self.host_cpus < top:
                lines.append(
                    f" (host has fewer CPUs than workers — scaling is "
                    f"GIL-relief only, not real parallelism)"
                )
        return "".join(lines)


def run_multiproc(
    ctx=None,
    *,
    workers: tuple[int, ...] = (1, 2, 4),
    n_clients: int = 8,
    n_requests: int = 240,
    max_batch: int = 16,
    max_wait_us: float = 500.0,
    n_base: int = MP_N_BASE,
    d: int = MP_D,
    nlist: int = MP_NLIST,
    m: int = MP_M,
    ksub: int = MP_KSUB,
    k: int = MP_K,
    nprobe: int = MP_NPROBE,
    seed: int = 0,
    trace_path: str | None = None,
    trace_sample: float = 1.0,
    metrics_out: str | None = None,
) -> MultiprocServeResult:
    """Measure the multi-process data plane across worker counts.

    One index is trained and saved to a temporary directory; every sweep
    point spawns a fresh :class:`~repro.serve.workers.WorkerPool` of N
    processes over that directory (each mmaps the same physical arrays)
    and serves the same closed-loop load through a router-side
    :class:`~repro.serve.scheduler.ServingEngine` over
    ``pool.sharded_backend(preselect=planner)`` — so every micro-batch
    is coarse-quantized once at the router and scattered as pruned cell
    subsets, and the workers spend their CPUs purely on LUT + scan work
    (ctx unused; the index is self-built).

    Before timing, each sweep point's scatter answers are compared bit
    for bit against direct ``IVFPQIndex.search``; after timing, the
    planner's stage counters must show exactly one coarse run per
    dispatched batch and one planned query per completed request.

    With ``trace_path`` the router-side engine traces sampled requests
    end to end; after each sweep point the workers' span buffers are
    drained over the stats frame and merged into one Chrome/Perfetto
    trace whose worker lanes carry the worker pids.  With
    ``metrics_out`` each point dumps the router registry plus every
    worker's scraped registry snapshot.
    """
    if any(w < 1 for w in workers):
        raise ValueError(f"worker counts must be >= 1, got {workers}")
    index, queries = build_serving_index(
        n_base=n_base, d=d, nlist=nlist, m=m, ksub=ksub, seed=seed
    )
    tracer = Tracer(sample_rate=trace_sample, seed=seed) if trace_path is not None else None
    worker_dropped = 0
    point_metrics: dict[str, dict] = {}

    rows: list[MultiprocConfigRow] = []
    bit_identical = True
    coarse_once = True
    with tempfile.TemporaryDirectory(prefix="repro-multiproc-") as tmp:
        save_index_dir(index, tmp)
        for n in workers:
            # Fresh planner per point: its stage counters are this
            # point's coarse-once evidence.
            planner = load_index_dir(tmp, mmap=True)
            with WorkerPool(
                tmp, n, max_batch=max_batch, max_wait_us=0.0
            ) as pool:
                router = pool.sharded_backend(preselect=planner)
                bit_identical &= _matches_search(
                    index, queries, k, nprobe, router.search_batch(queries, k, nprobe)
                )
                # Timing starts here: counter baselines exclude the
                # verification pass above.
                b0 = planner.stats.preselect_batches
                q0 = planner.stats.preselect_queries
                s0 = router.preselect_scatters
                c0 = [b.codes_scanned for b in router.shards]
                with ServingEngine(
                    router,
                    max_batch=max_batch,
                    max_wait_us=max_wait_us,
                    dispatchers=2,
                    tracer=tracer,
                ) as engine:
                    report = run_closed_loop(
                        engine, queries, k, nprobe,
                        n_clients=n_clients, n_requests=n_requests,
                    )
                if tracer is not None or metrics_out is not None:
                    # Scrape the workers while they are still alive:
                    # drain any spans not already piggybacked on result
                    # frames, and collect each worker's registry.
                    scrape = pool.stats(drain_spans=tracer is not None)
                    if tracer is not None:
                        for w in scrape["workers"]:
                            tracer.ingest(w.get("spans") or ())
                            worker_dropped += int(w.get("dropped_spans", 0))
                    point_metrics[f"workers={n}"] = {
                        "router": engine.metrics.snapshot().to_dict(),
                        "workers": [
                            {"pid": w.get("pid"), "metrics": w.get("metrics")}
                            for w in scrape["workers"]
                        ],
                        "counters": scrape["counters"],
                    }
                planned_batches = planner.stats.preselect_batches - b0
                planned_queries = planner.stats.preselect_queries - q0
                coarse_once &= (
                    planned_batches == router.preselect_scatters - s0
                    and planned_queries == report.n_completed
                )
                rows.append(
                    MultiprocConfigRow(
                        workers=n,
                        report=report,
                        preselect_batches=planned_batches,
                        preselect_queries=planned_queries,
                        scatter_bytes=(
                            preselect_frame_bytes(max_batch, nprobe, d)
                            + batch_result_frame_bytes(max_batch, k)
                        ),
                        worker_codes_scanned=[
                            b.codes_scanned - c for b, c in
                            zip(router.shards, c0)
                        ],
                    )
                )

    if tracer is not None:
        write_chrome_trace(
            trace_path, tracer.spans(), dropped=tracer.dropped + worker_dropped
        )
    if metrics_out is not None:
        _write_metrics(metrics_out, {"mode": "multiproc", "points": point_metrics})

    return MultiprocServeResult(
        rows=rows,
        bit_identical=bit_identical,
        coarse_once=coarse_once,
        n_clients=n_clients,
        n_requests=n_requests,
        host_cpus=host_cpus(),
        params={
            "n_base": n_base, "d": d, "nlist": nlist, "m": m, "ksub": ksub,
            "k": k, "nprobe": nprobe, "max_batch": max_batch,
            "max_wait_us": max_wait_us, "workers": list(workers),
            "n_clients": n_clients, "n_requests": n_requests,
            "host_cpus": host_cpus(),
        },
    )


# --------------------------------------------------------------------- #
# Chaos / fault-injection mode.

#: Time budget for one supervised recovery during a chaos run.  Generous:
#: a respawned worker re-loads the saved index from page cache, which is
#: fast, but CI hosts are slow and oversubscribed.
CHAOS_RECOVER_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ChaosKillRow:
    """One injected kill and its supervised recovery."""

    shard: int
    replica: int
    #: Seconds into the load phase when SIGKILL was delivered.
    t_kill_s: float
    #: Whether the supervisor brought the slot back (False means the
    #: retry budget ran out — never expected in a healthy chaos run).
    recovered: bool
    #: Spawn attempts the recovery took (1 = first respawn came up).
    attempts: int
    #: Microseconds from kill detection to the backend re-registered.
    coverage_restored_us: float

    def cells(self) -> list:
        """Row cells for the result table."""
        return [
            f"{self.shard}.{self.replica}", f"{self.t_kill_s:.2f}",
            "yes" if self.recovered else "NO", self.attempts,
            f"{self.coverage_restored_us / 1e3:.1f}",
        ]


@dataclass
class ChaosServeResult:
    """Outcome of a kill/recover cycle under live closed-loop load."""

    report: LoadReport
    kills: list[ChaosKillRow]
    replicas: int
    shards: int
    #: Fraction of completed requests answered with full shard coverage.
    availability: float
    partial_results: int
    worker_restarts: int
    coverage_lost: int
    coverage_restored: int
    bit_identical_before: bool
    bit_identical_after: bool
    #: Pids still running after ``pool.stop()`` — must be empty.
    leaked_pids: list[int]
    host_cpus: int
    params: dict = field(default_factory=dict)
    #: Per-kill ``coverage_lost -> coverage_restored`` gap measured from
    #: the replica-scope event journal (microseconds, kill order).
    recovery_pairs_us: list = field(default_factory=list)
    #: First ``slo_alert`` ts minus the first replica ``coverage_lost``
    #: ts — how long the burn-rate monitor took to notice the outage.
    #: ``None`` when no timeline collector ran.
    alert_latency_us: float | None = None
    #: Total operational events captured in the journal.
    journal_events: int = 0

    @property
    def all_recovered(self) -> bool:
        """Every injected kill ended in a completed supervised restart."""
        return all(k.recovered for k in self.kills)

    @property
    def checks(self) -> dict[str, bool]:
        """Named pass/fail checks; ``cli`` exits nonzero if any is False."""
        return {
            "no_failed_requests": self.report.n_errors == 0,
            "all_recovered": self.all_recovered,
            "bit_identical_before": self.bit_identical_before,
            "bit_identical_after": self.bit_identical_after,
            "no_leaked_pids": not self.leaked_pids,
        }

    def format(self) -> str:
        """Human-readable kill table plus the availability headline."""
        r = self.report
        table = format_table(
            ["worker", "t_kill_s", "recovered", "attempts", "restore_ms"],
            [k.cells() for k in self.kills],
            title=(
                f"chaos serve: {self.replicas}x{self.shards} "
                f"(replicas x shards), {len(self.kills)} kills under load, "
                f"{self.host_cpus} host CPUs"
            ),
        )
        lines = [
            table,
            f"\n\nrequests: {r.n_completed} completed, {r.n_errors} failed, "
            f"{self.partial_results} partial "
            f"(availability {self.availability:.4f})",
            f"\nlatency: p50 {r.total.p50_us:.0f}us, "
            f"p99 {r.total.p99_us:.0f}us at {r.achieved_qps:.0f} QPS",
            f"\ncoverage transitions: {self.coverage_lost} lost, "
            f"{self.coverage_restored} restored; "
            f"{self.worker_restarts} supervised restarts",
            f"\nbit-identical to direct search: "
            f"before={self.bit_identical_before} "
            f"after={self.bit_identical_after}",
        ]
        if self.recovery_pairs_us:
            gaps = ", ".join(f"{g / 1e3:.1f}" for g in self.recovery_pairs_us)
            lines.append(
                f"\njournal: {self.journal_events} events, "
                f"coverage pair recovery [{gaps}] ms"
            )
            if self.alert_latency_us is not None:
                lines.append(
                    f", availability alert after "
                    f"{self.alert_latency_us / 1e3:.1f} ms"
                )
        if self.leaked_pids:
            lines.append(f"\nLEAKED PROCESSES: {self.leaked_pids}")
        return "".join(lines)


def _chaos_killer(
    pool: WorkerPool,
    *,
    kills: int,
    n_requests: int,
    progress,
    seed: int,
    stop_ev: threading.Event,
    kill_times: list,
) -> None:
    """Kill ``kills`` random live workers on a seeded schedule.

    The schedule is progress-driven, not wall-clock: kill ``i`` fires
    once ``progress()`` (completed requests) crosses
    ``(i+1) * n_requests / (kills+1)``, so every strike lands while the
    load is actually running regardless of host speed.  Each kill then
    waits for the supervisor to finish (or give up on) that recovery
    before striking again, so the router never loses more than one
    worker at a time and every ``RestartRecord`` pairs with exactly one
    kill.  ``stop_ev`` aborts the schedule (load phase failed).
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    for i in range(kills):
        threshold = (i + 1) * n_requests // (kills + 1)
        while progress() < threshold:
            if stop_ev.wait(0.005):
                return
        live = [
            (s, r)
            for s in range(pool.n_workers)
            for r in range(pool.replicas)
            if pool.alive[s * pool.replicas + r]
        ]
        if not live:  # pragma: no cover - supervisor lost every slot
            return
        shard, replica = rng.choice(live)
        done_before = len(pool.restart_log) + len(pool.restart_failures)
        kill_times.append((shard, replica, time.perf_counter() - t0))
        pool.kill(shard, replica)
        deadline = time.monotonic() + CHAOS_RECOVER_TIMEOUT_S
        while time.monotonic() < deadline and not stop_ev.is_set():
            if len(pool.restart_log) + len(pool.restart_failures) > done_before:
                break
            time.sleep(0.01)


def run_chaos(
    ctx=None,
    *,
    replicas: int = 2,
    shards: int = 2,
    kills: int = 2,
    n_clients: int = 8,
    n_requests: int = 240,
    max_batch: int = 16,
    max_wait_us: float = 500.0,
    n_base: int = MP_N_BASE,
    d: int = MP_D,
    nlist: int = MP_NLIST,
    m: int = MP_M,
    ksub: int = MP_KSUB,
    k: int = MP_K,
    nprobe: int = MP_NPROBE,
    seed: int = 0,
    metrics_out: str | None = None,
    timeline: str | None = None,
) -> ChaosServeResult:
    """Kill workers on a seeded schedule under live load; measure recovery.

    An R×S :class:`~repro.serve.workers.WorkerPool` (``replicas``
    processes per shard) serves a closed loop through the router-side
    engine with ``on_shard_error="degrade"`` while the pool's supervisor
    runs.  A killer thread SIGKILLs ``kills`` randomly chosen live
    workers, one at a time, waiting for each supervised recovery to land
    before the next strike.  The run asserts the fault-tolerance
    contract end to end:

    - **zero failed requests** — with R >= 2 the replica set fails over
      mid-call; with R == 1 the sharded router degrades to an exact
      merge over the survivors (``coverage < 1`` stamps the answer
      partial, it never errors);
    - **bit-identical answers** before the first kill and after the last
      recovery — a restarted worker mmaps the same saved arrays, so
      recovery is byte-exact, not merely "healthy";
    - **bounded time to full coverage** — every kill's
      ``coverage_restored_us`` comes from the supervisor's own clock;
    - **no leaks** — after ``pool.stop()`` every process ever spawned
      (including mid-run respawns) must be reaped.

    Availability here is result completeness, not uptime: the fraction
    of completed requests answered with every shard present.

    An :class:`~repro.obs.events.EventLog` journal is always attached to
    the engine and supervisor, so the result carries per-kill
    time-to-recovery measured from the replica-scope
    ``coverage_lost -> coverage_restored`` event pairs.  With
    ``timeline`` set, a :class:`~repro.obs.timeline.TelemetryCollector`
    additionally samples metrics/pool/router at 25 ms, an availability
    burn-rate :class:`~repro.obs.timeline.SLOMonitor` fires alert events
    during each outage window, and the interleaved tick/event stream is
    written to that JSONL path (readable by ``serve-top`` and
    ``tools/check_timeline.py``).
    """
    if replicas < 1 or shards < 1:
        raise ValueError(f"need replicas,shards >= 1, got {replicas},{shards}")
    if replicas * shards < 2:
        raise ValueError("chaos needs at least 2 workers (one must survive)")
    if kills < 1:
        raise ValueError(f"need kills >= 1, got {kills}")

    index, queries = build_serving_index(
        n_base=n_base, d=d, nlist=nlist, m=m, ksub=ksub, seed=seed
    )

    kill_times: list = []
    stop_ev = threading.Event()
    events = EventLog()
    collector: TelemetryCollector | None = None
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        save_index_dir(index, tmp)
        planner = load_index_dir(tmp, mmap=True)
        with WorkerPool(
            tmp, shards, replicas=replicas, max_batch=max_batch,
            max_wait_us=0.0,
        ) as pool:
            router = pool.sharded_backend(
                preselect=planner, on_shard_error="degrade"
            )
            bit_before = _matches_search(
                index, queries, k, nprobe, router.search_batch(queries, k, nprobe)
            )
            with ServingEngine(
                router, max_batch=max_batch, max_wait_us=max_wait_us,
                dispatchers=2, events=events,
            ) as engine:
                pool.start_supervisor(metrics=engine.metrics, events=events)
                if timeline is not None:
                    slo = SLOMonitor(
                        [BurnRateRule(
                            "availability_floor", "availability", "<",
                            0.999, window=2,
                        )],
                        events=events,
                    )
                    collector = TelemetryCollector(
                        engine.metrics, pool=pool, router=router,
                        events=events, slo=slo, interval_s=0.025,
                    )
                    collector.start()

                def progress() -> int:
                    snap = engine.metrics.snapshot()
                    return int(snap.counters.get("completed", 0))

                killer = threading.Thread(
                    target=_chaos_killer,
                    kwargs=dict(
                        pool=pool, kills=kills, n_requests=n_requests,
                        progress=progress, seed=seed + 1,
                        stop_ev=stop_ev, kill_times=kill_times,
                    ),
                    name="chaos-killer",
                    daemon=True,
                )
                killer.start()
                try:
                    report = run_closed_loop(
                        engine, queries, k, nprobe,
                        n_clients=n_clients, n_requests=n_requests,
                    )
                except BaseException:
                    stop_ev.set()
                    raise
                finally:
                    # The remaining schedule fires immediately once the
                    # load has completed past its thresholds, so a
                    # bounded join always collects every kill.
                    killer.join(timeout=(kills + 1) * CHAOS_RECOVER_TIMEOUT_S)
                    stop_ev.set()
                # Load is done; give any in-flight recovery time to land
                # so the post-recovery identity check sees a full grid.
                deadline = time.monotonic() + CHAOS_RECOVER_TIMEOUT_S
                while time.monotonic() < deadline:
                    done = len(pool.restart_log) + len(pool.restart_failures)
                    if done >= len(kill_times) and all(pool.alive):
                        break
                    time.sleep(0.01)
                bit_after = _matches_search(
                    index, queries, k, nprobe, router.search_batch(queries, k, nprobe)
                )
                if collector is not None:
                    collector.stop()
                snap = engine.metrics.snapshot().to_dict()
            pool.stop_supervisor()
        leaked = [p.pid for p in pool.spawned_procs if p.poll() is None]

    # Derive the journal-side recovery measures: the supervisor brackets
    # each ``_restart`` with replica-scope coverage events, so the pair
    # gap is an independent read of ``RestartRecord.coverage_restored_us``.
    journal = events.events()
    pending_loss: dict = {}
    recovery_pairs_us: list[float] = []
    first_lost_ts: int | None = None
    for ev in journal:
        if ev.get("scope") != "replica":
            continue
        key = (ev.get("shard"), ev.get("replica"))
        if ev["type"] == "coverage_lost":
            pending_loss[key] = ev["ts"]
            if first_lost_ts is None:
                first_lost_ts = ev["ts"]
        elif ev["type"] == "coverage_restored":
            t_lost = pending_loss.pop(key, None)
            if t_lost is not None:
                recovery_pairs_us.append(float(ev["ts"] - t_lost))
    alert_latency_us: float | None = None
    if first_lost_ts is not None:
        fired = [
            ev["ts"] for ev in journal
            if ev["type"] == "slo_alert" and ev["ts"] >= first_lost_ts
        ]
        if fired:
            alert_latency_us = float(min(fired) - first_lost_ts)

    # Pair kills with recoveries in order: one supervisor thread handles
    # them serially, and the killer waits each one out before the next.
    rows: list[ChaosKillRow] = []
    for i, (shard, replica, t_kill) in enumerate(kill_times):
        rec = pool.restart_log[i] if i < len(pool.restart_log) else None
        rows.append(
            ChaosKillRow(
                shard=shard,
                replica=replica,
                t_kill_s=t_kill,
                recovered=rec is not None,
                attempts=rec.attempts if rec is not None else 0,
                coverage_restored_us=(
                    rec.coverage_restored_us if rec is not None else 0.0
                ),
            )
        )

    counters = snap.get("counters", {})
    partial = int(counters.get("partial", 0))
    completed = max(report.n_completed, 1)
    result = ChaosServeResult(
        report=report,
        kills=rows,
        replicas=replicas,
        shards=shards,
        availability=1.0 - partial / completed,
        partial_results=partial,
        worker_restarts=int(counters.get("worker_restarts", 0)),
        coverage_lost=int(counters.get("coverage_lost", 0)),
        coverage_restored=int(counters.get("coverage_restored", 0)),
        bit_identical_before=bit_before,
        bit_identical_after=bit_after,
        leaked_pids=leaked,
        host_cpus=host_cpus(),
        recovery_pairs_us=recovery_pairs_us,
        alert_latency_us=alert_latency_us,
        journal_events=len(journal),
        params={
            "n_base": n_base, "d": d, "nlist": nlist, "m": m, "ksub": ksub,
            "k": k, "nprobe": nprobe, "max_batch": max_batch,
            "max_wait_us": max_wait_us, "replicas": replicas,
            "shards": shards, "kills": kills, "n_clients": n_clients,
            "n_requests": n_requests, "seed": seed,
            "host_cpus": host_cpus(),
        },
    )
    if timeline is not None and collector is not None:
        collector.dump_jsonl(timeline)
    if metrics_out is not None:
        _write_metrics(
            metrics_out,
            {
                "mode": "chaos",
                "router": snap,
                "availability": result.availability,
                "recovery_pairs_us": recovery_pairs_us,
                "alert_latency_us": alert_latency_us,
            },
        )
    return result


# --------------------------------------------------------------------- #
# Co-design autotuner harness: search, materialize, validate.

#: |measured − modeled| / modeled QPS bound the CI gate enforces on the
#: materialized winner (tools/check_codesign.py --max-gap reads the report
#: field this constant writes).  The model is a capacity bound, not a
#: simulator — batch-formation slack and host dispatch overhead land the
#: measurement below it; the bound says the *composition* of device,
#: wire, and topology models stays within 50 % of a real engine run.
CODESIGN_GAP_BOUND = 0.5
#: Validation runs in scaled time: modeled device times are multiplied so
#: one batch costs at least this much wall time, and the offered rate is
#: divided by the same factor.  Utilization is scale-invariant, so the
#: modeled-vs-measured gap is the dimensionless model error — not a
#: measurement of Python dispatch overhead against a microsecond device.
CODESIGN_MIN_BATCH_US = 8_000.0
#: nlist grid the autotuner's index half explores (quick = CI smoke).
CODESIGN_NLISTS = (64, 128, 256)
CODESIGN_QUICK_NLISTS = (32, 64)


def default_codesign_traffic(quick: bool = False) -> TrafficProfile:
    """The built-in traffic profile (used when ``--traffic`` is absent).

    Two tenants (a priority-entitled online tenant plus a batch tenant)
    and two request classes; the rate is sized against the modeled device
    so the search actually prunes — small topologies fail the capacity
    headroom check and tight windows fail the SLO arithmetic.
    """
    return TrafficProfile(
        rate_qps=20_000.0 if quick else 60_000.0,
        slo_p99_us=20_000.0,
        recall_floor=0.8,
        recall_k=K,
        n_vectors=6_000 if quick else 20_000,
        d=D,
        # Stronger PQ than the serving benchmarks' default (m=8, ksub=32):
        # an 80 % recall floor must be *reachable*, and 2-dim subquantizers
        # with 256 centroids hit it at single-digit nprobe on this corpus.
        m=16,
        ksub=256,
        tenants=(
            TenantSpec("online", 0.7, priority=True),
            TenantSpec("batch", 0.3),
        ),
        classes=(
            TrafficClass(k=K, share=0.9),
            TrafficClass(k=2 * K, share=0.1),
        ),
    )


@dataclass(frozen=True)
class CodesignValidation:
    """Modeled-vs-measured outcome of materializing the winning design.

    All modeled numbers are in *scaled time* (see
    :data:`CODESIGN_MIN_BATCH_US`); the gaps are dimensionless and
    comparable across hosts.
    """

    time_scale: float
    modeled_qps: float
    measured_qps: float
    qps_gap: float  # (measured − modeled) / modeled
    modeled_p99_us: float
    measured_p99_us: float
    p99_gap: float  # recorded only; the CI gate is on QPS
    n_requests: int
    n_failed: int
    bit_identical: bool
    tenant_p99_us: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-able form (written into the codesign report)."""
        return dataclasses.asdict(self)


@dataclass
class CodesignServeResult:
    """Outcome of one ``codesign-serve`` run."""

    report: CodesignReport
    spec: "TopologySpec | None"
    validation: CodesignValidation | None
    quick: bool
    params: dict = field(default_factory=dict)

    def format(self) -> str:
        """Ranked frontier, prune summary, and the validation verdict."""
        rep = self.report
        headers = [
            "rank", "index", "nprobe", "R", "S", "B", "window_us", "qos",
            "modeled_qps", "modeled_p99_us", "util",
        ]
        rows = []
        for i, ev in enumerate(rep.ranked[:5]):
            d = ev.design
            rows.append([
                i + 1,
                f"{'OPQ+' if d.use_opq else ''}IVF{d.nlist}",
                d.nprobe, d.replicas, d.shards, d.max_batch,
                d.window_us, d.qos_scheme,
                f"{ev.modeled_qps:.0f}", f"{ev.modeled_p99_us:.0f}",
                f"{ev.utilization:.2f}",
            ])
        title = (
            f"co-design frontier: {rep.n_feasible}/{rep.n_enumerated} "
            f"feasible (top 5 shown)"
        )
        lines = [format_table(headers, rows, title=title)]
        if rep.prune_counts:
            pruned = ", ".join(
                f"{cat}={n}" for cat, n in sorted(rep.prune_counts.items())
            )
            lines.append(f"\npruned: {pruned}")
        if rep.empty:
            lines.append(
                "\nEMPTY FRONTIER: no design satisfies the traffic profile "
                "under the given constraints."
            )
        v = self.validation
        if v is not None:
            lines.append(
                f"\nvalidation (time x{v.time_scale:.0f}): modeled "
                f"{v.modeled_qps:.1f} QPS vs measured {v.measured_qps:.1f} "
                f"QPS (gap {100 * v.qps_gap:+.1f}%, bound "
                f"+-{100 * CODESIGN_GAP_BOUND:.0f}%) | p99 modeled "
                f"{v.modeled_p99_us:.0f}us vs measured "
                f"{v.measured_p99_us:.0f}us (gap {100 * v.p99_gap:+.1f}%) | "
                f"bit-identical: {v.bit_identical} | failed: {v.n_failed}"
            )
        return "".join(lines)

    def to_json_dict(self, top_n: int = 20) -> dict:
        """The ``--report`` JSON document ``tools/check_codesign.py`` reads."""
        return {
            "schema": 1,
            "quick": self.quick,
            "gap_bound": CODESIGN_GAP_BOUND,
            "traffic": self.report.traffic.to_dict(),
            "search": {
                "n_enumerated": self.report.n_enumerated,
                "n_feasible": self.report.n_feasible,
                "prune_counts": dict(sorted(self.report.prune_counts.items())),
                "ranked": [ev.to_dict() for ev in self.report.ranked[:top_n]],
            },
            "winner_spec": None if self.spec is None else self.spec.to_dict(),
            "validation": (
                None if self.validation is None else self.validation.to_dict()
            ),
            "params": self.params,
        }


def _calibrated_index_options(
    traffic: TrafficProfile,
    nlists: tuple[int, ...],
    *,
    seed: int,
    max_queries: int = 100,
) -> tuple[list[IndexOption], dict]:
    """Train the index grid and calibrate real min-nprobe per option.

    Returns the options (profiles taken from the *trained* indexes, not
    synthetic stand-ins) plus the ``{(nlist, use_opq): IndexCandidate}``
    map so validation can materialize the winner without retraining.
    Classes that pin nprobe skip calibration (the pin wins, capped at
    nlist).
    """
    dataset = Dataset.synthetic(
        "codesign",
        make_clustered,
        traffic.n_vectors,
        2 * max_queries,
        seed=seed + 42,
        d=traffic.d,
        n_clusters=max(nlists),
    )
    explorer = IndexExplorer(m=traffic.m, ksub=traffic.ksub, seed=seed)
    goal = RecallGoal(k=traffic.recall_k, target=traffic.recall_floor)
    pairs = explorer.min_nprobe_map(
        dataset, list(nlists), goal, max_queries=max_queries
    )
    pinned = traffic.pinned_nprobe
    options: list[IndexOption] = []
    candidates: dict = {}
    for (nlist, use_opq), (cand, min_np) in sorted(pairs.items()):
        nprobe = min(pinned, nlist) if pinned is not None else min_np
        options.append(
            IndexOption(
                nlist=nlist, use_opq=use_opq, nprobe=nprobe,
                profile=cand.profile,
            )
        )
        candidates[(nlist, use_opq)] = cand
    return options, candidates


def _validate_codesign(
    spec: "TopologySpec",
    winner: DesignEval,
    traffic: TrafficProfile,
    index: IVFPQIndex,
    queries: np.ndarray,
    *,
    n_requests: int,
    duration_s: float,
    seed: int,
) -> CodesignValidation:
    """Materialize the winner and score modeled-vs-measured in scaled time.

    Three steps: (1) bit-identity of the materialized R×S topology against
    direct search; (2) a closed-loop saturation run against the modeled
    capacity (the gated gap); (3) a multi-tenant open-loop run at the
    traffic profile's scaled offered rate through the spec's WFQ lanes
    (worst-tenant p99 vs the modeled p99, recorded but not gated).
    """
    design = winner.design
    batch_us = (
        winner.fill_us + winner.per_query_us * design.max_batch + winner.net_us
    )
    scale = max(1.0, CODESIGN_MIN_BATCH_US / batch_us)
    modeled_qps, modeled_p99, _ = modeled_serving(
        fill_us=winner.fill_us * scale,
        per_query_us=winner.per_query_us * scale,
        replicas=design.replicas,
        shards=design.shards,
        max_batch=design.max_batch,
        window_us=design.window_us * scale,
        rate_qps=traffic.rate_qps / scale,
        nprobe=design.nprobe,
        d=traffic.d,
        k=traffic.max_k,
        wire_scale=scale,
    )

    def modeled_device(view) -> SimulatedDeviceBackend:
        """A simulated device running the winner's service model in scaled time."""
        return SimulatedDeviceBackend(
            view,
            lambda batch: scale * (winner.fill_us + winner.per_query_us * batch),
            hop_us=scale * winner.net_us,
        )

    k, nprobe = spec.k, spec.nprobe

    # (1) bit identity: zero-cost devices, whole pool, vs direct search.
    topo = spec.build(index, wrap=lambda v: SimulatedDeviceBackend(v, 0.0))
    engine = ServingEngine(
        topo, max_batch=design.max_batch, max_wait_us=2000.0,
        dispatchers=design.replicas,
    )
    bit_identical = _matches_search(
        index, queries, k, nprobe, _serve_block(engine, queries, k, nprobe)
    )

    # (2) saturation: closed loop against the scaled modeled capacity.
    topo = spec.build(index, wrap=modeled_device)
    n_clients = min(max(2 * design.replicas * design.max_batch, 8), 64)
    with ServingEngine(
        topo,
        max_batch=design.max_batch,
        max_wait_us=design.window_us * scale,
        queue_depth=4 * n_requests,
        dispatchers=design.replicas,
    ) as engine:
        closed = run_closed_loop(
            engine, queries, k, nprobe,
            n_clients=n_clients, n_requests=n_requests,
        )
    measured_qps = closed.achieved_qps
    qps_gap = (measured_qps - modeled_qps) / modeled_qps

    # (3) offered load: the traffic profile's tenants at scaled rate
    # through the spec's WFQ lanes; worst tenant p99 vs modeled p99.
    scaled_rate = traffic.rate_qps / scale
    workloads = [
        TenantWorkload(
            t.name,
            rate_qps=max(t.share * scaled_rate, 1.0),
            n_requests=max(int(t.share * scaled_rate * duration_s), 16),
            k=k, nprobe=nprobe, priority=t.priority,
            seed=seed + 13 * (i + 1),
        )
        for i, t in enumerate(traffic.tenants)
    ]
    total = sum(w.n_requests for w in workloads)
    topo = spec.build(index, wrap=modeled_device)
    with ServingEngine(
        topo,
        max_batch=design.max_batch,
        max_wait_us=design.window_us * scale,
        queue_depth=4 * total,
        policy="shed",
        discipline=spec.make_discipline(depth=4 * total),
        dispatchers=design.replicas,
    ) as engine:
        reports = run_multi_tenant(engine, queries, workloads)
    tenant_p99 = {name: rep.total.p99_us for name, rep in reports.items()}
    measured_p99 = max(tenant_p99.values())
    p99_gap = (
        (measured_p99 - modeled_p99) / modeled_p99
        if modeled_p99 not in (0.0, float("inf"))
        else 0.0
    )
    return CodesignValidation(
        time_scale=scale,
        modeled_qps=modeled_qps,
        measured_qps=measured_qps,
        qps_gap=qps_gap,
        modeled_p99_us=modeled_p99,
        measured_p99_us=measured_p99,
        p99_gap=p99_gap,
        n_requests=closed.n_issued,
        n_failed=closed.n_errors + closed.n_shed,
        bit_identical=bit_identical,
        tenant_p99_us=tenant_p99,
    )


def run_codesign(
    ctx=None,
    *,
    traffic_path: str | None = None,
    slo_us: float | None = None,
    validate: bool = False,
    quick: bool = False,
    seed: int = 0,
    report_out: str | None = None,
    spec_out: str | None = None,
) -> CodesignServeResult:
    """Run the serving co-design autotuner (ctx unused; self-built corpus).

    Loads the traffic profile (``traffic_path`` JSON, else the built-in
    default), trains the nlist grid on an in-distribution clustered
    corpus, calibrates each index's real minimum nprobe for the recall
    floor, then searches the joint index × R×S topology × QoS × window
    space with :func:`repro.core.codesign.search`.  The winner is emitted
    as a loadable :class:`~repro.serve.topology_spec.TopologySpec`
    (``spec_out``); with ``validate`` the winner is materialized through
    ``build_topology`` over simulated devices running in scaled time and
    the modeled-vs-measured QPS/p99 gap is recorded (the CI smoke gates
    on it via ``tools/check_codesign.py``).
    """
    traffic = (
        TrafficProfile.from_file(traffic_path)
        if traffic_path is not None
        else default_codesign_traffic(quick)
    )
    if slo_us is not None:
        traffic = dataclasses.replace(traffic, slo_p99_us=slo_us)

    nlists = CODESIGN_QUICK_NLISTS if quick else CODESIGN_NLISTS
    nlists = tuple(n for n in nlists if n <= traffic.n_vectors)
    constraints = HostConstraints(
        max_workers=4 if quick else 8,
        pe_grid=(1, 2, 4, 8, 16) if quick else (1, 2, 4, 8, 12, 16, 24, 32),
    )
    space = SearchSpace.quick() if quick else SearchSpace()

    options, candidates = _calibrated_index_options(
        traffic, nlists, seed=seed, max_queries=64 if quick else 100
    )
    report = codesign_search(traffic, constraints, space, options)

    spec = None
    validation = None
    winner = report.winner
    if winner is not None:
        spec = TopologySpec.from_design(winner, traffic)
        if spec_out is not None:
            spec.save(spec_out)
        if validate:
            cand = candidates[(winner.design.nlist, winner.design.use_opq)]
            # In-distribution query pool: same generator/seed path as the
            # calibration dataset, fresh slice past the base vectors.
            pool = make_clustered(
                traffic.n_vectors + N_QUERY_POOL, traffic.d,
                n_clusters=max(nlists), seed=seed + 42,
            )[traffic.n_vectors :]
            validation = _validate_codesign(
                spec, winner, traffic, cand.index, pool,
                n_requests=240 if quick else 360,
                duration_s=0.6 if quick else 1.0,
                seed=seed,
            )

    result = CodesignServeResult(
        report=report,
        spec=spec,
        validation=validation,
        quick=quick,
        params={
            "nlists": list(nlists),
            "max_workers": constraints.max_workers,
            "pe_grid": list(constraints.pe_grid),
            "seed": seed,
            "gap_bound": CODESIGN_GAP_BOUND,
            "min_batch_us": CODESIGN_MIN_BATCH_US,
            "host_cpus": host_cpus(),
        },
    )
    if report_out is not None:
        Path(report_out).write_text(
            json.dumps(result.to_json_dict(), indent=2) + "\n"
        )
    return result
