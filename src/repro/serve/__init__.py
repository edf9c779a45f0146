"""Online serving subsystem: micro-batching, routing, caching, load gen.

Converts the batched query engine's offline throughput into low-latency
online serving: single-query requests are coalesced by a dynamic
micro-batching scheduler (:mod:`repro.serve.scheduler`), routed to any
backend implementing ``search_batch`` (:mod:`repro.serve.backends` — the
IVF-PQ index, the FPGA cluster service, or the dynamic snapshot+delta
service), optionally short-circuited by an LRU result cache
(:mod:`repro.serve.cache`), and measured by a metrics registry
(:mod:`repro.serve.metrics`) and open/closed-loop load generators
(:mod:`repro.serve.loadgen`).

Past one device, :mod:`repro.serve.routing` composes backends into the
paper's scale-out topology: :class:`ReplicaSet` spreads micro-batches over
N replicas by live load, :class:`ShardedBackend` scatter-gathers each
batch across disjoint shards and merges partial top-K exactly
(bit-identical to the unpartitioned index; degraded mode keeps serving
from surviving shards with flagged partial coverage), and
:func:`build_topology` assembles the full R×S grid from one trained index
(``warm=True`` readies every leaf before traffic).

Multi-tenant QoS lives in :mod:`repro.serve.qos`: per-tenant token-bucket
admission quotas (:class:`TokenBucket` / :class:`TenantPolicy`), weighted
fair queueing with a strict-priority lane (:class:`WFQDiscipline` — a
drop-in admission-queue discipline for the engine), and an SLO-driven
adaptive batch window (:class:`AdaptiveBatchWindow`).

The asyncio connection tier lives in :mod:`repro.serve.aio`:
:class:`VectorSearchServer` / :class:`AsyncClient` (a length-prefixed
binary socket protocol, :mod:`repro.serve.protocol`, whose framing
constants are shared with the hardware network models via
:mod:`repro.net.wire`) — one process holding thousands of open
connections over the same batching engine.  In-process asyncio code
awaits the engine directly: ``asyncio.wrap_future(engine.submit(...))``.

The multi-process data plane lives in :mod:`repro.serve.workers`:
:class:`WorkerPool` spawns one OS process per shard, each memory-mapping
the same saved index directory read-only and serving the binary protocol,
and :class:`RemoteBackend` plugs those worker sockets into a
:class:`ShardedBackend` with a router-side planner — the preselect-once
scatter, where the router runs coarse quantization once per batch and
ships each worker its pruned cell subset over a single preselect frame,
the one request kind a worker serves.
"""

from repro.serve.aio import AsyncClient, RemoteServeError, VectorSearchServer
from repro.serve.backends import (
    InstrumentedBackend,
    SearchBackend,
    SimulatedDeviceBackend,
    backend_coverage,
)
from repro.serve.cache import QueryResultCache, query_key
from repro.serve.loadgen import (
    LoadReport,
    TenantWorkload,
    poisson_arrivals,
    run_closed_loop,
    run_multi_tenant,
    run_open_loop,
)
from repro.serve.metrics import (
    LatencyStats,
    MetricsRegistry,
    MetricsSnapshot,
    TenantStats,
)
from repro.serve.qos import (
    AdaptiveBatchWindow,
    TenantPolicy,
    TokenBucket,
    WFQDiscipline,
    class_label,
    default_cost,
)
from repro.serve.routing import (
    ReplicaSet,
    ShardedBackend,
    build_topology,
    warm_topology,
)
from repro.serve.scheduler import (
    AdmissionError,
    QuotaExceededError,
    ServeResult,
    ServingEngine,
)
from repro.serve.topology_spec import TenantLane, TopologySpec
from repro.serve.workers import RemoteBackend, WorkerInfo, WorkerPool

__all__ = [
    "AdaptiveBatchWindow",
    "AdmissionError",
    "AsyncClient",
    "InstrumentedBackend",
    "LatencyStats",
    "LoadReport",
    "MetricsRegistry",
    "MetricsSnapshot",
    "QueryResultCache",
    "QuotaExceededError",
    "RemoteBackend",
    "RemoteServeError",
    "ReplicaSet",
    "SearchBackend",
    "ServeResult",
    "ServingEngine",
    "VectorSearchServer",
    "ShardedBackend",
    "SimulatedDeviceBackend",
    "TenantLane",
    "TenantPolicy",
    "TenantStats",
    "TopologySpec",
    "TenantWorkload",
    "TokenBucket",
    "WFQDiscipline",
    "WorkerInfo",
    "WorkerPool",
    "backend_coverage",
    "build_topology",
    "class_label",
    "default_cost",
    "poisson_arrivals",
    "query_key",
    "run_closed_loop",
    "run_multi_tenant",
    "run_open_loop",
    "warm_topology",
]
