"""Serving metrics: counters, latency reservoirs, batch-size histogram.

One :class:`MetricsRegistry` per serving engine.  Everything is recorded
under a single lock (the engine's worker thread and the submitting client
threads both write), and read out as an immutable snapshot so reports never
see a half-updated state.

Latencies are kept as raw per-request observations (microseconds) rather
than pre-bucketed histograms: the paper's serving argument is about *tail*
latency (P99 at scale, Figures 11/12), and exact percentiles over the
reservoir are what the load harness compares across scheduler configs.

Each latency series is a fixed-size **uniform reservoir** (Vitter's
Algorithm R, :class:`ReservoirSample`): once full, each new observation
replaces a uniformly-chosen slot with probability ``capacity / seen``,
so every observation of the run has equal probability
``min(1, capacity / seen)`` of being retained.  Percentiles over the
reservoir are therefore unbiased estimates of the *whole-lifetime*
distribution (not a recency window), memory stays bounded for soak
runs, and the replacement RNG is seeded so tests are deterministic.
The observation count and the maximum are tracked exactly alongside the
sample.

Requests tagged with a ``tenant`` and a ``(k, nprobe)`` class additionally
feed per-tenant and per-class total-latency reservoirs plus per-tenant
counters (``completed``, ``shed``) — the breakdown the multi-tenant QoS
tier needs to show that one tenant's burst did not inflate another's p99.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.obs.trace import now_us

__all__ = [
    "LatencyStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ReservoirSample",
    "TenantStats",
]

#: Percentiles every latency summary reports.
PERCENTILES = (50.0, 95.0, 99.0)

#: Samples each latency series keeps (whole-run, per-tenant and
#: per-class alike): about 0.5 MiB of Python floats once full.
RESERVOIR_SIZE = 16_384


class ReservoirSample:
    """Fixed-size uniform sample of a stream (Vitter's Algorithm R).

    The first ``capacity`` observations are kept verbatim; observation
    number ``n > capacity`` replaces a uniformly-chosen slot with
    probability ``capacity / n``.  By induction every observation ends
    up retained with equal probability ``min(1, capacity / seen)``, so
    statistics over :meth:`values` estimate the full-lifetime
    distribution — there is no recency bias, and memory is O(capacity)
    regardless of run length.  ``seen`` and ``max_value`` are exact.

    Not internally locked: callers (the registry) serialize access.
    The replacement RNG is seeded for deterministic tests.
    """

    __slots__ = ("capacity", "seen", "max_value", "_values", "_rng")

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        self.max_value = float("-inf")
        self._values: list[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Offer one observation to the reservoir."""
        value = float(value)
        self.seen += 1
        if value > self.max_value:
            self.max_value = value
        if len(self._values) < self.capacity:
            self._values.append(value)
        else:
            slot = self._rng.randrange(self.seen)
            if slot < self.capacity:
                self._values[slot] = value

    def values(self) -> np.ndarray:
        """Copy of the retained sample (order is not meaningful)."""
        return np.asarray(self._values, dtype=np.float64)

    def stats(self) -> "LatencyStats":
        """Lifetime summary: percentiles estimated from the sample,
        ``count`` and ``max`` exact."""
        if self.seen == 0:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencyStats.from_samples(
            self.values(), count=self.seen, max_us=self.max_value
        )


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one latency series (all values in microseconds)."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float

    @staticmethod
    def from_samples(
        samples_us: np.ndarray,
        count: int | None = None,
        max_us: float | None = None,
    ) -> "LatencyStats":
        """Summarize a raw sample array (empty input yields all zeros).

        ``count`` and ``max_us`` override the sample-derived values when
        the array is a reservoir *sample* of a longer stream whose true
        observation count and maximum are known exactly.
        """
        s = np.asarray(samples_us, dtype=np.float64)
        if s.size == 0:
            return LatencyStats(int(count or 0), 0.0, 0.0, 0.0, 0.0, 0.0)
        p50, p95, p99 = (float(np.percentile(s, q)) for q in PERCENTILES)
        return LatencyStats(
            count=int(count if count is not None else s.size),
            mean_us=float(s.mean()),
            p50_us=p50, p95_us=p95, p99_us=p99,
            max_us=float(max_us if max_us is not None else s.max()),
        )

    def row(self) -> list[float]:
        """The (mean, p50, p95, p99) cells of a percentile table."""
        return [self.mean_us, self.p50_us, self.p95_us, self.p99_us]


@dataclass(frozen=True)
class TenantStats:
    """One tenant's slice of a snapshot: latency summary plus counters."""

    total: LatencyStats
    counters: dict[str, int]

    @property
    def completed(self) -> int:
        """Requests completed for this tenant."""
        return self.counters.get("completed", 0)

    @property
    def shed(self) -> int:
        """Requests shed for this tenant (quota or queue overflow)."""
        return self.counters.get("shed", 0)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time copy of a registry, safe to read without the lock."""

    counters: dict[str, int]
    total: LatencyStats
    queue: LatencyStats
    exec: LatencyStats
    batch_histogram: dict[int, int]
    qps: float
    elapsed_s: float
    #: Per-tenant latency/counter breakdown (empty when requests carry no
    #: tenant tag).
    tenants: dict[str, TenantStats] = field(default_factory=dict)
    #: Per-(k, nprobe)-class total-latency summaries, keyed by the
    #: canonical class label (see :func:`repro.serve.qos.class_label`).
    classes: dict[str, LatencyStats] = field(default_factory=dict)
    #: Last-value gauges (e.g. the socket front end's open/peak
    #: connection counts) — point-in-time levels, unlike the monotonic
    #: counters.
    gauges: dict[str, float] = field(default_factory=dict)
    #: Registry creation time and snapshot time on the host-wide
    #: monotonic clock (:func:`repro.obs.trace.now_us`) — the same epoch
    #: the tracer and the event journal stamp with, so a scraper can
    #: difference two snapshots into true *interval* rates (instead of
    #: the lifetime averages ``qps``/``elapsed_s`` report) and align
    #: them with spans and events on one timeline.
    started_at_us: int = 0
    snapshot_at_us: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Mean coalesced batch size over the histogram (0.0 if empty)."""
        n = sum(self.batch_histogram.values())
        if n == 0:
            return 0.0
        return sum(size * cnt for size, cnt in self.batch_histogram.items()) / n

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over lookups (0.0 when no cache was consulted)."""
        hits = self.counters.get("cache_hits", 0)
        misses = self.counters.get("cache_misses", 0)
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def to_dict(self) -> dict:
        """JSON-ready form (``serve-bench --metrics-out``, stats frames)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "qps": self.qps,
            "elapsed_s": self.elapsed_s,
            "started_at_us": self.started_at_us,
            "snapshot_at_us": self.snapshot_at_us,
            "mean_batch_size": self.mean_batch_size,
            "cache_hit_rate": self.cache_hit_rate,
            "batch_histogram": {str(k): v for k, v in self.batch_histogram.items()},
            "total": asdict(self.total),
            "queue": asdict(self.queue),
            "exec": asdict(self.exec),
            "tenants": {
                t: {"counters": dict(ts.counters), "total": asdict(ts.total)}
                for t, ts in self.tenants.items()
            },
            "classes": {c: asdict(s) for c, s in self.classes.items()},
        }


class MetricsRegistry:
    """Thread-safe serving counters + latency reservoirs.

    Counters in use by the engine: ``completed``, ``shed``, ``errors``,
    ``cache_hits``, ``cache_misses``, ``batches``.

    Every latency series holds at most :data:`RESERVOIR_SIZE` samples.
    A series is a seeded :class:`ReservoirSample` — a *uniform lifetime*
    sample, not a sliding window — so a long-lived engine's memory stays
    flat while percentile snapshots still estimate the whole run's
    distribution (counts and maxima stay exact).  ``seed`` makes the
    reservoir's replacement choices deterministic; each series derives
    its own sub-seed from its name, so creation order does not matter.

    The per-tenant / per-class breakdowns are bounded on both axes: each
    key's sample has the same cap, and ``max_tracked_keys`` caps key
    cardinality per breakdown — tenant names can be client-supplied, and
    an unbounded dict of samples in a long-lived engine is a leak.  Past the cap, new keys fold into the
    ``"(other)"`` bucket (totals stay correct; only attribution coarsens).
    """

    #: Overflow bucket for breakdown keys past ``max_tracked_keys``.
    OVERFLOW_KEY = "(other)"

    def __init__(self, *, max_tracked_keys: int = 256, seed: int = 0) -> None:
        if max_tracked_keys < 1:
            raise ValueError(
                f"max_tracked_keys must be >= 1, got {max_tracked_keys}"
            )
        self._lock = threading.Lock()
        self._max_keys = max_tracked_keys
        self._seed = seed
        self._counters: Counter[str] = Counter()
        self._gauges: dict[str, float] = {}
        self._total_us = self._reservoir("total")
        self._queue_us = self._reservoir("queue")
        self._exec_us = self._reservoir("exec")
        self._batch_sizes: Counter[int] = Counter()
        self._tenant_total: dict[str, ReservoirSample] = {}
        self._tenant_counters: dict[str, Counter[str]] = {}
        self._class_total: dict[str, ReservoirSample] = {}
        #: Admitted breakdown keys — ONE fold decision per tenant/class,
        #: shared by the counter and latency stores, so a tenant's
        #: counters and latencies can never land under different keys.
        self._tracked_tenants: set[str] = set()
        self._tracked_classes: set[str] = set()
        self._t_first: float | None = None
        self._t_last: float | None = None
        self._started_at_us = now_us()

    # ------------------------------------------------------------------ #
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        with self._lock:
            self._counters[name] += n

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Raise the named gauge to ``value`` if higher (peak tracking)."""
        with self._lock:
            value = float(value)
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def inc_tenant(self, tenant: str, name: str, n: int = 1) -> None:
        """Add ``n`` to ``tenant``'s named counter."""
        with self._lock:
            tenant = self._resolve_key_locked(self._tracked_tenants, tenant)
            self._tenant_counter_locked(tenant)[name] += n

    def _resolve_key_locked(self, tracked: set[str], key: str) -> str:
        """Admit ``key`` to a breakdown, or fold it into the overflow
        bucket once the tracked-key cap is reached."""
        if key in tracked:
            return key
        if len(tracked) < self._max_keys:
            tracked.add(key)
            return key
        return self.OVERFLOW_KEY

    def _tenant_counter_locked(self, tenant: str) -> Counter:
        counters = self._tenant_counters.get(tenant)
        if counters is None:
            counters = Counter()
            self._tenant_counters[tenant] = counters
        return counters

    def _reservoir(self, name: str) -> ReservoirSample:
        """Series reservoir with a name-derived sub-seed (order-independent)."""
        return ReservoirSample(
            RESERVOIR_SIZE, seed=self._seed ^ zlib.crc32(name.encode("utf-8"))
        )

    def _series_locked(
        self, store: dict[str, ReservoirSample], key: str
    ) -> ReservoirSample:
        series = store.get(key)
        if series is None:
            series = self._reservoir(key)
            store[key] = series
        return series

    def observe_request(
        self,
        queue_us: float,
        exec_us: float,
        total_us: float,
        *,
        tenant: str | None = None,
        cls: str | None = None,
    ) -> None:
        """Record one completed request's latency breakdown.

        ``tenant`` and ``cls`` (the ``(k, nprobe)`` class label), when
        given, additionally feed the per-tenant and per-class series.
        """
        now = time.perf_counter()
        with self._lock:
            self._counters["completed"] += 1
            self._queue_us.add(queue_us)
            self._exec_us.add(exec_us)
            self._total_us.add(total_us)
            if tenant is not None:
                tenant = self._resolve_key_locked(self._tracked_tenants, tenant)
                self._tenant_counter_locked(tenant)["completed"] += 1
                self._series_locked(self._tenant_total, tenant).add(total_us)
            if cls is not None:
                cls = self._resolve_key_locked(self._tracked_classes, cls)
                self._series_locked(self._class_total, cls).add(total_us)
            if self._t_first is None:
                self._t_first = now
            self._t_last = now

    def observe_batch(self, size: int) -> None:
        """Record one dispatched micro-batch of ``size`` requests."""
        with self._lock:
            self._counters["batches"] += 1
            self._batch_sizes[size] += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> MetricsSnapshot:
        """Consistent point-in-time copy of counters, stats, and QPS."""
        empty = LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            total = self._total_us.stats()
            queue = self._queue_us.stats()
            exc = self._exec_us.stats()
            hist = dict(sorted(self._batch_sizes.items()))
            tenant_names = set(self._tenant_total) | set(self._tenant_counters)
            tenants = {
                t: TenantStats(
                    total=(
                        self._tenant_total[t].stats()
                        if t in self._tenant_total
                        else empty
                    ),
                    counters=dict(self._tenant_counters.get(t, ())),
                )
                for t in sorted(tenant_names)
            }
            classes = {
                c: s.stats() for c, s in sorted(self._class_total.items())
            }
            if self._t_first is not None and self._t_last is not None:
                elapsed = max(self._t_last - self._t_first, 1e-9)
            else:
                elapsed = 0.0
        # The window spans first..last completion, so one sample has no
        # measurable span — report 0 rather than an absurd 1/epsilon.
        completed = counters.get("completed", 0)
        qps = completed / elapsed if completed >= 2 and elapsed > 0 else 0.0
        return MetricsSnapshot(
            counters=counters,
            total=total,
            queue=queue,
            exec=exc,
            batch_histogram=hist,
            qps=qps,
            elapsed_s=elapsed,
            tenants=tenants,
            classes=classes,
            gauges=gauges,
            started_at_us=self._started_at_us,
            snapshot_at_us=now_us(),
        )
