"""Live telemetry plane: timeline collector, SLO monitor, exporters.

PR 7's tracer answers "where did *this* request spend its time"; the
end-of-run :class:`~repro.serve.metrics.MetricsSnapshot` answers "how
did the whole run average out".  This module adds the missing middle —
the **during-the-run** view:

- :class:`TelemetryCollector` — a background thread that scrapes the
  engine's :class:`~repro.serve.metrics.MetricsRegistry`, the routing
  tier's :class:`~repro.serve.routing.ReplicaSet` dispatch/liveness
  state, ``WorkerPool.stats()`` (over the existing stats-frame scrape:
  each worker's pid and ``completed`` query count), the supervisor's
  ``restart_log``, and the per-tenant QoS counters into a bounded
  ring-buffered time-series.  Ticks are stamped with
  :func:`repro.obs.trace.now_us` — the same host-wide monotonic epoch
  the tracer and the event journal use — so a timeline lines up with a
  Perfetto trace of the same run without clock negotiation.  Consecutive
  registry snapshots are differenced into true *interval* rates
  (``qps``), not lifetime averages.
- :class:`SLOMonitor` — windowed burn-rate rules over the tick stream
  (:class:`BurnRateRule`: "metric breaches threshold for W consecutive
  ticks").  Firing and clearing emit typed ``slo_alert`` /
  ``slo_alert_cleared`` records into the event journal, so alerts live
  on the same timeline as the outages that caused them.
- Exporters — :func:`to_prometheus` text exposition (served by
  ``VectorSearchServer(metrics_port=...)``), :func:`write_timeline_jsonl`
  (one JSON object per line: a ``meta`` header, ``tick`` records,
  ``event`` records — the format ``tools/check_timeline.py`` validates
  and ``serve-top`` renders), and :func:`render_dashboard` (the
  ``serve-top`` terminal view).

**Overhead budget.**  One tick costs one registry snapshot (a lock plus
percentile math over the bounded reservoirs) and, when a pool is
attached, one stats-frame RPC per live worker.  At the default 100 ms
interval the collector cost ~2% of a saturated engine's QPS when last
measured; no gate measures it.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.obs.trace import now_us

__all__ = [
    "BurnRateRule",
    "SLOMonitor",
    "TelemetryCollector",
    "load_timeline",
    "render_dashboard",
    "to_prometheus",
    "write_timeline_jsonl",
]


# --------------------------------------------------------------------- #
# SLO burn-rate rules
@dataclass(frozen=True)
class BurnRateRule:
    """One windowed SLO rule: fire after ``window`` consecutive breaches.

    ``metric`` is a dotted path into a tick record (``"p99_us"``,
    ``"availability"``, ``"tenants.gold.qps"``); a tick missing the path
    does not breach.  ``op`` is ``">"`` (breach when value exceeds the
    threshold — latency SLOs) or ``"<"`` (breach when value falls below
    it — availability floors).  The window turns a one-tick blip into a
    non-event and a sustained burn into exactly one alert.
    """

    name: str
    metric: str
    op: str
    threshold: float
    window: int = 3

    def __post_init__(self):
        if self.op not in (">", "<"):
            raise ValueError(f"op must be '>' or '<', got {self.op!r}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def breached(self, tick: dict) -> bool:
        """Whether this tick's metric value violates the rule."""
        value: object = tick
        for part in self.metric.split("."):
            if not isinstance(value, dict) or part not in value:
                return False
            value = value[part]
        if not isinstance(value, (int, float)):
            return False
        return value > self.threshold if self.op == ">" else value < self.threshold


class SLOMonitor:
    """Evaluates burn-rate rules over the tick stream into alert events.

    A rule fires once when its breach streak reaches ``window`` and
    clears once on the first healthy tick after firing; both transitions
    are returned from :meth:`observe` and (when a journal is attached)
    emitted as ``slo_alert`` / ``slo_alert_cleared`` events carrying the
    rule name, the observed value, and the threshold.
    """

    def __init__(self, rules, events=None):
        self.rules = list(rules)
        self.events = events
        self._streak = {r.name: 0 for r in self.rules}
        self._firing: set[str] = set()

    @property
    def firing(self) -> frozenset:
        """Names of rules currently in the firing state."""
        return frozenset(self._firing)

    def _value(self, rule: BurnRateRule, tick: dict):
        value: object = tick
        for part in rule.metric.split("."):
            value = value.get(part) if isinstance(value, dict) else None
            if value is None:
                return None
        return value if isinstance(value, (int, float)) else None

    def observe(self, tick: dict) -> list[dict]:
        """Feed one tick; returns the alert transitions it triggered."""
        transitions = []
        for rule in self.rules:
            value = self._value(rule, tick)
            if rule.breached(tick):
                self._streak[rule.name] += 1
                if (
                    self._streak[rule.name] >= rule.window
                    and rule.name not in self._firing
                ):
                    self._firing.add(rule.name)
                    transitions.append(
                        self._emit("slo_alert", rule, value, tick)
                    )
            else:
                self._streak[rule.name] = 0
                if rule.name in self._firing:
                    self._firing.discard(rule.name)
                    transitions.append(
                        self._emit("slo_alert_cleared", rule, value, tick)
                    )
        return transitions

    def _emit(self, etype: str, rule: BurnRateRule, value, tick: dict) -> dict:
        attrs = {
            "rule": rule.name,
            "metric": rule.metric,
            "op": rule.op,
            "threshold": rule.threshold,
            "window": rule.window,
            "value": value,
            "tick_ts": tick.get("ts"),
        }
        if self.events is not None:
            return self.events.emit(etype, **attrs)
        return {"ts": now_us(), "type": etype, **attrs}


# --------------------------------------------------------------------- #
# The collector
class TelemetryCollector:
    """Background scraper: engine/pool/router state into a tick ring.

    Parameters
    ----------
    metrics:
        The engine's :class:`~repro.serve.metrics.MetricsRegistry`.
        Snapshots are differenced across ticks into interval rates.
    pool:
        Optional :class:`~repro.serve.workers.WorkerPool`.  Adds process
        liveness, the supervisor's restart count, and a per-worker stats
        scrape (pid and queries ``completed``).
    router:
        Optional :class:`~repro.serve.routing.ShardedBackend` (or any
        object with a ``shards`` list).  Shards that are
        :class:`~repro.serve.routing.ReplicaSet`\\ s contribute per-shard
        dispatch/failover/liveness columns and the ``availability``
        gauge — the router's mark_down/mark_up flags span the full
        outage, unlike process liveness which recovers at respawn.
    events:
        Optional :class:`~repro.obs.events.EventLog`: the journal SLO
        transitions are emitted to.
    slo:
        Optional :class:`SLOMonitor` evaluated on every tick.
    interval_s:
        Scrape period.  The tick records the *measured* gap, so rate
        math survives scheduler jitter.
    capacity:
        Ring size; the timeline keeps the newest ``capacity`` ticks.
    """

    def __init__(
        self,
        metrics=None,
        *,
        pool=None,
        router=None,
        events=None,
        slo=None,
        interval_s: float = 0.1,
        capacity: int = 4_096,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.metrics = metrics
        self.pool = pool
        self.router = router
        self.events = events
        self.slo = slo
        self.interval_s = float(interval_s)
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stop_ev = threading.Event()
        self._thread: threading.Thread | None = None
        self._seq = 0
        self._prev: dict | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    def start(self) -> "TelemetryCollector":
        """Start the background scrape thread (one tick per interval)."""
        if self._thread is not None:
            raise RuntimeError("collector already started")
        self._stop_ev.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-collector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final tick (idempotent)."""
        if self._thread is None:
            return
        self._stop_ev.set()
        self._thread.join()
        self._thread = None
        self.tick()  # final sample so the timeline covers the full run

    def __enter__(self) -> "TelemetryCollector":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_ev.wait(self.interval_s):
            try:
                self.tick()
            except Exception:
                # A scrape hitting a worker mid-death must not kill the
                # collector; the next tick sees the recovered state.
                pass

    # ------------------------------------------------------------------ #
    # One scrape
    def tick(self) -> dict:
        """Take one sample now; returns (and buffers) the tick record."""
        tick: dict = {"kind": "tick", "ts": now_us(), "seq": self._seq}
        self._seq += 1
        if self.metrics is not None:
            self._scrape_metrics(tick)
        if self.router is not None:
            self._scrape_router(tick)
        if self.pool is not None:
            self._scrape_pool(tick)
        if "availability" not in tick:
            # No pool: fall back to the request-level view (partial
            # answers over completed answers in this interval).
            done = tick.get("interval", {}).get("completed", 0)
            part = tick.get("interval", {}).get("partial", 0)
            tick["availability"] = 1.0 - part / done if done else 1.0
        if self.slo is not None:
            self.slo.observe(tick)
            tick["alerts_firing"] = sorted(self.slo.firing)
        with self._lock:
            self._ring.append(tick)
        return tick

    def _scrape_metrics(self, tick: dict) -> None:
        snap = self.metrics.snapshot()
        counters = dict(snap.counters)
        tick["counters"] = counters
        tick["gauges"] = dict(snap.gauges)
        tick["p99_us"] = snap.total.p99_us
        tick["p50_us"] = snap.total.p50_us
        tick["coverage"] = snap.gauges.get("coverage", 1.0)
        tick["snapshot_at_us"] = snap.snapshot_at_us
        prev = self._prev
        prev_counters = prev["counters"] if prev else {}
        dt_us = snap.snapshot_at_us - (
            prev["snapshot_at_us"] if prev else snap.started_at_us
        )
        interval = {
            name: counters.get(name, 0) - prev_counters.get(name, 0)
            for name in ("completed", "shed", "partial", "errors")
        }
        tick["interval"] = interval
        tick["interval_us"] = max(dt_us, 0)
        tick["qps"] = interval["completed"] / (dt_us / 1e6) if dt_us > 0 else 0.0
        tenants = {}
        prev_tenants = prev.get("_tenant_completed", {}) if prev else {}
        tenant_completed = {}
        for name, ts in snap.tenants.items():
            done = ts.completed
            tenant_completed[name] = done
            tenants[name] = {
                "completed": done,
                "shed": ts.shed,
                "p99_us": ts.total.p99_us,
                "qps": (
                    (done - prev_tenants.get(name, 0)) / (dt_us / 1e6)
                    if dt_us > 0
                    else 0.0
                ),
            }
        if tenants:
            tick["tenants"] = tenants
        self._prev = {
            "counters": counters,
            "snapshot_at_us": snap.snapshot_at_us,
            "_tenant_completed": tenant_completed,
        }

    def _scrape_router(self, tick: dict) -> None:
        shards = []
        for shard in getattr(self.router, "shards", ()):
            live = getattr(shard, "live", None)
            if live is not None:  # a ReplicaSet
                shards.append(
                    {
                        "live": int(sum(live)),
                        "replicas": len(live),
                        "dispatch": int(sum(shard.dispatch_counts)),
                        "failover": int(sum(shard.failover_counts)),
                    }
                )
            else:
                shards.append({"live": 1, "replicas": 1})
        if shards:
            tick["shards"] = shards
            total = sum(s["replicas"] for s in shards)
            live = sum(s["live"] for s in shards)
            # The router's mark_down/mark_up flags bracket the *full*
            # outage (death detection -> backend re-registered); process
            # liveness recovers at respawn, long before coverage does,
            # so the router view is the availability signal of record.
            tick["availability"] = live / total if total else 1.0

    def _scrape_pool(self, tick: dict) -> None:
        pool = self.pool
        alive = list(pool.alive)
        tick["replicas_live"] = int(sum(alive))
        tick["replicas_total"] = len(alive)
        tick.setdefault(
            "availability", sum(alive) / len(alive) if alive else 1.0
        )
        tick["restarts"] = len(pool.restart_log)
        if all(alive) and tick.get("availability", 1.0) >= 1.0:
            # Scrape workers only at full liveness: a stats RPC to a
            # mid-restart backend can block until its respawn finishes,
            # which would starve the tick cadence exactly when the
            # timeline matters most (during an outage).
            try:
                scrape = pool.stats()
            except Exception:
                return  # a worker died mid-scrape; next tick recovers
            tick["workers"] = [
                {
                    "pid": w.get("pid"),
                    "completed": w.get("metrics", {})
                    .get("counters", {})
                    .get("completed", 0),
                }
                for w in scrape.get("workers", ())
            ]

    # ------------------------------------------------------------------ #
    # Read-out
    def ticks(self) -> list[dict]:
        """Snapshot copy of the buffered ticks (oldest first)."""
        with self._lock:
            return list(self._ring)

    def dump_jsonl(self, path) -> Path:
        """Write the merged timeline (meta + ticks + events) as JSONL."""
        events = self.events.events() if self.events is not None else []
        return write_timeline_jsonl(
            path,
            self.ticks(),
            events,
            meta={
                "interval_s": self.interval_s,
                "dropped_events": (
                    self.events.dropped if self.events is not None else 0
                ),
            },
        )


# --------------------------------------------------------------------- #
# Exporters
def to_prometheus(snapshot, *, prefix: str = "repro") -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Accepts a :class:`~repro.serve.metrics.MetricsSnapshot` or its
    :meth:`~repro.serve.metrics.MetricsSnapshot.to_dict` form (what a
    stats frame carries).  Counters become ``<prefix>_<name>_total``,
    gauges ``<prefix>_<name>``, the latency summaries quantile-labelled
    ``<prefix>_request_latency_us`` series, and per-tenant counters get
    a ``tenant`` label — enough for a stock Prometheus scrape of the
    ``--metrics-port`` endpoint to graph QPS, tails, and shed rates.
    """
    data = snapshot if isinstance(snapshot, dict) else snapshot.to_dict()
    lines: list[str] = []

    def _name(raw: str) -> str:
        return "".join(c if c.isalnum() or c == "_" else "_" for c in raw)

    def _fmt(value) -> str:
        return repr(float(value))

    counters = data.get("counters", {})
    for name in sorted(counters):
        metric = f"{prefix}_{_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(counters[name])}")
    gauges = data.get("gauges", {})
    for name in sorted(gauges):
        metric = f"{prefix}_{_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(gauges[name])}")
    qps = f"{prefix}_qps"
    lines.append(f"# TYPE {qps} gauge")
    lines.append(f"{qps} {_fmt(data.get('qps', 0.0))}")
    lat = f"{prefix}_request_latency_us"
    lines.append(f"# TYPE {lat} summary")
    for series in ("total", "queue", "exec"):
        stats = data.get(series, {})
        if not stats:
            continue
        for q, key in (("0.5", "p50_us"), ("0.95", "p95_us"), ("0.99", "p99_us")):
            lines.append(
                f'{lat}{{series="{series}",quantile="{q}"}} '
                f"{_fmt(stats.get(key, 0.0))}"
            )
        lines.append(f'{lat}_count{{series="{series}"}} {_fmt(stats.get("count", 0))}')
    for tenant in sorted(data.get("tenants", {})):
        tstats = data["tenants"][tenant]
        tcounters = tstats.get("counters", {})
        for cname in sorted(tcounters):
            metric = f"{prefix}_tenant_{_name(cname)}_total"
            lines.append(
                f'{metric}{{tenant="{tenant}"}} {_fmt(tcounters[cname])}'
            )
        total = tstats.get("total", {})
        if total:
            lines.append(
                f'{prefix}_tenant_latency_us{{tenant="{tenant}",'
                f'quantile="0.99"}} {_fmt(total.get("p99_us", 0.0))}'
            )
    return "\n".join(lines) + "\n"


def write_timeline_jsonl(path, ticks, events, *, meta: dict | None = None) -> Path:
    """Write one merged timeline file: meta line, then ticks + events.

    Ticks and events are interleaved in timestamp order (they share the
    monotonic epoch), each tagged with a ``kind`` so consumers —
    ``serve-top``, ``tools/check_timeline.py``, the bench reports — can
    stream the file without schema negotiation.
    """
    path = Path(path)
    records: list[dict] = [dict(t, kind="tick") for t in ticks]
    records += [dict(e, kind="event") for e in events]
    records.sort(key=lambda r: r.get("ts", 0))
    with path.open("w") as fh:
        header = {"kind": "meta", "version": 1, **(meta or {})}
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return path


def load_timeline(path) -> tuple[dict, list[dict], list[dict]]:
    """Parse a timeline JSONL file into ``(meta, ticks, events)``."""
    meta: dict = {}
    ticks: list[dict] = []
    events: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "meta":
                meta = record
            elif kind == "tick":
                ticks.append(record)
            elif kind == "event":
                events.append(record)
    return meta, ticks, events


# --------------------------------------------------------------------- #
# serve-top rendering
def _spark(values, width: int = 24) -> str:
    """Tiny unicode sparkline of the last ``width`` values."""
    blocks = " ▁▂▃▄▅▆▇█"
    vals = [float(v) for v in list(values)[-width:]]
    if not vals:
        return ""
    hi = max(vals) or 1.0
    return "".join(blocks[min(8, int(9 * v / hi)) if hi else 0] for v in vals)


def render_dashboard(ticks, events, *, max_events: int = 8) -> str:
    """Render one ``serve-top`` frame from a timeline's ticks + events.

    Sections: headline rates (interval QPS with a sparkline, p99,
    coverage, availability), the per-tenant table, the per-shard
    replica/dispatch table, and a ticker of the newest journal events
    (restarts, sheds, alerts) — everything an operator needs to see an
    outage happen and recover in real time.
    """
    if not ticks:
        return "serve-top: no ticks yet\n"
    last = ticks[-1]
    qps_series = [t.get("qps", 0.0) for t in ticks]
    lines = [
        f"serve-top @ tick {last.get('seq', len(ticks) - 1)} "
        f"(ts {last.get('ts', 0)} us, {len(ticks)} tick(s) buffered)",
        f"  qps {last.get('qps', 0.0):9.1f}  {_spark(qps_series)}",
        f"  p99 {last.get('p99_us', 0.0):9.1f} us   "
        f"coverage {last.get('coverage', 1.0):6.3f}   "
        f"availability {last.get('availability', 1.0):6.3f}",
    ]
    counters = last.get("counters", {})
    if counters:
        lines.append(
            f"  completed {counters.get('completed', 0)}   "
            f"shed {counters.get('shed', 0)}   "
            f"errors {counters.get('errors', 0)}   "
            f"restarts {last.get('restarts', 0)}"
        )
    firing = last.get("alerts_firing") or []
    if firing:
        lines.append(f"  ALERTS FIRING: {', '.join(firing)}")
    tenants = last.get("tenants", {})
    if tenants:
        lines.append("")
        lines.append(f"  {'tenant':<16} {'qps':>9} {'p99 us':>10} {'shed':>6}")
        for name in sorted(tenants):
            t = tenants[name]
            lines.append(
                f"  {name:<16} {t.get('qps', 0.0):>9.1f} "
                f"{t.get('p99_us', 0.0):>10.1f} {t.get('shed', 0):>6}"
            )
    shards = last.get("shards", [])
    if shards:
        lines.append("")
        lines.append(
            f"  {'shard':<6} {'live':>6} {'dispatch':>10} {'failover':>9}"
        )
        for i, shard in enumerate(shards):
            lines.append(
                f"  {i:<6} {shard.get('live', 1)}/{shard.get('replicas', 1):<4} "
                f"{shard.get('dispatch', 0):>10} {shard.get('failover', 0):>9}"
            )
    if events:
        lines.append("")
        lines.append("  recent events")
        for ev in events[-max_events:]:
            attrs = {
                k: v
                for k, v in ev.items()
                if k not in ("kind", "ts", "type", "pid")
            }
            attr_s = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"  {ev.get('ts', 0):>14} {ev.get('type', '?'):<18} {attr_s}")
    return "\n".join(lines) + "\n"
