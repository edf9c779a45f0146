"""Tests for the telemetry plane (repro.obs.timeline)."""

import sys
import time
from pathlib import Path

import pytest

from repro.obs.events import EventLog
from repro.obs.timeline import (
    BurnRateRule,
    SLOMonitor,
    TelemetryCollector,
    load_timeline,
    render_dashboard,
    to_prometheus,
    write_timeline_jsonl,
)
from repro.serve.metrics import MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_timeline  # noqa: E402  (needs the tools/ path above)


class FakeReplicaSet:
    """Just the attributes the collector's router scrape reads."""

    def __init__(self, live, dispatch, failover):
        self.live = live
        self.dispatch_counts = dispatch
        self.failover_counts = failover


class FakeRouter:
    def __init__(self, shards):
        self.shards = shards


class FakePool:
    """Just the attributes the collector's pool scrape reads."""

    def __init__(self, alive, restart_log=(), stats=None):
        self.alive = list(alive)
        self.restart_log = list(restart_log)
        self._stats = stats

    def stats(self):
        if self._stats is None:
            raise ConnectionError("worker gone")
        return dict(self._stats)


class TestBurnRateRule:
    def test_validates_op_and_window(self):
        with pytest.raises(ValueError, match="op"):
            BurnRateRule("r", "p99_us", ">=", 1.0)
        with pytest.raises(ValueError, match="window"):
            BurnRateRule("r", "p99_us", ">", 1.0, window=0)

    def test_breached_over_and_under(self):
        over = BurnRateRule("lat", "p99_us", ">", 100.0)
        under = BurnRateRule("avail", "availability", "<", 0.99)
        assert over.breached({"p99_us": 150.0})
        assert not over.breached({"p99_us": 50.0})
        assert under.breached({"availability": 0.5})
        assert not under.breached({"availability": 1.0})

    def test_dotted_path_and_missing_metric(self):
        rule = BurnRateRule("gold", "tenants.gold.qps", "<", 10.0)
        assert rule.breached({"tenants": {"gold": {"qps": 5.0}}})
        assert not rule.breached({"tenants": {"other": {"qps": 5.0}}})
        assert not rule.breached({})


class TestSLOMonitor:
    def _ticks(self, values):
        return [{"ts": i, "availability": v} for i, v in enumerate(values)]

    def test_fires_after_window_and_once_per_burn(self):
        events = EventLog()
        mon = SLOMonitor(
            [BurnRateRule("avail", "availability", "<", 0.99, window=3)],
            events=events,
        )
        fired = []
        for tick in self._ticks([1.0, 0.5, 0.5, 0.5, 0.5, 1.0]):
            fired += mon.observe(tick)
        types = [f["type"] for f in fired]
        assert types == ["slo_alert", "slo_alert_cleared"]
        assert [e["type"] for e in events.events()] == types
        alert = events.events("slo_alert")[0]
        assert alert["rule"] == "avail" and alert["value"] == 0.5

    def test_blip_shorter_than_window_is_a_non_event(self):
        mon = SLOMonitor(
            [BurnRateRule("avail", "availability", "<", 0.99, window=3)]
        )
        fired = []
        for tick in self._ticks([1.0, 0.5, 0.5, 1.0, 0.5, 1.0]):
            fired += mon.observe(tick)
        assert fired == []
        assert mon.firing == frozenset()

    def test_firing_state_tracks_burn(self):
        mon = SLOMonitor(
            [BurnRateRule("avail", "availability", "<", 0.99, window=1)]
        )
        mon.observe({"availability": 0.5})
        assert mon.firing == frozenset({"avail"})
        mon.observe({"availability": 1.0})
        assert mon.firing == frozenset()


class TestCollectorTicks:
    def test_interval_rates_not_lifetime_averages(self):
        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics)
        for _ in range(10):
            metrics.observe_request(5.0, 20.0, 25.0)
        t1 = collector.tick()
        assert t1["interval"]["completed"] == 10
        time.sleep(0.01)
        t2 = collector.tick()
        assert t2["interval"]["completed"] == 0
        assert t2["qps"] == 0.0
        assert t2["counters"]["completed"] == 10
        assert t2["ts"] >= t1["ts"] and t2["seq"] == t1["seq"] + 1

    def test_tenant_breakdown(self):
        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics)
        metrics.observe_request(1.0, 2.0, 3.0, tenant="gold")
        tick = collector.tick()
        assert tick["tenants"]["gold"]["completed"] == 1
        assert tick["tenants"]["gold"]["qps"] > 0

    def test_availability_fallback_from_partial_counter(self):
        metrics = MetricsRegistry()
        collector = TelemetryCollector(metrics)
        for _ in range(4):
            metrics.observe_request(1.0, 2.0, 3.0)
        metrics.inc("partial")
        tick = collector.tick()
        assert tick["availability"] == pytest.approx(0.75)

    def test_router_scrape_sets_availability(self):
        router = FakeRouter(
            [FakeReplicaSet([True, False], [3, 4], [1, 0]),
             FakeReplicaSet([True, True], [5, 5], [0, 0])]
        )
        collector = TelemetryCollector(router=router)
        tick = collector.tick()
        assert tick["shards"][0] == {
            "live": 1, "replicas": 2, "dispatch": 7, "failover": 1,
        }
        assert tick["availability"] == pytest.approx(0.75)

    def test_pool_scrape_survives_dead_worker(self):
        pool = FakePool([True, True], stats=None)  # stats raises
        collector = TelemetryCollector(pool=pool, events=EventLog())
        tick = collector.tick()
        assert tick["replicas_live"] == 2
        assert "workers" not in tick

    def test_pool_scrape_reads_worker_completed(self):
        pool = FakePool(
            [True, True],
            stats={
                "workers": [
                    {"pid": 7, "metrics": {"counters": {"completed": 3}}},
                    {"pid": 8, "metrics": {"counters": {}}},
                ],
            },
        )
        collector = TelemetryCollector(pool=pool)
        tick = collector.tick()
        assert tick["workers"] == [
            {"pid": 7, "completed": 3}, {"pid": 8, "completed": 0},
        ]

    def test_slo_observed_on_tick(self):
        events = EventLog()
        router = FakeRouter([FakeReplicaSet([False], [0], [0])])
        slo = SLOMonitor(
            [BurnRateRule("avail", "availability", "<", 0.99, window=1)],
            events=events,
        )
        collector = TelemetryCollector(router=router, slo=slo, events=events)
        tick = collector.tick()
        assert tick["alerts_firing"] == ["avail"]
        assert len(events.events("slo_alert")) == 1

    def test_ring_is_bounded(self):
        collector = TelemetryCollector(capacity=4)
        for _ in range(10):
            collector.tick()
        ticks = collector.ticks()
        assert len(ticks) == 4
        assert ticks[-1]["seq"] == 9

    def test_background_thread_ticks_and_stops(self):
        metrics = MetricsRegistry()
        with TelemetryCollector(metrics, interval_s=0.005) as collector:
            time.sleep(0.05)
        n = len(collector.ticks())
        assert n >= 2  # several interval ticks plus the final stop() tick
        time.sleep(0.02)
        assert len(collector.ticks()) == n  # thread actually stopped

    def test_start_twice_rejected(self):
        collector = TelemetryCollector(MetricsRegistry())
        collector.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                collector.start()
        finally:
            collector.stop()

    def test_params_validated(self):
        with pytest.raises(ValueError, match="interval_s"):
            TelemetryCollector(interval_s=0.0)
        with pytest.raises(ValueError, match="capacity"):
            TelemetryCollector(capacity=0)


class TestPrometheus:
    def test_exposition_format(self):
        metrics = MetricsRegistry()
        metrics.observe_request(5.0, 20.0, 25.0, tenant="gold")
        metrics.inc("shed", 2)
        metrics.set_gauge("coverage", 1.0)
        text = to_prometheus(metrics.snapshot())
        assert text.endswith("\n")
        assert "# TYPE repro_completed_total counter" in text
        assert "repro_shed_total 2.0" in text
        assert "# TYPE repro_coverage gauge" in text
        assert 'repro_request_latency_us{series="total",quantile="0.99"}' in text
        assert 'repro_tenant_completed_total{tenant="gold"} 1.0' in text
        assert 'repro_tenant_latency_us{tenant="gold",quantile="0.99"}' in text

    def test_accepts_snapshot_dict(self):
        metrics = MetricsRegistry()
        metrics.observe_request(1.0, 2.0, 3.0)
        text = to_prometheus(metrics.snapshot().to_dict())
        assert "repro_completed_total 1.0" in text

    def test_metric_names_sanitized(self):
        metrics = MetricsRegistry()
        metrics.inc("weird-name.x")
        text = to_prometheus(metrics.snapshot())
        assert "repro_weird_name_x_total 1.0" in text


class TestTimelineFile:
    def _collector(self):
        metrics = MetricsRegistry()
        events = EventLog()
        collector = TelemetryCollector(metrics, events=events)
        metrics.observe_request(1.0, 2.0, 3.0)
        collector.tick()
        events.emit("cache_invalidated")
        collector.tick()
        return collector

    def test_round_trip(self, tmp_path):
        collector = self._collector()
        path = collector.dump_jsonl(tmp_path / "t.jsonl")
        meta, ticks, events = load_timeline(path)
        assert meta["version"] == 1 and meta["interval_s"] == 0.1
        assert len(ticks) == 2 and len(events) == 1
        ts = [r["ts"] for r in ticks + events]
        assert [r["ts"] for r in sorted(ticks + events, key=lambda r: r["ts"])] \
            == sorted(ts)

    def test_dump_passes_the_ci_validator(self, tmp_path):
        collector = self._collector()
        path = collector.dump_jsonl(tmp_path / "t.jsonl")
        assert check_timeline.validate(path) == []

    def test_records_interleaved_by_ts(self, tmp_path):
        path = write_timeline_jsonl(
            tmp_path / "t.jsonl",
            [{"ts": 30, "seq": 0, "availability": 1.0}],
            [{"ts": 10, "type": "shed", "pid": 1},
             {"ts": 50, "type": "shed", "pid": 1}],
        )
        lines = path.read_text().splitlines()
        kinds = [line.split('"kind":"')[1].split('"')[0] for line in lines]
        assert kinds == ["meta", "event", "tick", "event"]


class TestDashboard:
    def test_empty_timeline(self):
        assert render_dashboard([], []) == "serve-top: no ticks yet\n"

    def test_sections_render(self):
        ticks = [
            {"ts": 100, "seq": 0, "qps": 50.0, "p99_us": 900.0,
             "availability": 0.5, "coverage": 1.0,
             "counters": {"completed": 10, "shed": 1, "errors": 0},
             "restarts": 1, "alerts_firing": ["availability_floor"],
             "tenants": {"gold": {"qps": 25.0, "p99_us": 800.0, "shed": 1}},
             "shards": [{"live": 1, "replicas": 2, "dispatch": 9,
                         "failover": 2}]},
        ]
        events = [{"ts": 90, "type": "coverage_lost", "pid": 3,
                   "scope": "replica", "shard": 0, "replica": 1}]
        frame = render_dashboard(ticks, events)
        assert "ALERTS FIRING: availability_floor" in frame
        assert "gold" in frame and "coverage_lost" in frame
        assert "1/2" in frame  # shard liveness column
