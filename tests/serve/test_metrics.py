"""Tests for the serving metrics registry."""

import threading

import numpy as np

from repro.serve.metrics import LatencyStats, MetricsRegistry, ReservoirSample


class TestLatencyStats:
    def test_empty(self):
        s = LatencyStats.from_samples(np.array([]))
        assert s.count == 0
        assert s.p99_us == 0.0

    def test_percentiles_ordered(self):
        s = LatencyStats.from_samples(np.arange(1000.0))
        assert s.count == 1000
        assert s.p50_us <= s.p95_us <= s.p99_us <= s.max_us
        assert s.p50_us == 499.5
        assert s.max_us == 999.0

    def test_row_shape(self):
        s = LatencyStats.from_samples(np.array([1.0, 2.0, 3.0]))
        assert len(s.row()) == 4


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        m.inc("shed")
        m.inc("shed", 2)
        assert m.snapshot().counters["shed"] == 3

    def test_observe_request_feeds_reservoirs(self):
        m = MetricsRegistry()
        for i in range(10):
            m.observe_request(queue_us=10.0 * i, exec_us=5.0, total_us=10.0 * i + 5.0)
        snap = m.snapshot()
        assert snap.counters["completed"] == 10
        assert snap.total.count == 10
        assert snap.queue.mean_us == 45.0
        assert snap.exec.mean_us == 5.0

    def test_batch_histogram_and_mean(self):
        m = MetricsRegistry()
        for size in [1, 4, 4, 16]:
            m.observe_batch(size)
        snap = m.snapshot()
        assert snap.batch_histogram == {1: 1, 4: 2, 16: 1}
        assert snap.mean_batch_size == (1 + 4 + 4 + 16) / 4
        assert snap.counters["batches"] == 4

    def test_cache_hit_rate(self):
        m = MetricsRegistry()
        assert m.snapshot().cache_hit_rate == 0.0
        m.inc("cache_hits", 3)
        m.inc("cache_misses", 1)
        assert m.snapshot().cache_hit_rate == 0.75

    def test_snapshot_is_immutable_copy(self):
        m = MetricsRegistry()
        m.observe_request(1.0, 1.0, 2.0)
        snap = m.snapshot()
        m.observe_request(100.0, 1.0, 101.0)
        assert snap.total.count == 1  # later writes invisible to old snapshot


class TestTenantAndClassBreakdowns:
    def test_per_tenant_series_and_counters(self):
        m = MetricsRegistry()
        for i in range(4):
            m.observe_request(1.0, 2.0, 3.0 + i, tenant="a", cls="k5/np4")
        m.observe_request(1.0, 2.0, 100.0, tenant="b", cls="k5/np8")
        m.inc_tenant("a", "shed", 2)
        snap = m.snapshot()
        assert snap.tenants["a"].completed == 4
        assert snap.tenants["a"].shed == 2
        assert snap.tenants["a"].total.count == 4
        assert snap.tenants["b"].total.max_us == 100.0
        assert snap.classes["k5/np4"].count == 4
        assert snap.classes["k5/np8"].count == 1

    def test_untagged_requests_leave_breakdowns_empty(self):
        m = MetricsRegistry()
        m.observe_request(1.0, 1.0, 2.0)
        snap = m.snapshot()
        assert snap.tenants == {} and snap.classes == {}

    def test_shed_only_tenant_still_reported(self):
        """A tenant whose every request was shed must appear in the
        breakdown (its latency series is just empty)."""
        m = MetricsRegistry()
        m.inc_tenant("quiet", "shed")
        snap = m.snapshot()
        assert snap.tenants["quiet"].shed == 1
        assert snap.tenants["quiet"].total.count == 0

    def test_breakdown_key_cardinality_bounded(self):
        """Client-supplied tenant names past the cap fold into the
        overflow bucket instead of growing the registry forever."""
        m = MetricsRegistry(max_tracked_keys=8)
        for i in range(50):
            m.observe_request(1.0, 1.0, 2.0, tenant=f"t{i}", cls=f"c{i}")
            m.inc_tenant(f"t{i}", "shed")
        snap = m.snapshot()
        assert len(snap.tenants) <= 9  # 8 tracked + "(other)"
        assert len(snap.classes) <= 9
        other = snap.tenants[MetricsRegistry.OVERFLOW_KEY]
        assert other.completed == 50 - 8  # totals preserved, coarsened
        assert other.shed == 50 - 8
        # Existing keys keep attributing exactly.
        m.observe_request(1.0, 1.0, 2.0, tenant="t3", cls="c3")
        assert m.snapshot().tenants["t3"].completed == 2

    def test_breakdown_validation(self):
        import pytest
        with pytest.raises(ValueError, match="max_tracked_keys"):
            MetricsRegistry(max_tracked_keys=0)

    def test_to_dict_round_trips_through_json(self):
        import json

        m = MetricsRegistry()
        m.inc("completed", 3)
        m.set_gauge("open_connections", 7)
        m.observe_request(10.0, 5.0, 15.0, tenant="a", cls="k5/np4")
        m.observe_batch(4)
        d = json.loads(json.dumps(m.snapshot().to_dict()))
        assert d["counters"]["completed"] == 4  # 3 + the observed request
        assert d["gauges"]["open_connections"] == 7

    def test_overflow_fold_consistent_across_stores(self):
        """One fold decision per tenant: counters and latencies can never
        land under different keys for the same tenant."""
        m = MetricsRegistry(max_tracked_keys=4)
        # Fill the tracked set through the counter path only.
        for i in range(4):
            m.inc_tenant(f"t{i}", "shed")
        # A new tenant completing a request folds BOTH series together.
        m.observe_request(1.0, 1.0, 2.0, tenant="late", cls="c0")
        snap = m.snapshot()
        assert "late" not in snap.tenants
        other = snap.tenants[MetricsRegistry.OVERFLOW_KEY]
        assert other.completed == 1
        assert other.total.count == 1  # latency followed the counter


class TestReservoirSample:
    def test_below_capacity_keeps_everything(self):
        r = ReservoirSample(capacity=100)
        for v in range(50):
            r.add(float(v))
        assert r.seen == 50
        assert sorted(r.values().tolist()) == [float(v) for v in range(50)]

    def test_memory_bounded_and_exact_count_max(self):
        """The fix for the unbounded latency-sample growth: O(capacity)
        retained values over an arbitrarily long stream, with the stream's
        count and max still exact."""
        r = ReservoirSample(capacity=64, seed=7)
        for v in range(10_000):
            r.add(float(v))
        assert len(r.values()) == 64
        assert r.seen == 10_000
        assert r.max_value == 9999.0
        s = r.stats()
        assert s.count == 10_000 and s.max_us == 9999.0

    def test_sample_is_representative(self):
        """Percentiles estimated from the sample land near the truth for a
        uniform stream (Algorithm R keeps every element with equal
        probability — no recency bias)."""
        r = ReservoirSample(capacity=512, seed=3)
        for v in range(20_000):
            r.add(float(v))
        p50 = float(np.percentile(r.values(), 50))
        assert abs(p50 - 10_000) < 2_500

    def test_seeded_determinism(self):
        a, b = ReservoirSample(17, seed=5), ReservoirSample(17, seed=5)
        for v in range(1000):
            a.add(float(v))
            b.add(float(v))
        assert a.values().tolist() == b.values().tolist()

    def test_registry_reservoirs_deterministic_per_seed(self):
        def fill(seed):
            m = MetricsRegistry(seed=seed)
            for i in range(5000):
                m.observe_request(float(i), 1.0, float(i) + 1.0)
            return m.snapshot()

        s1, s2, s3 = fill(0), fill(0), fill(9)
        assert s1.total.p50_us == s2.total.p50_us
        assert s1.total.count == s3.total.count == 5000
        # Different per-series seeds: queue and total reservoirs must not
        # replace in lockstep (that would correlate their estimates).
        m = MetricsRegistry(seed=0)
        for i in range(5000):
            m.observe_request(float(i), float(i), 2.0 * i)
        snap = m.snapshot()
        assert snap.queue.p50_us != snap.total.p50_us

    def test_every_series_is_capped(self):
        """The whole-run series keep at most RESERVOIR_SIZE samples, like
        the per-tenant ones, while count and max stay exact."""
        from repro.serve.metrics import RESERVOIR_SIZE

        assert RESERVOIR_SIZE == 16_384
        m = MetricsRegistry()
        n = 20_000
        for i in range(n):
            m.observe_request(float(i), 2.0 * i, 3.0 * i, tenant="a")
        for series in (m._total_us, m._queue_us, m._exec_us, m._tenant_total["a"]):
            assert len(series.values()) == RESERVOIR_SIZE
        snap = m.snapshot()
        for stats, scale in ((snap.queue, 1.0), (snap.exec, 2.0), (snap.total, 3.0)):
            assert stats.count == n
            assert stats.max_us == scale * (n - 1)


class TestThreadedConsistency:
    """Satellite check: the registry under concurrent writers."""

    def test_counters_and_gauges_from_many_threads(self):
        m = MetricsRegistry()
        n_threads, n_ops = 8, 500
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(n_ops):
                m.inc("completed")
                m.inc("shed", 2)
                m.set_gauge("open_connections", float(tid * n_ops + i))
                m.observe_batch(4)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = m.snapshot()
        assert snap.counters["completed"] == n_threads * n_ops
        assert snap.counters["shed"] == 2 * n_threads * n_ops
        assert snap.counters["batches"] == n_threads * n_ops
        # The gauge holds one of the written values, uncorrupted.
        assert snap.gauges["open_connections"] in {
            float(v) for v in range(n_threads * n_ops)
        }

    def test_per_tenant_series_from_many_threads(self):
        m = MetricsRegistry()
        tenants = [f"t{i}" for i in range(4)]
        n_threads, n_ops = 8, 400
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(n_ops):
                tenant = tenants[(tid + i) % len(tenants)]
                m.observe_request(1.0, 2.0, 3.0, tenant=tenant, cls="k5")
                m.inc_tenant(tenant, "shed")

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = m.snapshot()
        total = n_threads * n_ops
        assert sum(t.completed for t in snap.tenants.values()) == total
        assert sum(t.shed for t in snap.tenants.values()) == total
        assert sum(t.total.count for t in snap.tenants.values()) == total
        assert snap.classes["k5"].count == total
        # Every thread touched every tenant equally.
        for t in tenants:
            assert snap.tenants[t].completed == total // len(tenants)
