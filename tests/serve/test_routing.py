"""Tests for the replicated / sharded serving tier."""

import threading
import time

import numpy as np
import pytest

from repro.ann.ivf import IVFPQIndex
from repro.ann.partition import partition_index, replicate_index
from repro.data.synthetic import make_clustered
from repro.serve import (
    InstrumentedBackend,
    QueryResultCache,
    ReplicaSet,
    ServingEngine,
    ShardedBackend,
    SimulatedDeviceBackend,
    build_topology,
    warm_topology,
)


@pytest.fixture(scope="module")
def tied_index():
    """Index with every vector stored three times: exact distance ties."""
    base_u = make_clustered(800, 16, n_clusters=16, seed=2)
    base = np.repeat(base_u, 3, axis=0)
    idx = IVFPQIndex(d=16, nlist=16, m=4, ksub=16, seed=0)
    idx.train(base)
    idx.add(base)
    idx.invlists
    return idx


@pytest.fixture(scope="module")
def tied_queries():
    rng = np.random.default_rng(9)
    base_u = make_clustered(800, 16, n_clusters=16, seed=2)
    return (base_u[:40] + rng.normal(0, 0.01, (40, 16))).astype(np.float32)


class TestShardedBackend:
    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_bit_identical_across_grid_with_ties(
        self, tied_index, tied_queries, n_shards
    ):
        """Scatter-gather == unpartitioned search for every (k, nprobe),
        including rows full of exact PQ-distance ties."""
        backend = ShardedBackend.from_index(tied_index, n_shards)
        for k in (1, 5, 17):
            for nprobe in (1, 4, 16):
                ref_i, ref_d = tied_index.search(tied_queries, k, nprobe)
                got_i, got_d = backend.search_batch(tied_queries, k, nprobe)
                np.testing.assert_array_equal(got_i, ref_i)
                np.testing.assert_array_equal(got_d, ref_d)

    def test_parallel_scatter_same_results(self, tied_index, tied_queries):
        seq = ShardedBackend.from_index(tied_index, 4, parallel=False)
        par = ShardedBackend.from_index(tied_index, 4, parallel=True)
        s_i, s_d = seq.search_batch(tied_queries, 5, 4)
        p_i, p_d = par.search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(s_i, p_i)
        np.testing.assert_array_equal(s_d, p_d)

    def test_single_shard_passthrough(self, tied_index, tied_queries):
        backend = ShardedBackend.from_index(tied_index, 1)
        ref = tied_index.search(tied_queries, 5, 4)
        got = backend.search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(got[0], ref[0])

    def test_d_property_and_validation(self, tied_index):
        assert ShardedBackend.from_index(tied_index, 2).d == tied_index.d
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedBackend([])

    def test_through_engine_bit_identical(self, tied_index, tied_queries):
        backend = ShardedBackend.from_index(tied_index, 3)
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        with ServingEngine(backend, max_batch=8, max_wait_us=2000.0) as eng:
            futs = [eng.submit(q, 5, 4) for q in tied_queries]
            got = [f.result(timeout=60) for f in futs]
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref_i)
        np.testing.assert_array_equal(np.stack([g.dists for g in got]), ref_d)


class _CountingBackend:
    """Minimal backend: constant answer, optional service delay."""

    def __init__(self, delay_s=0.0, d=4):
        self.delay_s = delay_s
        self.d = d
        self.calls = 0
        self._lock = threading.Lock()

    def search_batch(self, queries, k, nprobe=None):
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        nq = np.atleast_2d(queries).shape[0]
        return (np.zeros((nq, k), dtype=np.int64),
                np.zeros((nq, k), dtype=np.float32))


class TestReplicaSet:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ReplicaSet([])
        with pytest.raises(ValueError, match="policy"):
            ReplicaSet([_CountingBackend()], policy="random")

    def test_round_robin_cycles(self):
        reps = [_CountingBackend() for _ in range(3)]
        rs = ReplicaSet(reps, policy="round-robin")
        q = np.zeros((1, 4), dtype=np.float32)
        for _ in range(9):
            rs.search_batch(q, 1)
        assert rs.dispatch_counts == [3, 3, 3]

    def test_least_loaded_spreads_when_idle(self):
        reps = [_CountingBackend() for _ in range(3)]
        rs = ReplicaSet(reps, policy="least-loaded")
        q = np.zeros((1, 4), dtype=np.float32)
        for _ in range(9):
            rs.search_batch(q, 1)
        assert rs.dispatch_counts == [3, 3, 3]

    def test_p2c_roughly_balances(self):
        reps = [_CountingBackend() for _ in range(4)]
        rs = ReplicaSet(reps, policy="p2c", seed=3)
        q = np.zeros((1, 4), dtype=np.float32)
        for _ in range(200):
            rs.search_batch(q, 1)
        assert sum(rs.dispatch_counts) == 200
        # Sequential idle-tier p2c is uniform-random over pairs; every
        # replica must land well away from starvation or hoarding.
        assert min(rs.dispatch_counts) > 20
        assert max(rs.dispatch_counts) < 90

    def test_least_loaded_avoids_busy_replica_under_skew(self):
        """One slow device + concurrent dispatch: the in-flight count must
        steer load to the fast replicas."""
        slow = _CountingBackend(delay_s=0.05)
        fasts = [_CountingBackend(delay_s=0.002) for _ in range(2)]
        rs = ReplicaSet([slow, *fasts], policy="least-loaded")
        q = np.zeros(4, dtype=np.float32)
        with ServingEngine(rs, max_batch=1, max_wait_us=0.0, dispatchers=3) as eng:
            futs = [eng.submit(q, 1) for _ in range(60)]
            for f in futs:
                f.result(timeout=60)
        assert sum(rs.dispatch_counts) == 60
        # The slow replica's share collapses: each fast replica serves
        # strictly more, and the slow one stays well under fair share (20).
        assert rs.dispatch_counts[0] < 12, rs.dispatch_counts
        for fast_count in rs.dispatch_counts[1:]:
            assert fast_count > rs.dispatch_counts[0]

    def test_inflight_snapshot_settles_to_zero(self):
        rs = ReplicaSet([_CountingBackend(), _CountingBackend()])
        rs.search_batch(np.zeros((1, 4), dtype=np.float32), 1)
        assert rs.inflight == [0, 0]

    def test_replicas_return_identical_results(self, tied_index, tied_queries):
        rs = ReplicaSet(replicate_index(tied_index, 3), policy="round-robin")
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        for _ in range(3):  # one pass per replica
            got_i, got_d = rs.search_batch(tied_queries, 5, 4)
            np.testing.assert_array_equal(got_i, ref_i)
            np.testing.assert_array_equal(got_d, ref_d)


class TestSimulatedDeviceBackend:
    def test_exact_results_padded_time(self, tied_index, tied_queries):
        dev = SimulatedDeviceBackend(tied_index, 20_000.0, hop_us=1_000.0)
        assert dev.modeled_us(8) == 21_000.0
        t0 = time.perf_counter()
        got_i, got_d = dev.search_batch(tied_queries[:8], 5, 4)
        elapsed_us = (time.perf_counter() - t0) * 1e6
        ref_i, ref_d = tied_index.search(tied_queries[:8], 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)
        assert elapsed_us >= 20_000.0
        assert dev.calls == 1 and dev.busy_us == 21_000.0

    def test_callable_service_model(self):
        inner = _CountingBackend()
        dev = SimulatedDeviceBackend(inner, lambda batch: 10.0 * batch)
        assert dev.modeled_us(4) == 40.0
        with pytest.raises(ValueError, match="hop_us"):
            SimulatedDeviceBackend(inner, 0.0, hop_us=-1.0)


class TestBuildTopology:
    def test_validation(self, tied_index):
        with pytest.raises(ValueError, match="replicas"):
            build_topology(tied_index, replicas=0)
        with pytest.raises(ValueError, match="shards"):
            build_topology(tied_index, shards=0)

    def test_degenerate_dimensions_collapse(self, tied_index):
        assert isinstance(build_topology(tied_index), IVFPQIndex)
        assert isinstance(build_topology(tied_index, replicas=3), ReplicaSet)
        assert isinstance(build_topology(tied_index, shards=2), ShardedBackend)

    def test_full_grid_bit_identical_through_engine(self, tied_index, tied_queries):
        """R=2 x S=3 with concurrent dispatchers: still exact."""
        topo = build_topology(tied_index, replicas=2, shards=3)
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        with ServingEngine(
            topo, max_batch=4, max_wait_us=500.0, dispatchers=2
        ) as eng:
            futs = [eng.submit(q, 5, 4) for q in tied_queries]
            got = [f.result(timeout=60) for f in futs]
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref_i)
        np.testing.assert_array_equal(np.stack([g.dists for g in got]), ref_d)

    def test_wrap_applies_to_leaves(self, tied_index):
        topo = build_topology(
            tied_index, replicas=2, shards=2,
            wrap=lambda v: SimulatedDeviceBackend(v, 100.0),
        )
        assert topo.parallel  # wrapped leaves default to parallel scatter
        for column in topo.shards:
            assert all(
                isinstance(r, SimulatedDeviceBackend) for r in column.replicas
            )


class TestEngineDispatchers:
    def test_validation(self, tied_index):
        with pytest.raises(ValueError, match="dispatchers"):
            ServingEngine(tied_index, dispatchers=0)

    def test_multi_dispatcher_serves_all_and_stops_clean(self, tied_index, tied_queries):
        ref_i, _ = tied_index.search(tied_queries, 5, 4)
        rs = ReplicaSet(replicate_index(tied_index, 3))
        eng = ServingEngine(rs, max_batch=4, max_wait_us=200.0, dispatchers=3)
        with eng:
            futs = [eng.submit(q, 5, 4) for q in tied_queries]
            got_i = np.stack([f.result(timeout=60).ids for f in futs])
        np.testing.assert_array_equal(got_i, ref_i)
        # Idempotent stop, restartable after stop.
        eng.stop()
        with eng:
            assert eng.search(tied_queries[0], 5, 4).ids.shape == (5,)


class _FailingBackend:
    """Backend that raises while ``broken`` is set (a dead shard)."""

    def __init__(self, inner, broken=True):
        self.inner = inner
        self.broken = broken
        self.d = getattr(inner, "d", None)

    def search_batch(self, queries, k, nprobe=None):
        if self.broken:
            raise RuntimeError("shard down")
        return self.inner.search_batch(queries, k, nprobe)


def _survivor_coverage(parts, alive) -> float:
    """Data fraction held by the surviving shards (ntotal-weighted)."""
    total = sum(p.ntotal for p in parts)
    return sum(parts[i].ntotal for i in alive) / total


class TestDegradedShardMode:
    @pytest.fixture()
    def parts(self, tied_index):
        return partition_index(tied_index, 3)

    def test_raise_mode_propagates_by_default(self, parts, tied_queries):
        backend = ShardedBackend([parts[0], _FailingBackend(parts[1]), parts[2]])
        with pytest.raises(RuntimeError, match="shard down"):
            backend.search_batch(tied_queries, 5, 4)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_degrade_serves_from_survivors(self, parts, tied_queries, parallel):
        """Merged result equals scatter-gather over the surviving shards
        alone, and the call is flagged as partial coverage — weighted by
        the data fraction each shard holds, not the shard count."""
        backend = ShardedBackend(
            [parts[0], _FailingBackend(parts[1]), parts[2]],
            on_shard_error="degrade", parallel=parallel,
        )
        got_i, got_d = backend.search_batch(tied_queries, 5, 4)
        assert backend.last_coverage() == pytest.approx(
            _survivor_coverage(parts, [0, 2])
        )
        assert backend.shard_errors == [0, 1, 0]
        ref_i, ref_d = ShardedBackend([parts[0], parts[2]]).search_batch(
            tied_queries, 5, 4
        )
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_recovery_restores_full_coverage(self, parts, tied_index, tied_queries):
        flaky = _FailingBackend(parts[1])
        backend = ShardedBackend(
            [parts[0], flaky, parts[2]], on_shard_error="degrade"
        )
        backend.search_batch(tied_queries, 5, 4)
        assert backend.last_coverage() < 1.0
        flaky.broken = False  # shard comes back
        got_i, got_d = backend.search_batch(tied_queries, 5, 4)
        assert backend.last_coverage() == 1.0
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_all_shards_failed_raises(self, parts, tied_queries):
        backend = ShardedBackend(
            [_FailingBackend(p) for p in parts], on_shard_error="degrade"
        )
        with pytest.raises(RuntimeError, match="all 3 shards failed"):
            backend.search_batch(tied_queries, 5, 4)

    def test_validation(self, parts):
        with pytest.raises(ValueError, match="on_shard_error"):
            ShardedBackend(parts, on_shard_error="retry")
        with pytest.raises(ValueError, match="shard_weights"):
            ShardedBackend(parts, shard_weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="shard_weights"):
            ShardedBackend(parts, shard_weights=[1.0, -1.0, 1.0])

    def test_coverage_weights_follow_data_not_shard_count(self, parts):
        """Inferred weights are each shard's ntotal fraction; explicit
        weights override them."""
        backend = ShardedBackend(parts)
        total = sum(p.ntotal for p in parts)
        assert backend.shard_weights == pytest.approx(
            [p.ntotal / total for p in parts]
        )
        explicit = ShardedBackend(parts, shard_weights=[6.0, 3.0, 1.0])
        assert explicit.shard_weights == pytest.approx([0.6, 0.3, 0.1])

    def test_opaque_shards_fall_back_to_uniform_weights(self):
        backends = [_CountingBackend() for _ in range(4)]  # no ntotal
        assert ShardedBackend(backends).shard_weights == [0.25] * 4

    @pytest.mark.parametrize("n_shards", [3, 6, 7])
    def test_healthy_coverage_is_exactly_one(self, n_shards):
        """Normalized float weights can sum below 1.0 (e.g. 6 x 1/6);
        a healthy topology must still report coverage exactly 1.0, or
        every result would be flagged partial and nothing ever cached."""
        backends = [_CountingBackend() for _ in range(n_shards)]
        sharded = ShardedBackend(backends, on_shard_error="degrade")
        sharded.search_batch(np.zeros((2, 4), dtype=np.float32), 1)
        assert sharded.last_coverage() == 1.0
        cache = QueryResultCache(16)
        with ServingEngine(sharded, max_batch=2, cache=cache) as eng:
            res = eng.search(np.zeros(4, dtype=np.float32), 1)
            hit = eng.search(np.zeros(4, dtype=np.float32), 1)
        assert res.coverage == 1.0 and not res.partial
        assert hit.cache_hit  # full-coverage results stay cacheable
        assert "partial" not in eng.metrics.snapshot().counters

    def test_single_shard_degrade_counts_failure_and_raises(self, parts):
        flaky = _FailingBackend(parts[0])
        backend = ShardedBackend([flaky], on_shard_error="degrade")
        with pytest.raises(RuntimeError, match="all 1 shards failed"):
            backend.search_batch(np.zeros((1, 16), dtype=np.float32), 5, 4)
        assert backend.shard_errors == [1]
        flaky.broken = False  # recovery at S=1 restores full coverage
        backend.search_batch(np.zeros((1, 16), dtype=np.float32), 5, 4)
        assert backend.last_coverage() == 1.0

    def test_engine_flags_partial_and_skips_cache(self, parts, tied_queries):
        backend = ShardedBackend(
            [parts[0], _FailingBackend(parts[1]), parts[2]],
            on_shard_error="degrade",
        )
        cache = QueryResultCache(64)
        with ServingEngine(backend, max_batch=4, cache=cache) as eng:
            res = eng.search(tied_queries[0], 5, 4)
        assert res.partial
        assert res.coverage == pytest.approx(_survivor_coverage(parts, [0, 2]))
        assert len(cache) == 0  # partial answers must never be cached
        assert eng.metrics.snapshot().counters["partial"] == 1

    def test_full_coverage_results_are_cached(self, parts, tied_queries):
        backend = ShardedBackend(parts, on_shard_error="degrade")
        cache = QueryResultCache(64)
        with ServingEngine(backend, max_batch=4, cache=cache) as eng:
            res = eng.search(tied_queries[0], 5, 4)
            hit = eng.search(tied_queries[0], 5, 4)
        assert not res.partial and res.coverage == 1.0
        assert hit.cache_hit
        assert len(cache) == 1

    def test_coverage_forwards_through_wrappers(self, parts, tied_queries):
        deg = ShardedBackend(
            [parts[0], _FailingBackend(parts[1]), parts[2]],
            on_shard_error="degrade",
        )
        wrapped = SimulatedDeviceBackend(InstrumentedBackend(deg), 0.0)
        wrapped.search_batch(tied_queries[:4], 5, 4)
        assert wrapped.last_coverage() == pytest.approx(
            _survivor_coverage(parts, [0, 2])
        )


class TestWarmup:
    def test_warm_matches_lazy_results_bit_identically(
        self, tied_index, tied_queries
    ):
        """An eagerly-warmed replica answers exactly like a cold one."""
        cold, warm = replicate_index(tied_index, 2)
        built = warm.warm_gather_cache()
        assert built > 0
        ref_i, ref_d = cold.search(tied_queries, 5, 16)
        got_i, got_d = warm.search(tied_queries, 5, 16)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_warm_is_idempotent_and_complete(self, tied_index):
        """Warming packs buffered adds; a second warm changes nothing."""
        view = replicate_index(tied_index, 1)[0]
        view.add(np.zeros((1, view.d), dtype=np.float32), ids=[10**6])
        first = view.warm_gather_cache()
        assert view._pending is None
        assert first == int((view.invlists.sizes > 0).sum())
        assert view.warm_gather_cache() == first

    def test_warm_subset_of_cells(self, tied_index):
        view = replicate_index(tied_index, 1)[0]
        sizes = view.invlists.sizes
        cells = [*np.flatnonzero(sizes > 0)[:3], *np.flatnonzero(sizes == 0)[:2]]
        assert view.warm_gather_cache(cells=cells) == int((sizes[cells] > 0).sum())

    def test_warm_topology_reaches_every_leaf(self, tied_index):
        """R x S grid with wrapped leaves: every one of the R*S leaves warms."""
        topo = build_topology(
            tied_index, replicas=2, shards=2,
            wrap=lambda v: SimulatedDeviceBackend(v, 0.0),
        )
        built = warm_topology(topo)
        per_shard = [
            int((col.replicas[0].inner.invlists.sizes > 0).sum())
            for col in topo.shards
        ]
        assert built == 2 * sum(per_shard)  # 2 replicas of every shard
        assert warm_topology(topo) == built  # warming again is harmless

    def test_build_topology_warm_flag(self, tied_index, tied_queries):
        topo = build_topology(tied_index, replicas=2, shards=2, warm=True)
        ref_i, _ = tied_index.search(tied_queries, 5, 4)
        got_i, _ = topo.search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)

    def test_warm_topology_noop_on_unwarmable_backend(self):
        assert warm_topology(_CountingBackend()) == 0


class _PlainShard:
    """Wrapper hiding ``search_batch_preselected``: a legacy shard that
    only understands per-query search frames."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.ntotal = inner.ntotal

    def search_batch(self, queries, k, nprobe=None):
        return self.inner.search_batch(queries, k, nprobe)


class _RecordingShard:
    """Records every plan it is sent; advertises ``cell_sizes`` with
    every odd cell empty."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.ntotal = inner.ntotal
        self.cell_sizes = np.where(np.arange(inner.nlist) % 2, 0, 1)
        self.plans = []

    def search_batch(self, queries, k, nprobe=None):
        return self.inner.search_batch(queries, k, nprobe)

    def search_batch_preselected(self, queries_t, probed, k):
        self.plans.append(np.array(probed, copy=True))
        return self.inner.search_batch_preselected(queries_t, probed, k)


class TestPreselectRouting:
    @pytest.fixture()
    def planner(self, tied_index):
        """A coarse-plan view sharing the shards' trained quantizers."""
        return replicate_index(tied_index, 1)[0]

    def test_preselect_scatter_bit_identical(
        self, tied_index, tied_queries, planner
    ):
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        backend = ShardedBackend(
            partition_index(tied_index, 3), preselect=planner
        )
        got_i, got_d = backend.search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_coarse_runs_once_per_scatter(
        self, tied_index, tied_queries, planner
    ):
        """S shards, one plan: the planner's batch counter moves once per
        scatter and the shards never run their own coarse stage."""
        shards = partition_index(tied_index, 3)
        backend = ShardedBackend(shards, preselect=planner)
        b0 = planner.stats.preselect_batches
        for _ in range(4):
            backend.search_batch(tied_queries, 5, 4)
        assert planner.stats.preselect_batches == b0 + 4
        assert backend.preselect_scatters == 4
        for s in shards:
            assert s.stats.preselect_batches == 0

    def test_parallel_preselect_scatter_same_results(
        self, tied_index, tied_queries, planner
    ):
        seq = ShardedBackend(
            partition_index(tied_index, 4), preselect=planner
        )
        par = ShardedBackend(
            partition_index(tied_index, 4),
            preselect=replicate_index(tied_index, 1)[0], parallel=True,
        )
        s_i, s_d = seq.search_batch(tied_queries, 5, 4)
        p_i, p_d = par.search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(s_i, p_i)
        np.testing.assert_array_equal(s_d, p_d)

    def test_plain_shards_fall_back_bit_identically(
        self, tied_index, tied_queries, planner
    ):
        """A mixed fleet — some shards lack the preselected entry — still
        answers exactly; the plan is simply unused on the legacy ones."""
        parts = partition_index(tied_index, 3)
        backend = ShardedBackend(
            [parts[0], _PlainShard(parts[1]), parts[2]], preselect=planner
        )
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        got_i, got_d = backend.search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_no_nprobe_skips_planner(self, planner):
        """Without an explicit nprobe there is no plan to compute — the
        scatter goes out as plain search frames."""
        backend = ShardedBackend(
            [_CountingBackend(d=16) for _ in range(2)], preselect=planner
        )
        b0 = planner.stats.preselect_batches
        backend.search_batch(np.zeros((3, 16), dtype=np.float32), 5)
        assert planner.stats.preselect_batches == b0
        assert backend.preselect_scatters == 0

    def test_degrade_mode_composes_with_preselect(
        self, tied_index, tied_queries, planner
    ):
        parts = partition_index(tied_index, 3)
        backend = ShardedBackend(
            [parts[0], _FailingBackend(parts[1]), parts[2]],
            preselect=planner, on_shard_error="degrade",
        )
        got_i, got_d = backend.search_batch(tied_queries, 5, 4)
        assert backend.last_coverage() == pytest.approx(
            _survivor_coverage(parts, [0, 2])
        )
        ref_i, ref_d = ShardedBackend(
            [parts[0], parts[2]]
        ).search_batch(tied_queries, 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_plan_reaches_shards_unpruned(
        self, tied_index, tied_queries, planner
    ):
        """The router forwards the planner's plan as computed, even to a
        shard advertising empty cells: pruning is the shard's own."""
        shard = _RecordingShard(tied_index)
        _, want = replicate_index(tied_index, 1)[0].preselect(tied_queries, 4)
        assert (shard.cell_sizes[want] == 0).any()  # the plan hits empty cells
        got_i, got_d = ShardedBackend([shard], preselect=planner).search_batch(
            tied_queries, 5, 4
        )
        assert len(shard.plans) == 1
        np.testing.assert_array_equal(shard.plans[0], want)
        ref_i, ref_d = tied_index.search(tied_queries, 5, 4)
        np.testing.assert_array_equal(got_i, ref_i)
        np.testing.assert_array_equal(got_d, ref_d)

    def test_non_planner_rejected(self, tied_index):
        with pytest.raises(ValueError, match="preselect"):
            ShardedBackend(
                partition_index(tied_index, 2), preselect=object()
            )


class _FlakyBackend:
    """Backend whose transport "dies" on demand (raises ``OSError``)."""

    def __init__(self, inner, tag=0):
        self.inner = inner
        self.tag = tag
        self.broken = False
        self.calls = 0
        self.d = getattr(inner, "d", None)

    def search_batch(self, queries, k, nprobe=None):
        self.calls += 1
        if self.broken:
            raise ConnectionResetError(f"replica {self.tag} died")
        return self.inner.search_batch(queries, k, nprobe)


class TestReplicaLiveness:
    """mark_down/mark_up/set_replica/failover — the supervisor's view."""

    def test_mark_down_routes_around_dead_replica(self):
        backs = [_CountingBackend(), _CountingBackend()]
        rs = ReplicaSet(backs, policy="round-robin")
        rs.mark_down(0)
        assert rs.live == [False, True]
        for _ in range(4):
            rs.search_batch(np.zeros((1, 4), dtype=np.float32), 3)
        assert backs[0].calls == 0
        assert backs[1].calls == 4
        rs.mark_up(0)
        assert rs.live == [True, True]
        for _ in range(4):
            rs.search_batch(np.zeros((1, 4), dtype=np.float32), 3)
        assert backs[0].calls == 2
        assert backs[1].calls == 6

    def test_failover_completes_call_and_sticks(self, tied_index, tied_queries):
        """A replica dying mid-call is retried on a survivor — same
        answer, no exception — and stays down for later calls."""
        flaky = _FlakyBackend(tied_index, tag=0)
        rs = ReplicaSet([flaky, tied_index], policy="round-robin", seed=0)
        ref = tied_index.search(tied_queries, 5, 4)
        flaky.broken = True
        for _ in range(3):
            got = rs.search_batch(tied_queries, 5, 4)
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
        # First call hit the flaky replica, failed over, marked it down;
        # later calls never touched it again.
        assert flaky.calls == 1
        assert rs.failover_counts[0] == 1
        assert rs.live == [False, True]

    def test_all_replicas_dead_raises_typed_error(self):
        from repro.serve.backends import BackendUnavailableError

        b0, b1 = _FlakyBackend(None, 0), _FlakyBackend(None, 1)
        b0.broken = b1.broken = True
        rs = ReplicaSet([b0, b1], policy="round-robin")
        with pytest.raises(BackendUnavailableError, match="no live replica"):
            rs.search_batch(np.zeros((1, 4), dtype=np.float32), 3)
        # Both are marked down now; an immediate retry fails fast
        # without touching either backend.
        calls = (b0.calls, b1.calls)
        with pytest.raises(BackendUnavailableError):
            rs.search_batch(np.zeros((1, 4), dtype=np.float32), 3)
        assert (b0.calls, b1.calls) == calls

    def test_set_replica_swaps_membership_atomically(self, tied_index, tied_queries):
        """The recovery path: a dead slot is re-pointed at a fresh
        backend and immediately serves bit-identical answers."""
        flaky = _FlakyBackend(tied_index, tag=0)
        flaky.broken = True
        rs = ReplicaSet([flaky, tied_index], policy="round-robin", seed=0)
        ref = tied_index.search(tied_queries, 5, 4)
        rs.search_batch(tied_queries, 5, 4)  # fails over, marks 0 down
        assert rs.live == [False, True]
        replacement = _CountingBackend(d=tied_index.d)
        replacement.search_batch = tied_index.search_batch  # exact twin
        rs.set_replica(0, replacement)
        assert rs.live == [True, True]
        for _ in range(4):
            got = rs.search_batch(tied_queries, 5, 4)
            np.testing.assert_array_equal(got[0], ref[0])
        assert rs.replicas[0] is replacement

    def test_inflight_survives_swap_under_live_load(self, tied_index):
        """Swapping a replica while a call is executing on it must not
        corrupt the in-flight accounting (decrement targets the slot,
        not the object)."""
        slow = _CountingBackend(delay_s=0.2, d=4)
        rs = ReplicaSet([slow, _CountingBackend(d=4)], policy="least-loaded")
        t = threading.Thread(
            target=rs.search_batch,
            args=(np.zeros((1, 4), dtype=np.float32), 3),
        )
        t.start()
        # Wait until the slow call is actually in flight on slot 0.
        deadline = time.monotonic() + 5.0
        while rs.inflight[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert rs.inflight[0] == 1
        rs.set_replica(0, _CountingBackend(d=4))
        t.join()
        assert rs.inflight == [0, 0]

    def test_supports_preselected_reflects_replicas(self, tied_index):
        assert ReplicaSet([tied_index]).supports_preselected
        assert not ReplicaSet([_CountingBackend()]).supports_preselected

    def test_preselected_scatter_through_replica_group(self, tied_index, tied_queries):
        """search_batch_preselected dispatches like any call: bit-equal
        to the direct path and following the routing policy."""
        rs = ReplicaSet([tied_index, tied_index], policy="round-robin")
        nprobe = 4
        queries_t, probed = tied_index.preselect(tied_queries, nprobe)
        ref = tied_index.search_batch_preselected(queries_t, probed, 5)
        got = rs.search_batch_preselected(queries_t, probed, 5)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert sum(rs.dispatch_counts) == 1
