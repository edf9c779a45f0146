"""Tests for the multi-process data plane (repro/serve/workers.py).

Real subprocesses, real sockets: a :class:`WorkerPool` over a saved
index directory must answer bit-identically to in-process search through
the preselect-once scatter (the one request kind a worker serves),
survive a SIGKILL'd worker in degraded mode with zero failed requests,
and shut down gracefully on the stdin-close handshake.
"""

import numpy as np
import pytest

from repro.ann.io import load_index_dir, save_index_dir
from repro.ann.ivf import IVFPQIndex
from repro.data.synthetic import make_clustered
from repro.serve.scheduler import ServingEngine
from repro.serve.workers import WorkerPool

K = 5
NPROBE = 6
D = 16


@pytest.fixture(scope="module")
def corpus():
    """A small trained index, its saved directory, and query block."""
    vecs = make_clustered(2060, D, n_clusters=32, intrinsic_dim=6, seed=13)
    base, queries = vecs[:2000], vecs[2000:2048]
    index = IVFPQIndex(d=D, nlist=32, m=4, ksub=16, use_opq=True, seed=3)
    index.train(base)
    index.add(base)
    return index, queries


@pytest.fixture(scope="module")
def saved_dir(corpus, tmp_path_factory):
    index, _ = corpus
    path = tmp_path_factory.mktemp("workers") / "index"
    save_index_dir(index, path)
    return path


@pytest.fixture(scope="module")
def pool(saved_dir):
    """One 3-worker pool shared by the non-destructive tests."""
    with WorkerPool(saved_dir, 3, startup_timeout_s=120) as p:
        yield p


class TestPoolLifecycle:
    def test_handshake_reports_shards(self, pool, corpus):
        index, _ = corpus
        assert [w.shard for w in pool.workers] == [0, 1, 2]
        assert all(w.d == D for w in pool.workers)
        assert sum(w.ntotal for w in pool.workers) == index.ntotal
        assert pool.alive == [True, True, True]
        assert pool.poll() == {}

    def test_missing_index_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="meta.npz"):
            WorkerPool(tmp_path / "nope", 2)

    def test_bad_worker_count_rejected(self, saved_dir):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(saved_dir, 0)

    def test_graceful_stop_exits_zero(self, saved_dir):
        pool = WorkerPool(saved_dir, 2).start()
        procs = list(pool._procs)
        pool.stop()
        assert [p.returncode for p in procs] == [0, 0]


class TestRemoteScatter:
    def test_preselect_scatter_bit_identical(self, pool, saved_dir, corpus):
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        planner = load_index_dir(saved_dir, mmap=True)
        router = pool.sharded_backend(preselect=planner)
        ids, dists = router.search_batch(queries, K, NPROBE)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)

    @pytest.mark.parametrize("on_shard_error", ["raise", "degrade"])
    def test_router_without_nprobe_names_it(
        self, pool, saved_dir, corpus, on_shard_error
    ):
        """Workers scan plans only, and a plan needs nprobe: a call
        without one is refused up front, not read as lost coverage."""
        _, queries = corpus
        planner = load_index_dir(saved_dir, mmap=True)
        router = pool.sharded_backend(
            preselect=planner, on_shard_error=on_shard_error
        )
        with pytest.raises(ValueError, match="nprobe"):
            router.search_batch(queries[:4], K)
        assert router.shard_errors == [0, 0, 0]

    def test_coarse_runs_once_per_batch_at_router(self, pool, saved_dir, corpus):
        """The preselect-once contract: one coarse run per scatter at the
        router, none at the workers (their codes-scanned totals account
        for exactly the scan work, which partitions across shards)."""
        index, queries = corpus
        planner = load_index_dir(saved_dir, mmap=True)
        router = pool.sharded_backend(preselect=planner)
        c0 = [b.codes_scanned for b in router.shards]
        for lo in range(0, 48, 16):
            router.search_batch(queries[lo : lo + 16], K, NPROBE)
        assert planner.stats.preselect_batches == 3
        assert planner.stats.preselect_queries == 48
        assert router.preselect_scatters == 3
        # The same workload, single-process, scans this many codes:
        fresh = load_index_dir(saved_dir, mmap=True)
        s0 = fresh.stats.codes_scanned
        fresh.search(queries, K, NPROBE)
        per_search = fresh.stats.codes_scanned - s0
        scanned = sum(
            b.codes_scanned - c for b, c in zip(router.shards, c0)
        )
        assert scanned == per_search

    def test_engine_over_remote_router_bit_identical(self, pool, saved_dir, corpus):
        """The full serving pipeline — engine micro-batching over the
        preselect scatter — still answers bit for bit."""
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        planner = load_index_dir(saved_dir, mmap=True)
        router = pool.sharded_backend(preselect=planner)
        with ServingEngine(router, max_batch=8, max_wait_us=2000.0) as eng:
            futs = [eng.submit(q, K, NPROBE) for q in queries]
            got = [f.result() for f in futs]
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref_ids)
        np.testing.assert_array_equal(
            np.stack([g.dists for g in got]), ref_dists
        )
        assert all(g.coverage == 1.0 for g in got)


class TestWorkerCrash:
    def test_kill_mid_run_degrades_without_failures(self, saved_dir, corpus):
        """SIGKILL one worker mid-load: every request completes (zero
        errors), later answers carry partial coverage, and the pool
        reports the dead worker."""
        index, queries = corpus
        planner = load_index_dir(saved_dir, mmap=True)
        with WorkerPool(saved_dir, 3, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(
                preselect=planner, on_shard_error="degrade"
            )
            with ServingEngine(router, max_batch=8, max_wait_us=0.0) as eng:
                before = [f.result() for f in
                          [eng.submit(q, K, NPROBE) for q in queries[:16]]]
                pool.kill(1)
                after = [f.result() for f in
                         [eng.submit(q, K, NPROBE) for q in queries[16:]]]
            assert all(r.coverage == 1.0 for r in before)
            # No request failed; everything after the crash is answered
            # from the surviving shards and stamped partial.
            assert len(after) == len(queries) - 16
            assert all(0.0 < r.coverage < 1.0 for r in after)
            dead_weight = pool.workers[1].ntotal / index.ntotal
            assert after[-1].coverage == pytest.approx(1.0 - dead_weight)
            assert router.shard_errors[1] > 0
            assert pool.poll() == {1: -9}
            assert pool.alive == [True, False, True]
            # Surviving shards still answer *exactly* over their data:
            # the degraded result equals an in-process merge over the
            # two live shards.
            from repro.ann.merge import merge_partial_topk
            from repro.ann.partition import partition_index

            shards = partition_index(index, 3)
            parts = [shards[p].search(queries[-1:], K, NPROBE) for p in (0, 2)]
            ref_ids, ref_dists = merge_partial_topk(parts, K)
            np.testing.assert_array_equal(after[-1].ids, ref_ids[0])
            np.testing.assert_array_equal(after[-1].dists, ref_dists[0])


class TestReplicatedGrid:
    """R×S topology: replica groups behind each shard."""

    def test_grid_spawns_and_reports_slots(self, saved_dir, corpus):
        index, _ = corpus
        with WorkerPool(saved_dir, 2, replicas=2, startup_timeout_s=120) as pool:
            assert pool.n_workers == 2
            assert pool.replicas == 2
            assert pool.n_procs == 4
            assert [(w.shard, w.replica) for w in pool.workers] == [
                (0, 0), (0, 1), (1, 0), (1, 1)
            ]
            # Replicas of a shard hold the same slice of the data.
            assert pool.workers[0].ntotal == pool.workers[1].ntotal
            assert (
                pool.workers[0].ntotal + pool.workers[2].ntotal
                == index.ntotal
            )
            assert pool.alive == [True] * 4
            assert pool.poll() == {}

    def test_poll_keys_by_slot_when_replicated(self, saved_dir):
        with WorkerPool(saved_dir, 1, replicas=2, startup_timeout_s=120) as pool:
            pool.kill(0, 1)
            assert pool.poll() == {(0, 1): -9}
            assert pool.alive == [True, False]

    def test_bad_replica_count_rejected(self, saved_dir):
        with pytest.raises(ValueError, match="replicas"):
            WorkerPool(saved_dir, 2, replicas=0)

    def test_grid_bit_identical_through_replica_columns(self, saved_dir, corpus):
        """Every replica column answers bit-identically: force traffic
        through each column via round-robin and compare all sweeps."""
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        planner = load_index_dir(saved_dir, mmap=True)
        with WorkerPool(saved_dir, 2, replicas=2, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(preselect=planner, policy="round-robin")
            for _ in range(2):  # lands on each replica column once
                ids, dists = router.search_batch(queries, K, NPROBE)
                np.testing.assert_array_equal(ids, ref_ids)
                np.testing.assert_array_equal(dists, ref_dists)
            groups = router.shards
            assert all(sum(g.dispatch_counts) == 2 for g in groups)

    def test_replica_kill_fails_over_with_full_coverage(self, saved_dir, corpus):
        """With R=2, losing one replica of a shard costs nothing: the
        group fails over mid-call and coverage never drops."""
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        planner = load_index_dir(saved_dir, mmap=True)
        with WorkerPool(saved_dir, 2, replicas=2, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(
                preselect=planner, on_shard_error="degrade"
            )
            pool.kill(0, 0)
            for _ in range(3):
                ids, dists = router.search_batch(queries, K, NPROBE)
                np.testing.assert_array_equal(ids, ref_ids)
                np.testing.assert_array_equal(dists, ref_dists)
            assert router.last_coverage() == 1.0
            assert router.shard_errors == [0, 0]
            assert router.shards[0].live == [False, True]


class TestTypedShardErrors:
    def test_killed_worker_raises_backend_unavailable(self, saved_dir, corpus):
        """Every transport failure surfaces as the typed shard-error
        signal — never a raw socket exception — so degrade mode always
        engages."""
        from repro.serve.backends import BackendUnavailableError

        _, queries = corpus
        planner = load_index_dir(saved_dir, mmap=True)
        queries_t, probed = planner.preselect(queries[:4], NPROBE)
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(preselect=planner)
            pool.kill(1)
            dead = router.shards[1]
            for _ in range(2):  # connected socket first, then reconnect
                with pytest.raises(BackendUnavailableError):
                    dead.search_batch_preselected(queries_t, probed, K)
            assert isinstance(
                BackendUnavailableError("x"), (ConnectionError, OSError)
            )

    def test_closed_backend_raises_typed_error(self, saved_dir, corpus):
        _, queries = corpus
        from repro.serve.backends import BackendUnavailableError

        planner = load_index_dir(saved_dir, mmap=True)
        queries_t, probed = planner.preselect(queries[:4], NPROBE)
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            backend = pool.sharded_backend(preselect=planner).shards[0]
            backend.close()
            with pytest.raises(BackendUnavailableError, match="closed"):
                backend.search_batch_preselected(queries_t, probed, K)

    def test_reconnect_revives_closed_backend(self, saved_dir, corpus):
        """reconnect() is the supervisor's re-registration primitive:
        after it, the same object serves from the new address."""
        index, queries = corpus
        ref = index.search(queries, K, NPROBE)
        planner = load_index_dir(saved_dir, mmap=True)
        queries_t, probed = planner.preselect(queries, NPROBE)
        with WorkerPool(saved_dir, 1, startup_timeout_s=120) as pool:
            backend = pool.sharded_backend(preselect=planner).shards[0]
            backend.close()
            backend.reconnect(pool.workers[0].host, pool.workers[0].port)
            ids, dists = backend.search_batch_preselected(queries_t, probed, K)
            np.testing.assert_array_equal(ids, ref[0])
            np.testing.assert_array_equal(dists, ref[1])
            assert backend.reconnects == 1
