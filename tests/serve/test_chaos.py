"""Chaos / fault-injection suite for the supervised R×S worker grid.

Real subprocesses SIGKILLed under live load.  The contract under test,
end to end:

- **zero failed requests** — degrade mode (R=1) answers an exact merge
  over the survivors; replica failover (R>=2) keeps full coverage;
- **supervised recovery** — the supervisor respawns the dead worker,
  re-runs the readiness handshake, atomically re-points the routing
  tier's backend, and the grid returns to bit-identical full-coverage
  answers within a bounded window;
- **no leaks** — every process ever spawned (including mid-run
  respawns) is reaped, every socket closed;
- **edge cases** — death during the handshake, crash loops against the
  retry budget, and ``stop()`` racing a half-finished restart.

Everything here is marked ``chaos`` (select with ``-m chaos``); the
suite stays seconds-scale so it can gate CI.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ann.io import load_index_dir, save_index_dir
from repro.ann.ivf import IVFPQIndex
from repro.ann.merge import merge_partial_topk
from repro.ann.partition import partition_index
from repro.data.synthetic import make_clustered
from repro.harness.serve_bench import run_chaos
from repro.obs.events import EventLog
from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import ServingEngine
from repro.serve.workers import WorkerPool

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_timeline  # noqa: E402  (needs the tools/ path above)

pytestmark = pytest.mark.chaos

K = 5
NPROBE = 6
D = 16

#: Generous single-recovery deadline for slow CI hosts.
RECOVER_S = 60.0


@pytest.fixture(scope="module")
def corpus():
    vecs = make_clustered(2060, D, n_clusters=32, intrinsic_dim=6, seed=13)
    base, queries = vecs[:2000], vecs[2000:2048]
    index = IVFPQIndex(d=D, nlist=32, m=4, ksub=16, use_opq=True, seed=3)
    index.train(base)
    index.add(base)
    return index, queries


@pytest.fixture(scope="module")
def saved_dir(corpus, tmp_path_factory):
    index, _ = corpus
    path = tmp_path_factory.mktemp("chaos") / "index"
    save_index_dir(index, path)
    return path


@pytest.fixture(scope="module")
def planner(saved_dir):
    """The router-side coarse planner every pool router needs."""
    return load_index_dir(saved_dir, mmap=True)


def _wait_recovered(pool, n, deadline_s=RECOVER_S):
    """Block until ``n`` supervised restarts completed and all slots live."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if len(pool.restart_log) >= n and all(pool.alive):
            return
        time.sleep(0.01)
    raise AssertionError(
        f"no full recovery within {deadline_s}s: "
        f"restarts={len(pool.restart_log)}/{n} alive={pool.alive} "
        f"failures={pool.restart_failures}"
    )


class TestSupervisedRecovery:
    def test_outage_window_then_recovery_bit_identical(self, saved_dir, corpus):
        """The full cycle on an R=1 grid: kill → exact degraded merge
        over survivors → supervised recovery → bit-identical full
        coverage.  Zero failed requests throughout."""
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        planner = load_index_dir(saved_dir, mmap=True)
        metrics = MetricsRegistry()
        with WorkerPool(saved_dir, 3, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(
                preselect=planner, on_shard_error="degrade"
            )
            with ServingEngine(router, max_batch=8, max_wait_us=0.0) as eng:
                pre = [f.result() for f in
                       [eng.submit(q, K, NPROBE) for q in queries[:16]]]
                assert all(r.coverage == 1.0 for r in pre)

                # Outage window: no supervisor yet, so the window is
                # deterministic — every answer is an exact merge over
                # the two survivors.
                pool.kill(1)
                during = [f.result() for f in
                          [eng.submit(q, K, NPROBE) for q in queries[16:32]]]
                assert all(0.0 < r.coverage < 1.0 for r in during)
                shards = partition_index(index, 3)
                parts = [
                    shards[p].search(queries[16:32], K, NPROBE) for p in (0, 2)
                ]
                exp_ids, exp_dists = merge_partial_topk(parts, K)
                np.testing.assert_array_equal(
                    np.stack([r.ids for r in during]), exp_ids
                )
                np.testing.assert_array_equal(
                    np.stack([r.dists for r in during]), exp_dists
                )

                # Recovery: supervisor respawns, re-handshakes, and
                # re-points the live router's backend.
                pool.start_supervisor(
                    poll_interval_s=0.01, metrics=metrics
                )
                _wait_recovered(pool, 1)
                post = [f.result() for f in
                        [eng.submit(q, K, NPROBE) for q in queries]]
                assert all(r.coverage == 1.0 for r in post)
                np.testing.assert_array_equal(
                    np.stack([r.ids for r in post]), ref_ids
                )
                np.testing.assert_array_equal(
                    np.stack([r.dists for r in post]), ref_dists
                )
        rec = pool.restart_log[0]
        assert (rec.shard, rec.replica) == (1, 0)
        assert rec.exit_code == -9
        assert rec.attempts == 1
        # Bounded time to full coverage, measured by the supervisor.
        assert 0 < rec.coverage_restored_us < RECOVER_S * 1e6
        snap = metrics.snapshot()
        assert snap.counters.get("worker_restarts") == 1
        assert snap.gauges.get("coverage_restored_us") == pytest.approx(
            rec.coverage_restored_us
        )

    def test_replica_failover_keeps_coverage_during_recovery(
        self, saved_dir, corpus, planner
    ):
        """R=2: killing one replica never drops coverage — the group
        fails over while the supervisor rebuilds the column."""
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        with WorkerPool(saved_dir, 2, replicas=2, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(preselect=planner, on_shard_error="degrade")
            pool.start_supervisor(poll_interval_s=0.01)
            pool.kill(0, 1)
            # Every answer during *and* after the outage is full
            # coverage and bit-identical: the dead replica's twin
            # holds the same shard.
            for _ in range(4):
                ids, dists = router.search_batch(queries, K, NPROBE)
                np.testing.assert_array_equal(ids, ref_ids)
                np.testing.assert_array_equal(dists, ref_dists)
                assert router.last_coverage() == 1.0
            _wait_recovered(pool, 1)
            assert router.shards[0].live == [True, True]
            ids, dists = router.search_batch(queries, K, NPROBE)
            np.testing.assert_array_equal(ids, ref_ids)

    def test_repeated_kills_same_slot_recover_each_time(
        self, saved_dir, corpus, planner
    ):
        """The supervisor is not one-shot: the same slot can die and
        recover repeatedly, and the restart log records each cycle."""
        index, queries = corpus
        ref = index.search(queries, K, NPROBE)
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(preselect=planner, on_shard_error="degrade")
            pool.start_supervisor(poll_interval_s=0.01)
            for round_no in range(1, 3):
                pool.kill(1)
                _wait_recovered(pool, round_no)
                ids, dists = router.search_batch(queries, K, NPROBE)
                np.testing.assert_array_equal(ids, ref[0])
                np.testing.assert_array_equal(dists, ref[1])
            assert [(r.shard, r.replica) for r in pool.restart_log] == [
                (1, 0), (1, 0)
            ]

    def test_no_leaked_processes_or_sockets(self, saved_dir, corpus, planner):
        """After stop(), every process ever spawned — original grid and
        mid-run respawns — is reaped, and every backend socket closed."""
        _, queries = corpus
        with WorkerPool(saved_dir, 2, replicas=2, startup_timeout_s=120) as pool:
            router = pool.sharded_backend(preselect=planner, on_shard_error="degrade")
            pool.start_supervisor(poll_interval_s=0.01)
            pool.kill(1, 0)
            _wait_recovered(pool, 1)
            router.search_batch(queries[:4], K, NPROBE)
            backends = [b for g in router.shards for b in g.replicas]
        assert len(pool.spawned_procs) == 5  # 4 original + 1 respawn
        assert all(p.returncode is not None for p in pool.spawned_procs)
        assert all(b._sock is None for b in backends)
        assert not pool.supervised


class TestEventJournal:
    """The journal and the supervisor's restart log must agree."""

    def test_journal_matches_restart_log(self, saved_dir, corpus, planner):
        """One ``worker_restart`` event per ``RestartRecord`` (same slot,
        exit code, attempts, recovery time), and each replica-scope
        ``coverage_lost -> coverage_restored`` pair brackets the same
        restart the record measured."""
        _, queries = corpus
        events = EventLog()
        with WorkerPool(
            saved_dir, 2, replicas=2, startup_timeout_s=120
        ) as pool:
            router = pool.sharded_backend(preselect=planner, on_shard_error="degrade")
            pool.start_supervisor(poll_interval_s=0.01, events=events)
            pool.kill(0, 1)
            _wait_recovered(pool, 1)
            pool.kill(1, 0)
            _wait_recovered(pool, 2)
            router.search_batch(queries[:4], K, NPROBE)

        restarts = events.events("worker_restart")
        assert len(restarts) == len(pool.restart_log) == 2
        for ev, rec in zip(restarts, pool.restart_log):
            assert (ev["shard"], ev["replica"]) == (rec.shard, rec.replica)
            assert ev["exit_code"] == rec.exit_code == -9
            assert ev["attempts"] == rec.attempts
            assert ev["coverage_restored_us"] == rec.coverage_restored_us

        lost = events.events("coverage_lost")
        restored = events.events("coverage_restored")
        assert len(lost) == len(restored) == 2
        for lo, hi, rec in zip(lost, restored, pool.restart_log):
            assert lo["scope"] == hi["scope"] == "replica"
            assert (lo["shard"], lo["replica"]) == (rec.shard, rec.replica)
            # The pair brackets the supervisor's own measurement, so the
            # event-ts gap is an independent read of the recovery time.
            gap_us = hi["ts"] - lo["ts"]
            assert abs(gap_us - rec.coverage_restored_us) < 25_000


class _ExitingCmd:
    """Fake worker command: exits immediately with a fixed code."""

    def __call__(self, shard):
        return [sys.executable, "-c", "import sys; sys.exit(3)"]


class _ReadyThenExitCmd:
    """Fake worker: prints a valid readiness line, then dies at once.

    The readiness port points at nothing, so the supervisor's backend
    re-registration hits connection-refused — the respawns-then-
    immediately-dies path."""

    def __call__(self, shard):
        line = json.dumps(
            {"host": "127.0.0.1", "port": 1, "d": D, "ntotal": 0}
        )
        return [sys.executable, "-c", f"print('{line}')"]


class _HangingCmd:
    """Fake worker: never prints readiness, never exits on its own."""

    def __call__(self, shard):
        return [sys.executable, "-c", "import time; time.sleep(600)"]


class TestSupervisorEdgeCases:
    def test_crash_loop_exhausts_retry_budget(self, saved_dir, planner):
        """A worker that dies during every readiness handshake burns the
        capped retry budget, is recorded in restart_failures, and leaves
        the supervisor alive for other slots.  No zombies."""
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            pool.sharded_backend(preselect=planner, on_shard_error="degrade")
            pool._spawn_cmd = _ExitingCmd()
            pool.start_supervisor(
                poll_interval_s=0.01, max_restarts=2, backoff_s=0.01
            )
            pool.kill(1)
            deadline = time.monotonic() + RECOVER_S
            while time.monotonic() < deadline and not pool.restart_failures:
                time.sleep(0.01)
            assert pool.restart_failures == [
                {"shard": 1, "replica": 0, "attempts": 2, "exit_code": -9}
            ]
            assert pool.restart_log == []
            assert pool.supervised  # gave up on the slot, not the job
            # Both crash-loop attempts were spawned and fully reaped.
            assert len(pool.spawned_procs) == 4
            assert all(
                p.returncode is not None for p in pool.spawned_procs[2:]
            )

    def test_respawn_then_immediate_death_retries_then_gives_up(
        self, saved_dir, planner
    ):
        """A respawn that handshakes fine but dies before the backend
        can reconnect goes around the crash loop, not into a wedge."""
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            pool.sharded_backend(preselect=planner, on_shard_error="degrade")
            pool._spawn_cmd = _ReadyThenExitCmd()
            pool.start_supervisor(
                poll_interval_s=0.01, max_restarts=2, backoff_s=0.01
            )
            pool.kill(0)
            deadline = time.monotonic() + RECOVER_S
            while time.monotonic() < deadline and not pool.restart_failures:
                time.sleep(0.01)
            assert pool.restart_failures[0]["attempts"] == 2
            assert pool.restart_log == []
            assert all(
                p.returncode is not None for p in pool.spawned_procs[2:]
            )

    def test_stop_mid_restart_reaps_everything(self, saved_dir, planner):
        """stop() while the supervisor is blocked in a respawn handshake:
        the stop fence keeps any further spawn out, the shutdown sweep
        kills the half-started child (EOF-ing the handshake read), and
        stop returns promptly with nothing left running."""
        pool = WorkerPool(saved_dir, 2, startup_timeout_s=120).start()
        pool.sharded_backend(preselect=planner, on_shard_error="degrade")
        pool._spawn_cmd = _HangingCmd()
        pool.start_supervisor(poll_interval_s=0.01, backoff_s=0.01)
        pool.kill(0)
        # Wait until the hanging respawn is actually in flight.
        deadline = time.monotonic() + RECOVER_S
        while time.monotonic() < deadline and len(pool.spawned_procs) < 3:
            time.sleep(0.01)
        assert len(pool.spawned_procs) >= 3
        t0 = time.monotonic()
        pool.stop()
        assert time.monotonic() - t0 < 30.0
        assert all(p.returncode is not None for p in pool.spawned_procs)
        assert not pool.supervised
        assert pool.restart_log == []

    def test_stop_is_idempotent_after_supervised_run(self, saved_dir):
        pool = WorkerPool(saved_dir, 2, startup_timeout_s=120).start()
        pool.start_supervisor(poll_interval_s=0.01)
        pool.stop()
        pool.stop()
        assert not pool.supervised


class TestChaosHarness:
    """The serve-bench chaos mode end to end (seconds-scale params)."""

    def test_seeded_kill_schedule_full_contract(self, tmp_path):
        timeline = tmp_path / "timeline.jsonl"
        res = run_chaos(
            replicas=2, shards=1, kills=2, n_clients=4, n_requests=160,
            n_base=3000, d=24, nlist=32, m=8, ksub=16, nprobe=6, seed=7,
            timeline=str(timeline),
        )
        # Zero failed requests, every kill recovered, answers exact.
        report = res.summary["report"]
        assert report.n_errors == 0
        assert report.n_completed == 160
        assert len(res.points) == 2
        assert res.checks["all_recovered"]
        assert res.summary["worker_restarts"] == 2
        assert res.checks["bit_identical_before"] and res.checks["bit_identical_after"]
        assert res.summary["leaked_pids"] == []
        assert all(res.checks.values())
        # R=2 over one shard: failover keeps full coverage the whole
        # time, so availability is exactly 1.
        assert res.summary["partial_results"] == 0
        assert res.summary["availability"] == 1.0
        for kill in res.points:
            assert 0 < kill["coverage_restored_us"] < RECOVER_S * 1e6
        assert "chaos serve" in res.format()
        # Telemetry-plane contract: the journal captured each kill as a
        # coverage_lost -> coverage_restored pair whose measured gap
        # matches the supervisor's own recovery clock; the SLO monitor
        # fired an availability alert inside an outage window; and the
        # dumped timeline passes the CI validator.
        pairs = res.summary["recovery_pairs_us"]
        assert len(pairs) == 2
        for gap_us, kill in zip(pairs, res.points):
            assert abs(gap_us - kill["coverage_restored_us"]) < 25_000
        assert res.summary["alert_latency_us"] is not None
        assert res.summary["alert_latency_us"] >= 0
        assert "journal:" in res.format()
        assert check_timeline.validate(
            timeline, expect_restarts=2, expect_alert=True
        ) == []

    def test_seeded_schedule_is_deterministic(self):
        """Same seed → same kill schedule (worker identity per strike)."""
        kwargs = dict(
            replicas=2, shards=2, kills=2, n_clients=2, n_requests=60,
            n_base=3000, d=24, nlist=32, m=8, ksub=16, nprobe=6, seed=11,
        )
        a = run_chaos(**kwargs)
        b = run_chaos(**kwargs)
        assert [(k["shard"], k["replica"]) for k in a.points] == [
            (k["shard"], k["replica"]) for k in b.points
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            run_chaos(replicas=1, shards=1)
        with pytest.raises(ValueError, match="replicas,shards"):
            run_chaos(replicas=0, shards=2)
        with pytest.raises(ValueError, match="kills"):
            run_chaos(replicas=2, shards=1, kills=0)
