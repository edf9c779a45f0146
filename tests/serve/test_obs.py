"""End-to-end observability tests.

Tracing must be a pure observer: results stay bit-identical to direct
search at every sampling rate, through every serving tier — the
in-process engine, the replicated/sharded router topology, and the
multi-process data plane.  The multi-process test additionally asserts
the acceptance property of the tracing PR: one merged trace whose span
tree crosses the process boundary (router ``shard_rpc`` spans parent
worker-side ``worker_scan`` spans carrying the worker's pid and the same
trace id), validated by ``tools/check_trace.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ann.io import load_index_dir, save_index_dir
from repro.ann.ivf import IVFPQIndex
from repro.data.synthetic import make_clustered
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.serve.routing import build_topology
from repro.serve.scheduler import ServingEngine
from repro.serve.workers import WorkerPool

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_trace  # noqa: E402  (needs the tools/ path above)

K = 5
NPROBE = 6
D = 16


@pytest.fixture(scope="module")
def corpus():
    """A small trained index plus a query block."""
    vecs = make_clustered(2048, D, n_clusters=32, intrinsic_dim=6, seed=13)
    base, queries = vecs[:2000], vecs[2000:2048]
    index = IVFPQIndex(d=D, nlist=32, m=4, ksub=16, seed=3)
    index.train(base)
    index.add(base)
    return index, queries


def _serve_all(engine, queries, k=K, nprobe=NPROBE):
    futs = [engine.submit(q, k, nprobe) for q in queries]
    got = [f.result() for f in futs]
    return np.stack([g.ids for g in got]), np.stack([g.dists for g in got])


class TestBitIdenticalWithTracing:
    @pytest.mark.parametrize("sample", [0.0, 0.37, 1.0])
    def test_engine_path(self, corpus, sample):
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        tracer = Tracer(sample_rate=sample, seed=5)
        with ServingEngine(
            index, max_batch=8, max_wait_us=2000.0, tracer=tracer
        ) as eng:
            ids, dists = _serve_all(eng, queries)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)
        if sample == 1.0:
            assert len(tracer) > 0
        if sample == 0.0:
            assert len(tracer) == 0

    @pytest.mark.parametrize("sample", [0.37, 1.0])
    def test_router_topology_path(self, corpus, sample):
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        topo = build_topology(index, replicas=2, shards=2)
        tracer = Tracer(sample_rate=sample, seed=5)
        with ServingEngine(
            topo, max_batch=8, max_wait_us=2000.0, dispatchers=2, tracer=tracer
        ) as eng:
            ids, dists = _serve_all(eng, queries)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)
        if sample == 1.0:
            names = {s["name"] for s in tracer.spans()}
            assert {"request", "scatter", "shard_rpc", "merge",
                    "replica_dispatch"} <= names


class TestEngineSpanTaxonomy:
    def test_every_request_gets_queue_assembly_exec(self, corpus):
        index, queries = corpus
        tracer = Tracer(sample_rate=1.0, seed=0)
        with ServingEngine(
            index, max_batch=8, max_wait_us=2000.0, tracer=tracer
        ) as eng:
            _serve_all(eng, queries[:16])
        spans = tracer.spans()
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 16
        assert all(r["name"] == "request" for r in roots)
        by_parent: dict = {}
        for s in spans:
            if s["parent"] is not None:
                by_parent.setdefault(s["parent"], set()).add(s["name"])
        for r in roots:
            assert {"queue", "batch_assembly", "exec"} <= by_parent[r["span"]]
            assert "coverage" in (r.get("args") or {})

    def test_disabled_tracer_records_nothing(self, corpus):
        index, queries = corpus
        tracer = Tracer(sample_rate=0.0, seed=0)
        with ServingEngine(
            index, max_batch=8, max_wait_us=1000.0, tracer=tracer
        ) as eng:
            _serve_all(eng, queries[:8])
        assert len(tracer) == 0 and tracer.dropped == 0


class TestCrossProcessTrace:
    @pytest.fixture(scope="class")
    def saved_dir(self, corpus, tmp_path_factory):
        index, _ = corpus
        path = tmp_path_factory.mktemp("obs-workers") / "index"
        save_index_dir(index, path)
        return path

    def test_multiproc_bit_identical_and_tree_complete(
        self, corpus, saved_dir, tmp_path
    ):
        index, queries = corpus
        ref_ids, ref_dists = index.search(queries, K, NPROBE)
        tracer = Tracer(sample_rate=1.0, seed=0)
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            planner = load_index_dir(saved_dir, mmap=True)
            router = pool.sharded_backend(preselect=planner)
            with ServingEngine(
                router, max_batch=8, max_wait_us=1000.0, tracer=tracer
            ) as eng:
                ids, dists = _serve_all(eng, queries)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)

        # Every worker span came back on its batch-result frame: the
        # router's tracer holds the whole tree without any stats scrape.
        spans = tracer.spans()

        # Cross-process stitching: worker_scan spans carry a worker pid
        # and parent a router-side shard_rpc span of the same trace.
        router_pid = {s["pid"] for s in spans if s["parent"] is None}
        assert len(router_pid) == 1
        by_span = {s["span"]: s for s in spans}
        scans = [s for s in spans if s["name"] == "worker_scan"]
        assert scans, "no worker-side spans shipped back"
        worker_pids = {s["pid"] for s in scans}
        assert len(worker_pids) == 2 and not (worker_pids & router_pid)
        for scan in scans:
            parent = by_span[scan["parent"]]
            assert parent["name"] == "shard_rpc"
            assert parent["pid"] in router_pid
            assert parent["trace"] == scan["trace"]

        # The merged export passes the CI validator's multiproc gate.
        path = write_chrome_trace(
            tmp_path / "mp.trace.json", spans, dropped=tracer.dropped
        )
        assert check_trace.validate(path, expect_workers=2) == []

    def test_worker_metrics_scraped(self, corpus, saved_dir):
        """WorkerPool.stats aggregates worker registries, and each worker
        counts every query of the preselect frames it answered."""
        index, queries = corpus
        with WorkerPool(saved_dir, 2, startup_timeout_s=120) as pool:
            planner = load_index_dir(saved_dir, mmap=True)
            router = pool.sharded_backend(preselect=planner)
            router.search_batch(queries[:8], K, NPROBE)
            router.search_batch(queries[8:11], K, NPROBE)
            scrape = pool.stats()
        assert len(scrape["workers"]) == 2
        pids = {w["pid"] for w in scrape["workers"]}
        assert len(pids) == 2
        for w in scrape["workers"]:
            assert w["metrics"]["counters"]["completed"] == 11
        assert scrape["counters"]["completed"] == 22  # 11 queries x 2 shards
