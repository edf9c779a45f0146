"""Tests for the multi-accelerator cluster service."""

import numpy as np
import pytest

from repro.ann.partition import partition_index
from repro.core.config import AcceleratorConfig, AlgorithmParams
from repro.net.scaleout import simulate_cluster_latencies
from repro.service.cluster import FPGAClusterService
from repro.sim.accelerator import AcceleratorSimulator


@pytest.fixture(scope="module")
def cluster(trained_ivf):
    params = AlgorithmParams(
        d=trained_ivf.d, nlist=trained_ivf.nlist, nprobe=trained_ivf.nlist,
        k=5, m=trained_ivf.m, ksub=trained_ivf.ksub,
    )
    cfg = AcceleratorConfig(params=params, n_ivf_pes=2, n_lut_pes=2, n_pq_pes=4)
    return FPGAClusterService(trained_ivf, cfg, n_accelerators=4)


class TestClusterService:
    def test_validation(self, trained_ivf):
        params = AlgorithmParams(
            d=32, nlist=trained_ivf.nlist, nprobe=2, k=5, m=4, ksub=64
        )
        cfg = AcceleratorConfig(params=params, n_ivf_pes=1, n_lut_pes=1, n_pq_pes=2)
        with pytest.raises(ValueError, match="n_accelerators"):
            FPGAClusterService(trained_ivf, cfg, 0)

    def test_merged_results_match_single_node(self, cluster, trained_ivf, small_dataset):
        """Merging shard top-k is bit-identical to the global top-k (the
        exact (distance, id) merge kernel guarantees it, ties included)."""
        q = small_dataset.queries[:6]
        out = cluster.search(q)
        ref_ids, ref_dists = trained_ivf.search(q, 5, trained_ivf.nlist)
        np.testing.assert_array_equal(out.ids, ref_ids)
        np.testing.assert_array_equal(out.dists, ref_dists)

    def test_latency_exceeds_any_single_node(self, cluster, small_dataset):
        """Distributed latency = slowest shard + collectives > 0 network."""
        q = small_dataset.queries[:6]
        out = cluster.search(q)
        assert (out.latencies_us > 0).all()
        assert len(out.per_node_qps) == 4

    def test_latencies_equal_per_shard_fan_out(self, cluster, trained_ivf, small_dataset):
        """Figure 1's cluster latencies come from search(): one simulated
        run per shard with the given arrivals, then the collective model."""
        q = small_dataset.queries[:12]
        arrivals = np.arange(len(q)) * 40.0
        svc = FPGAClusterService(
            trained_ivf, cluster.config, n_accelerators=8, workload_scale=3.0
        )
        per_node = [
            AcceleratorSimulator(shard, cluster.config, workload_scale=3.0)
            .run_batch(q, arrival_us=arrivals, overhead_us=0.0)
            .latencies_us
            for shard in partition_index(trained_ivf, 8)
        ]
        ref = simulate_cluster_latencies(
            np.vstack(per_node), d=trained_ivf.d, k=cluster.config.params.k
        )
        out = svc.search(q, arrival_us=arrivals)
        np.testing.assert_array_equal(out.latencies_us, ref)

    def test_percentiles(self, cluster, small_dataset):
        out = cluster.search(small_dataset.queries[:10])
        assert out.latency_percentile(95) >= out.latency_percentile(50)


class TestClusterServing:
    def test_search_batch_enforces_deployed_design(self, cluster, small_dataset):
        q = small_dataset.queries[:4]
        with pytest.raises(ValueError, match="k=5"):
            cluster.search_batch(q, 7)
        with pytest.raises(ValueError, match="nprobe"):
            cluster.search_batch(q, 5, nprobe=1)

    def test_search_batch_matches_search(self, cluster, small_dataset):
        q = small_dataset.queries[:6]
        ids, dists = cluster.search_batch(q, 5)
        out = cluster.search(q)
        np.testing.assert_array_equal(ids, out.ids)
        np.testing.assert_array_equal(dists, out.dists)

    def test_serves_through_engine(self, cluster, small_dataset):
        from repro.serve import ServingEngine

        q = small_dataset.queries[:8]
        ref = cluster.search(q)
        with ServingEngine(cluster, max_batch=8, max_wait_us=50_000.0) as eng:
            futs = [eng.submit(row, 5) for row in q]
            got = [f.result(timeout=60) for f in futs]
        np.testing.assert_array_equal(np.stack([g.ids for g in got]), ref.ids)
        np.testing.assert_array_equal(np.stack([g.dists for g in got]), ref.dists)
