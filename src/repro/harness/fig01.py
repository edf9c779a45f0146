"""Figure 1: eight-accelerator scale-out — FPGA vs GPU latency.

The paper's prototype: eight FPGAs (or eight GPUs), each holding a
100 M-vector partition of the dataset with the same index (nlist=8192-class,
m=16, R@10=80 %).  A distributed query fans out to all eight and reduces the
partial top-K.  Reproduced claims:

- FPGAs achieve ≈5.5× / 7.6× better median / P95 latency than GPUs at
  eight accelerators, because the distributed latency is a max over nodes
  and the FPGA per-node distribution is tight while the GPU's is
  heavy-tailed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Re-exported for backward compatibility: partition_index now lives in the
# ann layer (it is an index operation, not an experiment).
from repro.ann.partition import partition_index
from repro.baselines.gpu import GPUBaseline
from repro.core.config import AlgorithmParams
from repro.harness.context import ExperimentContext
from repro.harness.formatting import format_table
from repro.net.scaleout import simulate_cluster_latencies
from repro.service.cluster import FPGAClusterService

__all__ = ["Fig01Result", "partition_index", "run"]


@dataclass
class Fig01Result:
    fpga_latencies_us: np.ndarray
    gpu_latencies_us: np.ndarray

    def speedup(self, q: float) -> float:
        return float(
            np.percentile(self.gpu_latencies_us, q)
            / np.percentile(self.fpga_latencies_us, q)
        )

    def format(self) -> str:
        headers = ["hw", "P50", "P95", "P99"]
        rows = [
            ["FPGA x8"] + list(np.percentile(self.fpga_latencies_us, [50, 95, 99])),
            ["GPU x8"] + list(np.percentile(self.gpu_latencies_us, [50, 95, 99])),
            ["speedup", f"{self.speedup(50):.1f}x", f"{self.speedup(95):.1f}x",
             f"{self.speedup(99):.1f}x"],
        ]
        return format_table(headers, rows, title="Figure 1: 8-accelerator latency (us)")


def run(
    ctx: ExperimentContext,
    dataset_name: str = "sift-like",
    n_accelerators: int = 8,
    n_queries: int = 1500,
    seed: int = 0,
) -> Fig01Result:
    ds = ctx.dataset(dataset_name)
    fanns = ctx.framework(dataset_name)
    goal = ctx.goals[dataset_name][1]  # R@10, as in the paper

    # FPGA cluster: the fitted with-network design replicated over shards.
    res = fanns.fit(ds, goal, with_network=True, max_queries=ctx.max_queries)
    reps = int(np.ceil(n_queries / ds.nq))
    queries = np.tile(ds.queries, (reps, 1))[:n_queries]
    interval = 1e6 / (res.prediction.qps * 0.5)
    arrivals = np.arange(n_queries) * interval
    # Each shard holds 1/n of the data; workload_scale makes every node
    # simulate a full paper-scale partition.
    cluster = FPGAClusterService(
        res.index, res.config, n_accelerators, workload_scale=fanns.workload_scale
    )
    fpga_cluster = cluster.search(queries, arrival_us=arrivals).latencies_us

    # GPU cluster: aligned draws from the GPU latency model per node.
    rng = np.random.default_rng(seed)
    gpu = GPUBaseline()
    pairs = fanns.explorer.recall_nprobe_pairs(
        ds, fanns.nlist_grid, goal, fanns.opq_options, ctx.max_queries
    )
    cand, nprobe = min(pairs, key=lambda cn: cn[1])
    params = AlgorithmParams(
        d=ds.d, nlist=cand.profile.nlist, nprobe=nprobe, k=goal.k,
        use_opq=cand.profile.use_opq, m=fanns.m, ksub=fanns.ksub,
    )
    codes = cand.profile.expected_codes(nprobe) / n_accelerators
    gpu_nodes = np.vstack(
        [
            gpu.sample_latencies_us(params, codes, n_queries, rng)
            for _ in range(n_accelerators)
        ]
    )
    gpu_cluster = simulate_cluster_latencies(gpu_nodes, d=ds.d, k=goal.k)

    return Fig01Result(
        fpga_latencies_us=fpga_cluster, gpu_latencies_us=gpu_cluster
    )
