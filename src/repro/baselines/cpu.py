"""CPU baseline: a Faiss-like stage-level cost model for IVF-PQ search.

Calibrated to the paper's CPU (AWS m5.4xlarge: 16 vCPUs of Xeon Platinum
8259CL @ 2.5 GHz, 64 GB DDR4).  Each of the six search stages is costed from
first principles:

- compute-bound stages (OPQ, IVFDist, BuildLUT) at the achievable GEMM-ish
  flop rate;
- the table-lookup stage (PQDist) at the *memory system's* random-access
  lookup rate — the published Faiss bottleneck on CPUs;
- selection stages (SelCells, SelK) at the scalar heap-update rate.

The model exposes the same interface the figures need: per-stage seconds
(Fig. 3 breakdowns), batch QPS (Fig. 10), and a latency sampler with the
moderate jitter of a multi-core server (Figs. 1, 11, 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ann.ivf import STAGE_NAMES, IVFPQIndex
from repro.core.config import AlgorithmParams

__all__ = ["CPUBaseline", "CPUSpec", "expected_codes_for_index", "params_for_index"]


def params_for_index(index: IVFPQIndex, nprobe: int, k: int) -> AlgorithmParams:
    """Algorithm parameters of a trained index, for the analytic baselines."""
    return AlgorithmParams(
        d=index.d, nlist=index.nlist, nprobe=nprobe, k=k,
        use_opq=index.use_opq, m=index.m, ksub=index.ksub,
    )


def expected_codes_for_index(index: IVFPQIndex, nprobe: int) -> float:
    """Expected PQ codes scanned per query, from the packed invlist stats."""
    from repro.core.perf_model import expected_codes_per_query

    return expected_codes_per_query(index.invlists.sizes, nprobe)


@dataclass(frozen=True)
class CPUSpec:
    """Hardware characteristics of the baseline server."""

    name: str = "xeon-8259cl-16vcpu"
    cores: int = 16
    #: Achievable single-core f32 flop/s on streaming kernels (AVX-512 at
    #: moderated clocks; ~20 % of theoretical peak, the realistic Faiss rate).
    flops_per_core: float = 2.0e10
    #: Random-access distance-table lookups+adds per second per core.
    #: Faiss's IVFPQ scan kernel gathers one table entry per code byte with
    #: data-dependent addressing; ~1e8 codes/s per core at m=16, i.e.
    #: ~1.6e9 lookups/s — far below peak load issue rate.
    lookup_rate_per_core: float = 1.6e9
    #: Scalar compare/heap-update operations per second per core.
    scalar_rate_per_core: float = 1.5e9
    #: Sustained memory bandwidth (bytes/s) across the socket.
    mem_bandwidth: float = 9.0e10
    #: Per-query software overhead (dispatch, batching bookkeeping), seconds.
    per_query_overhead: float = 8.0e-6
    #: Log-normal latency jitter (sigma) for online single-query serving —
    #: scheduling, cache and NUMA effects on a shared server.
    latency_sigma: float = 0.25
    #: Occasional slow queries (page faults, interference): probability and
    #: multiplier — CPUs show mild tails compared to GPUs' batching spikes.
    spike_prob: float = 0.01
    spike_scale: float = 3.0


DEFAULT_CPU = CPUSpec()


class CPUBaseline:
    """Analytic Faiss-on-CPU model with the six-stage breakdown."""

    def __init__(
        self, spec: CPUSpec = DEFAULT_CPU, threads: int | None = None, seed: int = 0
    ):
        self.spec = spec
        self.threads = threads if threads is not None else spec.cores
        if self.threads < 1 or self.threads > spec.cores:
            raise ValueError(f"threads must be in [1, {spec.cores}], got {self.threads}")
        # Per-instance stream: default-rng sampling calls are deterministic
        # as a sequence but never replay identical jitter (the old per-call
        # default_rng(0) fallback did).
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def stage_seconds(
        self, params: AlgorithmParams, codes_per_query: float, *, batch: bool = True
    ) -> dict[str, float]:
        """Seconds per query per stage.

        ``batch=True`` assumes all cores cooperate (offline throughput);
        ``batch=False`` models one online query using limited intra-query
        parallelism (Faiss parallelizes the scan but not the small stages).
        """
        s = self.spec
        cores = self.threads if batch else min(self.threads, 4)
        flops = s.flops_per_core * cores
        lookups = s.lookup_rate_per_core * cores
        scalar = s.scalar_rate_per_core * min(cores, 2 if not batch else cores)
        p = params

        out: dict[str, float] = {}
        out["OPQ"] = (2.0 * p.d * p.d / flops) if p.use_opq else 0.0
        out["IVFDist"] = 2.0 * p.nlist * p.d / flops
        # Heap-based selection of nprobe cells out of nlist distances.
        out["SelCells"] = p.nlist * math.log2(max(p.nprobe, 2)) / scalar
        out["BuildLUT"] = 2.0 * p.nprobe * p.m * p.ksub * (p.d / p.m) / flops
        # ADC scan: m lookups + adds per code; also bounded by code bandwidth.
        scan_compute = codes_per_query * p.m / lookups
        scan_memory = codes_per_query * p.m / s.mem_bandwidth
        out["PQDist"] = max(scan_compute, scan_memory)
        # Heap-based top-K: one compare per candidate; actual heap pushes are
        # rare (k·ln(n/k) of them), so K itself barely matters on CPUs — the
        # paper calls the CPU K-effect "unobvious" (§3.1).
        heap_pushes = p.k * math.log(max(codes_per_query / max(p.k, 1), 2.0))
        out["SelK"] = (codes_per_query + heap_pushes * math.log2(max(p.k, 2))) / scalar
        return out

    def stage_fractions(
        self, params: AlgorithmParams, codes_per_query: float
    ) -> dict[str, float]:
        """Fraction of query time per stage — the CPU bars of Figure 3."""
        secs = self.stage_seconds(params, codes_per_query)
        total = sum(secs.values())
        if total <= 0:
            return {k: 0.0 for k in STAGE_NAMES}
        return {k: v / total for k, v in secs.items()}

    # ------------------------------------------------------------------ #
    def query_seconds(
        self, params: AlgorithmParams, codes_per_query: float, *, batch: bool = True
    ) -> float:
        secs = self.stage_seconds(params, codes_per_query, batch=batch)
        return sum(secs.values()) + self.spec.per_query_overhead

    def qps(self, params: AlgorithmParams, codes_per_query: float) -> float:
        """Offline batched throughput (Fig. 10's CPU series)."""
        return 1.0 / self.query_seconds(params, codes_per_query, batch=True)

    # ------------------------------------------------------------------ #
    def stage_seconds_for_index(
        self, index: IVFPQIndex, nprobe: int, k: int, *, batch: bool = True
    ) -> dict[str, float]:
        """Stage model driven by a trained index's packed invlist stats."""
        params = params_for_index(index, nprobe, k)
        return self.stage_seconds(params, expected_codes_for_index(index, nprobe), batch=batch)

    def qps_for_index(self, index: IVFPQIndex, nprobe: int, k: int) -> float:
        """Batched throughput for a trained index (packed invlist stats)."""
        params = params_for_index(index, nprobe, k)
        return self.qps(params, expected_codes_for_index(index, nprobe))

    def sample_latencies_us(
        self,
        params: AlgorithmParams,
        codes_per_query: float,
        n: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Online per-query latency distribution (Figs. 1/11/12 inputs)."""
        rng = rng if rng is not None else self._rng
        mean_us = 1e6 * self.query_seconds(params, codes_per_query, batch=False)
        s = self.spec
        jitter = rng.lognormal(mean=0.0, sigma=s.latency_sigma, size=n)
        spikes = np.where(rng.random(n) < s.spike_prob, s.spike_scale, 1.0)
        return mean_us * jitter * spikes
