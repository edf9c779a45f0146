"""Accelerator simulator: functional results + cycle timing for a design.

Binds an :class:`~repro.core.config.AcceleratorConfig` to a trained
:class:`~repro.ann.ivf.IVFPQIndex`.  For every query it

1. runs the six algorithmic stages (so results are bit-identical to the
   software index — the hardware computes the same ADC arithmetic), and
2. derives per-stage occupancy/latency from the hardware cost models using
   the query's *actual* workload: the true number of PQ codes in its probed
   cells and the true slowest-PE share under round-robin cell assignment.

Feeding actual workloads into the tandem-pipeline recurrence yields the
latency distribution of Figure 11 (FPGA: low variance, driven only by cell
size imbalance) and batch QPS of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.ivf import IVFPQIndex
from repro.core.config import AcceleratorConfig
from repro.core.timing import PIPELINE_STAGES, stage_cycles
from repro.sim.pipeline import PipelineTimeline, simulate_pipeline

__all__ = ["AcceleratorSimulator", "SimResult"]

#: Fixed host→FPGA→host transfer overhead per query over PCIe (§4: queries
#: arrive via PCIe in single-accelerator mode).
PCIE_OVERHEAD_US = 2.0


@dataclass
class SimResult:
    """Output of a simulated batch: results plus timing statistics."""

    ids: np.ndarray
    dists: np.ndarray
    timeline: PipelineTimeline
    occupancy: np.ndarray = field(repr=False)
    overhead_us: float = 0.0

    @property
    def qps(self) -> float:
        return self.timeline.qps

    @property
    def latencies_us(self) -> np.ndarray:
        """End-to-end per-query latency including the transfer overhead."""
        return self.timeline.latencies_us + self.overhead_us

    def latency_percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies_us, q))

    @property
    def stage_busy(self) -> dict[str, float]:
        busy = self.timeline.stage_busy_fraction(self.occupancy)
        return dict(zip(self.timeline.stage_names, busy.tolist()))

    def bottleneck(self) -> str:
        return max(self.stage_busy, key=self.stage_busy.get)


class AcceleratorSimulator:
    """Simulates one FANNS-generated accelerator serving an IVF-PQ index.

    ``workload_scale`` sets the default timing scale for :meth:`run_batch`
    (see its docstring); functional results are never scaled.
    """

    def __init__(
        self, index: IVFPQIndex, config: AcceleratorConfig, workload_scale: float = 1.0
    ):
        self.workload_scale = workload_scale
        p = config.params
        if not index.is_trained:
            raise ValueError("index must be trained")
        if (index.d, index.nlist, index.m, index.ksub) != (p.d, p.nlist, p.m, p.ksub):
            raise ValueError(
                "config/index mismatch: "
                f"index (d={index.d}, nlist={index.nlist}, m={index.m}, ksub={index.ksub}) "
                f"vs params (d={p.d}, nlist={p.nlist}, m={p.m}, ksub={p.ksub})"
            )
        if bool(index.opq) != p.use_opq:
            raise ValueError("config.use_opq must match the index's OPQ setting")
        self.index = index
        self.config = config

    # ------------------------------------------------------------------ #
    def _slowest_pe_codes(self, cells: np.ndarray, sizes: np.ndarray):
        """Per-PE code count under the striped HBM layout.

        Each cell's codes are striped across all PQDist PEs' memory channels
        (Figure 5: one HBM channel per PE), with the tail padded to a full
        stripe — the padding the PQDist PE's "padding detection" logic
        overwrites (Figure 8).  Every PE therefore scans
        ``sum(ceil(size/n_pe))`` codes for the probed cells.

        ``cells`` may be one query's probe list (returns an int) or a whole
        batch's (nq, nprobe) probe matrix (returns an (nq,) array).
        """
        n_pe = self.config.n_pq_pes
        per_query = (-(-sizes[np.atleast_2d(cells)] // n_pe)).sum(axis=1)
        return per_query if np.ndim(cells) == 2 else int(per_query[0])

    def run_batch(
        self,
        queries: np.ndarray,
        *,
        arrival_us: np.ndarray | None = None,
        overhead_us: float = PCIE_OVERHEAD_US,
        workload_scale: float | None = None,
    ) -> SimResult:
        """Simulate a batch of queries through the pipelined accelerator.

        ``arrival_us`` turns the simulation into open-loop online serving
        (used by the scale-out experiments); by default all queries are
        buffered and the run measures offline batch throughput.

        ``workload_scale`` multiplies the per-query PQ-code counts for
        *timing only* — the experiment harness uses it to evaluate scaled
        synthetic datasets at the paper's 100 M-vector workload intensity
        while functional results stay exact (see DESIGN.md §1).  The scaled
        codes keep their per-query relative variance, which is what drives
        the FPGA latency distribution.
        """
        idx = self.index
        cfg = self.config
        p = cfg.params
        if workload_scale is None:
            workload_scale = self.workload_scale
        queries = np.atleast_2d(queries)
        nq = queries.shape[0]

        # Functional pass (identical arithmetic to the hardware dataflow):
        # IVFPQIndex.search_preselected, i.e. the compiled fused PQDist +
        # SelK scan, with the numpy stages as fallback.
        queries_t = idx.stage_opq(queries)
        probed = idx.stage_select_cells(idx.stage_ivf_dist(queries_t), p.nprobe)
        ids, dists, _ = idx.search_preselected(queries_t, probed, p.k)

        # Per-query timing from the invlist stats (true probed-slab sizes).
        sizes = idx.invlists.sizes
        codes_q = sizes[probed].sum(axis=1) * workload_scale
        per_pe_q = self._slowest_pe_codes(probed, sizes) * workload_scale
        occ = np.empty((nq, len(PIPELINE_STAGES)))
        lat = np.empty((nq, len(PIPELINE_STAGES)))
        for qi in range(nq):
            sc = stage_cycles(cfg, codes_q[qi], pq_codes_per_pe=per_pe_q[qi])
            occ[qi] = [sc[s].occupancy for s in PIPELINE_STAGES]
            lat[qi] = [sc[s].latency for s in PIPELINE_STAGES]

        arrival_cycles = None
        if arrival_us is not None:
            arrival_cycles = np.asarray(arrival_us, dtype=np.float64) * cfg.freq_mhz
        timeline = simulate_pipeline(occ, lat, PIPELINE_STAGES, cfg.freq_mhz, arrival_cycles)
        return SimResult(
            ids=ids, dists=dists, timeline=timeline, occupancy=occ, overhead_us=overhead_us
        )
