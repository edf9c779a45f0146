"""Instrumented six-stage search — the unit of the paper's bottleneck study.

Figure 3 of the paper breaks query time down per search stage on CPU and GPU
to show that the bottleneck *shifts* with nprobe / nlist / K.  This module
runs the six stages separately, recording wall-clock time and the workload
size N (input elements) per stage.  Both the CPU baseline breakdowns and the
FPGA performance model consume these traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ann.ivf import IVFPQIndex

__all__ = ["STAGE_NAMES", "SearchStageTrace", "StagedSearcher"]

#: Canonical stage order used across the whole package.
STAGE_NAMES = ("OPQ", "IVFDist", "SelCells", "BuildLUT", "PQDist", "SelK")


@dataclass
class SearchStageTrace:
    """Per-stage seconds and workload counters for one batch of queries."""

    seconds: dict[str, float] = field(default_factory=lambda: {s: 0.0 for s in STAGE_NAMES})
    workload: dict[str, float] = field(default_factory=lambda: {s: 0.0 for s in STAGE_NAMES})
    n_queries: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def fractions(self) -> dict[str, float]:
        """Fraction of total time per stage (the bars of Figure 3)."""
        tot = self.total_seconds
        if tot <= 0:
            return {s: 0.0 for s in STAGE_NAMES}
        return {s: self.seconds[s] / tot for s in STAGE_NAMES}

    def bottleneck(self) -> str:
        """Name of the slowest stage."""
        return max(STAGE_NAMES, key=lambda s: self.seconds[s])

    def merged(self, other: "SearchStageTrace") -> "SearchStageTrace":
        out = SearchStageTrace()
        for s in STAGE_NAMES:
            out.seconds[s] = self.seconds[s] + other.seconds[s]
            out.workload[s] = self.workload[s] + other.workload[s]
        out.n_queries = self.n_queries + other.n_queries
        return out


class StagedSearcher:
    """Runs IVF-PQ queries stage by stage with timing instrumentation."""

    def __init__(self, index: IVFPQIndex):
        if not index.is_trained:
            raise ValueError("index must be trained before staged search")
        self.index = index

    def search(
        self, queries: np.ndarray, k: int, nprobe: int
    ) -> tuple[np.ndarray, np.ndarray, SearchStageTrace]:
        """Six-stage search returning (ids, dists, trace)."""
        idx = self.index
        trace = SearchStageTrace()
        queries = np.atleast_2d(queries)
        nq = queries.shape[0]
        trace.n_queries = nq

        t0 = time.perf_counter()
        queries_t = idx.stage_opq(queries)
        t1 = time.perf_counter()
        trace.seconds["OPQ"] += t1 - t0
        trace.workload["OPQ"] += nq * idx.d * idx.d if idx.opq is not None else 0.0

        cell_dists = idx.stage_ivf_dist(queries_t)
        t2 = time.perf_counter()
        trace.seconds["IVFDist"] += t2 - t1
        trace.workload["IVFDist"] += nq * idx.nlist

        probed = idx.stage_select_cells(cell_dists, nprobe)
        t3 = time.perf_counter()
        trace.seconds["SelCells"] += t3 - t2
        trace.workload["SelCells"] += nq * idx.nlist

        # Batched tail, as search() runs it (blocks bounded like search()):
        # BuildLUT is the per-query terms of the IVFADC split, one
        # -2<q, r> table (m * ksub * dsub multiply-adds) plus the coarse
        # term of each probed cell (nprobe * d); the term table is built
        # once per index, outside the timers.  PQDist + SelK are the one
        # fused call, pair-table fills included.  It cannot time its two
        # stages apart, so its time is booked under PQDist and SelK's
        # stays 0, as the tracer's empty ivf_select_k interval does; both
        # workload counters still count the codes.
        out_ids = np.empty((nq, k), dtype=np.int64)
        out_dists = np.empty((nq, k), dtype=np.float32)
        block = idx.lut_block_queries(nprobe)
        idx.term_table()
        ta = time.perf_counter()
        for s in range(0, nq, block):
            sub = probed[s : s + block]
            qterms, dis0 = idx.stage_query_terms(queries_t[s : s + block], sub)
            tb = time.perf_counter()
            trace.seconds["BuildLUT"] += tb - ta
            trace.workload["BuildLUT"] += sub.shape[0] * (
                idx.m * idx.ksub * idx.pq.dsub + nprobe * idx.d
            )

            out_ids[s : s + block], out_dists[s : s + block], n_codes = (
                idx.stage_scan_select(qterms, dis0, sub, k)
            )
            ta = time.perf_counter()
            trace.seconds["PQDist"] += ta - tb
            trace.workload["PQDist"] += n_codes
            trace.workload["SelK"] += n_codes

        return out_ids, out_dists, trace
