"""What one workload run returns, and the metric names and units it reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from common import pct

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Traced runs alternate untraced and traced windows of this length.
TRACE_WINDOW_S = 1.0

#: End-to-end metrics (``--trace 0``), name -> unit.
E2E_UNITS = {
    "qps": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "cpu_us_per_q": "us",
    "recall_at_10": "frac",
    "mem_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "frac",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  A layer the workload
#: does not exercise reports 0.
LAYER_UNITS = {
    "ann.preselect_us_per_q": "us",
    "ann.build_lut_us_per_q": "us",
    "ann.pq_scan_us_per_q": "us",
    "ann.select_k_us_per_q": "us",
    "ann.codes_per_q": "count",
    "ann.queries_per_call": "count",
    "engine.queue_us_p50": "us",
    "engine.exec_us_p50": "us",
    "engine.batch_mean": "count",
    "routing.scatter_us_per_batch": "us",
    "routing.merge_us_per_batch": "us",
    "workers.rpc_us_per_batch": "us",
    "workers.exec_us_per_batch": "us",
    "workers.rpc_residue_us_per_batch": "us",
    "workers.cpu_us_per_q": "us",
    "router.cpu_us_per_q": "us",
    "wire.client_minus_engine_us_p50": "us",
    "wire.frames_per_q": "count",
    "wire.bytes_per_q": "B",
    "cache.hit_rate": "frac",
    "cache.invalidations_per_kop": "count",
    "dynamic.search_us_per_batch": "us",
    "dynamic.primary_us_per_batch": "us",
    "dynamic.delta_search_us_per_q": "us",
    "dynamic.insert_us_per_vec": "us",
    "dynamic.delete_us_per_id": "us",
    "dynamic.write_block_us": "us",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "frac",
}


@dataclass
class Outcome:
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: First few correctness violations, for the error report.
    violations: list[str] = field(default_factory=list)
    #: Traced runs: per-layer tables and raw spans for the span file.
    trace: dict | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.violations) < 20:
            self.violations.append(why)


def latency_ms(lat_ns) -> tuple[float, float]:
    """(p50, p95) of nanosecond latencies, in milliseconds."""
    return pct(lat_ns, 50) / 1e6, pct(lat_ns, 95) / 1e6
