"""Co-design autotuner benchmark: the model held against a measurement.

Runs the full ``codesign-serve`` pipeline — train the index grid,
calibrate real min-nprobe for the recall floor, search the joint
index × R×S topology × QoS × window space, materialize the winning
design through ``build_topology`` over simulated devices in scaled
time — and records ``BENCH_codesign.json`` at the repo root, the
modeled-vs-measured model-accuracy record.

Acceptance (what keeps the autotuner honest):

- the search finds a **non-empty frontier** for the built-in traffic
  profile (an autotuner that cannot solve its own default is broken);
- the materialized winner's results are **bit-identical** to direct
  ``IVFPQIndex.search`` (a fast wrong topology is not a win);
- the validation run completes with **zero failed requests**;
- the modeled-vs-measured QPS gap stays within
  ``CODESIGN_GAP_BOUND`` (|gap| <= 0.5) — the same bound the CI smoke
  gates via ``tools/check_codesign.py``.  The gap is dimensionless
  (scaled time cancels host speed), so it is comparable across runs
  and hosts.

Run: ``python -m pytest benchmarks/test_bench_codesign.py -s``
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness import serve_bench

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_codesign.json"


def _ranked_record(ev) -> dict:
    d = ev.design
    return {
        "nlist": d.nlist,
        "use_opq": d.use_opq,
        "nprobe": d.nprobe,
        "replicas": d.replicas,
        "shards": d.shards,
        "max_batch": d.max_batch,
        "window_us": d.window_us,
        "qos_scheme": d.qos_scheme,
        "modeled_qps": round(ev.modeled_qps, 1),
        "modeled_p99_us": round(ev.modeled_p99_us, 1),
        "utilization": round(ev.utilization, 3),
    }


def test_codesign_search_and_validated_winner():
    result = serve_bench.run_codesign(quick=True, validate=True)
    report = result.report

    assert not report.empty, (
        "co-design search returned an empty frontier for the built-in "
        f"traffic profile (pruned: {report.prune_counts})"
    )
    v = result.validation
    assert v is not None, "validate=True produced no validation record"

    record = {
        "benchmark": "codesign",
        "params": result.params,
        "traffic": report.traffic.to_dict(),
        "n_enumerated": report.n_enumerated,
        "n_feasible": report.n_feasible,
        "prune_counts": dict(sorted(report.prune_counts.items())),
        "frontier_top": [_ranked_record(ev) for ev in report.ranked[:5]],
        "winner_spec": result.spec.to_dict(),
        "bit_identical_to_direct_search": v.bit_identical,
        "time_scale": round(v.time_scale, 2),
        # Modeled/measured throughput and tail latency, and the
        # dimensionless model error between them.
        "modeled_qps": round(v.modeled_qps, 2),
        "measured_qps": round(v.measured_qps, 2),
        "qps_gap": round(v.qps_gap, 4),
        "modeled_p99_us": round(v.modeled_p99_us, 1),
        "measured_p99_us": round(v.measured_p99_us, 1),
        "p99_gap": round(v.p99_gap, 4),
        "n_requests": v.n_requests,
        "n_failed": v.n_failed,
        "gap_bound": serve_bench.CODESIGN_GAP_BOUND,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n{result.format()}\n-> {ARTIFACT.name}")

    assert v.bit_identical, (
        "materialized winner's results diverged from direct search"
    )
    assert v.n_failed == 0, f"validation run had {v.n_failed} failed request(s)"
    assert abs(v.qps_gap) <= serve_bench.CODESIGN_GAP_BOUND, (
        f"modeled-vs-measured QPS gap {v.qps_gap:+.3f} exceeds the "
        f"+-{serve_bench.CODESIGN_GAP_BOUND} bound (modeled "
        f"{v.modeled_qps:.1f} vs measured {v.measured_qps:.1f} QPS)"
    )
