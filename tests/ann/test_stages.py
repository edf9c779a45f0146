"""The IVF stage timers: the spans a traced search records per stage.

servebench's per-layer ``ann.*`` rows are read from these spans.
"""

import numpy as np

from repro.ann import ivf
from repro.obs.trace import Tracer

K, NPROBE = 5, 4


class TestStageTimers:
    def test_traced_search_records_every_stage(self, trained_ivf, small_dataset):
        queries = small_dataset.queries
        ref_ids, ref_dists = trained_ivf.search(queries, K, NPROBE)
        tracer = Tracer(sample_rate=1.0)
        codes0 = trained_ivf.stats.codes_scanned
        with tracer.start_trace("request") as root:
            ids, dists = trained_ivf.search(queries, K, NPROBE)
        codes = trained_ivf.stats.codes_scanned - codes0

        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)
        spans = [s for s in tracer.drain() if s["span"] != root.span_id]
        for s in spans:
            assert (s["trace"], s["parent"]) == (root.trace_id, root.span_id)
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert sorted(by_name) == [
            "ivf_build_lut", "ivf_coarse", "ivf_pq_scan", "ivf_select_k",
        ]
        (coarse,) = by_name["ivf_coarse"]
        assert coarse["args"] == {"nq": len(queries), "nprobe": NPROBE}
        # One BuildLUT, scan and (empty, fused) SelK interval per block.
        blocks = len(by_name["ivf_pq_scan"])
        assert len(by_name["ivf_build_lut"]) == len(by_name["ivf_select_k"]) == blocks
        assert all(s["dur"] == 0 for s in by_name["ivf_select_k"])
        assert sum(s["args"]["codes"] for s in by_name["ivf_pq_scan"]) == codes > 0

    def test_untraced_search_records_no_spans(
        self, trained_ivf, small_dataset, monkeypatch
    ):
        def no_clock():
            raise AssertionError("an untraced search read the span clock")

        # No span is active, so the timers neither stamp nor record.
        monkeypatch.setattr(ivf, "now_us", no_clock)
        ids, _ = trained_ivf.search(small_dataset.queries, K, NPROBE)
        assert ids.shape == (small_dataset.nq, K)
