"""Tests for the instrumented six-stage searcher."""

import numpy as np
import pytest

from repro.ann import kernel
from repro.ann.ivf import IVFPQIndex
from repro.ann.stages import STAGE_NAMES, SearchStageTrace, StagedSearcher


class TestStagedSearcher:
    def test_results_match_plain_search(self, trained_ivf, small_dataset):
        s = StagedSearcher(trained_ivf)
        ids_ref, dists_ref = trained_ivf.search(small_dataset.queries, 5, 4)
        ids, dists, trace = s.search(small_dataset.queries, 5, 4)
        np.testing.assert_array_equal(ids, ids_ref)
        np.testing.assert_array_equal(dists, dists_ref)

    def test_untrained_index_raises(self):
        with pytest.raises(ValueError, match="trained"):
            StagedSearcher(IVFPQIndex(d=8, nlist=2, m=2))

    def test_trace_covers_all_stages(self, trained_ivf, small_dataset):
        s = StagedSearcher(trained_ivf)
        _, _, trace = s.search(small_dataset.queries, 5, 4)
        assert set(trace.seconds) == set(STAGE_NAMES)
        assert trace.total_seconds > 0
        assert trace.n_queries == small_dataset.nq

    def test_workloads_scale_with_nprobe(self, trained_ivf, small_dataset):
        s = StagedSearcher(trained_ivf)
        _, _, t2 = s.search(small_dataset.queries, 5, 2)
        _, _, t8 = s.search(small_dataset.queries, 5, 8)
        assert t8.workload["BuildLUT"] > t2.workload["BuildLUT"]
        assert t8.workload["PQDist"] > t2.workload["PQDist"]
        # IVFDist workload depends only on nlist, not nprobe.
        assert t8.workload["IVFDist"] == t2.workload["IVFDist"]

    def test_times_the_compiled_scan(self, trained_ivf, small_dataset, monkeypatch):
        # PQDist + SelK run as the one fused call search() makes, not as
        # the numpy reference stages.
        if kernel.library() is None:
            pytest.skip("compiled kernel not available")

        def reference_stage(*args, **kwargs):
            raise AssertionError("StagedSearcher ran the numpy reference scan")

        monkeypatch.setattr(IVFPQIndex, "stage_pq_dist_batch", reference_stage)
        monkeypatch.setattr(IVFPQIndex, "stage_select_k_batch", reference_stage)
        _, _, trace = StagedSearcher(trained_ivf).search(small_dataset.queries, 5, 4)
        assert trace.seconds["PQDist"] > 0
        assert trace.seconds["SelK"] == 0.0
        assert trace.workload["SelK"] == trace.workload["PQDist"] > 0

    def test_opq_workload_zero_without_opq(self, trained_ivf, small_dataset):
        s = StagedSearcher(trained_ivf)
        _, _, trace = s.search(small_dataset.queries, 5, 2)
        assert trace.workload["OPQ"] == 0.0


class TestTrace:
    def test_fractions_sum_to_one(self, trained_ivf, small_dataset):
        s = StagedSearcher(trained_ivf)
        _, _, trace = s.search(small_dataset.queries, 5, 4)
        assert sum(trace.fractions().values()) == pytest.approx(1.0)

    def test_empty_trace_fractions_zero(self):
        trace = SearchStageTrace()
        assert all(v == 0.0 for v in trace.fractions().values())

    def test_bottleneck_named_stage(self, trained_ivf, small_dataset):
        s = StagedSearcher(trained_ivf)
        _, _, trace = s.search(small_dataset.queries, 5, 4)
        assert trace.bottleneck() in STAGE_NAMES

    def test_merged_adds(self):
        a = SearchStageTrace()
        b = SearchStageTrace()
        a.seconds["PQDist"] = 1.0
        b.seconds["PQDist"] = 2.0
        a.n_queries = 3
        b.n_queries = 4
        m = a.merged(b)
        assert m.seconds["PQDist"] == 3.0
        assert m.n_queries == 7
