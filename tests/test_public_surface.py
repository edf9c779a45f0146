"""The public surface of ``repro.ann`` and ``repro.serve`` does not shrink silently.

Each expected name must stay in the package's ``__all__`` and resolve.  A
deliberate removal edits the list here and is recorded in CHANGES.md.
"""

import importlib

import pytest

EXPECTED = {
    "repro.ann": [
        "FlatIndex", "IVFPQIndex", "InvListBuilder", "KMeans", "OPQTransform",
        "PackedInvLists", "ProductQuantizer", "brute_force_topk", "kmeans_fit",
        "load_index", "load_index_dir", "merge_partial_topk", "merge_topk", "partition_index", "recall_at_k",
        "replicate_index", "save_index", "save_index_dir",
    ],
    "repro.serve": [
        "AdaptiveBatchWindow", "AdmissionError", "AsyncClient", "InstrumentedBackend",
        "LatencyStats", "LoadReport", "MetricsRegistry", "MetricsSnapshot", "QueryResultCache", "QuotaExceededError", "RemoteBackend",
        "RemoteServeError", "ReplicaSet", "SearchBackend", "ServeResult", "ServingEngine",
        "ShardedBackend", "SimulatedDeviceBackend", "TenantLane", "TenantPolicy",
        "TenantStats", "TenantWorkload", "TokenBucket", "TopologySpec",
        "VectorSearchServer", "WFQDiscipline", "WorkerInfo", "WorkerPool",
        "backend_coverage", "build_topology", "class_label", "default_cost",
        "poisson_arrivals", "query_key", "run_closed_loop", "run_multi_tenant",
        "run_open_loop", "warm_topology",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPECTED))
def test_expected_names_exported(module):
    mod = importlib.import_module(module)
    missing = [name for name in EXPECTED[module] if name not in mod.__all__]
    assert not missing, f"{module}.__all__ lost {missing}"
    for name in EXPECTED[module]:
        assert getattr(mod, name) is not None
