"""Tests for the dynamic vector service (snapshot + delta + deletions)."""

import numpy as np
import pytest

from repro.ann.flat import brute_force_topk
from repro.data.synthetic import make_clustered
from repro.service.dynamic import DynamicVectorService


@pytest.fixture()
def service_and_data():
    vecs = make_clustered(2100, 16, n_clusters=24, intrinsic_dim=5, seed=6)
    base, extra, queries = vecs[:1600], vecs[1600:2000], vecs[2000:]
    svc = DynamicVectorService(d=16, nlist=16, m=4, ksub=32, nprobe=8, seed=0)
    ids = svc.bootstrap(base)
    return svc, base, extra, queries, ids


class TestLifecycle:
    def test_requires_bootstrap(self):
        svc = DynamicVectorService(d=4, nlist=2, m=2, ksub=16)
        with pytest.raises(RuntimeError, match="bootstrap"):
            svc.insert(np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(RuntimeError, match="bootstrap"):
            svc.search(np.zeros((1, 4), dtype=np.float32), 1)
        with pytest.raises(RuntimeError, match="bootstrap"):
            svc.merge()

    def test_bootstrap_ids_dense(self, service_and_data):
        svc, base, *_ = service_and_data
        assert svc.ntotal == len(base)

    def test_insert_goes_to_delta(self, service_and_data):
        svc, base, extra, *_ = service_and_data
        svc.insert(extra[:50])
        assert svc.delta.ntotal == 50
        assert svc.ntotal == len(base) + 50

    def test_ids_unique_across_structures(self, service_and_data):
        svc, base, extra, *_ = service_and_data
        new_ids = svc.insert(extra[:10])
        assert new_ids.min() >= len(base)


class TestSearchSemantics:
    def test_finds_freshly_inserted(self, service_and_data):
        svc, base, extra, queries, _ = service_and_data
        new_ids = svc.insert(extra[:100])
        # Query *with* the inserted vectors: their own id must come back.
        ids, dists = svc.search(extra[:10], 1)
        hit = np.isin(ids[:, 0], new_ids)
        assert hit.mean() >= 0.8

    def test_deleted_never_returned(self, service_and_data):
        svc, base, extra, queries, ids = service_and_data
        victims = ids[:200]
        svc.delete(victims)
        out_ids, _ = svc.search(queries, 10)
        assert not np.isin(out_ids, victims).any()

    def test_delete_counts_new_only(self, service_and_data):
        svc, *_ , ids = service_and_data
        assert svc.delete(ids[:5]) == 5
        assert svc.delete(ids[:5]) == 0
        assert svc.ntotal == len(ids) - 5

    def test_delete_ignores_unknown_ids(self, service_and_data):
        """Ids never allocated change nothing: no count, no ntotal drop,
        no cache invalidation."""
        svc, *_, ids = service_and_data
        fired = []
        svc.add_invalidation_listener(lambda: fired.append(1))
        assert svc.delete([10**9, -5, int(ids[-1]) + 1]) == 0
        assert svc.ntotal == len(ids) and not svc.deleted and not fired
        assert svc.delete(np.array([ids[3], 10**9, ids[3]])) == 1
        assert svc.ntotal == len(ids) - 1 and svc.deleted == {int(ids[3])}
        assert len(fired) == 1

    def test_delete_counts_delta_ids(self, service_and_data):
        svc, base, extra, *_ = service_and_data
        new_ids = svc.insert(extra[:20])
        assert svc.delete(new_ids[::2]) == 10
        assert svc.ntotal == len(base) + 10
        out_ids, _ = svc.search(extra[:20], 5)
        assert not np.isin(out_ids, new_ids[::2]).any()

    def test_delete_after_merge_ignores_folded_ids(self, service_and_data):
        """Ids a merge already removed are gone, not live: deleting them
        again counts nothing and leaves ntotal alone."""
        svc, base, extra, _, ids = service_and_data
        new_ids = svc.insert(extra[:10])
        assert svc.delete(np.concatenate([ids[:10], new_ids[:3]])) == 13
        svc.merge()
        n = svc.ntotal
        assert n == len(base) + 10 - 13
        fired = []
        svc.add_invalidation_listener(lambda: fired.append(1))
        assert svc.delete(np.concatenate([ids[:10], new_ids[:3]])) == 0
        assert svc.ntotal == n and not fired
        assert svc.delete(new_ids[3:5]) == 2  # folded into the new snapshot
        assert svc.ntotal == n - 2 and len(fired) == 1


class TestMerge:
    def test_merge_folds_delta_and_deletions(self, service_and_data):
        svc, base, extra, queries, ids = service_and_data
        svc.insert(extra)
        svc.delete(ids[:100])
        stats = svc.merge()
        assert stats.generation == 1
        assert stats.inserted_since == len(extra)
        assert stats.deleted_since == 100
        assert stats.snapshot_size == len(base) + len(extra) - 100
        assert svc.delta.ntotal == 0
        assert not svc.deleted

    def test_search_quality_preserved_after_merge(self, service_and_data):
        svc, base, extra, queries, _ = service_and_data
        svc.insert(extra)
        svc.merge()
        all_vecs = np.vstack([base, extra])
        gt, _ = brute_force_topk(queries, all_vecs, 10)
        ids, _ = svc.search(queries, 10)
        # IVF-PQ recall on this small config is modest; the point is the
        # merged snapshot serves the union.
        from repro.ann.recall import recall_at_k

        assert recall_at_k(ids, gt) > 0.4

    def test_merged_ids_stable(self, service_and_data):
        """Ids assigned before the merge keep resolving afterwards."""
        svc, base, extra, queries, ids = service_and_data
        new_ids = svc.insert(extra[:20])
        svc.merge()
        out_ids, _ = svc.search(extra[:5], 1)
        assert np.isin(out_ids[:, 0], new_ids).mean() >= 0.6

    def test_second_generation(self, service_and_data):
        svc, base, extra, *_ = service_and_data
        svc.insert(extra[:50])
        svc.merge()
        svc.insert(extra[50:100])
        stats = svc.merge()
        assert stats.generation == 2
