"""Tests for preselect-once search: coarse plan reuse across shards.

The router-side half of the multi-process data plane: ``preselect()``
runs OPQ + coarse distances + cell selection once, and
``search_batch_preselected()`` finishes LUT + scan + top-K from that
plan — on the full index or on any shard, with ``-1``-padded cell slots
(pruned for a shard whose slice of the cell is empty) scanning nothing.
"""

import numpy as np
import pytest

from repro.ann.ivf import IVFPQIndex
from repro.ann.merge import merge_partial_topk
from repro.ann.partition import (
    partition_index,
    prune_probed_cells,
    shard_cell_sizes,
)
from repro.data.synthetic import make_clustered

K = 5
NPROBE = 4


class TestPreselect:
    def test_plan_matches_staged_pipeline(self, trained_ivf, small_dataset):
        q = small_dataset.queries[:8]
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        qt_ref = trained_ivf.stage_opq(q)
        probed_ref = trained_ivf.stage_select_cells(
            trained_ivf.stage_ivf_dist(qt_ref), NPROBE
        )
        np.testing.assert_array_equal(queries_t, qt_ref)
        np.testing.assert_array_equal(probed, probed_ref)

    def test_counts_batches_and_queries(self, trained_ivf, small_dataset):
        b0 = trained_ivf.stats.preselect_batches
        q0 = trained_ivf.stats.preselect_queries
        trained_ivf.preselect(small_dataset.queries[:8], NPROBE)
        trained_ivf.preselect(small_dataset.queries[:3], NPROBE)
        assert trained_ivf.stats.preselect_batches == b0 + 2
        assert trained_ivf.stats.preselect_queries == q0 + 11


class TestSearchBatchPreselected:
    def test_bit_identical_to_search(self, trained_ivf, small_dataset):
        q = small_dataset.queries[:16]
        ref_ids, ref_dists = trained_ivf.search(q, K, NPROBE)
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        ids, dists = trained_ivf.search_batch_preselected(queries_t, probed, K)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)

    def test_padding_columns_are_inert(self, trained_ivf, small_dataset):
        """Extra -1 slots must not change results — they scan nothing."""
        q = small_dataset.queries[:6]
        ref_ids, ref_dists = trained_ivf.search(q, K, NPROBE)
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        padded = np.full((probed.shape[0], probed.shape[1] + 3), -1, np.int64)
        padded[:, : probed.shape[1]] = probed
        ids, dists = trained_ivf.search_batch_preselected(queries_t, padded, K)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)

    def test_all_pruned_row_yields_padding(self, trained_ivf, small_dataset):
        q = small_dataset.queries[:2]
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        probed[0, :] = -1  # this query has no cells on this "shard"
        ids, dists = trained_ivf.search_batch_preselected(queries_t, probed, K)
        assert (ids[0] == -1).all() and np.isinf(dists[0]).all()
        assert (ids[1] != -1).any()

    def test_codes_scanned_matches_search(self, trained_ivf, small_dataset):
        q = small_dataset.queries[:8]
        c0 = trained_ivf.stats.codes_scanned
        trained_ivf.search(q, K, NPROBE)
        per_search = trained_ivf.stats.codes_scanned - c0
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        c1 = trained_ivf.stats.codes_scanned
        trained_ivf.search_batch_preselected(queries_t, probed, K)
        assert trained_ivf.stats.codes_scanned - c1 == per_search

    def test_validation(self, trained_ivf, small_dataset):
        q = small_dataset.queries[:2]
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        with pytest.raises(ValueError, match="k must"):
            trained_ivf.search_batch_preselected(queries_t, probed, 0)
        with pytest.raises(ValueError, match="rows"):
            trained_ivf.search_batch_preselected(queries_t, probed[:1], K)
        for cell in (trained_ivf.nlist, -5):
            bad = probed.copy()
            bad[0, 0] = cell
            with pytest.raises(ValueError, match="cell"):
                trained_ivf.search_batch_preselected(queries_t, bad, K)


class TestPreselectedScatter:
    def test_sharded_scatter_bit_identical(self, trained_ivf, small_dataset):
        """One coarse plan, scattered to shards, merges to the global
        answer bit for bit — and the shards never ran coarse."""
        q = small_dataset.queries[:10]
        ref_ids, ref_dists = trained_ivf.search(q, K, NPROBE)
        shards = partition_index(trained_ivf, 3)
        queries_t, probed = trained_ivf.preselect(q, NPROBE)
        parts = [
            s.search_batch_preselected(
                queries_t, prune_probed_cells(probed, s.cell_sizes), K
            )
            for s in shards
        ]
        ids, dists = merge_partial_topk(parts, K)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)
        for s in shards:
            assert s.stats.preselect_batches == 0  # coarse ran once, upstream

    def test_shard_cell_sizes_matches_shard_views(self, trained_ivf):
        sizes = trained_ivf.cell_sizes
        shards = partition_index(trained_ivf, 4)
        for part, shard in enumerate(shards):
            np.testing.assert_array_equal(
                shard_cell_sizes(sizes, part, 4), shard.cell_sizes
            )

    def test_shard_cell_sizes_validation(self, trained_ivf):
        with pytest.raises(ValueError, match="n_parts"):
            shard_cell_sizes(trained_ivf.cell_sizes, 0, 0)
        with pytest.raises(ValueError, match="part"):
            shard_cell_sizes(trained_ivf.cell_sizes, 4, 4)

    def test_pruning_actually_prunes_sparse_cells(self):
        """With cells smaller than the shard count, most shard slices of a
        probed cell are empty — pruning must mark them and the merged
        answer must still equal the unsharded one exactly."""
        vecs = make_clustered(300, 16, n_clusters=64, seed=9)
        index = IVFPQIndex(d=16, nlist=64, m=4, ksub=16, seed=2)
        index.train(vecs)
        index.add(vecs)
        rng = np.random.default_rng(0)
        q = rng.standard_normal((12, 16)).astype(np.float32)
        ref_ids, ref_dists = index.search(q, K, 8)
        shards = partition_index(index, 4)
        queries_t, probed = index.preselect(q, 8)
        pruned_slots = 0
        parts = []
        for s in shards:
            pruned = prune_probed_cells(probed, s.cell_sizes)
            pruned_slots += int((pruned == -1).sum() - (probed == -1).sum())
            parts.append(s.search_batch_preselected(queries_t, pruned, K))
        assert pruned_slots > 0  # the sparse layout genuinely triggers it
        ids, dists = merge_partial_topk(parts, K)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)

    def test_prune_preserves_slot_order_and_existing_pads(self):
        sizes = np.array([0, 3, 0, 2], dtype=np.int64)
        probed = np.array([[1, 0, -1], [2, 3, 1]], dtype=np.int64)
        pruned = prune_probed_cells(probed, sizes)
        np.testing.assert_array_equal(
            pruned, np.array([[1, -1, -1], [-1, 3, 1]], dtype=np.int64)
        )
