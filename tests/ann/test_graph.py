"""Tests for the dynamic service's delta index, the exact ``FlatIndex``.

These tests first covered the approximate graph index the delta used to
be; each whose behaviour survives is kept under its name and now holds the
exact index to brute force.  ``TestMatchesReference`` compares against a
brute-force scan ranked by (distance, id) over interleaved growth.
"""

import numpy as np
import pytest

from repro.ann.distances import l2_sq_blocked
from repro.ann.flat import FlatIndex, brute_force_topk
from repro.ann.recall import recall_at_k
from repro.data.synthetic import make_clustered


@pytest.fixture(scope="module")
def graph_data():
    vecs = make_clustered(1050, 16, n_clusters=16, intrinsic_dim=5, seed=8)
    return vecs[:1000], vecs[1000:]


@pytest.fixture(scope="module")
def built_graph(graph_data):
    base, _ = graph_data
    return FlatIndex(d=16).add(base)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="d must be positive"):
            FlatIndex(d=0)
        with pytest.raises(ValueError, match="d must be positive"):
            FlatIndex()

    def test_dim_mismatch(self):
        g = FlatIndex(d=8)
        with pytest.raises(ValueError, match="expected dim"):
            g.add(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="expected dim"):
            g.add(np.zeros((2, 2, 8), dtype=np.float32))
        assert g.ntotal == 0

    def test_vectors_and_ids_read_only(self):
        g = FlatIndex(d=4).add(np.ones((3, 4), dtype=np.float32))
        vecs, ids = g.vectors_and_ids()
        assert vecs.shape == (3, 4) and vecs.dtype == np.float32
        with pytest.raises(ValueError, match="read-only"):
            vecs[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 7
        vecs, ids = FlatIndex(d=4).vectors_and_ids()
        assert vecs.shape == (0, 4) and ids.shape == (0,)

    def test_ids_auto_and_custom(self):
        """Ids default to row positions, as ``FlatIndex(base)`` assigns them."""
        g = FlatIndex(d=4)
        g.add(np.zeros((3, 4), dtype=np.float32))
        _, ids = g.vectors_and_ids()
        np.testing.assert_array_equal(ids, [0, 1, 2])
        g.add(np.ones((2, 4), dtype=np.float32), ids=np.array([50, 51]))
        g.add(np.ones((1, 4), dtype=np.float32))
        _, ids = g.vectors_and_ids()
        np.testing.assert_array_equal(ids, [0, 1, 2, 50, 51, 5])

    def test_bad_ids_shape(self):
        g = FlatIndex(d=4)
        with pytest.raises(ValueError, match="ids shape"):
            g.add(np.zeros((2, 4), dtype=np.float32), ids=np.arange(3))


class TestSearch:
    def test_empty_graph(self):
        g = FlatIndex(d=4)
        ids, dists = g.search(np.zeros((1, 4), dtype=np.float32), 3)
        assert (ids == -1).all()
        assert np.isinf(dists).all()

    @pytest.mark.parametrize("n", [0, 5])
    def test_query_dim_mismatch(self, n):
        """Empty or not, a wrong-dimension query fails like ``add`` does."""
        g = FlatIndex(d=4).add(np.ones((n, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="expected dim 4, got 3"):
            g.search(np.zeros((1, 3), dtype=np.float32), 2)

    def test_invalid_k(self, built_graph):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                built_graph.search(np.zeros((1, 16), dtype=np.float32), k)

    def test_self_query_finds_self(self, built_graph, graph_data):
        base, _ = graph_data
        ids, dists = built_graph.search(base[:5], 1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(5))
        np.testing.assert_allclose(dists[:, 0], 0.0, atol=1e-3)

    def test_recall_reasonable(self, built_graph, graph_data):
        """An exact index has recall@10 of 1 against brute force."""
        base, queries = graph_data
        gt, _ = brute_force_topk(queries, base, 10)
        ids, _ = built_graph.search(queries, 10)
        assert recall_at_k(ids, gt) == 1.0

    def test_distances_sorted(self, built_graph, graph_data):
        _, queries = graph_data
        _, dists = built_graph.search(queries, 8)
        finite = np.where(np.isinf(dists), np.finfo(np.float32).max, dists)
        assert (np.diff(finite, axis=1) >= 0).all()


class TestIncrementality:
    def test_add_after_search(self, graph_data):
        base, queries = graph_data
        g = FlatIndex(d=16).add(base[:500])
        ids_before, _ = g.search(queries, 5)
        g.add(base[500:])
        assert g.ntotal == 1000
        ids_after, _ = g.search(queries, 5)
        assert ids_after.shape == ids_before.shape
        np.testing.assert_array_equal(ids_after, brute_force_topk(queries, base, 5)[0])


def _reference(vecs, ids, queries, k):
    """Brute force in canonical order: ascending (distance, id), padded.
    Each query's distances are computed with that query alone, so no
    answer depends on its batch-mates."""
    out_ids = np.full((len(queries), k), -1, dtype=np.int64)
    out_dists = np.full((len(queries), k), np.inf, dtype=np.float32)
    if len(ids):
        for qi in range(len(queries)):
            dists = l2_sq_blocked(queries[qi : qi + 1], vecs)[0]
            order = np.lexsort((ids, dists))[:k]
            out_ids[qi, : len(order)] = ids[order]
            out_dists[qi, : len(order)] = dists[order]
    return out_ids, out_dists


def _assert_same_search(index, vecs, ids, queries, k) -> None:
    got_ids, got_dists = index.search(queries, k)
    want_ids, want_dists = _reference(vecs, ids, queries, k)
    np.testing.assert_array_equal(got_ids, want_ids)
    assert got_dists.dtype == want_dists.dtype == np.float32
    np.testing.assert_array_equal(got_dists.view(np.uint32), want_dists.view(np.uint32))


class TestMatchesReference:
    """The index equals brute force in (distance, id) order on ids and
    float32 distance bits for every search over interleaved growth."""

    def _run(self, vecs, *, ids=None, batches=(1, 3, 17, 40), ks=(1, 10), q_seed=0):
        index = FlatIndex(d=vecs.shape[1])
        all_ids = np.arange(len(vecs), dtype=np.int64) if ids is None else ids
        rng = np.random.default_rng(q_seed)
        _assert_same_search(index, vecs[:0], all_ids[:0], vecs[:3], ks[0])  # empty
        start = 0
        while start < len(vecs):
            stop = min(start + batches[start % len(batches)], len(vecs))
            index.add(vecs[start:stop], ids=None if ids is None else ids[start:stop])
            got_vecs, got_ids = index.vectors_and_ids()
            np.testing.assert_array_equal(got_vecs, vecs[:stop])
            np.testing.assert_array_equal(got_ids, all_ids[:stop])
            queries = vecs[rng.integers(0, stop, size=3)] + rng.normal(
                scale=0.05, size=(3, vecs.shape[1])).astype(np.float32)
            _assert_same_search(index, vecs[:stop], all_ids[:stop], queries,
                                ks[start % len(ks)])
            start = stop
        return index, all_ids

    @pytest.mark.parametrize("d", [3, 16, 33])
    def test_interleaved_growth(self, d):
        """~600 rows: capacity doubles 16 -> 1024, odd and even dims."""
        vecs = make_clustered(600, d, n_clusters=8, intrinsic_dim=min(d, 4), seed=d)
        index, _ = self._run(vecs)
        assert len(index._vecs) == 1024

    def test_ef_and_k_beyond_ntotal(self):
        """k past the row count pads with (-1, inf)."""
        vecs = make_clustered(12, 8, n_clusters=2, intrinsic_dim=3, seed=1)
        index, ids = self._run(vecs, batches=(1, 2), ks=(1, 7, 20))
        _assert_same_search(index, vecs, ids, vecs, 25)

    def test_duplicate_vectors_tie(self):
        """Repeated rows tie on distance; the lower id ranks first."""
        base = make_clustered(20, 8, n_clusters=2, intrinsic_dim=3, seed=2)
        vecs = np.ascontiguousarray(np.repeat(base, 6, axis=0)[np.random.default_rng(
            3).permutation(120)])
        vecs = np.vstack([vecs, np.zeros((30, 8), np.float32)])
        index, ids = self._run(vecs)
        _assert_same_search(index, vecs, ids, vecs[:40], 12)

    def test_custom_ids(self):
        vecs = make_clustered(150, 8, n_clusters=4, intrinsic_dim=3, seed=4)
        ids = np.random.default_rng(5).choice(10**12, size=150, replace=False)
        self._run(vecs, ids=ids, ks=(3, 10))
