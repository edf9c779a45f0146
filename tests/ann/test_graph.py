"""Tests for the NSW incremental graph index."""

import numpy as np
import pytest

from repro.ann.flat import brute_force_topk
from repro.ann.graph import NSWGraphIndex
from repro.ann.recall import recall_at_k
from repro.data.synthetic import make_clustered
from tests.ann.nsw_reference import ReferenceNSWGraphIndex


@pytest.fixture(scope="module")
def graph_data():
    vecs = make_clustered(1050, 16, n_clusters=16, intrinsic_dim=5, seed=8)
    return vecs[:1000], vecs[1000:]


@pytest.fixture(scope="module")
def built_graph(graph_data):
    base, _ = graph_data
    return NSWGraphIndex(d=16, max_degree=12, ef_search=48, seed=0).add(base)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="d must be positive"):
            NSWGraphIndex(d=0)
        with pytest.raises(ValueError, match="max_degree"):
            NSWGraphIndex(d=4, max_degree=0)
        with pytest.raises(ValueError, match="ef_construction"):
            NSWGraphIndex(d=4, ef_construction=0)

    def test_dim_mismatch(self):
        g = NSWGraphIndex(d=8)
        with pytest.raises(ValueError, match="expected dim"):
            g.add(np.zeros((2, 4), dtype=np.float32))

    def test_vectors_and_ids_read_only(self):
        g = NSWGraphIndex(d=4).add(np.ones((3, 4), dtype=np.float32))
        vecs, ids = g.vectors_and_ids()
        assert vecs.shape == (3, 4) and vecs.dtype == np.float32
        with pytest.raises(ValueError, match="read-only"):
            vecs[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 7
        vecs, ids = NSWGraphIndex(d=4).vectors_and_ids()
        assert vecs.shape == (0, 4) and ids.shape == (0,)

    def test_ids_auto_and_custom(self):
        g = NSWGraphIndex(d=4, seed=0)
        g.add(np.zeros((3, 4), dtype=np.float32))
        _, ids = g.vectors_and_ids()
        np.testing.assert_array_equal(ids, [0, 1, 2])
        g.add(np.ones((2, 4), dtype=np.float32), ids=np.array([50, 51]))
        _, ids = g.vectors_and_ids()
        np.testing.assert_array_equal(ids, [0, 1, 2, 50, 51])

    def test_bad_ids_shape(self):
        g = NSWGraphIndex(d=4)
        with pytest.raises(ValueError, match="ids shape"):
            g.add(np.zeros((2, 4), dtype=np.float32), ids=np.arange(3))

    def test_degree_bounded(self, built_graph):
        assert all(len(nbs) <= built_graph.max_degree for nbs in built_graph._neighbors)


class TestSearch:
    def test_empty_graph(self):
        g = NSWGraphIndex(d=4)
        ids, dists = g.search(np.zeros((1, 4), dtype=np.float32), 3)
        assert (ids == -1).all()
        assert np.isinf(dists).all()

    @pytest.mark.parametrize("n", [0, 5])
    def test_query_dim_mismatch(self, n):
        """Empty or not, a wrong-dimension query fails like ``add`` does."""
        g = NSWGraphIndex(d=4).add(np.ones((n, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="expected dim 4, got 3"):
            g.search(np.zeros((1, 3), dtype=np.float32), 2)

    def test_invalid_k(self, built_graph):
        with pytest.raises(ValueError, match="k must be positive"):
            built_graph.search(np.zeros((1, 16), dtype=np.float32), 0)

    def test_self_query_finds_self(self, built_graph, graph_data):
        base, _ = graph_data
        ids, dists = built_graph.search(base[:5], 1)
        # Greedy graph search is approximate; distance-0 self hits should
        # dominate on clustered data.
        assert (dists[:, 0] < 1e-3).mean() >= 0.8

    def test_recall_reasonable(self, built_graph, graph_data):
        """NSW on a 1k-point buffer should hit high recall@10."""
        base, queries = graph_data
        gt, _ = brute_force_topk(queries, base, 10)
        ids, _ = built_graph.search(queries, 10)
        assert recall_at_k(ids, gt) > 0.7

    def test_distances_sorted(self, built_graph, graph_data):
        _, queries = graph_data
        _, dists = built_graph.search(queries, 8)
        finite = np.where(np.isinf(dists), np.finfo(np.float32).max, dists)
        assert (np.diff(finite, axis=1) >= 0).all()


class TestIncrementality:
    def test_add_after_search(self, graph_data):
        base, queries = graph_data
        g = NSWGraphIndex(d=16, seed=1).add(base[:500])
        ids_before, _ = g.search(queries, 5)
        g.add(base[500:])
        assert g.ntotal == 1000
        ids_after, _ = g.search(queries, 5)
        assert ids_after.shape == ids_before.shape


def _assert_same_graph(new: NSWGraphIndex, ref: ReferenceNSWGraphIndex) -> None:
    assert new.ntotal == ref.ntotal
    assert new._neighbors == ref._neighbors
    for got, want in zip(new.vectors_and_ids(), ref.vectors_and_ids()):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype


def _assert_same_search(new, ref, queries: np.ndarray, k: int) -> None:
    got_ids, got_dists = new.search(queries, k)
    want_ids, want_dists = ref.search(queries, k)
    np.testing.assert_array_equal(got_ids, want_ids)
    assert got_dists.dtype == want_dists.dtype == np.float32
    np.testing.assert_array_equal(got_dists.view(np.uint32), want_dists.view(np.uint32))


class TestMatchesReference:
    """The array-backed index reproduces the list-backed one bit for bit:
    neighbour lists after every ``add``, ids and float32 distance bits for
    every search, with the same RNG draws, over interleaved sequences."""

    def _run(self, vecs, *, seed=0, ids=None, batches=(1, 3, 17, 40), ks=(1, 10),
             q_seed=0, **params):
        new = NSWGraphIndex(d=vecs.shape[1], seed=seed, **params)
        ref = ReferenceNSWGraphIndex(d=vecs.shape[1], seed=seed, **params)
        rng = np.random.default_rng(q_seed)
        _assert_same_search(new, ref, vecs[:3], ks[0])  # empty graph
        start = 0
        while start < len(vecs):
            stop = min(start + batches[start % len(batches)], len(vecs))
            batch_ids = None if ids is None else ids[start:stop]
            new.add(vecs[start:stop], ids=batch_ids)
            ref.add(vecs[start:stop], ids=batch_ids)
            _assert_same_graph(new, ref)
            queries = vecs[rng.integers(0, stop, size=3)] + rng.normal(
                scale=0.05, size=(3, vecs.shape[1])).astype(np.float32)
            _assert_same_search(new, ref, queries, ks[start % len(ks)])
            start = stop
        return new, ref

    @pytest.mark.parametrize("d", [3, 16, 33])
    def test_interleaved_growth(self, d):
        """~600 nodes: capacity doubles 16 -> 1024, odd and even dims."""
        vecs = make_clustered(600, d, n_clusters=8, intrinsic_dim=min(d, 4), seed=d)
        new, _ = self._run(vecs, seed=d, max_degree=6, ef_construction=12, ef_search=16)
        assert len(new._vecs) == 1024

    def test_ef_and_k_beyond_ntotal(self):
        vecs = make_clustered(12, 8, n_clusters=2, intrinsic_dim=3, seed=1)
        new, ref = self._run(vecs, batches=(1, 2), ks=(1, 7, 20), ef_search=48)
        _assert_same_search(new, ref, vecs, 25)

    def test_duplicate_vectors_tie(self):
        """Repeated rows tie in prune's argsort and in both heaps."""
        base = make_clustered(20, 8, n_clusters=2, intrinsic_dim=3, seed=2)
        vecs = np.ascontiguousarray(np.repeat(base, 6, axis=0)[np.random.default_rng(
            3).permutation(120)])
        new, ref = self._run(np.vstack([vecs, np.zeros((30, 8), np.float32)]),
                             max_degree=4, ef_construction=8, ef_search=8)
        _assert_same_search(new, ref, vecs[:40], 12)

    def test_custom_ids(self):
        vecs = make_clustered(150, 8, n_clusters=4, intrinsic_dim=3, seed=4)
        ids = np.random.default_rng(5).choice(10**12, size=150, replace=False)
        self._run(vecs, ids=ids, ks=(3, 10))

    @pytest.mark.parametrize("ef_construction", [1, 2])
    def test_narrow_construction_beam(self, ef_construction):
        vecs = make_clustered(80, 8, n_clusters=3, intrinsic_dim=3, seed=6)
        self._run(vecs, batches=(1, 5), max_degree=3, ef_construction=ef_construction,
                  ef_search=1)
