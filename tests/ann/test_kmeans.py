"""Unit tests for k-means clustering, and the differential suite for its
compiled seeding step."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import kernel
from repro.ann.distances import l2_sq_blocked
from repro.ann.ivf import IVFPQIndex
from repro.ann.kmeans import (
    KMeans,
    _numpy_seed_scorer,
    _seed_scorer,
    kmeans_fit,
    kmeans_pp_init,
)


@pytest.fixture(scope="module")
def blobs():
    """Three well-separated 2-D blobs."""
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.concatenate(
        [c + 0.3 * rng.standard_normal((100, 2)) for c in centers]
    ).astype(np.float32)
    return pts, centers


class TestKMeansPP:
    def test_seeds_are_dataset_points(self, blobs):
        pts, _ = blobs
        rng = np.random.default_rng(1)
        seeds = kmeans_pp_init(pts, 3, rng)
        for s in seeds:
            assert np.min(((pts - s) ** 2).sum(axis=1)) < 1e-10

    def test_k_greater_than_n_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans_pp_init(np.zeros((3, 2), dtype=np.float32), 5, np.random.default_rng(0))

    def test_seeds_spread_across_blobs(self, blobs):
        pts, centers = blobs
        rng = np.random.default_rng(2)
        seeds = kmeans_pp_init(pts, 3, rng)
        # Each seed should be near a distinct true center.
        owner = np.argmin(((seeds[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
        assert len(set(owner.tolist())) == 3


class TestKMeansFit:
    def test_recovers_blob_centers(self, blobs):
        pts, centers = blobs
        fitted, assign, inertia = kmeans_fit(pts, 3, seed=0)
        # Match each fitted center to its nearest true center.
        d = ((fitted[:, None, :] - centers[None]) ** 2).sum(-1)
        assert np.sort(np.argmin(d, axis=1)).tolist() == [0, 1, 2]
        assert d.min(axis=1).max() < 0.5

    def test_inertia_decreases_with_k(self, blobs):
        pts, _ = blobs
        _, _, i2 = kmeans_fit(pts, 2, seed=0)
        _, _, i6 = kmeans_fit(pts, 6, seed=0)
        assert i6 < i2

    def test_assignment_shape_and_range(self, blobs):
        pts, _ = blobs
        centers, assign, _ = kmeans_fit(pts, 4, seed=1)
        assert assign.shape == (pts.shape[0],)
        assert assign.min() >= 0 and assign.max() < 4

    def test_no_empty_clusters_on_degenerate_data(self):
        # All points identical: the empty-cluster reseeding path must run.
        pts = np.ones((50, 4), dtype=np.float32)
        centers, assign, _ = kmeans_fit(pts, 4, seed=0, n_iter=3)
        assert centers.shape == (4, 4)
        assert np.isfinite(centers).all()

    def test_deterministic_given_seed(self, blobs):
        pts, _ = blobs
        c1, a1, _ = kmeans_fit(pts, 3, seed=42)
        c2, a2, _ = kmeans_fit(pts, 3, seed=42)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)


class TestKMeansWrapper:
    def test_fit_predict_roundtrip(self, blobs):
        pts, _ = blobs
        km = KMeans(k=3, seed=0).fit(pts)
        labels = km.predict(pts)
        np.testing.assert_array_equal(labels, km.labels_)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            KMeans(k=2).predict(np.zeros((3, 2)))


# --------------------------------------------------------------------- #
# k-means++ seeding on the compiled kernel tier.  The numpy scorer
# (``_numpy_seed_scorer``) is the reference; the compiled one must equal
# it on every distance and potential bit, and so pick the same seeds.

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


@st.composite
def seed_cases(draw):
    """(x, candidate rows, closest) for one seeding step.

    ``kind`` shapes the points: ``normal`` draws them freely, ``ties`` from
    small integers (equal distances everywhere), ``dups`` repeats a few
    rows and ``zeros`` adds all-zero rows, so distances of exactly 0 and
    repeated candidates occur.
    """
    n = draw(st.one_of(st.integers(1, 1024), st.integers(1025, 2600)))
    d = draw(st.integers(1, 9))
    t = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(("normal", "ties", "dups", "zeros")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        x = rng.integers(-2, 3, (n, d)).astype(np.float32)
    else:
        x = rng.standard_normal((n, d)).astype(np.float32)
    if kind == "dups":
        x = x[rng.integers(0, min(n, 5), n)]
    elif kind == "zeros":
        x[rng.random(n) < 0.3] = 0.0
    candidates = rng.integers(0, n, t)
    seeds = x[rng.integers(0, n, draw(st.integers(1, 3)))]
    closest = l2_sq_blocked(x, seeds).min(axis=1)
    return x, candidates, closest


def assert_scorers_equal(x, candidates, closest):
    want_dist, want_pot = _numpy_seed_scorer(x)(x[candidates], closest)
    got_dist, got_pot = _seed_scorer(x, len(candidates))(x[candidates], closest)
    np.testing.assert_array_equal(bits(got_pot), bits(want_pot))
    np.testing.assert_array_equal(bits(got_dist), bits(want_dist))


def seed_step_calls(monkeypatch):
    """Count the compiled seeding steps that run from here on."""
    calls = []
    step = kernel.seed_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(kernel, "seed_step", counted)
    return calls


def numpy_only(monkeypatch):
    monkeypatch.setattr(kernel, "library", lambda: None)


class TestSeedStepDifferential:
    @needs_cc
    @given(seed_cases())
    @settings(max_examples=60, deadline=None)
    def test_distances_and_potentials_equal_numpy(self, case):
        assert_scorers_equal(*case)

    @needs_cc
    def test_signed_zeros_and_nan_follow_numpy(self):
        """Inputs no real point set produces, fed to the kernel directly:
        -0.0 norms make -0.0 distances, which np.maximum turns into +0.0,
        and a NaN goes through maximum, minimum and the sum as in numpy."""
        g = np.array([[0.0, 0.0, 1.0], [-0.0, 2.0, np.nan], [0.5, -0.0, 3.0]], np.float32)
        x_sq = np.array([-0.0, 1.0, 4.0], np.float32)
        y_sq = np.array([-0.0, 0.0, 2.0], np.float32)
        closest = np.array([0.0, -0.0, np.nan], np.float32)
        want = (x_sq[:, None] + y_sq[None, :]) - 2.0 * g
        np.maximum(want, 0.0, out=want)
        want_pot = np.minimum(closest[:, None], want).sum(axis=0)
        got = g.copy()
        got_pot = kernel.seed_step(got, x_sq, y_sq, closest)
        np.testing.assert_array_equal(bits(got), bits(want))
        np.testing.assert_array_equal(bits(got_pot), bits(want_pot))
        # No points: the potentials are the sum's identity, +0.0.
        empty = kernel.seed_step(np.zeros((0, 3), np.float32), x_sq[:0], y_sq, closest[:0])
        np.testing.assert_array_equal(bits(empty), bits(np.zeros((0, 3), np.float32).sum(axis=0)))

    @needs_cc
    def test_rejects_what_it_cannot_reproduce(self):
        one = np.zeros(4, np.float32)
        with pytest.raises(ValueError, match="t >= 2"):
            kernel.seed_step(np.zeros((4, 1), np.float32), one, one[:1], one)
        with pytest.raises(ValueError, match="C-contiguous float32"):
            kernel.seed_step(np.zeros((4, 2)), one, one[:2], one)
        with pytest.raises(ValueError, match="must be"):
            kernel.seed_step(np.zeros((4, 2), np.float32), one, one, one)


class TestSeedingPaths:
    """Both scorers pick the same seeds from the same random stream."""

    @pytest.mark.parametrize(
        "n, k",
        [(300, 7), (2500, 40), (64, 64), (1025, 3)],
        ids=["small", "blocked", "k=n", "n=1025"],
    )
    def test_kmeans_pp_init(self, monkeypatch, n, k):
        x = np.random.default_rng(n).standard_normal((n, 5)).astype(np.float32)
        calls = seed_step_calls(monkeypatch)
        got = kmeans_pp_init(x, k, np.random.default_rng(3))
        assert len(calls) == (k - 1 if kernel.library() is not None else 0)
        numpy_only(monkeypatch)
        want = kmeans_pp_init(x, k, np.random.default_rng(3))
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_all_points_identical(self, monkeypatch):
        """Once every point sits on a seed the potential is 0 and the rest
        are drawn at random (the ``total <= 0`` branch), on both paths."""
        x = np.vstack([np.ones((40, 3)), np.zeros((40, 3))]).astype(np.float32)
        got = kmeans_pp_init(x, 6, np.random.default_rng(5))
        numpy_only(monkeypatch)
        want = kmeans_pp_init(x, 6, np.random.default_rng(5))
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("use_opq", [False, True])
    def test_trained_index(self, monkeypatch, small_vectors, use_opq):
        def trained():
            index = IVFPQIndex(d=32, nlist=16, m=4, ksub=32, use_opq=use_opq, seed=2)
            return index.train(small_vectors)

        got = trained()
        numpy_only(monkeypatch)
        want = trained()
        np.testing.assert_array_equal(bits(got.centroids), bits(want.centroids))
        np.testing.assert_array_equal(bits(got.pq.codebooks), bits(want.pq.codebooks))
        if use_opq:
            np.testing.assert_array_equal(got.opq.rotation, want.opq.rotation)

    def test_trains_without_a_compiler(self, monkeypatch, tmp_path, small_vectors):
        """No compiler: one warning, and the numpy scorer trains the same bits."""
        want = kmeans_fit(small_vectors, 24, seed=4)[0]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(kernel, "_COMPILER", str(tmp_path / "no-such-cc"))
        kernel.library.cache_clear()
        try:
            calls = seed_step_calls(monkeypatch)
            got = kmeans_fit(small_vectors, 24, seed=4)[0]
            assert kernel.ACTIVE == "numpy" and not calls
        finally:
            kernel.library.cache_clear()
        np.testing.assert_array_equal(bits(got), bits(want))


#: Points enough that a reordered sum rounds some potential differently.
MUTANT_X = np.random.default_rng(11).standard_normal((3000, 4)).astype(np.float32)


class TestSeedStepMutant:
    @needs_cc
    def test_reversed_potential_sum_fails(self, monkeypatch, tmp_path):
        """The suite bites on the order of the potential sum: a kernel that
        adds each column's points last to first writes the same distances
        but potentials a few ulps off, and must fail the differential."""
        source = kernel._SOURCE.read_text()
        row = "float *restrict row = g + i * t;\n        const float xs = x_sq[i], c = closest[i];"
        assert source.count(row) == 1
        mutant = tmp_path / "_kernel.c"
        mutant.write_text(source.replace(row, (
            "int64_t r = n - 1 - i;\n"
            "        float *restrict row = g + r * t;\n"
            "        const float xs = x_sq[r], c = closest[r];"
        )))
        monkeypatch.setattr(kernel, "_SOURCE", mutant)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        kernel.library.cache_clear()
        try:
            assert kernel.ACTIVE == "c"
            rng = np.random.default_rng(0)
            closest = l2_sq_blocked(MUTANT_X, MUTANT_X[:1]).ravel()
            candidates = rng.integers(0, len(MUTANT_X), 7)
            got_dist, _ = _seed_scorer(MUTANT_X, 7)(MUTANT_X[candidates], closest)
            want_dist, _ = _numpy_seed_scorer(MUTANT_X)(MUTANT_X[candidates], closest)
            np.testing.assert_array_equal(bits(got_dist), bits(want_dist))
            with pytest.raises(AssertionError):
                assert_scorers_equal(MUTANT_X, candidates, closest)
        finally:
            kernel.library.cache_clear()
