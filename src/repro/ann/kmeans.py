"""Vectorized k-means (k-means++ seeding, Lloyd iterations).

Used for (a) training the IVF coarse quantizer (nlist centroids) and (b)
training each PQ sub-quantizer (256 centroids per sub-space).  Matches the
behaviour Faiss uses for index training, which is what the paper's index
explorer drives.

Seeding is most of a fit's time.  Each of its steps scores a few candidate
seeds against every point; when the compiled kernel tier is available
(:func:`repro.ann.kernel.seed_step`) that pass runs in C over the same BLAS
products, and with the points' squared norms computed once per fit.  The
numpy expressions in :func:`_numpy_seed_scorer` are the reference and the
fallback, and both paths pick the same seeds from the same random stream,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann import kernel
from repro.ann.distances import _DEFAULT_BLOCK, l2_sq_blocked, pairwise_argmin

__all__ = ["KMeans", "kmeans_fit", "kmeans_pp_init"]


def _numpy_seed_scorer(x: np.ndarray):
    """The reference scorer: ``score(y, closest)`` gives the squared distances
    ``(n, t)`` from ``x`` to the candidates ``y`` and each candidate's
    potential ``(t,)``, the sum over points of their distance to the nearest
    seed once that candidate is chosen."""

    def score(y, closest):
        cand_dist = l2_sq_blocked(x, y)
        return cand_dist, np.minimum(closest[:, None], cand_dist).sum(axis=0)

    return score


def _seed_scorer(x: np.ndarray, t: int):
    """A scorer equal bit for bit to :func:`_numpy_seed_scorer`, compiled
    when it can be.

    Every numpy call keeps the reference's shape (``l2_sq_blocked``'s
    blocks of ``_DEFAULT_BLOCK`` rows), but the squared norms of the blocks
    of ``x``, which the reference recomputes each step, are computed once.
    Each call overwrites the previous call's distances.
    """
    if t < 2 or x.dtype != np.float32 or kernel.library() is None:
        return _numpy_seed_scorer(x)
    n = x.shape[0]
    blocks = [slice(start, start + _DEFAULT_BLOCK) for start in range(0, n, _DEFAULT_BLOCK)]
    x_sq = np.concatenate([np.einsum("ij,ij->i", x[b], x[b]) for b in blocks])
    g = np.empty((n, t), dtype=np.float32)

    def score(y, closest):
        yt = y.T
        for b in blocks:
            np.matmul(x[b], yt, out=g[b])
        return g, kernel.seed_step(g, x_sq, np.einsum("ij,ij->i", y, y), closest)

    return score


def kmeans_pp_init(
    x: np.ndarray, k: int, rng: np.random.Generator, n_local_trials: int | None = None
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) with local trials.

    Returns a (k, d) array of initial centroids chosen to spread proportional
    to squared distance from already-chosen seeds.
    """
    n, d = x.shape
    if k > n:
        raise ValueError(f"k={k} exceeds number of points n={n}")
    if n_local_trials is None:
        n_local_trials = 2 + int(np.log(max(k, 2)))
    centers = np.empty((k, d), dtype=x.dtype)
    score = _seed_scorer(x, n_local_trials)
    first = int(rng.integers(n))
    centers[0] = x[first]
    closest = l2_sq_blocked(x, centers[0:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centers; fill with random picks.
            centers[c:] = x[rng.integers(0, n, size=k - c)]
            break
        # Sample candidate seeds proportional to D^2, keep the best.
        probs = closest / total
        candidates = rng.choice(n, size=n_local_trials, p=probs)
        cand_dist, pot = score(x[candidates], closest)
        best = int(np.argmin(pot))
        centers[c] = x[candidates[best]]
        closest = np.minimum(closest, cand_dist[:, best])
    return centers


def _assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return pairwise_argmin(x, centers)


def _update(
    x: np.ndarray, assign: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute centroids; reseed empty clusters from the largest cluster."""
    d = x.shape[1]
    centers = np.zeros((k, d), dtype=np.float64)
    np.add.at(centers, assign, x.astype(np.float64, copy=False))
    counts = np.bincount(assign, minlength=k)
    nonempty = counts > 0
    centers[nonempty] /= counts[nonempty, None]
    if not nonempty.all():
        # Re-seed empty clusters with random points of the biggest cluster,
        # the same strategy Faiss uses to keep nlist populated.
        big = int(np.argmax(counts))
        members = np.flatnonzero(assign == big)
        for ci in np.flatnonzero(~nonempty):
            pick = members[int(rng.integers(len(members)))]
            centers[ci] = x[pick] + 1e-6 * rng.standard_normal(d)
    return centers.astype(x.dtype, copy=False), counts


def kmeans_fit(
    x: np.ndarray,
    k: int,
    *,
    n_iter: int = 20,
    seed: int = 0,
    tol: float = 1e-4,
    verbose: bool = False,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Fit k-means; returns (centroids (k, d), assignment (n,), inertia).

    Stops early when the relative inertia improvement drops below ``tol``.
    """
    x = np.ascontiguousarray(np.atleast_2d(x))
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    rng = np.random.default_rng(seed)
    centers = kmeans_pp_init(x, k, rng)
    prev_inertia = np.inf
    assign = _assign(x, centers)
    for it in range(n_iter):
        centers, _ = _update(x, assign, k, rng)
        assign = _assign(x, centers)
        diff = x - centers[assign]
        inertia = float(np.einsum("ij,ij->", diff, diff))
        if verbose:
            print(f"kmeans iter {it}: inertia={inertia:.4g}")
        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-30):
            break
        prev_inertia = inertia
    diff = x - centers[assign]
    inertia = float(np.einsum("ij,ij->", diff, diff))
    return centers, assign, inertia


@dataclass
class KMeans:
    """Scikit-learn-style wrapper over :func:`kmeans_fit`.

    Attributes are populated by :meth:`fit`: ``centroids_`` (k, d),
    ``labels_`` (n,), ``inertia_``.
    """

    k: int
    n_iter: int = 20
    seed: int = 0
    tol: float = 1e-4
    centroids_: np.ndarray | None = field(default=None, repr=False)
    labels_: np.ndarray | None = field(default=None, repr=False)
    inertia_: float | None = None

    def fit(self, x: np.ndarray) -> "KMeans":
        self.centroids_, self.labels_, self.inertia_ = kmeans_fit(
            x, self.k, n_iter=self.n_iter, seed=self.seed, tol=self.tol
        )
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.centroids_ is None:
            raise RuntimeError("KMeans.predict called before fit")
        return _assign(np.atleast_2d(x), self.centroids_)
