"""Product quantization (Jégou et al. 2011), the PQ half of IVF-PQ.

A ``d``-dimensional vector is split into ``m`` sub-vectors; each sub-space is
clustered into ``ksub`` (default 256) centroids so a vector compresses to
``m`` bytes.  Query-time distances use a per-query lookup table (Stage
BuildLUT in the paper) plus ``m`` table lookups and an add-reduction per code
(Stage PQDist / asymmetric distance computation, Eq. 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.distances import l2_sq_blocked, pairwise_argmin
from repro.ann.kmeans import kmeans_fit

__all__ = ["ProductQuantizer"]


@dataclass
class ProductQuantizer:
    """PQ codec with ``m`` sub-quantizers of ``ksub`` centroids each.

    Parameters
    ----------
    d : total vector dimensionality (must be divisible by ``m``).
    m : number of sub-spaces = bytes per code (the paper uses m=16).
    ksub : centroids per sub-space; 256 keeps codes at one byte per sub-space.
    """

    d: int
    m: int = 16
    ksub: int = 256
    seed: int = 0
    n_iter: int = 15
    #: (m, ksub, dsub) codebooks, populated by :meth:`train`.
    codebooks: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.d % self.m != 0:
            raise ValueError(f"d={self.d} not divisible by m={self.m}")
        if not 1 <= self.ksub <= 256:
            raise ValueError("ksub must be in [1, 256] to fit codes in one byte")

    # ------------------------------------------------------------------ #
    @property
    def dsub(self) -> int:
        """Dimensionality of each sub-space."""
        return self.d // self.m

    @property
    def is_trained(self) -> bool:
        return self.codebooks is not None

    def _require_trained(self) -> np.ndarray:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer used before train()")
        return self.codebooks

    def _split(self, x: np.ndarray) -> np.ndarray:
        """(n, d) -> (n, m, dsub) view (no copy when contiguous)."""
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        if x.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {x.shape[1]}")
        return x.reshape(x.shape[0], self.m, self.dsub)

    # ------------------------------------------------------------------ #
    def train(self, x: np.ndarray) -> "ProductQuantizer":
        """Learn the ``m`` sub-quantizer codebooks by k-means per sub-space."""
        sub = self._split(x)
        n = sub.shape[0]
        if n < self.ksub:
            raise ValueError(f"need >= ksub={self.ksub} training vectors, got {n}")
        books = np.empty((self.m, self.ksub, self.dsub), dtype=np.float32)
        for j in range(self.m):
            centroids, _, _ = kmeans_fit(
                np.ascontiguousarray(sub[:, j, :]),
                self.ksub,
                n_iter=self.n_iter,
                seed=self.seed + j,
            )
            books[j] = centroids
        self.codebooks = books
        return self

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Compress (n, d) vectors to (n, m) uint8 codes."""
        books = self._require_trained()
        sub = self._split(x)
        n = sub.shape[0]
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            codes[:, j] = pairwise_argmin(sub[:, j, :], books[j]).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct (n, d) float32 approximations from (n, m) codes."""
        books = self._require_trained()
        codes = np.atleast_2d(codes)
        if codes.shape[1] != self.m:
            raise ValueError(f"expected {self.m} code bytes, got {codes.shape[1]}")
        # Fancy-index each sub-codebook: (n, m, dsub) -> (n, d).
        out = books[np.arange(self.m)[None, :], codes.astype(np.int64), :]
        return out.reshape(codes.shape[0], self.d)

    # ------------------------------------------------------------------ #
    def build_lut(self, query: np.ndarray) -> np.ndarray:
        """Stage BuildLUT: per-query distance table of shape (m, ksub).

        ``lut[j, c]`` = squared L2 distance between query sub-vector j and
        centroid c of sub-quantizer j.  Delegates to :meth:`build_luts` so
        single-query and batched tables share one formula.
        """
        q = np.asarray(query, dtype=np.float32).reshape(1, self.d)
        return self.build_luts(q)[0]

    def build_luts(self, queries: np.ndarray) -> np.ndarray:
        """Batched :meth:`build_lut`: (q, d) -> (q, m, ksub).

        Uses the ``|q-c|^2 = |q|^2 - 2 q.c + |c|^2`` expansion so the cross
        term is one batched GEMM over the sub-space axis (the same push-into-
        BLAS idiom as :mod:`repro.ann.distances`).  BLAS picks its kernel by
        shape, so the last bits of a table may depend on the batch size; the
        search path does not use these tables (see :meth:`cross_terms`).
        """
        books = self._require_trained()
        qs = self._split(queries)  # (q, m, dsub)
        cross = np.matmul(qs.transpose(1, 0, 2), books.transpose(0, 2, 1))  # (m, q, ksub)
        q_sq = np.einsum("qjd,qjd->qj", qs, qs)
        lut = q_sq[:, :, None] + self.code_norms()[None] - 2.0 * cross.transpose(1, 0, 2)
        np.maximum(lut, 0.0, out=lut)
        return lut

    def cross_terms(self, x: np.ndarray) -> np.ndarray:
        """``-2 <x_j, c_jk>`` for every row of ``x``: (n, d) -> (n, m, ksub).

        The inner products are summed left to right over ``dsub`` with
        elementwise float32 operations, not a GEMM (whose kernel BLAS picks
        by shape), so every entry depends on its own row alone: its bits do
        not change with the number of rows passed.  This is the per-query
        term of the IVFADC distance split (:meth:`repro.ann.ivf.IVFPQIndex.
        term_table` holds the per-cell one).
        """
        books = self._require_trained()
        xs = self._split(x)  # (n, m, dsub)
        neg2 = np.ascontiguousarray(books.transpose(2, 0, 1)) * np.float32(-2.0)
        out = xs[:, :, 0, None] * neg2[0]
        tmp = np.empty_like(out)
        for t in range(1, self.dsub):
            np.multiply(xs[:, :, t, None], neg2[t], out=tmp)
            out += tmp
        return out

    def code_norms(self) -> np.ndarray:
        """``|c_jk|^2`` per sub-space centroid, (m, ksub), summed left to
        right over ``dsub`` like :meth:`cross_terms`."""
        books = self._require_trained()
        out = books[:, :, 0] * books[:, :, 0]
        for t in range(1, self.dsub):
            out += books[:, :, t] * books[:, :, t]
        return out

    def adc(self, lut: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Stage PQDist: asymmetric distances for (n, m) codes given one LUT.

        Implements Eq. 1 of the paper: sum over sub-spaces of table lookups.
        """
        codes = np.atleast_2d(codes)
        # lut is (m, ksub); gather lut[j, codes[:, j]] then reduce over j.
        gathered = lut[np.arange(self.m)[None, :], codes.astype(np.int64)]
        return gathered.sum(axis=1)

    def symmetric_distance(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        """Distance between two code sets via decoded representatives."""
        return np.sqrt(
            np.maximum(l2_sq_blocked(self.decode(codes_a), self.decode(codes_b)), 0.0)
        )

    # ------------------------------------------------------------------ #
    def quantization_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error on ``x`` (lower is better)."""
        approx = self.decode(self.encode(x))
        diff = np.atleast_2d(x).astype(np.float32) - approx
        return float(np.mean(np.einsum("ij,ij->i", diff, diff)))
