"""Exact brute-force search: the recall oracle and the dynamic service's delta.

:func:`brute_force_topk` is the ground truth for recall evaluation.
:class:`FlatIndex` is an exact, growable index over full-precision rows.
The dynamic service (:mod:`repro.service.dynamic`) uses it to buffer the
vectors inserted since the last snapshot.  An append is a row copy plus
the rows' squared norms, and a search is one matrix-vector product per
query plus :func:`~repro.ann.merge.merge_topk`, so results are in the
canonical (distance, id) order the service merges in, and a query's
distance bits do not depend on the queries batched with it.
"""

from __future__ import annotations

import numpy as np

from repro.ann.distances import l2_sq_blocked, topk_smallest
from repro.ann.merge import merge_topk

__all__ = ["FlatIndex", "brute_force_topk"]


def brute_force_topk(
    queries: np.ndarray, base: np.ndarray, k: int, block: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by blocked exhaustive scan.

    Returns (indices (q, k), distances (q, k)) with distances squared-L2,
    sorted ascending per query.
    """
    queries = np.atleast_2d(queries)
    dists = l2_sq_blocked(queries, base, block=block)
    idx, vals = topk_smallest(dists, k, axis=1)
    return idx, vals


class FlatIndex:
    """Exact index over float32 rows with int64 ids.

    ``FlatIndex(base)`` indexes ``base`` with ids ``0..n-1``; ``FlatIndex(d=d)``
    starts empty.  Rows live in one contiguous matrix whose capacity doubles
    as it grows, so :meth:`add` costs amortised O(rows added).  Each row's
    squared norm is kept beside it, computed once on :meth:`add`.
    """

    def __init__(self, base: np.ndarray | None = None, *, d: int | None = None):
        if base is not None:
            base = np.atleast_2d(base)
            d = base.shape[1] if d is None else d
        if d is None or d <= 0:
            raise ValueError(f"d must be positive, got {d}")
        self.d = d
        self.ntotal = 0
        self._vecs = np.empty((0, d), dtype=np.float32)  # (capacity, d)
        self._ids = np.empty(0, dtype=np.int64)
        self._sq = np.empty(0, dtype=np.float32)  # squared row norms
        if base is not None:
            self.add(base)

    def _check_dim(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {x.shape[-1]} (shape {x.shape})")

    def add(self, x: np.ndarray, ids: np.ndarray | None = None) -> "FlatIndex":
        """Append rows; ``ids`` defaults to their row positions."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float32))
        self._check_dim(x)
        n, start = x.shape[0], self.ntotal
        if ids is None:
            ids = np.arange(start, start + n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids shape {ids.shape} != ({n},)")
        if start + n > len(self._vecs):  # full: double the capacity
            cap = max(2 * len(self._vecs), start + n, 16)
            self._vecs = np.resize(self._vecs, (cap, self.d))
            self._ids = np.resize(self._ids, cap)
            self._sq = np.resize(self._sq, cap)
        self._vecs[start:start + n], self._ids[start:start + n] = x, ids
        self._sq[start:start + n] = np.einsum("ij,ij->i", x, x)
        self.ntotal += n
        return self

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k ids and squared distances per query, ascending by (distance,
        id); rows with fewer than ``k`` candidates pad with ``(-1, inf)``.

        Each query's distances are those of :func:`~repro.ann.distances.l2_sq`
        on that query alone, bit for bit: one matrix-vector product per
        query, since a matrix product's rounding depends on how many
        queries it holds.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        self._check_dim(queries)
        vecs, ids = self.vectors_and_ids()
        sq = self._sq[: self.ntotal]
        q_sq = np.einsum("ij,ij->i", queries, queries)
        dists = np.empty((len(queries), self.ntotal), dtype=np.float32)
        for q, row in enumerate(dists):
            np.subtract(q_sq[q] + sq, 2.0 * (vecs @ queries[q]), out=row)
        np.maximum(dists, 0.0, out=dists)
        return merge_topk(np.broadcast_to(ids, dists.shape), dists, k)

    def vectors_and_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the stored rows and their ids."""
        vecs, ids = self._vecs[: self.ntotal], self._ids[: self.ntotal]
        vecs.flags.writeable = ids.flags.writeable = False
        return vecs, ids
