"""Graph-based incremental ANN index (NSW-style) for newly inserted vectors.

§4 "Framework deployment": production vector search keeps a *primary* IVF-PQ
index for a dataset snapshot plus "an incremental (usually graph-based)
index for new vectors added since the last snapshot".  This module provides
that incremental structure: a navigable-small-world graph (Malkov et al.
2014) with greedy best-first search — insertion-friendly (no retraining)
and accurate at the small scale the delta buffer reaches between merges.

Vectors live in one contiguous float32 matrix (capacity doubles as it grows)
beside their squared norms; out-degree is bounded.  Search is a beam search
from two random entry points: one expansion is a gather of the unvisited
neighbours' rows and norms, one (1, d) x (d, n) product and a heap push each.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NSWGraphIndex"]


@dataclass
class NSWGraphIndex:
    """Navigable-small-world graph over full-precision vectors.

    Parameters
    ----------
    d : vector dimensionality.
    max_degree : out-degree bound per node (M in HNSW terms).
    ef_construction : beam width while inserting.
    ef_search : default beam width while searching.
    """

    d: int
    max_degree: int = 16
    ef_construction: int = 32
    ef_search: int = 32
    seed: int = 0

    ntotal: int = field(default=0, init=False)
    _neighbors: list[list[int]] = field(default_factory=list, repr=False)
    _rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.ef_construction < 1:
            raise ValueError(f"ef_construction must be >= 1, got {self.ef_construction}")
        self._rng = np.random.default_rng(self.seed)
        self._vecs = np.empty((0, self.d), dtype=np.float32)  # (capacity, d)
        self._sq, self._ids = np.empty(0, np.float32), np.empty(0, np.int64)

    def _dists(self, q: np.ndarray, q_sq, nodes) -> np.ndarray:
        """Squared L2 from ``q`` (1, d) to ``nodes``: ``l2_sq``'s expansion, same bits."""
        nodes = np.array(nodes)
        d = q_sq + self._sq.take(nodes)
        d -= 2.0 * (q @ self._vecs.take(nodes, axis=0).T)[0]
        return np.maximum(d, 0.0, out=d)

    def _beam_search(self, query: np.ndarray, ef: int, n_entries: int = 2) -> list:
        """Greedy beam search; returns [(dist, node)] sorted ascending."""
        if self.ntotal == 0:
            return []
        entries = self._rng.choice(self.ntotal, size=min(n_entries, self.ntotal), replace=False)
        q = query[None, :]
        q_sq = np.einsum("ij,ij->i", q, q)[0]
        # One product per entry: a column of a wider one may differ in bits.
        cand = sorted((float(self._dists(q, q_sq, [e])[0]), int(e)) for e in entries)
        visited = {node for _, node in cand}
        frontier = list(cand)  # sorted, so already a min-heap
        best = [(-dist, -node) for dist, node in reversed(cand[:ef])]  # max-heap
        while frontier:
            d_cur, node = heapq.heappop(frontier)
            if len(best) >= ef and d_cur > -best[0][0]:
                break
            fresh = [nb for nb in self._neighbors[node] if nb not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            worst = -best[0][0] if len(best) >= ef else np.inf
            for nb, dist in zip(fresh, self._dists(q, q_sq, fresh).tolist()):
                if dist <= worst:  # else never kept, and popping it ends the search
                    heapq.heappush(frontier, (dist, nb))
                    push = heapq.heappush if len(best) < ef else heapq.heappushpop
                    push(best, (-dist, -nb))
        if len(visited) == len(cand):  # no node past the entries: all kept, even past ef
            return cand
        return sorted((-neg_dist, -neg_node) for neg_dist, neg_node in best)

    def _prune(self, node: int) -> None:
        """Keep only the max_degree closest neighbors of ``node``."""
        nbs = self._neighbors[node]
        if len(nbs) <= self.max_degree:
            return
        dists = self._dists(self._vecs[node][None, :], self._sq[node], nbs)
        order = np.argsort(dists)[: self.max_degree]
        self._neighbors[node] = [nbs[i] for i in order]

    def add(self, x: np.ndarray, ids: np.ndarray | None = None) -> "NSWGraphIndex":
        """Insert vectors one by one, wiring each to its nearest neighbors."""
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        if x.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {x.shape[1]}")
        if ids is None:
            start = int(self._ids[self.ntotal - 1]) + 1 if self.ntotal else 0
            ids = np.arange(start, start + x.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (x.shape[0],):
                raise ValueError(f"ids shape {ids.shape} != ({x.shape[0]},)")
        for vec, id_ in zip(x, ids):
            node = self.ntotal
            hits = self._beam_search(vec, self.ef_construction)
            if node == len(self._vecs):  # full: double the capacity
                cap = max(2 * node, 16)
                self._vecs = np.resize(self._vecs, (cap, self.d))
                self._sq, self._ids = np.resize(self._sq, cap), np.resize(self._ids, cap)
            self._vecs[node], self._ids[node] = vec, id_
            self._sq[node] = np.einsum("ij,ij->i", vec[None, :], vec[None, :])[0]
            self.ntotal += 1
            links = [h[1] for h in hits[: self.max_degree]]
            self._neighbors.append(links)
            for nb in links:  # bidirectional wiring + degree bound
                self._neighbors[nb].append(node)
                self._prune(nb)
        return self

    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k ids and squared distances per query (−1 / +inf padding)."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {queries.shape[1]}")
        out_ids = np.full((len(queries), k), -1, dtype=np.int64)
        out_dists = np.full((len(queries), k), np.inf, dtype=np.float32)
        for qi in range(len(queries)):
            hits = self._beam_search(queries[qi], max(self.ef_search, k))[:k]
            for slot, (dist, node) in enumerate(hits):
                out_ids[qi, slot] = self._ids[node]
                out_dists[qi, slot] = dist
        return out_ids, out_dists

    def vectors_and_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the buffered vectors and ids (merge input)."""
        vecs, ids = self._vecs[: self.ntotal], self._ids[: self.ntotal]
        vecs.flags.writeable = ids.flags.writeable = False
        return vecs, ids
