"""Frozen reference copy of the list-backed ``NSWGraphIndex`` (test-only).

The differential test in ``test_graph.py`` checks that the array-backed
:class:`repro.ann.graph.NSWGraphIndex` builds the same neighbour lists and
returns the same ids and bit-identical distances as this implementation.
Do not change it: it is the specification the fast index is held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.distances import l2_sq

__all__ = ["ReferenceNSWGraphIndex"]


@dataclass
class ReferenceNSWGraphIndex:
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

    _vectors: list[np.ndarray] = field(default_factory=list, repr=False)
    _ids: list[int] = field(default_factory=list, repr=False)
    _neighbors: list[list[int]] = field(default_factory=list, repr=False)
    _rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    @property
    def ntotal(self) -> int:
        return len(self._vectors)

    def _matrix(self) -> np.ndarray:
        return np.vstack(self._vectors) if self._vectors else np.empty((0, self.d))

    # ------------------------------------------------------------------ #
    def _beam_search(
        self, query: np.ndarray, ef: int, n_entries: int = 2
    ) -> list[tuple[float, int]]:
        """Greedy beam search; returns [(dist, node)] sorted ascending."""
        n = self.ntotal
        if n == 0:
            return []
        entries = self._rng.choice(n, size=min(n_entries, n), replace=False)
        visited: set[int] = set()
        cand: list[tuple[float, int]] = []
        for e in entries:
            dist = float(l2_sq(query[None, :], self._vectors[e][None, :])[0, 0])
            cand.append((dist, int(e)))
            visited.add(int(e))
        cand.sort()
        best = list(cand)
        frontier = list(cand)
        while frontier:
            frontier.sort()
            d_cur, node = frontier.pop(0)
            worst = best[min(ef, len(best)) - 1][0]
            if d_cur > worst and len(best) >= ef:
                break
            fresh = [nb for nb in self._neighbors[node] if nb not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            mat = np.vstack([self._vectors[nb] for nb in fresh])
            dists = l2_sq(query[None, :], mat)[0]
            for nb, dist in zip(fresh, dists):
                pair = (float(dist), nb)
                best.append(pair)
                frontier.append(pair)
            best.sort()
            best = best[: max(ef, 1)]
        return best

    def _prune(self, node: int) -> None:
        """Keep only the max_degree closest neighbors of ``node``."""
        nbs = self._neighbors[node]
        if len(nbs) <= self.max_degree:
            return
        mat = np.vstack([self._vectors[nb] for nb in nbs])
        dists = l2_sq(self._vectors[node][None, :], mat)[0]
        order = np.argsort(dists)[: self.max_degree]
        self._neighbors[node] = [nbs[i] for i in order]

    # ------------------------------------------------------------------ #
    def add(self, x: np.ndarray, ids: np.ndarray | None = None) -> "ReferenceNSWGraphIndex":
        """Insert vectors one by one, wiring each to its nearest neighbors."""
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        if x.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {x.shape[1]}")
        if ids is None:
            start = self._ids[-1] + 1 if self._ids else 0
            ids = np.arange(start, start + x.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (x.shape[0],):
                raise ValueError(f"ids shape {ids.shape} != ({x.shape[0]},)")
        for vec, id_ in zip(x, ids):
            node = self.ntotal
            hits = self._beam_search(vec, self.ef_construction)
            self._vectors.append(vec.copy())
            self._ids.append(int(id_))
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
        nq = queries.shape[0]
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        out_dists = np.full((nq, k), np.inf, dtype=np.float32)
        for qi in range(nq):
            hits = self._beam_search(queries[qi], max(self.ef_search, k))
            for slot, (dist, node) in enumerate(hits[:k]):
                out_ids[qi, slot] = self._ids[node]
                out_dists[qi, slot] = dist
        return out_ids, out_dists

    def vectors_and_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot of the buffered vectors (consumed by the merge step)."""
        return self._matrix().astype(np.float32), np.asarray(self._ids, dtype=np.int64)
