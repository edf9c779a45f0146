"""Dynamic vector search service: snapshot + delta + deletions + merge.

Implements the deployment loop of §4:

- **primary index** — an IVF-PQ index over the current dataset snapshot
  (the thing FANNS generates an accelerator for);
- **incremental index** — an exact :class:`~repro.ann.flat.FlatIndex`
  buffer of vectors inserted since the snapshot (cheap to append to and to
  scan until the next merge);
- **deletion bitmap** — ids removed since the snapshot are masked out of
  both indexes at query time;
- **merge** — periodically (the paper: e.g. weekly) the delta and the
  deletions fold into a new snapshot; the IVF-PQ index is retrained/refilled
  and FANNS can redesign the accelerator for it while the previous
  deployment keeps serving ("the time taken to build the new accelerator is
  effectively concealed by the ongoing operation of the older system").

Queries fan out to both indexes; deleted ids are masked and one
:func:`~repro.ann.merge.merge_topk` call picks the top-K in the canonical
(distance, id) order.

The service is safe to mutate while it serves: ``search``/``search_batch``,
``insert``, ``delete``, and ``merge`` serialize on one reentrant lock, so a
serving engine's worker thread can keep answering queries while another
thread folds the next snapshot — each request sees either the old or the new
generation, never a half-merged state.

**Lock discipline.**  The reentrant service lock guards every multi-field
read and mutation; the expensive ``merge`` rebuild runs *outside* it (only
its freeze and swap phases lock).  Invalidation listeners are notified
with no lock held, so a listener may re-enter the service or take its own
locks (e.g. a query cache's) without deadlock risk.

**Cache invalidation.**  Serving engines register their query caches via
:meth:`DynamicVectorService.add_invalidation_listener` (the
:class:`~repro.serve.scheduler.ServingEngine` does this automatically at
construction); every ``insert``/``delete``/``merge``/``bootstrap`` that
changes visible results then fires the listeners, so cached results can
never outlive the data generation they were computed against.  Listeners
are held weakly: a garbage-collected engine unregisters itself.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.ann.flat import FlatIndex
from repro.ann.ivf import IVFPQIndex
from repro.ann.merge import merge_topk

__all__ = ["DynamicVectorService", "SnapshotStats"]


def _in_sorted(store: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of ``ids`` present in the ascending array ``store``.

    A binary search per id: ``np.isin`` sorts both arrays on every call.
    """
    if not len(store):
        return np.zeros(ids.shape, dtype=bool)
    return store[np.minimum(np.searchsorted(store, ids), len(store) - 1)] == ids


@dataclass(frozen=True)
class SnapshotStats:
    """Bookkeeping returned by :meth:`DynamicVectorService.merge`."""

    snapshot_size: int
    inserted_since: int
    deleted_since: int
    generation: int


class DynamicVectorService:
    """Serves a mutable vector collection over IVF-PQ + exact delta + bitmap."""

    def __init__(
        self,
        d: int,
        *,
        nlist: int = 64,
        m: int = 16,
        ksub: int = 256,
        use_opq: bool = False,
        nprobe: int = 8,
        seed: int = 0,
    ):
        self.d = d
        self.nlist = nlist
        self.m = m
        self.ksub = ksub
        self.use_opq = use_opq
        self.nprobe = nprobe
        self.seed = seed

        self.primary: IVFPQIndex | None = None
        self.delta = FlatIndex(d=d)
        self.deleted: set[int] = set()
        #: ``deleted`` as a sorted array: the per-batch search filter.
        self._tombstones = np.empty(0, dtype=np.int64)
        self.generation = 0
        self._snapshot_vectors: np.ndarray | None = None
        self._snapshot_ids: np.ndarray | None = None
        self._next_id = 0
        #: Serializes mutations against serving reads (reentrant so internal
        #: calls under the lock never deadlock).
        self._lock = threading.RLock()
        #: During a merge() rebuild the pre-merge delta is frozen here and
        #: stays searchable; new inserts go to a fresh ``delta``.
        self._frozen_delta: FlatIndex | None = None
        #: Weak references to callables fired after every visible mutation
        #: (attached engines' cache invalidation; see module docstring).
        self._invalidation_listeners: list = []

    # ------------------------------------------------------------------ #
    def add_invalidation_listener(self, listener) -> None:
        """Register a callable fired after every visible mutation.

        Bound methods (the common case — an engine's ``invalidate_cache``)
        are held via :class:`weakref.WeakMethod`, so registering never
        keeps an engine alive; other callables are held strongly.
        """
        try:
            ref = weakref.WeakMethod(listener)
        except TypeError:
            def _strong_ref(listener=listener):
                return listener
            ref = _strong_ref
        with self._lock:
            self._invalidation_listeners.append(ref)

    def _notify_invalidation(self) -> None:
        """Fire every live listener (no lock held), pruning dead ones."""
        with self._lock:
            refs = list(self._invalidation_listeners)
        dead = []
        for r in refs:
            cb = r()
            if cb is None:
                dead.append(r)
            else:
                cb()
        if dead:
            with self._lock:
                self._invalidation_listeners = [
                    r for r in self._invalidation_listeners if r not in dead
                ]

    # ------------------------------------------------------------------ #
    @property
    def ntotal(self) -> int:
        """Live vectors (snapshot + deltas − deletions)."""
        with self._lock:  # consistent multi-field read vs merge() phases
            snap = len(self._snapshot_ids) if self._snapshot_ids is not None else 0
            frozen = self._frozen_delta.ntotal if self._frozen_delta is not None else 0
            return snap + frozen + self.delta.ntotal - len(self.deleted)

    def _allocate_ids(self, n: int) -> np.ndarray:
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        return ids

    # ------------------------------------------------------------------ #
    def bootstrap(self, x: np.ndarray, train_vectors: np.ndarray | None = None) -> np.ndarray:
        """Create the initial snapshot; returns the assigned ids."""
        with self._lock:
            ids = self._bootstrap_locked(x, train_vectors)
        self._notify_invalidation()
        return ids

    def _bootstrap_locked(
        self, x: np.ndarray, train_vectors: np.ndarray | None
    ) -> np.ndarray:
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        ids = self._allocate_ids(x.shape[0])
        self.primary = IVFPQIndex(
            d=self.d, nlist=self.nlist, m=self.m, ksub=self.ksub,
            use_opq=self.use_opq, seed=self.seed,
        )
        self.primary.train(train_vectors if train_vectors is not None else x)
        self.primary.add(x, ids=ids)
        self._snapshot_vectors = x.copy()
        self._snapshot_ids = ids.copy()
        return ids

    def insert(self, x: np.ndarray) -> np.ndarray:
        """Insert new vectors into the incremental index; returns their ids.

        Fires the invalidation listeners: the new vectors are immediately
        visible to searches, so cached pre-insert results are stale.
        """
        with self._lock:
            if self.primary is None:
                raise RuntimeError("bootstrap() must run before insert()")
            x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
            if x.ndim != 2 or x.shape[1] != self.d:  # before any id is spent
                raise ValueError(f"expected (n, {self.d}) vectors, got shape {x.shape}")
            ids = self._allocate_ids(x.shape[0])
            self.delta.add(x, ids=ids)
        if ids.shape[0]:
            self._notify_invalidation()
        return ids

    def delete(self, ids) -> int:
        """Mark ids deleted (bitmap); returns how many were newly marked.

        Only live ids count: an id in the snapshot or a delta and not yet
        deleted.  Unknown ids, ids a merge already folded away and repeats
        change nothing.  Fires the invalidation listeners when anything was
        newly marked.
        """
        with self._lock:
            ids = np.unique(np.asarray(ids, dtype=np.int64))
            live = np.zeros(ids.shape, dtype=bool)
            # Ids are allocated in ascending order, so each store is sorted.
            for g in (self._frozen_delta, self.delta):
                if g is not None:
                    live |= _in_sorted(g.vectors_and_ids()[1], ids)
            if self._snapshot_ids is not None:
                live |= _in_sorted(self._snapshot_ids, ids)
            newly = ids[live & ~_in_sorted(self._tombstones, ids)]
            self.deleted.update(newly.tolist())
            self._tombstones = np.sort(np.concatenate([self._tombstones, newly]))
        if len(newly):
            self._notify_invalidation()
        return len(newly)

    # ------------------------------------------------------------------ #
    def search(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merged top-k over (primary ∪ delta) \\ deleted.

        Over-fetches from both indexes to survive deletion filtering, then
        merges by (distance, id) — the query path of the paper's deployment.
        ``k`` must be positive.
        ``nprobe`` overrides the service default for this call.
        """
        with self._lock:
            if self.primary is None:
                raise RuntimeError("bootstrap() must run before search()")
            nprobe = self.nprobe if nprobe is None else nprobe
            queries = np.atleast_2d(queries)
            fetch = k + min(len(self.deleted), 4 * k) + 4
            p_ids, p_dists = self.primary.search(
                queries,
                min(fetch, max(self.primary.ntotal, 1)),
                min(nprobe, self.primary.nlist),
            )
            id_parts, dist_parts = [p_ids], [p_dists]
            # Both deltas: the live one, plus the frozen pre-merge one while
            # a background rebuild is in flight (its vectors are in neither
            # the old primary nor the fresh delta).
            for g in (self._frozen_delta, self.delta):
                if g is not None and g.ntotal > 0:
                    g_ids, g_dists = g.search(queries, min(fetch, g.ntotal))
                    id_parts.append(g_ids)
                    dist_parts.append(g_dists)

            # Mask deleted candidates to +inf, then one batched (distance, id)
            # merge; -1 / inf padding stays padding.
            ids = np.concatenate(id_parts, axis=1)
            dists = np.concatenate(dist_parts, axis=1).astype(np.float32, copy=True)
            dists[_in_sorted(self._tombstones, ids)] = np.inf
            return merge_topk(ids, dists, k)

    def search_batch(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform serving entry point (see :mod:`repro.serve.backends`)."""
        return self.search(queries, k, nprobe)

    # ------------------------------------------------------------------ #
    def merge(self) -> SnapshotStats:
        """Fold delta + deletions into a new snapshot and rebuild the primary.

        After merging, FANNS would redesign the accelerator for the new
        snapshot (the rebuild here retrains IVF-PQ, mirroring that the
        algorithm explorer "always targets a static dataset snapshot").

        The expensive rebuild runs *outside* the service lock, so serving
        continues throughout: (1) under the lock, freeze the current delta
        and tombstone set and swap in a fresh delta for new inserts; (2)
        retrain the new primary on the folded snapshot with no lock held —
        concurrent searches see old primary + frozen delta + live delta;
        (3) under the lock, swap in the new generation.  Mutations landing
        during the rebuild carry over to the next generation.
        """
        # Phase 1 — freeze the fold set under the lock.
        with self._lock:
            if self.primary is None:
                raise RuntimeError("bootstrap() must run before merge()")
            if self._frozen_delta is not None:
                raise RuntimeError("a merge is already in progress")
            frozen = self.delta
            self._frozen_delta = frozen
            self.delta = FlatIndex(d=self.d)
            snap_vecs = self._snapshot_vectors
            snap_ids = self._snapshot_ids
            folded = self._tombstones  # replaced, never mutated, by delete()

        # Phase 2 — rebuild with no lock held (reads only frozen state).
        try:
            delta_vecs, delta_ids = frozen.vectors_and_ids()
            inserted = len(delta_ids)
            all_vecs = np.vstack([snap_vecs, delta_vecs]) if inserted else snap_vecs
            all_ids = (
                np.concatenate([snap_ids, delta_ids]) if inserted else snap_ids
            )
            live = ~_in_sorted(folded, all_ids)
            n_deleted = int((~live).sum())
            new_vecs = np.ascontiguousarray(all_vecs[live])
            new_ids = all_ids[live]
            new_primary = IVFPQIndex(
                d=self.d, nlist=min(self.nlist, max(len(new_ids), 1)), m=self.m,
                ksub=self.ksub, use_opq=self.use_opq, seed=self.seed,
            )
            new_primary.train(new_vecs)
            new_primary.add(new_vecs, ids=new_ids)
        except BaseException:
            # Roll back: append the (typically tiny) mid-rebuild delta to
            # the frozen one and reinstate it as the live delta — O(new
            # inserts) under the lock, not O(frozen size) — so the old
            # generation keeps serving the full collection and a later
            # merge() can retry.
            with self._lock:
                live_vecs, live_ids = self.delta.vectors_and_ids()
                if len(live_ids):
                    frozen.add(live_vecs, ids=live_ids)
                self.delta = frozen
                self._frozen_delta = None
            raise

        # Phase 3 — swap in the new generation under the lock.
        with self._lock:
            self.primary = new_primary
            self._snapshot_vectors = new_vecs
            self._snapshot_ids = new_ids
            self._frozen_delta = None
            # Folded tombstones are now physically absent; deletes that
            # arrived during the rebuild stay masked into the next cycle.
            self.deleted.difference_update(folded.tolist())
            self._tombstones = self._tombstones[~_in_sorted(folded, self._tombstones)]
            self.generation += 1
            stats = SnapshotStats(
                snapshot_size=len(new_ids),
                inserted_since=inserted,
                deleted_since=n_deleted,
                generation=self.generation,
            )
        # The fold changed the physical layout (and retrained quantizers
        # may rank differently): attached caches must drop everything.
        self._notify_invalidation()
        return stats
