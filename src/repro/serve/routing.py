"""Replicated, sharded serving topologies: routing and scatter-gather.

The paper scales ANN search past one accelerator by fanning a query out
across partitioned inverted lists on many devices and merging partial
top-K results on the way back (§7.3.2).  This module gives the serving
engine that topology as two composable backends, both implementing the
uniform ``search_batch`` protocol of :mod:`repro.serve.backends`:

- :class:`ReplicaSet` — N backends holding the *same* data; each
  micro-batch routes to one replica chosen by a load-aware policy
  (least-loaded, power-of-two-choices, or round-robin) over live in-flight
  counts.  Scales throughput: with a multi-dispatcher
  :class:`~repro.serve.scheduler.ServingEngine`, up to N micro-batches are
  in flight at once.
- :class:`ShardedBackend` — S backends each holding a *disjoint shard*;
  every micro-batch scatters to all shards and the partial top-K lists
  gather through the exact merge kernel (:func:`repro.ann.merge.merge_topk`).
  Scales capacity: each device stores and scans 1/S of the data.

**Invariant (bit-identical results).**  For shards produced by
:func:`repro.ann.partition.partition_index`, the scatter-gather result is
bit-identical to searching the unpartitioned index — shards share the
trained quantizers (identical probed cells), partition the candidate set,
and rank candidates by the canonical (distance, id) order that makes the
top-K merge exact, ties included.  Replication never changes results at
all: every replica serves the same data.

The two compose: a ``ShardedBackend`` over ``ReplicaSet`` shards is the
full R×S grid (every shard replicated R times), and a ``ReplicaSet`` of
``ShardedBackend`` rows is its dual; :func:`build_topology` assembles the
former from a single trained index.

**Degraded mode.**  Scatter-gather normally assumes every shard answers;
with ``on_shard_error="degrade"`` a :class:`ShardedBackend` instead
serves from the surviving shards when one raises — partial top-K lists
merge exactly as usual, and the call is flagged as *partial coverage*
through the ``last_coverage()`` hook (the serving engine stamps it on the
:class:`~repro.serve.scheduler.ServeResult` and refuses to cache partial
answers).  Availability degrades gracefully instead of failing the whole
batch; a recovered shard resumes full coverage with no intervention.

**Warm-up.**  :func:`warm_topology` walks any topology and readies every
leaf index up front (packs buffered adds, loads the compiled scan kernel),
so no first query pays for either; ``build_topology(..., warm=True)`` does
it at assembly time.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.ann.ivf import IVFPQIndex
from repro.ann.merge import merge_partial_topk
from repro.ann.partition import partition_index, replicate_index
from repro.obs.trace import current_span
from repro.serve.backends import (
    BackendUnavailableError,
    SearchBackend,
    backend_coverage,
    forward_invalidation_listener,
)

__all__ = ["ReplicaSet", "ShardedBackend", "build_topology", "warm_topology"]

#: Routing policies a :class:`ReplicaSet` accepts.
POLICIES = ("least-loaded", "p2c", "round-robin")


class ReplicaSet:
    """Routes each ``search_batch`` call to one of N equivalent replicas.

    Parameters
    ----------
    replicas : backends serving the **same** data (results must not depend
        on which replica answers — this is the caller's contract; views
        from :func:`repro.ann.partition.replicate_index` satisfy it).
    policy : ``"least-loaded"`` picks the replica with the fewest in-flight
        batches (ties rotate round-robin so an idle tier still spreads);
        ``"p2c"`` is power-of-two-choices — sample two distinct replicas,
        send to the less loaded, giving near-least-loaded balance with O(1)
        sampled state; ``"round-robin"`` ignores load entirely.
    seed : seeds the p2c sampler (deterministic routing traces in tests).

    In-flight counts are maintained under a lock around the dispatch, so
    concurrent dispatcher threads observe each other's outstanding batches
    — that is what steers load away from a slow or busy replica.

    Each replica additionally serializes its own dispatches on a
    per-replica lock: a backend never sees concurrent ``search_batch``
    calls, upholding :class:`~repro.ann.ivf.IVFPQIndex`'s single-searcher
    contract even under policies that ignore load (round-robin, and p2c's
    unlucky draws).  Least-loaded with ``dispatchers <= replicas`` never
    contends the lock; for the other policies a doubled-up dispatch queues
    at the replica — the behaviour of a busy physical device.

    **Liveness and failover.**  Replicas carry a live flag.  A dispatch
    that fails with a transport error (``OSError`` — which covers
    :class:`~repro.serve.backends.BackendUnavailableError`, the typed
    signal remote backends raise for every socket failure) marks the
    replica down and retries the call on another live replica, so one
    dead process never fails a request while a sibling can serve it.
    Only when every replica is down (or has failed this call) does the
    set raise — as ``BackendUnavailableError``, which a
    :class:`ShardedBackend` in degrade mode turns into a coverage hole.
    Down is sticky: a recovery agent (the
    :class:`~repro.serve.workers.WorkerPool` supervisor) calls
    :meth:`mark_up` — or :meth:`set_replica` to swap in a replacement —
    once the backend is reachable again.

    **Membership invariants.**  :meth:`set_replica` swaps one slot's
    backend under the routing lock: dispatches already in flight to the
    old object finish against it (and still decrement the slot's
    in-flight count — counts survive the swap, never going negative),
    while every dispatch after the swap sees the new object.  The set's
    size is fixed at construction; recovery is re-point-and-mark-up, not
    grow/shrink.
    """

    #: Exceptions that mark a replica down and fail over instead of
    #: failing the call.  ``OSError`` covers the whole socket-error family
    #: plus ``BackendUnavailableError`` and ``TimeoutError`` — application
    #: errors (shed, quota, bad-request) propagate untouched.
    FAILOVER_ERRORS = (OSError,)

    def __init__(
        self,
        replicas: Sequence[SearchBackend],
        *,
        policy: str = "least-loaded",
        seed: int = 0,
    ):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("ReplicaSet needs at least one replica")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.replicas = replicas
        self.policy = policy
        self._lock = threading.Lock()
        self._replica_locks = [threading.Lock() for _ in replicas]
        self._inflight = [0] * len(replicas)
        #: Lifetime dispatch count per replica (routing observability).
        self.dispatch_counts = [0] * len(replicas)
        #: Dispatches that failed over away from each replica.
        self.failover_counts = [0] * len(replicas)
        self._live = [True] * len(replicas)
        self._rr = 0
        self._rng = random.Random(seed)
        self._tls = threading.local()

    @property
    def d(self) -> int | None:
        """Query dimensionality advertised by the replicas."""
        return getattr(self.replicas[0], "d", None)

    @property
    def inflight(self) -> list[int]:
        """Snapshot of in-flight batch counts per replica."""
        with self._lock:
            return list(self._inflight)

    @property
    def live(self) -> list[bool]:
        """Snapshot of per-replica live flags."""
        with self._lock:
            return list(self._live)

    def mark_down(self, i: int) -> None:
        """Take replica ``i`` out of routing (sticky until marked up)."""
        with self._lock:
            self._live[i] = False

    def mark_up(self, i: int) -> None:
        """Return replica ``i`` to routing (recovery complete)."""
        with self._lock:
            self._live[i] = True

    def set_replica(self, i: int, backend: SearchBackend) -> None:
        """Atomically swap slot ``i``'s backend and mark it live.

        In-flight dispatches against the old object finish against it;
        their slot in-flight counts survive the swap (the decrement in
        the dispatch's ``finally`` targets the slot, not the object), so
        load accounting never goes negative across a membership change.
        """
        with self._lock:
            self.replicas[i] = backend
            self._live[i] = True

    def _pick(self, exclude=()) -> int:
        """Choose a live replica index under the lock (policy dispatch).

        ``exclude`` removes replicas that already failed *this* call.
        Raises :class:`BackendUnavailableError` when no candidate is
        left.  With every replica live and nothing excluded the policy
        sequences are identical to the pre-liveness behaviour.
        """
        candidates = [
            i
            for i in range(len(self.replicas))
            if self._live[i] and i not in exclude
        ]
        if not candidates:
            raise BackendUnavailableError("no live replica available")
        n = len(candidates)
        if n == 1:
            return candidates[0]
        if self.policy == "round-robin":
            i = candidates[self._rr % n]
            self._rr += 1
            return i
        if self.policy == "p2c":
            a = self._rng.randrange(n)
            b = self._rng.randrange(n - 1)
            if b >= a:
                b += 1
            a, b = candidates[a], candidates[b]
            return a if self._inflight[a] <= self._inflight[b] else b
        # least-loaded: among the minimum in-flight counts, rotate so
        # consecutive idle-tier dispatches don't all pile on replica 0.
        lo = min(self._inflight[i] for i in candidates)
        lows = [i for i in candidates if self._inflight[i] == lo]
        i = lows[self._rr % len(lows)]
        self._rr += 1
        return i

    def _dispatch(self, call):
        """Route one call to a live replica, failing over on dead ones.

        ``call(replica)`` runs under the slot's per-replica lock.  A
        transport failure (:attr:`FAILOVER_ERRORS`) marks the replica
        down, counts the failover, and retries on the next live replica
        not yet tried by this call; application errors propagate.  When
        nobody is left the last transport error chains out of a
        :class:`BackendUnavailableError`.
        """
        tried: set[int] = set()
        last: Exception | None = None
        while True:
            with self._lock:
                try:
                    i = self._pick(exclude=tried)
                except BackendUnavailableError as exc:
                    raise BackendUnavailableError(
                        f"no live replica left of {len(self.replicas)} "
                        f"(this call tried {sorted(tried)})"
                    ) from (last or exc.__cause__)
                self._inflight[i] += 1
                self.dispatch_counts[i] += 1
                replica = self.replicas[i]
            # Traced requests get a dispatch span covering any wait on the
            # per-replica lock (queueing at a busy replica); NOOP_SPAN when
            # the calling thread carries no active span.
            span = current_span().child("replica_dispatch", args={"replica": i})
            try:
                # In-flight counts include dispatches queued on this lock,
                # so load-aware policies see the true outstanding work.
                with span:
                    with self._replica_locks[i]:
                        out = call(replica)
                self._tls.coverage = backend_coverage(replica)
                return out
            except self.FAILOVER_ERRORS as exc:
                last = exc
                tried.add(i)
                with self._lock:
                    self._live[i] = False
                    self.failover_counts[i] += 1
            finally:
                with self._lock:
                    self._inflight[i] -= 1

    def search_batch(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route one micro-batch to a replica chosen by the policy."""
        return self._dispatch(lambda r: r.search_batch(queries, k, nprobe))

    @property
    def supports_preselected(self) -> bool:
        """Whether every replica accepts router-preselected plans."""
        return all(
            getattr(r, "search_batch_preselected", None) is not None
            for r in self.replicas
        )

    def search_batch_preselected(
        self, queries_t: np.ndarray, probed: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route one router-preselected batch (same policy + failover).

        Only meaningful when :attr:`supports_preselected` — a
        :class:`ShardedBackend` checks that before taking this path.
        The plan is forwarded untouched: a
        :class:`~repro.serve.workers.RemoteBackend` prunes it to its own
        shard's cells before shipping it.
        """
        return self._dispatch(
            lambda r: r.search_batch_preselected(queries_t, probed, k)
        )

    def last_coverage(self) -> float:
        """Coverage reported by the replica that served this thread's call."""
        return getattr(self._tls, "coverage", 1.0)

    def add_invalidation_listener(self, listener) -> None:
        """Forward cache-invalidation registration to every replica."""
        forward_invalidation_listener(self.replicas, listener)


def _backend_ntotal(backend) -> int | None:
    """Vector count behind a backend, probed through wrapper layers.

    Looks for an ``ntotal`` attribute on the backend itself, its ``inner``
    (instrumentation / simulated-device wrappers), or its first replica
    (replicas hold the same data).  None when nothing advertises a count.
    """
    seen = 0
    while backend is not None and seen < 8:  # defensive depth bound
        n = getattr(backend, "ntotal", None)
        if n is not None:
            return int(n)
        replicas = getattr(backend, "replicas", None)
        backend = replicas[0] if replicas else getattr(backend, "inner", None)
        seen += 1
    return None


def _weighted_coverage(weights: Sequence[float], covs: Sequence[float]) -> float:
    """Combine per-shard sub-coverages under the shard weights.

    Exact at the healthy fixed point: normalized float weights can sum to
    0.999...8, and a fully-covered topology reporting anything below 1.0
    would flag *every* result partial (and disable caching) on a healthy
    cluster — so full coverage short-circuits to exactly 1.0, and the
    weighted sum is clamped from above.
    """
    if all(c >= 1.0 for c in covs):
        return 1.0
    return min(1.0, sum(w * c for w, c in zip(weights, covs)))


def _coverage_weights(
    shards: Sequence, explicit: Sequence[float] | None
) -> list[float]:
    """Normalized data fraction per shard, for coverage accounting.

    Explicit weights win; otherwise advertised vector counts (when every
    shard exposes one, so a big shard's failure reports a proportionally
    bigger coverage hole); otherwise uniform.
    """
    if explicit is not None:
        weights = [float(w) for w in explicit]
        if len(weights) != len(shards):
            raise ValueError(
                f"shard_weights has {len(weights)} entries for "
                f"{len(shards)} shards"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError(f"shard_weights must be non-negative, got {weights}")
    else:
        counts = [_backend_ntotal(s) for s in shards]
        if any(c is None for c in counts) or sum(c or 0 for c in counts) == 0:
            return [1.0 / len(shards)] * len(shards)
        weights = [float(c) for c in counts]
    total = sum(weights)
    return [w / total for w in weights]


class ShardedBackend:
    """Scatter-gathers each micro-batch across disjoint shard backends.

    Every ``search_batch`` call fans out to all S shards (each shard
    searches the full batch over its 1/S of the data) and the partial
    top-K lists reduce through the exact (distance, id) merge kernel —
    bit-identical to searching the unpartitioned index when the shards
    come from :func:`repro.ann.partition.partition_index`.

    Parameters
    ----------
    shards : backends over disjoint partitions of one logical index.
    parallel : scatter with one thread per shard.  Worth it when shards
        block on modeled device/network time
        (:class:`~repro.serve.backends.SimulatedDeviceBackend`) so their
        service times overlap like real devices; leave off for in-process
        NumPy shards, where threads only add overhead.
    scatter_workers : size of the persistent scatter thread pool.  Must
        cover ``concurrent dispatchers x shards`` or scatters queue behind
        one another; defaults to ``4 x shards`` (enough for 4 dispatchers
        — pass the real product when running more).
    on_shard_error : ``"raise"`` (default) propagates a shard failure to
        the whole batch; ``"degrade"`` merges the surviving shards'
        partials instead, flags the call as partial coverage
        (:meth:`last_coverage`), and counts the failure in
        :attr:`shard_errors`.  Only when **every** shard fails does the
        call raise.
    shard_weights : data fraction behind each shard, for coverage
        accounting (normalized; must match ``shards`` in length).  By
        default weights are inferred from each shard's advertised vector
        count (``ntotal``, looked up through wrapper backends) and fall
        back to uniform when no shard advertises one — pass them
        explicitly for unevenly-sized shards behind opaque backends.
        Inferred weights are a **construction-time snapshot**: over
        mutable shards (e.g. dynamic services under insert/delete) the
        stamped coverage fraction drifts as sizes diverge — rebuild the
        backend or pass explicit weights when that precision matters
        (the partial *flag* and the never-cache rule are unaffected).
    preselect : a coarse planner — anything exposing
        ``preselect(queries, nprobe) -> (queries_t, probed)`` (an
        :class:`~repro.ann.ivf.IVFPQIndex` sharing the shards' trained
        quantizers, typically the mmap-loaded unpartitioned index).
        When set, each scatter computes OPQ/coarse distances/cell
        selection **once** and sends every shard the precomputed plan
        through its ``search_batch_preselected`` entry, unchanged (a
        :class:`~repro.serve.workers.RemoteBackend` prunes the cells
        empty on its shard before shipping; an in-process shard's scan
        skips them).  Shards without the preselected entry fall back to
        plain ``search_batch`` — results are bit-identical either way, only
        duplicated per-shard coarse work disappears.  Planner calls are
        serialized on an internal lock (the
        :class:`~repro.ann.ivf.IVFPQIndex` single-searcher contract), so
        one planner safely serves concurrent dispatchers.
    """

    #: Accepted shard-failure handling modes.
    ERROR_MODES = ("raise", "degrade")

    def __init__(
        self,
        shards: Sequence[SearchBackend],
        *,
        parallel: bool = False,
        scatter_workers: int | None = None,
        on_shard_error: str = "raise",
        shard_weights: Sequence[float] | None = None,
        preselect=None,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("ShardedBackend needs at least one shard")
        if scatter_workers is not None and scatter_workers < len(shards):
            raise ValueError(
                f"scatter_workers must cover one scatter "
                f"({len(shards)} shards), got {scatter_workers}"
            )
        if on_shard_error not in self.ERROR_MODES:
            raise ValueError(
                f"on_shard_error must be one of {self.ERROR_MODES}, "
                f"got {on_shard_error!r}"
            )
        self.shards = shards
        self.parallel = parallel
        self.scatter_workers = (
            scatter_workers if scatter_workers is not None else 4 * len(shards)
        )
        self.on_shard_error = on_shard_error
        self.shard_weights = _coverage_weights(shards, shard_weights)
        if preselect is not None and not callable(
            getattr(preselect, "preselect", None)
        ):
            raise ValueError(
                "preselect planner must expose preselect(queries, nprobe)"
            )
        self.preselect = preselect
        #: Serializes planner calls across dispatcher threads.
        self._preselect_lock = threading.Lock()
        #: Scatters served from a router-computed preselect plan.
        self.preselect_scatters = 0
        #: Lifetime failure count per shard (degraded-mode observability).
        self.shard_errors = [0] * len(shards)
        #: Guards shard_errors against concurrent dispatcher threads.
        self._stats_lock = threading.Lock()
        self._tls = threading.local()
        #: Lazily-created persistent scatter pool (threads are reused across
        #: calls; per-call spawning costs ~1 ms on slow hosts).
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _scatter_pool(self) -> ThreadPoolExecutor:
        """The shared scatter pool, created on first parallel call."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.scatter_workers,
                    thread_name_prefix="shard-scatter",
                )
            return self._pool

    @classmethod
    def from_index(
        cls, index: IVFPQIndex, n_shards: int, *, parallel: bool = False
    ) -> "ShardedBackend":
        """Partition ``index`` into ``n_shards`` zero-copy shard views."""
        return cls(partition_index(index, n_shards), parallel=parallel)

    @property
    def d(self) -> int | None:
        """Query dimensionality advertised by the shards."""
        return getattr(self.shards[0], "d", None)

    def search_batch(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter the batch to every shard, gather and merge top-K.

        In degraded mode a failing shard is dropped from the merge (its
        error is recorded in :attr:`shard_errors`) and the call's
        :meth:`last_coverage` reports the surviving fraction; results stay
        exact *over the data that answered*.
        """
        queries = np.atleast_2d(queries)
        degrade = self.on_shard_error == "degrade"
        # Scatter span for traced requests (nested under the engine's
        # active exec span).  Pool threads do not inherit thread-local
        # context, so each shard RPC below re-activates a child of this
        # span explicitly inside its closure.
        scatter = current_span().child(
            "scatter",
            args={"shards": len(self.shards), "nq": int(queries.shape[0])},
        )

        # Preselect-once: compute the coarse plan here, per batch, and
        # ship it to every shard — S shards, one OPQ/IVFDist/SelCells.
        plan = None
        if self.preselect is not None and nprobe is not None:
            with self._preselect_lock:
                with scatter.child("preselect"):
                    plan = self.preselect.preselect(queries, nprobe)
                self.preselect_scatters += 1

        def call(idx, shard):
            """One shard's (result, sub-coverage), read on the calling
            thread — coverage hooks are thread-local, so it must be read
            where the call ran (the pool thread under parallel scatter)."""
            preselected = getattr(shard, "search_batch_preselected", None)
            if preselected is not None and not getattr(
                shard, "supports_preselected", True
            ):
                # A ReplicaSet always has the entry point, but its members
                # may not (in-process replicas behind opaque wrappers):
                # fall back to plain search_batch for the whole column.
                preselected = None
            with scatter.child("shard_rpc", args={"shard": idx}):
                if plan is not None and preselected is not None:
                    out = preselected(*plan, k)
                else:
                    out = shard.search_batch(queries, k, nprobe)
            return out, backend_coverage(shard)

        # Scatter, collecting (result, exception) per shard.  In raise
        # mode the first failure propagates untouched (the pre-degraded
        # contract); in degrade mode failures become coverage holes.
        if self.parallel and len(self.shards) > 1:
            futures = [
                self._scatter_pool().submit(call, i, shard)
                for i, shard in enumerate(self.shards)
            ]
            thunks = [f.result for f in futures]
        else:
            thunks = [
                (lambda i=i, shard=shard: call(i, shard))
                for i, shard in enumerate(self.shards)
            ]
        outcomes = []
        for thunk in thunks:
            try:
                outcomes.append((thunk(), None))
            except Exception as exc:
                if not degrade:
                    scatter.annotate(error=type(exc).__name__)
                    scatter.end()
                    raise
                outcomes.append((None, exc))

        # Gather: merge whoever answered, flag any coverage hole (each
        # shard weighted by its data fraction, so a big shard's failure
        # reports a proportionally bigger hole; a failed shard counts 0).
        # Sub-coverage compounds: a shard that itself degraded (e.g. a
        # nested sharded tier) contributes only its surviving slice.
        parts, covs, last_exc = [], [], None
        for i, (result, exc) in enumerate(outcomes):
            if exc is not None:
                with self._stats_lock:
                    self.shard_errors[i] += 1
                last_exc = exc
                covs.append(0.0)
                continue
            out, sub_cov = result
            parts.append(out)
            covs.append(sub_cov)
        if not parts:
            scatter.annotate(error="all_shards_failed")
            scatter.end()
            raise RuntimeError(
                f"all {len(self.shards)} shards failed"
            ) from last_exc
        self._tls.coverage = _weighted_coverage(self.shard_weights, covs)
        if len(self.shards) == 1:
            scatter.end()
            return parts[0]  # single shard: pass through, no merge
        with scatter.child("merge", args={"parts": len(parts)}):
            merged = merge_partial_topk(parts, k)
        scatter.end()
        return merged

    def last_coverage(self) -> float:
        """Data fraction behind this thread's most recent call (1.0 = all)."""
        return getattr(self._tls, "coverage", 1.0)

    def add_invalidation_listener(self, listener) -> None:
        """Forward cache-invalidation registration to every shard."""
        forward_invalidation_listener(self.shards, listener)


def warm_topology(backend) -> int:
    """Ready every leaf index of a serving topology before traffic.

    Walks wrapper backends (``inner`` of instrumentation / simulated
    devices, ``replicas`` of a :class:`ReplicaSet`, ``shards`` of a
    :class:`ShardedBackend`) down to anything exposing
    ``warm_gather_cache`` (see
    :meth:`repro.ann.ivf.IVFPQIndex.warm_gather_cache`) and warms it.
    Returns the summed count of scannable (non-empty) cells over the
    leaves; backends with no warmable leaves are a no-op.
    """
    warm = getattr(backend, "warm_gather_cache", None)
    if warm is not None:
        return int(warm())
    total = 0
    inner = getattr(backend, "inner", None)
    if inner is not None:
        total += warm_topology(inner)
    for attr in ("replicas", "shards"):
        for child in getattr(backend, attr, ()) or ():
            total += warm_topology(child)
    return total


def build_topology(
    index: IVFPQIndex,
    *,
    replicas: int = 1,
    shards: int = 1,
    policy: str = "least-loaded",
    wrap=None,
    seed: int = 0,
    warm: bool = False,
):
    """Assemble the R×S serving grid over one trained index.

    Partitions ``index`` into ``shards`` zero-copy shard views, replicates
    each shard ``replicas`` times (independent view objects, shared packed
    storage), and wires them as a :class:`ShardedBackend` of
    :class:`ReplicaSet` columns — each scatter picks the least-loaded
    replica of every shard independently.  Degenerate dimensions collapse:
    R=1 S=1 returns a plain replica view, R=1 is pure sharding, S=1 is pure
    replication.

    ``wrap``, when given, is applied to every leaf index view (e.g.
    ``SimulatedDeviceBackend`` to model device service time).
    Shards scatter in parallel exactly when ``wrap`` is set — wrapped
    leaves are assumed to block on modeled time that should overlap
    across shards.  ``warm=True`` runs :func:`warm_topology` on
    the assembled grid so no first query pays for packing buffered adds
    or loading the scan kernel.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")

    def leaves(shard_view: IVFPQIndex) -> list:
        """R wrapped replica views of one shard."""
        views = replicate_index(shard_view, replicas)
        return [wrap(v) if wrap is not None else v for v in views]

    shard_views = partition_index(index, shards) if shards > 1 else [index]
    columns = []
    for sv in shard_views:
        col = leaves(sv)
        columns.append(
            col[0] if replicas == 1 else ReplicaSet(col, policy=policy, seed=seed)
        )
    if shards == 1:
        topo = columns[0]
    else:
        # One engine dispatcher per replica is the intended pairing, so R
        # scatters of S tasks each can be in flight at once.
        topo = ShardedBackend(
            columns,
            parallel=wrap is not None,
            scatter_workers=max(replicas, 4) * shards,
        )
    if warm:
        warm_topology(topo)
    return topo
