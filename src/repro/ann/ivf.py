"""The IVF-PQ index — the algorithm the paper accelerates.

An inverted-file (IVF) index partitions the database into ``nlist`` Voronoi
cells by k-means; product quantization compresses each vector into ``m``
bytes.  Queries scan only the ``nprobe`` nearest cells and rank candidates by
asymmetric distance computation (ADC) against a per-cell lookup table.

The implementation mirrors Faiss ``IndexIVFPQ`` semantics (residual encoding
by default, optional OPQ pre-transform) while keeping each of the paper's six
search stages (:data:`STAGE_NAMES`) a separately callable method.

Storage is the packed CSR layout of :mod:`repro.ann.invlists` — one
contiguous ``(N, m) uint8`` code array, one ``(N,) int64`` id array, per-cell
offsets — the same contiguous-slab layout the paper's accelerator streams
from HBM.  On top of it, :meth:`IVFPQIndex.search` runs a *batched* query
engine on the IVFADC distance split (Jégou, Douze & Schmid 2011; Johnson,
Douze & Jégou 2017, §5.2) of a query ``q``, a cell centroid ``c`` and a
PQ-coded residual ``r``::

    |q - c - r|^2 = |q - c|^2 + (|r|^2 + 2<c, r>) - 2<q, r>

The middle term depends on the index alone and is precomputed once
(:meth:`IVFPQIndex.term_table`).  Stage BuildLUT computes the rest: one
``-2<q, r>`` table per query plus ``|q - c|^2`` per probed cell, where the
paper's BuildLUT PEs build ``nprobe`` full tables per query.  Stage PQDist
and Stage SelK run fused in the compiled kernel of :mod:`repro.ann.kernel`,
one call per block, which adds those terms into each (query, cell) pair
table itself.  The numpy stages below (``stage_build_luts*`` materialise
the same pair tables; ``stage_pq_dist`` / ``stage_select_k`` and their
``_batch`` loops scan them) are the reference that kernel equals bit for
bit, and the path used when it cannot be built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann import kernel
from repro.ann.distances import l2_sq_blocked, topk_smallest
from repro.ann.invlists import InvListBuilder, PackedInvLists
from repro.ann.merge import merge_topk
from repro.ann.kmeans import kmeans_fit
from repro.ann.opq import OPQTransform
from repro.ann.pq import ProductQuantizer
from repro.obs.trace import current_span, now_us

__all__ = ["IVFPQIndex", "IVFStats", "STAGE_NAMES"]

#: The paper's six query-time search stages, in pipeline order.
STAGE_NAMES = ("OPQ", "IVFDist", "SelCells", "BuildLUT", "PQDist", "SelK")

#: Cap (in float32 elements) for one block's pair tables: search() splits the
#: query batch so the numpy reference's (queries, nprobe, m, ksub) tables stay
#: within ~64 MB, instead of materializing every table for an arbitrarily
#: large batch.
_LUT_BATCH_ELEMS = 1 << 24

#: Float32 elements per temporary while building the term table (64 KiB).
_TERM_CHUNK_ELEMS = 1 << 14


@dataclass
class IVFStats:
    """Per-search workload counters, consumed by the performance model."""

    n_queries: int = 0
    cells_scanned: int = 0
    codes_scanned: int = 0
    #: Coarse-quantization (OPQ + IVFDist + SelCells) invocations.  In a
    #: preselect-once scatter topology the *router's* counters grow while
    #: every shard's stay at zero — the observable proof that the coarse
    #: stage ran once per batch regardless of shard count.
    preselect_batches: int = 0
    preselect_queries: int = 0

    @property
    def codes_per_query(self) -> float:
        return self.codes_scanned / max(self.n_queries, 1)


@dataclass
class IVFPQIndex:
    """IVF-PQ index with optional OPQ rotation over packed CSR invlists.

    Parameters
    ----------
    d : vector dimensionality.
    nlist : number of Voronoi cells (the paper sweeps 2^10..2^18; we scale).
    m : PQ bytes per vector (paper: 16).
    ksub : centroids per PQ sub-space (256).
    use_opq : train and apply an OPQ rotation before quantization.
    by_residual : encode residuals w.r.t. the cell centroid (Faiss default).
    """

    d: int
    nlist: int
    m: int = 16
    ksub: int = 256
    use_opq: bool = False
    by_residual: bool = True
    seed: int = 0

    centroids: np.ndarray | None = field(default=None, repr=False)
    pq: ProductQuantizer | None = field(default=None, repr=False)
    opq: OPQTransform | None = field(default=None, repr=False)
    #: Packed storage; ``_pending`` buffers add() batches until next access.
    _invlists: PackedInvLists | None = field(default=None, repr=False)
    _pending: InvListBuilder | None = field(default=None, repr=False)
    stats: IVFStats = field(default_factory=IVFStats, repr=False)
    #: ``(centroids, codebooks, table)`` behind :meth:`term_table`.
    _terms: tuple | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        return self.centroids is not None and self.pq is not None

    @property
    def invlists(self) -> PackedInvLists:
        """The packed inverted lists, flushing any buffered ``add()`` batches."""
        if self._invlists is None:
            raise RuntimeError("IVFPQIndex used before train()")
        if self._pending is not None and self._pending.n_pending:
            self._invlists = self._pending.build(base=self._invlists)
            self._pending = None
        return self._invlists

    @property
    def ntotal(self) -> int:
        stored = self._invlists.ntotal if self._invlists is not None else 0
        pending = self._pending.n_pending if self._pending is not None else 0
        return stored + pending

    @property
    def cell_sizes(self) -> np.ndarray:
        return self.invlists.sizes

    @property
    def cell_codes(self) -> list[np.ndarray]:
        """Per-cell code views (zero-copy compatibility accessor)."""
        if self._invlists is None:
            return []
        return self.invlists.cell_codes_list()

    @property
    def cell_ids(self) -> list[np.ndarray]:
        """Per-cell id views (zero-copy compatibility accessor)."""
        if self._invlists is None:
            return []
        return self.invlists.cell_ids_list()

    def _require_trained(self) -> tuple[np.ndarray, ProductQuantizer]:
        if self.centroids is None or self.pq is None:
            raise RuntimeError("IVFPQIndex used before train()")
        return self.centroids, self.pq

    def _transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the OPQ rotation if enabled (Stage OPQ)."""
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        if x.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {x.shape[1]}")
        if self.opq is not None:
            return self.opq.apply(x)
        return x

    # ------------------------------------------------------------------ #
    def train(self, x: np.ndarray) -> "IVFPQIndex":
        """Train the coarse quantizer, the optional OPQ rotation, and the PQ.

        Training order matches Faiss' ``OPQMatrix + IVFPQ`` chain: the OPQ
        rotation is learned on raw vectors, then the coarse quantizer and the
        PQ are trained in the rotated space.
        """
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float32)
        if x.shape[0] < max(self.nlist, self.ksub):
            raise ValueError(
                f"need >= max(nlist, ksub) = {max(self.nlist, self.ksub)} training "
                f"vectors, got {x.shape[0]}"
            )
        if self.use_opq:
            self.opq = OPQTransform(self.d, self.m, self.ksub, seed=self.seed)
            self.opq.train(x)
            xt = self.opq.apply(x)
        else:
            self.opq = None
            xt = x
        self.centroids, assign, _ = kmeans_fit(xt, self.nlist, seed=self.seed)
        pq_input = xt - self.centroids[assign] if self.by_residual else xt
        self.pq = ProductQuantizer(self.d, self.m, self.ksub, seed=self.seed)
        self.pq.train(pq_input)
        self._invlists = PackedInvLists.empty(self.nlist, self.m)
        self._pending = None
        return self

    def add(self, x: np.ndarray, ids: np.ndarray | None = None) -> "IVFPQIndex":
        """Assign vectors to cells and buffer their PQ codes (O(batch)).

        Batches are packed lazily on the next invlist access, so repeated
        ``add()`` calls never pay the O(nlist) per-call re-allocation of a
        list-of-arrays layout.
        """
        centroids, pq = self._require_trained()
        xt = self._transform(x)
        n = xt.shape[0]
        if ids is None:
            ids = np.arange(self.ntotal, self.ntotal + n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids shape {ids.shape} != ({n},)")
        assign = np.argmin(l2_sq_blocked(xt, centroids), axis=1)
        encode_input = xt - centroids[assign] if self.by_residual else xt
        codes = pq.encode(encode_input)
        if self._pending is None:
            self._pending = InvListBuilder(self.nlist, self.m)
        self._pending.append(assign, codes, ids)
        return self

    # ------------------------------------------------------------------ #
    # The six query-time stages (STAGE_NAMES), callable individually.
    def stage_opq(self, queries: np.ndarray) -> np.ndarray:
        """Stage OPQ: rotate queries (identity when OPQ is disabled)."""
        return self._transform(queries)

    def stage_ivf_dist(self, queries_t: np.ndarray) -> np.ndarray:
        """Stage IVFDist: distances from each query to all nlist centroids."""
        centroids, _ = self._require_trained()
        return l2_sq_blocked(queries_t, centroids)

    def stage_select_cells(self, cell_dists: np.ndarray, nprobe: int) -> np.ndarray:
        """Stage SelCells: ids of the nprobe nearest cells per query."""
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe={nprobe} outside [1, nlist={self.nlist}]")
        idx, _ = topk_smallest(cell_dists, nprobe, axis=1)
        return idx

    def term_table(self) -> np.ndarray:
        """The precomputed IVFADC term ``|r_jk|^2 + 2<c_j, r_jk>``.

        An ``(nlist, m, ksub)`` float32 array: ``nlist * m * ksub * 4``
        bytes, built once per trained index and rebuilt lazily whenever the
        centroid or codebook array is replaced (``train()``, loading an
        index).  Without residual encoding ``c = 0``: the table is one
        ``(m, ksub)`` array of ``|r_jk|^2`` broadcast over cells (stride 0).
        Shards and replicas made after the first build share it.
        """
        centroids, pq = self._require_trained()
        cached = self._terms
        if cached is None or cached[0] is not centroids or cached[1] is not pq.codebooks:
            norms = pq.code_norms()
            if self.by_residual:
                # cross_terms rows are independent, so building the table a
                # few cells at a time gives the same bits with temporaries
                # small enough to come from (and return to) the heap.
                table = np.empty((self.nlist, self.m, self.ksub), dtype=np.float32)
                step = max(1, _TERM_CHUNK_ELEMS // (self.m * self.ksub))
                for c in range(0, self.nlist, step):
                    # |r|^2 - (-2<c, r>)
                    np.subtract(norms, pq.cross_terms(centroids[c : c + step]),
                                out=table[c : c + step])
            else:
                table = np.broadcast_to(norms, (self.nlist, self.m, self.ksub))
            cached = (centroids, pq.codebooks, table)
            self._terms = cached
        return cached[2]

    def stage_query_terms(
        self, queries_t: np.ndarray, probed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage BuildLUT for a block: the per-query terms of the split.

        Returns ``(qterms, dis0)``: ``qterms`` is ``-2<q_j, r_jk>``, one
        ``(m, ksub)`` table per query (:meth:`ProductQuantizer.cross_terms`),
        and ``dis0`` the ``(nq, nprobe)`` coarse term ``|q - c|^2`` of each
        probed slot (``|q|^2`` without residual encoding).  ``dis0`` is a
        contiguous row sum over ``d``, so each entry, like each ``qterms``
        entry, depends on its own operands only: neither changes with the
        block size.  A ``-1`` (pruned) slot gets a value that is never read.
        """
        centroids, pq = self._require_trained()
        qterms = pq.cross_terms(queries_t)
        if self.by_residual:
            diff = queries_t[:, None, :] - centroids[np.maximum(probed, 0)]
            dis0 = np.square(diff, out=diff).sum(axis=-1)
        else:
            q_sq = np.square(queries_t).sum(axis=-1)
            dis0 = np.broadcast_to(q_sq[:, None], probed.shape)
        return qterms, dis0

    def pair_tables(
        self, qterms: np.ndarray, dis0: np.ndarray, probed: np.ndarray
    ) -> np.ndarray:
        """The (nq, nprobe, m, ksub) pair tables the compiled scan builds.

        Entry by entry, with the same two float32 adds in the same order:
        ``term_table()[cell] + qterms[q]``, then ``dis0[q, p]`` added to
        the row of sub-space 0, so the ADC row sum of a code is its whole
        distance.  A pruned slot gets cell 0's table, never scanned.
        """
        luts = self.term_table()[np.maximum(probed, 0)] + qterms[:, None]
        luts[:, :, 0, :] += dis0[:, :, None]
        return luts

    def stage_build_luts(self, query_t: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Stage BuildLUT materialised: one (m, ksub) table per probed cell
        for one query, equal bit for bit to the batched tables.

        The search path never builds these (:meth:`stage_query_terms`); they
        are the reference the per-query stages scan.  A hardware BuildLUT PE
        builds this per-cell workload; the software does not.
        """
        query_t = np.atleast_2d(np.asarray(query_t, dtype=np.float32))
        return self.stage_build_luts_batch(query_t, np.atleast_2d(cells))[0]

    def stage_pq_dist(
        self, luts: np.ndarray, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage PQDist: ADC distances for all codes in the probed cells.

        Returns (distances, ids) concatenated across the probed cells; a
        ``-1`` cell is a pruned slot and contributes nothing.  Codes come
        from index files, so a code byte ``>= ksub`` raises ``ValueError``
        naming its cell instead of reading another sub-space's table.
        """
        _, pq = self._require_trained()
        lists = self.invlists
        dists: list[np.ndarray] = []
        ids: list[np.ndarray] = []
        for lut, cell in zip(luts, cells):
            if cell < 0:
                continue
            codes = lists.cell_codes(cell)
            if codes.shape[0] == 0:
                continue
            if self.ksub < 256 and codes.max() >= self.ksub:
                raise kernel.out_of_range_code(int(cell), self.ksub)
            dists.append(pq.adc(lut, codes))
            ids.append(lists.cell_ids(cell))
        if not dists:
            return np.empty(0, dtype=np.float32), np.empty(0, dtype=np.int64)
        return np.concatenate(dists), np.concatenate(ids)

    @staticmethod
    def stage_select_k(
        dists: np.ndarray, ids: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage SelK: the K smallest distances with their vector ids.

        Selection follows the repo's **canonical candidate order**:
        ascending distance, ties broken by ascending id.  The tie-break is
        what makes distributed search exact — every shard of a partitioned
        index ranks candidates by the same total order, so merging partial
        top-K lists (:mod:`repro.ann.merge`) reproduces the unpartitioned
        result bit for bit, ties included.

        Pads with (-1, +inf) when fewer than K candidates were scanned.
        """
        if dists.shape[0] == 0:
            return (np.full(k, -1, dtype=np.int64), np.full(k, np.inf, dtype=np.float32))
        out_ids, out_dists = merge_topk(ids[None, :], dists[None, :], k)
        return out_ids[0], out_dists[0]

    # ------------------------------------------------------------------ #
    # Batched stages: same arithmetic as the per-query stages, evaluated
    # across a whole query batch (the packed-CSR query engine).
    def stage_build_luts_batch(
        self, queries_t: np.ndarray, probed: np.ndarray
    ) -> np.ndarray:
        """Stage BuildLUT materialised for a batch: (nq, nprobe, m, ksub)
        :meth:`pair_tables`, the numpy reference's input."""
        return self.pair_tables(*self.stage_query_terms(queries_t, probed), probed)

    def stage_pq_dist_batch(
        self, luts: np.ndarray, probed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stage PQDist for a batch: :meth:`stage_pq_dist` per query.

        Returns flat ``(dists, ids, bounds)`` where ``bounds`` is an
        (nq+1,) prefix sum and query ``q``'s candidates occupy
        ``[bounds[q], bounds[q+1])`` in probe order.
        """
        per_query = [self.stage_pq_dist(lut, cells) for lut, cells in zip(luts, probed)]
        bounds = np.zeros(len(per_query) + 1, dtype=np.int64)
        np.cumsum([len(ids) for _, ids in per_query], out=bounds[1:])
        if bounds[-1] == 0:
            return np.empty(0, dtype=np.float32), np.empty(0, dtype=np.int64), bounds
        dists = np.concatenate([d for d, _ in per_query])
        ids = np.concatenate([i for _, i in per_query])
        return dists, ids, bounds

    def warm_gather_cache(self, cells=None) -> int:
        """Make this index ready to serve before traffic arrives.

        Packs any buffered ``add()`` batches, builds the term table and
        loads the compiled scan kernel (compiling it on a cold cache), so
        none of these costs lands on the first queries.  Returns how many
        of ``cells`` (default: all) hold codes — the cells a search can
        scan.
        """
        sizes = self.invlists.sizes
        self.term_table()
        kernel.library()
        picked = sizes if cells is None else sizes[np.asarray(list(cells), dtype=np.int64)]
        return int((picked > 0).sum())

    def stage_select_k_batch(
        self, dists: np.ndarray, ids: np.ndarray, bounds: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage SelK for a batch over the flat candidate layout: the
        reference :meth:`stage_select_k` once per query."""
        nq = len(bounds) - 1
        out_ids = np.empty((nq, k), dtype=np.int64)
        out_dists = np.empty((nq, k), dtype=np.float32)
        for qi in range(nq):
            lo, hi = bounds[qi], bounds[qi + 1]
            out_ids[qi], out_dists[qi] = self.stage_select_k(dists[lo:hi], ids[lo:hi], k)
        return out_ids, out_dists

    # ------------------------------------------------------------------ #
    def search(
        self, queries: np.ndarray, k: int, nprobe: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full six-stage batched search.  Returns (ids (q, k), distances (q, k)).

        Large batches are processed in blocks (:meth:`lut_block_queries`);
        results are independent per query, so blocking never changes them.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries_t, probed = self.preselect(queries, nprobe)
        out_ids, out_dists, codes_scanned = self.search_preselected(queries_t, probed, k)
        nq = queries_t.shape[0]
        self.stats.n_queries += nq
        self.stats.cells_scanned += nq * nprobe
        self.stats.codes_scanned += codes_scanned
        return out_ids, out_dists

    def preselect(
        self, queries: np.ndarray, nprobe: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The host-side coarse plan: OPQ + IVFDist + SelCells, exported.

        Returns ``(queries_t, probed)`` — the rotated queries and the
        ``(nq, nprobe)`` probed cell ids — exactly the inputs
        :meth:`search_preselected` consumes.  Shards of a partitioned
        index share the trained quantizers, so a router computes this
        plan **once** per batch and scatters it to every shard instead
        of each shard redoing identical coarse work
        (:class:`repro.serve.routing.ShardedBackend` with a planner).
        The ``preselect_batches`` / ``preselect_queries`` stats counters
        record every invocation (including the ones inside
        :meth:`search`), making coarse-once topologies observable.
        """
        # Stage timers hang off the caller's active span (NOOP when no
        # request is being traced — one falsy check, no timestamping).
        span = current_span()
        t0 = now_us() if span else 0
        queries_t = self.stage_opq(queries)
        cell_dists = self.stage_ivf_dist(queries_t)
        probed = self.stage_select_cells(cell_dists, nprobe)
        if span:
            span.interval(
                "ivf_coarse", t0, now_us(),
                args={"nq": int(queries_t.shape[0]), "nprobe": int(nprobe)},
            )
        self.stats.preselect_batches += 1
        self.stats.preselect_queries += queries_t.shape[0]
        return queries_t, probed

    def lut_block_queries(self, nprobe: int) -> int:
        """Queries per block such that one block's reference pair tables stay
        bounded (:data:`_LUT_BATCH_ELEMS`) — shared by every batched engine
        caller."""
        return max(1, _LUT_BATCH_ELEMS // (nprobe * self.m * self.ksub))

    def search_preselected(
        self, queries_t: np.ndarray, probed: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Fused BuildLUT + PQDist + SelK over precomputed probed cells.

        The batch is processed in blocks (:meth:`lut_block_queries`);
        results are independent per query, so blocking never changes them.
        Returns ``(ids (q, k), dists (q, k), codes_scanned)``; stats are
        left to the caller.
        """
        nq, nprobe = probed.shape
        block = self.lut_block_queries(nprobe)
        out_ids = np.empty((nq, k), dtype=np.int64)
        out_dists = np.empty((nq, k), dtype=np.float32)
        codes_scanned = 0
        self.term_table()  # built before the timers, once per index
        # Per-block stage timers hang off the caller's active span (NOOP
        # when untraced: one falsy check per block, no timestamping).
        span = current_span()
        for s in range(0, nq, block):
            sub = probed[s : s + block]
            t0 = now_us() if span else 0
            qterms, dis0 = self.stage_query_terms(queries_t[s : s + block], sub)
            t1 = now_us() if span else 0
            out_ids[s : s + block], out_dists[s : s + block], n_codes = (
                self.stage_scan_select(qterms, dis0, sub, k)
            )
            if span:
                t2 = now_us()
                span.interval("ivf_build_lut", t0, t1)
                span.interval("ivf_pq_scan", t1, t2, args={"codes": n_codes})
                # SelK runs inside the fused scan; the empty interval keeps
                # the stage's row in per-layer tables.
                span.interval("ivf_select_k", t2, t2)
            codes_scanned += n_codes
        return out_ids, out_dists, codes_scanned

    def stage_scan_select(
        self, qterms: np.ndarray, dis0: np.ndarray, probed: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Stage PQDist + Stage SelK fused over one block of queries.

        Takes :meth:`stage_query_terms`' output.  Runs the compiled kernel
        (:mod:`repro.ann.kernel`), which builds each pair table in one
        scratch buffer, when it is loaded; else :meth:`pair_tables` +
        :meth:`stage_pq_dist_batch` + :meth:`stage_select_k_batch`.  Both
        give the same bits.  Returns ``(ids (nq, k), dists (nq, k),
        codes_scanned)``; ``k <= 0`` raises ``ValueError`` on both.
        """
        lists = self.invlists
        fused = kernel.scan_select(self.term_table(), qterms, dis0, probed, lists, k)
        if fused is not None:
            return fused
        luts = self.pair_tables(qterms, dis0, probed)
        dists, ids, bounds = self.stage_pq_dist_batch(luts, probed)
        out_ids, out_dists = self.stage_select_k_batch(dists, ids, bounds, k)
        return out_ids, out_dists, int(bounds[-1])

    def search_batch_preselected(
        self, queries_t: np.ndarray, probed: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serving entry for a router-computed preselect plan.

        The shard-side half of the preselect-once scatter: validates the
        plan, runs the fused BuildLUT + PQDist + SelK scan over this
        index's (shard's) data, and updates the workload stats.  ``-1``
        entries in ``probed`` are pruned slots (cells the router knows
        are empty on this shard) and scan nothing.  Results are
        bit-identical to :meth:`search` when the plan came from
        :meth:`preselect` on an index sharing these quantizers.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries_t = np.ascontiguousarray(np.atleast_2d(queries_t), dtype=np.float32)
        if queries_t.shape[1] != self.d:
            raise ValueError(f"expected dim {self.d}, got {queries_t.shape[1]}")
        probed = np.ascontiguousarray(np.atleast_2d(probed), dtype=np.int64)
        if probed.shape[0] != queries_t.shape[0]:
            raise ValueError(
                f"probed rows ({probed.shape[0]}) != queries rows "
                f"({queries_t.shape[0]})"
            )
        if probed.size == 0 or probed.min() < -1 or probed.max() >= self.nlist:
            raise ValueError(
                f"probed cells must lie in [-1, nlist={self.nlist})"
            )
        out_ids, out_dists, codes_scanned = self.search_preselected(
            queries_t, probed, k
        )
        nq = queries_t.shape[0]
        self.stats.n_queries += nq
        self.stats.cells_scanned += int((probed >= 0).sum())
        self.stats.codes_scanned += codes_scanned
        return out_ids, out_dists

    def search_batch(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform serving entry point (see :mod:`repro.serve.backends`).

        Identical to :meth:`search`; ``nprobe`` is mandatory for a raw
        index (cluster/dynamic services bake it into their config).  The
        serving engine calls this from a single worker thread, which is
        the supported concurrency model — search mutates per-index state
        (the packed lists on a pending-add flush, stats), so concurrent
        searchers must wrap it.
        """
        if nprobe is None:
            raise ValueError("IVFPQIndex serving requires an explicit nprobe")
        return self.search(queries, k, nprobe)

    # ------------------------------------------------------------------ #
    def expected_scan_fraction(self, nprobe: int) -> float:
        """Expected fraction of the database scanned per query.

        Assumes the query distribution matches the database distribution so a
        cell is probed with probability proportional to its size — the same
        estimator the paper's performance model uses for Stage PQDist's N.
        """
        sizes = self.cell_sizes.astype(np.float64)
        total = sizes.sum()
        if total == 0:
            return 0.0
        p = sizes / total
        # Probability-weighted top-nprobe: approximate by taking the nprobe
        # largest expected contributions of a size-biased sample.
        order = np.argsort(-p)
        take = order[: min(nprobe, len(order))]
        # Scale: probing is biased toward big cells but not exclusively the
        # largest; interpolate between uniform (nprobe/nlist) and size-biased.
        uniform = nprobe / max(self.nlist, 1)
        biased = float(p[take].sum())
        return 0.5 * (uniform + biased)

    def reconstruct(self, ids) -> np.ndarray:
        """Approximate original vectors for stored ``ids``.

        Decodes the PQ codes, re-adds the cell centroid (residual encoding),
        and applies the inverse OPQ rotation.  The L2 error is the index's
        quantization error — useful for re-ranking and debugging.

        Lookup is fully vectorized: a sorted-id permutation is cached per
        packed-lists snapshot (any ``add()`` produces a new snapshot, so the
        cache can never serve stale positions — ids need not be contiguous
        or dense).
        """
        _, pq = self._require_trained()
        lists = self.invlists
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        cache = getattr(self, "_recon_cache", None)
        if cache is None or cache[0] is not lists:
            all_ids = lists.all_ids()
            order = np.argsort(all_ids, kind="stable")
            cache = (
                lists,
                np.asarray(all_ids)[order],
                order,
                np.asarray(lists.all_codes()),
                lists.element_cells(),
            )
            self._recon_cache = cache
        _, sorted_ids, order, all_codes, element_cells = cache
        if len(ids) == 0:
            return np.empty((0, self.d), dtype=np.float32)
        if len(sorted_ids) == 0:
            raise KeyError(f"id {int(ids[0])} not in index")
        pos = np.searchsorted(sorted_ids, ids)
        pos_clipped = np.minimum(pos, len(sorted_ids) - 1)
        missing = (pos >= len(sorted_ids)) | (sorted_ids[pos_clipped] != ids)
        if missing.any():
            raise KeyError(f"id {int(ids[missing][0])} not in index")
        elem = order[pos_clipped]
        out = pq.decode(all_codes[elem])
        if self.by_residual:
            out = out + self.centroids[element_cells[elem]]
        if self.opq is not None:
            # Rotation is orthonormal: inverse = transpose.
            out = out @ self.opq.rotation.T
        return out.astype(np.float32, copy=False)

    def memory_bytes(self) -> int:
        """Bytes of PQ codes + ids + centroids (what must fit in FPGA HBM)."""
        cent = self.centroids.nbytes if self.centroids is not None else 0
        return self.invlists.memory_bytes() + cent
