"""Shard and replica views of a trained IVF-PQ index.

The multi-accelerator layout of §7.3.2: every node runs the *same* FANNS
design (same coarse centroids, PQ codebooks, OPQ rotation) over its own
disjoint slice of the dataset.  :func:`partition_index` produces that
layout as ``n_parts`` zero-copy shard views — each shard holds a
contiguous ``1/n_parts`` slice of every packed cell slab, so partitioning
a paper-scale index moves no data (see
:meth:`repro.ann.invlists.PackedInvLists.shard`).

Two invariants make sharded scatter-gather exact (see
:mod:`repro.ann.merge`):

- shards share the trained quantizers by reference, so every shard probes
  bit-identically the same cells for a given query;
- each stored vector lands in exactly one shard, so candidate sets
  partition the unpartitioned index's candidate set and ids stay unique
  across shards.

:func:`replicate_index` is the throughput-scaling counterpart: views over
the *same* data that share the packed storage but carry independent
per-object mutable state (stats counters, caches), so concurrent
searcher threads never race on one object.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.ann.ivf import IVFPQIndex, IVFStats

__all__ = [
    "partition_index",
    "prune_probed_cells",
    "replicate_index",
    "shard_cell_sizes",
]


def partition_index(index: IVFPQIndex, n_parts: int) -> list[IVFPQIndex]:
    """Split one trained index into ``n_parts`` disjoint shards.

    All shards share the trained quantizers (coarse centroids, PQ, OPQ) and
    slice every packed cell slab contiguously — the multi-accelerator layout
    of §7.3.2 where every node runs the same index over its own partition.
    Slicing is **zero-copy**: shards are CSR views into the parent's packed
    code/id arrays, so partitioning a paper-scale index moves no data.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    lists = index.invlists
    return [
        dataclasses.replace(
            index,
            _invlists=lists.shard(part, n_parts),
            _pending=None,
            stats=IVFStats(),
        )
        for part in range(n_parts)
    ]


def shard_cell_sizes(sizes: np.ndarray, part: int, n_parts: int) -> np.ndarray:
    """Per-cell sizes of shard ``part`` of ``n_parts``, computed locally.

    Mirrors :meth:`repro.ann.invlists.PackedInvLists.shard`'s slicing
    arithmetic (``lo = starts + (sizes * part) // n``), so a router can
    derive any shard's cell occupancy from the *unpartitioned* index's
    sizes alone — no data transfer, no shard handle.  That is what lets
    the preselect-once scatter prune each shard's cell list without ever
    asking the shard.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if not 0 <= part < n_parts:
        raise ValueError(f"part must be in [0, {n_parts}), got {part}")
    sizes = np.asarray(sizes, dtype=np.int64)
    return (sizes * (part + 1)) // n_parts - (sizes * part) // n_parts


def prune_probed_cells(probed: np.ndarray, cell_sizes: np.ndarray) -> np.ndarray:
    """Replace probed cells that are empty under ``cell_sizes`` with ``-1``.

    The router-side half of per-shard cell-subset scatter: given one
    batch's (nq, nprobe) preselect plan and a shard's per-cell sizes,
    mark the slots that shard cannot contribute to (its slice of the
    cell is empty) so the worker skips their LUT/scan work entirely.
    Slot order is preserved — the scan's candidate order, and therefore
    the bit-exact merge, is unchanged.
    """
    probed = np.atleast_2d(np.asarray(probed, dtype=np.int64))
    cell_sizes = np.asarray(cell_sizes, dtype=np.int64)
    keep = probed >= 0
    safe = np.where(keep, probed, 0)
    keep &= cell_sizes[safe] > 0
    return np.where(keep, probed, -1)


def replicate_index(index: IVFPQIndex, n_replicas: int) -> list[IVFPQIndex]:
    """``n_replicas`` independently-searchable views over the same data.

    Replicas share the packed inverted lists and trained quantizers by
    reference (zero-copy — replication moves no vectors), but each view is
    its own :class:`~repro.ann.ivf.IVFPQIndex` object with fresh stats and
    per-object search caches, so replicas may serve concurrent threads
    without racing on shared mutable state.  This is the software analogue
    of deploying the same accelerator design on N devices over one shard.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    lists = index.invlists  # flush pending adds once, share the snapshot
    return [
        dataclasses.replace(
            index,
            _invlists=lists,
            _pending=None,
            stats=IVFStats(),
        )
        for _ in range(n_replicas)
    ]
