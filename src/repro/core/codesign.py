"""Serving co-design autotuner: CDSE over index × topology × QoS × window.

The paper's design-space exploration (Figure 4) picks the best accelerator
for *one* index under *one* device budget.  A serving deployment has more
knobs: the index parameters trade recall cost against scan work, the R×S
replica/shard topology trades devices against per-device work, the QoS
weight scheme decides who is guaranteed what share of capacity, and the
micro-batch window trades latency against batch efficiency.  This module
searches that **joint** space with the same enumerate → prune → rank shape
as the exemplar CDSE loop:

1. **Enumerate** the cross product of index options (each an
   :class:`IndexOption`: a trained-or-synthetic :class:`IndexProfile` plus
   the minimum nprobe reaching the traffic's recall floor) with the
   :class:`SearchSpace` serving dimensions (replicas × shards × batch
   window × max batch × QoS scheme).
2. **Prune** infeasible points: host worker budget, per-shard HBM
   residence, recall-unreachable indexes, window vs SLO, and — via
   :func:`~repro.core.design_space.best_design` /
   :mod:`~repro.core.resource_model` — points where *no* accelerator
   design fits the device's Eq. 2 budget.
3. **Rank** survivors by modeled saturation throughput, charging real
   wire-frame bytes (:mod:`repro.net.wire`) through the LogGP
   point-to-point / binary-tree collective estimators for the scatter
   path, with deterministic tie-breaks (fewer workers, lower modeled p99,
   then the design tuple) so ranking is reproducible under a fixed seed.

The winner is emitted as a loadable topology spec
(:class:`repro.serve.topology_spec.TopologySpec`) and — in the harness's
validation mode — materialized through ``build_topology``/``serve_bench``
so the modeled-vs-measured gap is checked in CI
(``tools/check_codesign.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.ann.partition import shard_cell_sizes
from repro.core.config import AcceleratorConfig, AlgorithmParams
from repro.core.design_space import best_design
from repro.core.perf_model import (
    IndexProfile,
    min_nprobe_for_mass,
    synthetic_profile,
)
from repro.hw.device import FPGADevice, U55C
from repro.net.collectives import binary_tree_broadcast_us, binary_tree_reduce_us
from repro.net.loggp import point_to_point_us
from repro.net.wire import batch_result_frame_bytes, preselect_frame_bytes

__all__ = [
    "CodesignReport",
    "DesignEval",
    "HostConstraints",
    "IndexOption",
    "QOS_SCHEMES",
    "SearchSpace",
    "ServingDesign",
    "TenantSpec",
    "TrafficClass",
    "TrafficProfile",
    "batch_wire_us",
    "enumerate_joint_space",
    "evaluate",
    "modeled_serving",
    "qos_guaranteed_shares",
    "search",
    "synthetic_index_options",
]

#: QoS weight schemes the search enumerates: ``uniform`` gives every
#: tenant the same WFQ weight (simple, but a small tenant's guarantee may
#: fall short of its offered rate); ``weighted`` sets weights proportional
#: to each tenant's traffic share (guarantees scale with demand).
QOS_SCHEMES = ("uniform", "weighted")


# --------------------------------------------------------------------- #
# Inputs: traffic profile, host constraints, search space.


@dataclass(frozen=True)
class TrafficClass:
    """One request class of the traffic mix.

    ``nprobe`` pins the scan width for this class; ``None`` (the default)
    lets the search derive the minimum nprobe reaching the recall floor.
    """

    k: int
    share: float
    nprobe: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"class k must be >= 1, got {self.k}")
        if self.share <= 0:
            raise ValueError(f"class share must be positive, got {self.share}")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError(f"class nprobe must be >= 1, got {self.nprobe}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's slice of the offered load."""

    name: str
    share: float
    priority: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.share <= 0:
            raise ValueError(f"tenant share must be positive, got {self.share}")


def _check_shares(what: str, shares: Sequence[float]) -> None:
    total = sum(shares)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{what} shares must sum to 1.0, got {total:.6f}")


@dataclass(frozen=True)
class TrafficProfile:
    """What the deployment must serve: rate, SLO, recall floor, mix, corpus.

    ``n_vectors``/``d``/``m``/``ksub`` describe the corpus the index will
    hold (the quantization geometry is fixed by the deployment; nlist and
    nprobe are what the search explores).
    """

    rate_qps: float
    slo_p99_us: float
    recall_floor: float = 0.8
    recall_k: int = 10
    n_vectors: int = 20_000
    d: int = 32
    m: int = 8
    ksub: int = 32
    tenants: tuple[TenantSpec, ...] = (TenantSpec("default", 1.0),)
    classes: tuple[TrafficClass, ...] = (TrafficClass(k=10, share=1.0),)

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive, got {self.rate_qps}")
        if self.slo_p99_us <= 0:
            raise ValueError(f"slo_p99_us must be positive, got {self.slo_p99_us}")
        if not 0.0 < self.recall_floor <= 1.0:
            raise ValueError(
                f"recall_floor must be in (0, 1], got {self.recall_floor}"
            )
        if self.recall_k < 1:
            raise ValueError(f"recall_k must be >= 1, got {self.recall_k}")
        if self.n_vectors < 1:
            raise ValueError(f"n_vectors must be >= 1, got {self.n_vectors}")
        if self.d < 1 or self.d % self.m != 0:
            raise ValueError(
                f"d={self.d} must be positive and divisible by m={self.m}"
            )
        if not self.tenants:
            raise ValueError("traffic profile needs at least one tenant")
        if not self.classes:
            raise ValueError("traffic profile needs at least one class")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        _check_shares("tenant", [t.share for t in self.tenants])
        _check_shares("class", [c.share for c in self.classes])

    @property
    def max_k(self) -> int:
        """The k the model must provision for (largest class)."""
        return max(c.k for c in self.classes)

    @property
    def pinned_nprobe(self) -> int | None:
        """Largest class-pinned nprobe, or None when recall-derived."""
        pinned = [c.nprobe for c in self.classes if c.nprobe is not None]
        return max(pinned) if pinned else None

    def tenant_rate(self, tenant: TenantSpec) -> float:
        """The tenant's offered rate in QPS."""
        return tenant.share * self.rate_qps

    # -- serialization (the ``--traffic trace.json`` CLI contract) ----- #
    def to_dict(self) -> dict:
        """JSON-able form (round-trips through :meth:`from_dict`)."""
        return {
            "rate_qps": self.rate_qps,
            "slo_p99_us": self.slo_p99_us,
            "recall_floor": self.recall_floor,
            "recall_k": self.recall_k,
            "corpus": {
                "n_vectors": self.n_vectors,
                "d": self.d,
                "m": self.m,
                "ksub": self.ksub,
            },
            "tenants": [
                {"name": t.name, "share": t.share, "priority": t.priority}
                for t in self.tenants
            ],
            "classes": [
                {"k": c.k, "share": c.share, "nprobe": c.nprobe}
                for c in self.classes
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrafficProfile":
        """Parse a traffic-profile dict (see :meth:`to_dict` for the shape)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"traffic profile must be an object, got {type(data)}")
        unknown = set(data) - {
            "rate_qps", "slo_p99_us", "recall_floor", "recall_k",
            "corpus", "tenants", "classes",
        }
        if unknown:
            raise ValueError(f"unknown traffic profile keys: {sorted(unknown)}")
        if "rate_qps" not in data or "slo_p99_us" not in data:
            raise ValueError("traffic profile needs rate_qps and slo_p99_us")
        kwargs: dict = {
            "rate_qps": float(data["rate_qps"]),
            "slo_p99_us": float(data["slo_p99_us"]),
        }
        if "recall_floor" in data:
            kwargs["recall_floor"] = float(data["recall_floor"])
        if "recall_k" in data:
            kwargs["recall_k"] = int(data["recall_k"])
        corpus = data.get("corpus", {})
        for key in ("n_vectors", "d", "m", "ksub"):
            if key in corpus:
                kwargs[key] = int(corpus[key])
        if "tenants" in data:
            kwargs["tenants"] = tuple(
                TenantSpec(
                    name=str(t["name"]),
                    share=float(t["share"]),
                    priority=bool(t.get("priority", False)),
                )
                for t in data["tenants"]
            )
        if "classes" in data:
            kwargs["classes"] = tuple(
                TrafficClass(
                    k=int(c["k"]),
                    share=float(c["share"]),
                    nprobe=None if c.get("nprobe") is None else int(c["nprobe"]),
                )
                for c in data["classes"]
            )
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrafficProfile":
        """Load a JSON traffic profile (the ``--traffic`` file)."""
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class HostConstraints:
    """What the deployment may spend: devices, workers, headroom.

    ``max_workers`` caps R×S (one worker process / device per grid slot);
    ``headroom`` is the required ratio of modeled capacity to offered rate
    (capacity exactly equal to demand leaves nothing for bursts);
    ``pe_grid`` bounds the accelerator CDSE inner loop (geometric by
    default — the exhaustive figure-grade grid would multiply the joint
    search by ~100x for frontier points the serving objective never picks).
    """

    device: FPGADevice = U55C
    max_utilization: float | None = None
    max_workers: int = 8
    headroom: float = 1.2
    pe_grid: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 24, 32)
    #: Per-vector HBM bytes beyond the m-byte PQ code (the i64 id the
    #: packed CSR layout stores beside it).
    bytes_per_vector_overhead: int = 8

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.headroom < 1.0:
            raise ValueError(f"headroom must be >= 1.0, got {self.headroom}")
        if not self.pe_grid or any(p < 1 for p in self.pe_grid):
            raise ValueError(f"pe_grid must be positive ints, got {self.pe_grid}")
        if self.bytes_per_vector_overhead < 0:
            raise ValueError(
                f"bytes_per_vector_overhead must be >= 0, "
                f"got {self.bytes_per_vector_overhead}"
            )


@dataclass(frozen=True)
class SearchSpace:
    """The serving-side grid (index options are supplied separately)."""

    replicas: tuple[int, ...] = (1, 2, 3, 4)
    shards: tuple[int, ...] = (1, 2, 4)
    windows_us: tuple[float, ...] = (500.0, 1000.0, 2000.0, 4000.0)
    max_batches: tuple[int, ...] = (8, 16, 32)
    qos_schemes: tuple[str, ...] = QOS_SCHEMES

    def __post_init__(self) -> None:
        for name, counts in (("replicas", self.replicas), ("shards", self.shards),
                             ("max_batches", self.max_batches)):
            if not counts or any(c < 1 for c in counts):
                raise ValueError(f"{name} must be positive ints, got {counts}")
        if not self.windows_us or any(w < 0 for w in self.windows_us):
            raise ValueError(f"windows_us must be >= 0, got {self.windows_us}")
        unknown = set(self.qos_schemes) - set(QOS_SCHEMES)
        if not self.qos_schemes or unknown:
            raise ValueError(
                f"qos_schemes must be drawn from {QOS_SCHEMES}, "
                f"got {self.qos_schemes}"
            )

    @classmethod
    def quick(cls) -> "SearchSpace":
        """The seconds-scale grid the CI smoke searches."""
        return cls(
            replicas=(1, 2),
            shards=(1, 2),
            windows_us=(1000.0, 4000.0),
            max_batches=(4, 8),
        )

    def size(self, n_index_options: int) -> int:
        """Joint-space cardinality for ``n_index_options`` index options."""
        return (
            n_index_options * len(self.replicas) * len(self.shards)
            * len(self.windows_us) * len(self.max_batches)
            * len(self.qos_schemes)
        )


@dataclass(frozen=True)
class IndexOption:
    """One searchable index configuration and its model inputs.

    ``nprobe`` is the minimum probe count reaching the traffic's recall
    floor on this index (``None`` = unreachable: the option enumerates but
    every point on it prunes with an explicit reason).  ``profile`` is the
    cell-size histogram the performance model scores — from a real trained
    index on the harness path, or :func:`synthetic_index_options` for
    dataset-free studies.
    """

    nlist: int
    use_opq: bool
    nprobe: int | None
    profile: IndexProfile

    def __post_init__(self) -> None:
        if self.profile.nlist != self.nlist:
            raise ValueError(
                f"profile nlist={self.profile.nlist} != option nlist={self.nlist}"
            )
        if self.profile.use_opq != self.use_opq:
            raise ValueError("profile OPQ flag does not match option")
        if self.nprobe is not None and not 1 <= self.nprobe <= self.nlist:
            raise ValueError(
                f"nprobe={self.nprobe} outside [1, nlist={self.nlist}]"
            )

    @property
    def key(self) -> str:
        """Human-readable index id (``IVF128`` / ``OPQ+IVF128``)."""
        return self.profile.key


def synthetic_index_options(
    nlists: Sequence[int],
    ntotal: int,
    recall_floor: float,
    *,
    use_opq: tuple[bool, ...] = (False,),
    skew: float = 1.0,
    seed: int = 0,
) -> list[IndexOption]:
    """Index options over seeded synthetic profiles (no training needed).

    nprobe comes from the probed-mass proxy
    (:func:`~repro.core.perf_model.min_nprobe_for_mass`); the harness path
    replaces this with real recall calibration before any winner ships.
    """
    options = []
    for i, nlist in enumerate(nlists):
        for opq in use_opq:
            profile = synthetic_profile(
                nlist, ntotal, use_opq=opq, skew=skew, seed=seed + 31 * i
            )
            options.append(
                IndexOption(
                    nlist=nlist,
                    use_opq=opq,
                    nprobe=min_nprobe_for_mass(profile, recall_floor),
                    profile=profile,
                )
            )
    return options


# --------------------------------------------------------------------- #
# Design points and their evaluation.


@dataclass(frozen=True)
class ServingDesign:
    """One joint design point: index × topology × window × QoS scheme."""

    nlist: int
    use_opq: bool
    nprobe: int | None
    replicas: int
    shards: int
    max_batch: int
    window_us: float
    qos_scheme: str

    @property
    def workers(self) -> int:
        """Worker processes (= devices) the topology occupies."""
        return self.replicas * self.shards

    def order_key(self) -> tuple:
        """A deterministic total order over design points."""
        return (
            self.nlist, self.use_opq, -1 if self.nprobe is None else self.nprobe,
            self.replicas, self.shards, self.max_batch, self.window_us,
            self.qos_scheme,
        )

    def to_dict(self) -> dict:
        """JSON-able form."""
        return {
            "nlist": self.nlist, "use_opq": self.use_opq, "nprobe": self.nprobe,
            "replicas": self.replicas, "shards": self.shards,
            "max_batch": self.max_batch, "window_us": self.window_us,
            "qos_scheme": self.qos_scheme, "workers": self.workers,
        }


@dataclass(frozen=True)
class DesignEval:
    """One design point's modeled outcome (or its pruning reasons)."""

    design: ServingDesign
    feasible: bool
    reasons: tuple[str, ...] = ()
    accel: AcceleratorConfig | None = field(default=None, compare=False)
    #: Per-device prediction on its shard slice (batch-1 stream).
    device_qps: float = 0.0
    fill_us: float = 0.0
    per_query_us: float = 0.0
    #: Wire time of one full-batch scatter/gather (LogGP over real frames).
    net_us: float = 0.0
    #: Saturation capacity of the whole topology — the ranking score.
    modeled_qps: float = 0.0
    modeled_p99_us: float = math.inf
    #: Offered rate / modeled capacity.
    utilization: float = 0.0

    @property
    def score(self) -> float:
        """Ranking score (modeled saturation throughput)."""
        return self.modeled_qps

    def sort_key(self) -> tuple:
        """Best-first deterministic ranking key."""
        return (
            -self.modeled_qps,
            self.design.workers,
            self.modeled_p99_us,
            self.design.order_key(),
        )

    def to_dict(self) -> dict:
        """JSON-able form (infinities flattened to None for JSON)."""
        p99 = None if math.isinf(self.modeled_p99_us) else self.modeled_p99_us
        return {
            "design": self.design.to_dict(),
            "feasible": self.feasible,
            "reasons": list(self.reasons),
            "device_qps": self.device_qps,
            "fill_us": self.fill_us,
            "per_query_us": self.per_query_us,
            "net_us": self.net_us,
            "modeled_qps": self.modeled_qps,
            "modeled_p99_us": p99,
            "utilization": self.utilization,
            "score": self.score,
        }


def _shard_profile(profile: IndexProfile, shards: int) -> IndexProfile:
    """The model's view of one shard: slice every cell like the data plane.

    Uses :func:`repro.ann.partition.shard_cell_sizes` — the exact CSR
    slicing arithmetic ``partition_index`` applies — so the modeled shard
    occupancy is the real shard occupancy, not an average.  Part 0 is
    representative: contiguous slicing spreads each cell to within one
    vector across parts.
    """
    if shards <= 1:
        return profile
    sizes = shard_cell_sizes(
        np.asarray(profile.cell_sizes, dtype=np.int64), 0, shards
    )
    return IndexProfile(
        nlist=profile.nlist, use_opq=profile.use_opq, cell_sizes=sizes
    )


def batch_wire_us(
    shards: int, max_batch: int, nprobe: int, d: int, k: int
) -> float:
    """LogGP wire time of one batch scatter/gather across ``shards``.

    Charges the *real* data-plane frames at full on-wire size: the
    preselect frame out (rotated queries + the (nq, nprobe) cell plan) and
    the batched partial-top-K frame back.  One shard pays two
    point-to-point messages; a scatter tree pays the binary-tree
    broadcast/reduce of §7.3.2 (merge cost included).
    """
    out = preselect_frame_bytes(max_batch, nprobe, d)
    back = batch_result_frame_bytes(max_batch, k)
    if shards <= 1:
        return point_to_point_us(out) + point_to_point_us(back)
    return binary_tree_broadcast_us(shards, out) + binary_tree_reduce_us(
        shards, back
    )


def modeled_serving(
    *,
    fill_us: float,
    per_query_us: float,
    replicas: int,
    shards: int,
    max_batch: int,
    window_us: float,
    rate_qps: float,
    nprobe: int,
    d: int,
    k: int,
    wire_scale: float = 1.0,
) -> tuple[float, float, float]:
    """``(capacity_qps, p99_us, utilization)`` of one serving design.

    Capacity is the saturation bound — R micro-batches of ``max_batch`` in
    flight, each costing device service (pipeline fill + per-query issue on
    the shard slice) plus the batch's scatter wire time.  The p99 estimate
    is deliberately coarse (the CI gate is on QPS, p99 is tracked): batch
    window + loaded batch time inflated by an M/D/1-style queueing factor
    at the offered utilization.  Shared by the search and the validation
    runner so modeled-vs-measured compares one formula, not two
    (``wire_scale`` lets the scaled-time validation run dilate the wire
    term by the same factor as the device terms).
    """

    def batch_us(batch: float) -> float:
        wire = batch_wire_us(shards, max(1, math.ceil(batch)), nprobe, d, k)
        return fill_us + per_query_us * batch + wire_scale * wire

    capacity = replicas * max_batch / batch_us(max_batch) * 1e6
    # Under offered load the window collects ~rate * window batch-mates.
    loaded_batch = min(float(max_batch), 1.0 + rate_qps * window_us * 1e-6)
    loaded_us = batch_us(loaded_batch)
    loaded_capacity = replicas * loaded_batch / loaded_us * 1e6
    rho = rate_qps / loaded_capacity if loaded_capacity > 0 else math.inf
    if rho >= 1.0:
        p99 = math.inf
    else:
        p99 = window_us + loaded_us * (1.0 + rho / (2.0 * (1.0 - rho)))
    utilization = rate_qps / capacity if capacity > 0 else math.inf
    return capacity, p99, utilization


def qos_guaranteed_shares(
    scheme: str, tenants: Sequence[TenantSpec]
) -> dict[str, float]:
    """Each tenant's guaranteed capacity share under a WFQ weight scheme."""
    if scheme not in QOS_SCHEMES:
        raise ValueError(f"unknown qos scheme {scheme!r} (know {QOS_SCHEMES})")
    if scheme == "uniform":
        return {t.name: 1.0 / len(tenants) for t in tenants}
    return {t.name: t.share for t in tenants}


def qos_weights(scheme: str, tenants: Sequence[TenantSpec]) -> dict[str, float]:
    """The WFQ weight per tenant realizing a scheme's guarantees."""
    if scheme not in QOS_SCHEMES:
        raise ValueError(f"unknown qos scheme {scheme!r} (know {QOS_SCHEMES})")
    if scheme == "uniform":
        return {t.name: 1.0 for t in tenants}
    return {t.name: t.share for t in tenants}


def evaluate(
    design: ServingDesign,
    traffic: TrafficProfile,
    constraints: HostConstraints,
    option: IndexOption,
    *,
    accel_cache: dict | None = None,
) -> DesignEval:
    """The full feasibility predicate + model for one design point.

    Every infeasibility is reported with a ``category: detail`` reason
    (category before the colon is what the report's prune table counts).
    This function *is* the search's pruning rule — ``search`` applies it
    to every enumerated point, so a brute-force cross-check over
    :func:`enumerate_joint_space` sees identical feasibility decisions.
    """
    if (design.nlist, design.use_opq) != (option.nlist, option.use_opq):
        raise ValueError(
            f"design index ({design.nlist}, {design.use_opq}) does not match "
            f"option {option.key}"
        )
    reasons: list[str] = []
    if design.nprobe is None:
        reasons.append(
            f"recall: floor R@{traffic.recall_k}="
            f"{traffic.recall_floor:.2f} unreachable on {option.key}"
        )
    if design.workers > constraints.max_workers:
        reasons.append(
            f"workers: R*S={design.workers} exceeds host budget "
            f"{constraints.max_workers}"
        )
    if design.window_us >= traffic.slo_p99_us:
        reasons.append(
            f"window: batch window {design.window_us:.0f}us >= p99 SLO "
            f"{traffic.slo_p99_us:.0f}us"
        )
    shard_vectors = math.ceil(option.profile.ntotal / design.shards)
    shard_bytes = shard_vectors * (
        traffic.m + constraints.bytes_per_vector_overhead
    )
    if not constraints.device.fits_dataset(shard_bytes):
        reasons.append(
            f"memory: shard slice ({shard_bytes / 2**30:.1f} GiB) exceeds "
            f"device HBM"
        )
    if reasons:
        return DesignEval(design=design, feasible=False, reasons=tuple(reasons))

    params = AlgorithmParams(
        d=traffic.d, nlist=design.nlist, nprobe=design.nprobe,
        k=traffic.max_k, use_opq=design.use_opq,
        m=traffic.m, ksub=traffic.ksub,
    )
    cache_key = (design.nlist, design.use_opq, design.nprobe, design.shards)
    found = (accel_cache or {}).get(cache_key)
    if found is None:
        found = best_design(
            params,
            constraints.device,
            _shard_profile(option.profile, design.shards),
            pe_grid=constraints.pe_grid,
            max_utilization=constraints.max_utilization,
        )
        if accel_cache is not None:
            accel_cache[cache_key] = found
    if found is None:
        return DesignEval(
            design=design,
            feasible=False,
            reasons=(
                "device: no accelerator design fits the resource budget",
            ),
        )
    accel, pred = found
    fill_us = pred.latency_us
    per_query_us = 1e6 / pred.qps
    capacity, p99, utilization = modeled_serving(
        fill_us=fill_us,
        per_query_us=per_query_us,
        replicas=design.replicas,
        shards=design.shards,
        max_batch=design.max_batch,
        window_us=design.window_us,
        rate_qps=traffic.rate_qps,
        nprobe=design.nprobe,
        d=traffic.d,
        k=traffic.max_k,
    )
    if capacity < constraints.headroom * traffic.rate_qps:
        reasons.append(
            f"capacity: modeled {capacity:.0f} QPS under "
            f"{constraints.headroom:.1f}x offered rate "
            f"({traffic.rate_qps:.0f} QPS)"
        )
    if p99 > traffic.slo_p99_us:
        reasons.append(
            f"latency: modeled p99 {p99:.0f}us exceeds SLO "
            f"{traffic.slo_p99_us:.0f}us"
        )
    guarantees = qos_guaranteed_shares(design.qos_scheme, traffic.tenants)
    for tenant in traffic.tenants:
        guaranteed = guarantees[tenant.name] * capacity
        offered = traffic.tenant_rate(tenant)
        if guaranteed < offered:
            reasons.append(
                f"qos: scheme {design.qos_scheme!r} guarantees tenant "
                f"{tenant.name!r} only {guaranteed:.0f} QPS of its "
                f"{offered:.0f} QPS offered"
            )
    return DesignEval(
        design=design,
        feasible=not reasons,
        reasons=tuple(reasons),
        accel=accel,
        device_qps=pred.qps,
        fill_us=fill_us,
        per_query_us=per_query_us,
        net_us=batch_wire_us(
            design.shards, design.max_batch, design.nprobe,
            traffic.d, traffic.max_k,
        ),
        modeled_qps=capacity,
        modeled_p99_us=p99,
        utilization=utilization,
    )


def enumerate_joint_space(
    space: SearchSpace, index_options: Iterable[IndexOption]
) -> Iterator[tuple[ServingDesign, IndexOption]]:
    """Yield every joint design point with its index option, in a fixed order.

    Recall-unreachable options (``nprobe=None``) are yielded too — the
    evaluator prunes them with an explicit reason, so the report can say
    *why* an index left the frontier rather than silently shrinking the
    enumerated count.
    """
    for option in index_options:
        for replicas in space.replicas:
            for shards in space.shards:
                for window_us in space.windows_us:
                    for max_batch in space.max_batches:
                        for scheme in space.qos_schemes:
                            yield (
                                ServingDesign(
                                    nlist=option.nlist,
                                    use_opq=option.use_opq,
                                    nprobe=option.nprobe,
                                    replicas=replicas,
                                    shards=shards,
                                    max_batch=max_batch,
                                    window_us=window_us,
                                    qos_scheme=scheme,
                                ),
                                option,
                            )


# --------------------------------------------------------------------- #
# The search and its report.


@dataclass(frozen=True)
class CodesignReport:
    """Ranked outcome of one joint-space search."""

    traffic: TrafficProfile
    n_enumerated: int
    n_feasible: int
    ranked: tuple[DesignEval, ...]
    prune_counts: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def empty(self) -> bool:
        """True when no design point survived pruning (explicit frontier)."""
        return not self.ranked

    @property
    def winner(self) -> DesignEval | None:
        """The top-ranked feasible design, or None on an empty frontier."""
        return self.ranked[0] if self.ranked else None

    def to_dict(self, top_n: int = 20) -> dict:
        """JSON-able form, ranked list capped at ``top_n`` entries."""
        return {
            "traffic": self.traffic.to_dict(),
            "n_enumerated": self.n_enumerated,
            "n_feasible": self.n_feasible,
            "n_ranked_reported": min(len(self.ranked), top_n),
            "prune_counts": dict(sorted(self.prune_counts.items())),
            "ranked": [ev.to_dict() for ev in self.ranked[:top_n]],
        }


def search(
    traffic: TrafficProfile,
    constraints: HostConstraints,
    space: SearchSpace,
    index_options: Sequence[IndexOption],
) -> CodesignReport:
    """Enumerate → prune → rank the joint serving design space.

    Deterministic by construction: enumeration order is fixed, every point
    goes through :func:`evaluate` (with a shared accelerator-design cache,
    which only memoizes — it never changes a decision), and the ranking
    key is a total order.  An infeasible space returns an explicit empty
    frontier (``report.empty``), never raises.
    """
    if not index_options:
        raise ValueError("search needs at least one index option")
    keys = [(o.nlist, o.use_opq) for o in index_options]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate index options: {keys}")
    accel_cache: dict = {}
    feasible: list[DesignEval] = []
    prune_counts: dict[str, int] = {}
    n_enumerated = 0
    for design, option in enumerate_joint_space(space, index_options):
        n_enumerated += 1
        ev = evaluate(
            design, traffic, constraints, option, accel_cache=accel_cache
        )
        if ev.feasible:
            feasible.append(ev)
        else:
            for reason in ev.reasons:
                category = reason.split(":", 1)[0]
                prune_counts[category] = prune_counts.get(category, 0) + 1
    feasible.sort(key=DesignEval.sort_key)
    return CodesignReport(
        traffic=traffic,
        n_enumerated=n_enumerated,
        n_feasible=len(feasible),
        ranked=tuple(feasible),
        prune_counts=prune_counts,
    )
