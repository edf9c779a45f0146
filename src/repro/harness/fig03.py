"""Figure 3: IVF-PQ bottleneck analysis on CPU and GPU.

The paper profiles Faiss on a Xeon and a V100, breaking query time into the
six search stages while sweeping one parameter per column:

- column 1: sweep nprobe (fixed index)   → PQDist+SelK share grows;
- column 2: sweep nlist (nprobe=16)      → IVFDist share grows, CPU ≫ GPU;
- column 3: sweep K (fixed index)        → SelK share grows on GPU only.

This runner evaluates the calibrated CPU/GPU stage cost models at the
paper's full scale (a 100 M-vector profile), which is what the figure's
bars are made of.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ann.ivf import STAGE_NAMES
from repro.baselines.cpu import CPUBaseline
from repro.baselines.gpu import GPUBaseline
from repro.core.config import AlgorithmParams
from repro.harness.formatting import format_table

__all__ = ["Fig03Result", "run"]

#: Paper-scale database size (100 M vectors).
NTOTAL = 100_000_000


@dataclass
class Fig03Result:
    """fractions[(hw, sweep, value)] = {stage: share}."""

    fractions: dict[tuple[str, str, int], dict[str, float]]

    def share(self, hw: str, sweep: str, value: int, stages: tuple[str, ...]) -> float:
        return sum(self.fractions[(hw, sweep, value)][s] for s in stages)

    def format(self) -> str:
        headers = ["hw", "sweep", "value"] + list(STAGE_NAMES)
        rows = [
            [hw, sweep, val] + [f"{frac[s] * 100:.1f}%" for s in STAGE_NAMES]
            for (hw, sweep, val), frac in sorted(self.fractions.items())
        ]
        return format_table(headers, rows, title="Figure 3: stage time breakdown")


def _codes(nlist: int, nprobe: int) -> float:
    return NTOTAL * nprobe / nlist


def run(
    nprobes: tuple[int, ...] = (1, 4, 16, 64, 128),
    nlists: tuple[int, ...] = (2**10, 2**12, 2**14, 2**16, 2**18),
    ks: tuple[int, ...] = (1, 10, 100),
) -> Fig03Result:
    cpu = CPUBaseline()
    gpu = GPUBaseline()
    #: Fixed indexes per hardware, as in §3.1 ("the indexes that achieve the
    #: highest QPS of R@100=95% on SIFT100M on CPU and GPU respectively") —
    #: the GPU's abundant flop/s favours a larger nlist than the CPU's.
    base_nlist = {"CPU": 2**13, "GPU": 2**15}
    out: dict[tuple[str, str, int], dict[str, float]] = {}
    for hw, model in (("CPU", cpu), ("GPU", gpu)):
        nl = base_nlist[hw]
        for nprobe in nprobes:
            p = AlgorithmParams(d=128, nlist=nl, nprobe=nprobe, k=100)
            out[(hw, "nprobe", nprobe)] = model.stage_fractions(p, _codes(nl, nprobe))
        for nlist in nlists:
            p = AlgorithmParams(d=128, nlist=nlist, nprobe=16, k=100)
            out[(hw, "nlist", nlist)] = model.stage_fractions(p, _codes(nlist, 16))
        for k in ks:
            p = AlgorithmParams(d=128, nlist=nl, nprobe=16, k=k)
            out[(hw, "K", k)] = model.stage_fractions(p, _codes(nl, 16))
    return Fig03Result(fractions=out)
