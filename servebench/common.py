"""Shared pieces of the serving-stack benchmark: corpus, statistics, /proc.

Every workload draws its inputs from :func:`make_corpus`, which is a pure
function of the size preset (the corpus and the trained index are pinned;
``--seed`` only orders queries and draws mixed_update's operations), so the
benchmark's generator process and the wire launcher it starts derive
bit-identical arrays without shipping them between processes.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for saved indexes and span files; listed in .gitignore.
WORK_ROOT = ROOT / ".servebench"


@dataclass(frozen=True)
class Geometry:
    """The pinned corpus and index geometry of one size preset."""

    n_base: int
    n_train: int
    n_query: int
    n_insert: int
    d: int
    nlist: int
    m: int
    ksub: int
    k: int
    nprobe: int
    #: Queries with brute-force ground truth (recall is measured on them).
    n_gt: int
    #: offline_batch: fixed batches of ``batch`` queries.
    batch: int
    n_batches: int
    #: mixed_update: recall@k over the final live set must reach this.
    recall_floor: float


#: Seed of the corpus and of index training, fixed so that every run
#: searches the same data with the same quantizers.
CORPUS_SEED = 0

#: The pinned geometry every timed run uses.
FULL = Geometry(
    n_base=50_000, n_train=20_000, n_query=8192, n_insert=4096, d=64,
    nlist=256, m=16, ksub=64, k=10, nprobe=16, n_gt=2048,
    batch=256, n_batches=32, recall_floor=0.6,
)
#: Tiny preset for the smoke test: same code paths, seconds not minutes.
TINY = Geometry(
    n_base=4000, n_train=2000, n_query=512, n_insert=512, d=16,
    nlist=32, m=4, ksub=16, k=10, nprobe=4, n_gt=128,
    batch=32, n_batches=4, recall_floor=0.3,
)


@dataclass(frozen=True)
class Corpus:
    geo: Geometry
    base: np.ndarray  # (n_base, d) float32
    queries: np.ndarray  # (n_query, d) held-out queries
    inserts: np.ndarray  # (n_insert, d) fresh vectors for mixed_update
    gt: np.ndarray  # (n_gt, k) int64 exact neighbours of queries[:n_gt]

    @property
    def train(self) -> np.ndarray:
        return self.base[: self.geo.n_train]


def make_corpus(geo: Geometry, *, with_gt: bool = True) -> Corpus:
    """Base, query and insert vectors from one clustered mixture."""
    from repro.ann import brute_force_topk
    from repro.data.synthetic import make_clustered

    total = geo.n_base + geo.n_query + geo.n_insert
    x = make_clustered(total, geo.d, seed=CORPUS_SEED)
    base = x[: geo.n_base]
    queries = x[geo.n_base : geo.n_base + geo.n_query]
    inserts = x[geo.n_base + geo.n_query :]
    gt = (
        brute_force_topk(queries[: geo.n_gt], base, geo.k)[0].astype(np.int64)
        if with_gt
        else np.empty((0, geo.k), dtype=np.int64)
    )
    return Corpus(geo, base, queries, inserts, gt)


def new_index(geo: Geometry):
    from repro.ann import IVFPQIndex

    return IVFPQIndex(d=geo.d, nlist=geo.nlist, m=geo.m, ksub=geo.ksub, seed=CORPUS_SEED)


def pct(values, q: float) -> float:
    """The q-th percentile of ``values`` (0.0 for an empty sample)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


# --------------------------------------------------------------------- #
# /proc readers: CPU and proportional memory of the processes under test.
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of every thread of ``pid``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` in MiB (shared pages split)."""
    for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line in /proc/{pid}/smaps_rollup")


# --------------------------------------------------------------------- #
#: One of these runs per CPU while the benchmark does.  At SCHED_IDLE it
#: only takes time no other process wants, and it keeps its CPU from
#: halting: on a virtual machine a wake-up on a halted CPU waits for the
#: hypervisor to run that CPU again, a delay set by the host's other
#: tenants.  It exits when its parent does, and never spins at normal
#: priority (a failing sched_setscheduler ends it).
_SPINNER = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(20000):
        pass
"""


@contextmanager
def cpus_kept_awake():
    """Run one idle-priority spinner per CPU for the duration of the block."""
    procs = [subprocess.Popen([sys.executable, "-c", _SPINNER])
             for _ in os.sched_getaffinity(0)]
    try:
        yield len(procs)
    finally:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()


def provenance(seed: int) -> dict:
    """Host and source facts recorded with every run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
    }


def _commit() -> str:
    """The git commit when there is one, else a digest of ``src/``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def require_repro() -> None:
    """Make ``repro`` importable from the checkout, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
