"""Compiled kernel tier: fused Stage PQDist + Stage SelK, and k-means++
seeding, in C.

:func:`scan_select` runs ``_kernel.c`` over one block of queries.  For each
probed (query, cell) pair it adds the index's term table and the query's
terms into one scratch ADC table (:meth:`repro.ann.ivf.IVFPQIndex.
pair_tables`, entry by entry), sums each candidate code's distance in
numpy's exact float32 order and keeps one bounded (distance, id) max-heap
per query, so its answers equal the numpy stages of
:class:`repro.ann.ivf.IVFPQIndex` bit for bit.  The numpy
stages stay as the reference (the C-model-versus-design check of an HLS
flow) and as the path used when no compiler is available.

:func:`seed_step` is the inner pass of one k-means++ seeding step
(:func:`repro.ann.kmeans.kmeans_pp_init`): from the BLAS product of the
points and the candidate seeds it writes the clamped squared distances
and each candidate's potential in one sweep, equal bit for bit to the
numpy expressions that stay in ``kmeans.py`` as its reference and
fallback.  Index training is almost all seeding, so this roughly halves
``IVFPQIndex.train`` without changing one trained bit.

The shared object is built on first use with the system ``cc`` into
``$XDG_CACHE_HOME/repro-kernel`` (else ``~/.cache/repro-kernel``, else a
temp directory), under a name hashed from the source and the flags, so a
stale build cannot be loaded.  A directory is used only when it is a real
directory owned by this user that no one else can write: the name of the
shared object is predictable, so a shared directory would let another
local user plant a library.  A file lock and a rename make concurrent
first loads from several processes safe.  It is loaded with
``ctypes.CDLL``, which releases the interpreter lock for the call.

``ACTIVE`` names the path in use: ``"c"`` once the library loaded, else
``"numpy"``.  Nothing selects it but whether the build succeeded.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # not POSIX: no build lock, so the numpy stages run
    fcntl = None

__all__ = ["MAX_M", "library", "out_of_range_code", "scan_select", "seed_step"]

log = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_kernel.c")
_COMPILER = "cc"
#: No -ffast-math or -march=native: either would let the compiler reorder
#: or contract the float32 sums the bit-exact contract depends on.
_FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 120

#: Largest m the kernel takes.  Up to numpy's pairwise block (128) a row
#: sum is the flat eight-accumulator order ``_kernel.c`` writes out; above
#: it numpy recurses.
MAX_M = 128

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_ARGTYPES = [
    _P, _I64,  # terms, term_stride
    _P, _P,  # qterms, dis0
    _P, _I64, _I64,  # probed, nq, nprobe
    _P, _P, _P, _P,  # codes, ids, starts, ends
    ctypes.c_int, ctypes.c_int, _I64,  # m, ksub, k
    _P,  # lut scratch
    _P, _P,  # out_ids, out_dists
]
_SEED_ARGTYPES = [_P, _P, _P, _P, _I64, _I64, _P]  # g, x_sq, y_sq, closest, n, t, pot


def out_of_range_code(cell: int, ksub: int) -> ValueError:
    """The one error both scan paths raise for a corrupt code byte."""
    return ValueError(f"cell {cell} holds a PQ code >= ksub={ksub}")


def _private_dir(path: Path) -> bool:
    """``path`` is (or is now created as) a directory, not a symlink, owned
    by this user, writable by no one else, and writable by this process."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & 0o022
        and os.access(path, os.W_OK | os.X_OK)
    )


def _cache_dir() -> Path | None:
    """The first private ``repro-kernel`` directory under ``$XDG_CACHE_HOME``
    (else ``~/.cache``) and under the temp directory."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    tmp = Path(tempfile.gettempdir()) / f"repro-kernel-{os.getuid()}"
    for path in (base / "repro-kernel", tmp):
        if _private_dir(path):
            return path
    return None


def _build(directory: Path, source: bytes) -> Path:
    """The shared object for ``source`` in ``directory``, compiling it once.

    The lock serializes processes that miss the cache together; the loser
    finds the winner's file on its second look.  Compiling to a private
    name and renaming means no process ever opens a half-written file.
    """
    key = hashlib.sha256(source + "\0".join(_FLAGS).encode()).hexdigest()[:16]
    target = directory / f"kernel-{key}.so"
    if target.exists():
        return target
    with open(directory / f"kernel-{key}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not target.exists():
            tmp = directory / f".kernel-{key}.{os.getpid()}.so"
            try:
                subprocess.run(
                    [_COMPILER, *_FLAGS, "-o", str(tmp), "-x", "c", "-"],
                    input=source, capture_output=True, check=True,
                    timeout=_COMPILE_TIMEOUT_S,
                )
                os.replace(tmp, target)
            finally:
                tmp.unlink(missing_ok=True)
    return target


@functools.cache
def library() -> ctypes.CDLL | None:
    """The compiled kernel, built on first use; None when it cannot be.

    A failure logs one warning and leaves every search and every k-means
    fit on the numpy references, which give the same bits more slowly.
    """
    if fcntl is None:
        log.warning("no fcntl on this platform; using the numpy reference")
        return None
    directory = _cache_dir()
    if directory is None:
        log.warning("no private writable cache directory; using the numpy reference")
        return None
    try:
        lib = ctypes.CDLL(str(_build(directory, _SOURCE.read_bytes())))
    except subprocess.CalledProcessError as exc:
        log.warning(
            "kernel compile failed; using the numpy reference: %s", exc.stderr.decode().strip()
        )
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning("kernel unavailable; using the numpy reference: %s", exc)
        return None
    lib.scan_select.argtypes = _ARGTYPES
    lib.scan_select.restype = _I64
    lib.seed_step.argtypes = _SEED_ARGTYPES
    lib.seed_step.restype = None
    return lib


def __getattr__(name: str):
    if name == "ACTIVE":
        return "c" if library() is not None else "numpy"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def scan_select(terms, qterms, dis0, probed, lists, k: int):
    """Fused PQDist + SelK over one block; None when the kernel is absent.

    ``terms`` is the index's ``(nlist, m, ksub)`` float32 term table (a
    broadcast cell axis is passed by stride, not copied), ``qterms`` and
    ``dis0`` the block's ``(nq, m, ksub)`` and ``(nq, nprobe)`` query
    terms, ``probed`` its ``(nq, nprobe)`` cells with ``-1`` for a pruned
    slot, ``lists`` the index's :class:`~repro.ann.invlists.PackedInvLists`
    (memmaps are read in place).  Returns ``(ids (nq, k), dists (nq, k),
    codes_scanned)``.  Raises ``ValueError`` for ``k <= 0`` on either path.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    lib = library()
    if lib is None:
        return None
    qterms = np.ascontiguousarray(qterms, dtype=np.float32)
    nq, m, ksub = qterms.shape
    if m > MAX_M:
        raise ValueError(f"the compiled scan takes m <= {MAX_M}, got m={m}")
    if (
        terms.dtype != np.float32
        or terms.shape != (lists.nlist, m, ksub)
        or terms.strides[1:] != (ksub * 4, 4)
    ):
        raise ValueError("terms must be float32 (nlist, m, ksub) with contiguous tables")
    probed = np.ascontiguousarray(probed, dtype=np.int64)
    nprobe = probed.shape[1]
    dis0 = np.ascontiguousarray(dis0, dtype=np.float32)
    if probed.shape[0] != nq or dis0.shape != probed.shape:
        raise ValueError(
            f"probed {probed.shape} and dis0 {dis0.shape} must both be ({nq}, nprobe)"
        )
    if probed.size and probed.max() >= lists.nlist:
        raise ValueError(f"probed cells must lie in [-1, nlist={lists.nlist})")
    # No copy for the packed layouts (in memory or memmap'd): both are
    # already C-contiguous uint8 / int64.
    codes = np.ascontiguousarray(lists.codes, dtype=np.uint8)
    ids = np.ascontiguousarray(lists.ids, dtype=np.int64)
    if codes.shape[1:] != (m,):
        raise ValueError(f"codes have {codes.shape[1:]} columns, tables m={m}")
    starts = np.ascontiguousarray(lists.starts, dtype=np.int64)
    ends = np.ascontiguousarray(lists.ends, dtype=np.int64)
    lut = np.empty(m * ksub, dtype=np.float32)
    out_ids = np.empty((nq, k), dtype=np.int64)
    out_dists = np.empty((nq, k), dtype=np.float32)
    scanned = lib.scan_select(
        terms.ctypes.data, terms.strides[0] // 4,
        qterms.ctypes.data, dis0.ctypes.data,
        probed.ctypes.data, nq, nprobe,
        codes.ctypes.data, ids.ctypes.data, starts.ctypes.data, ends.ctypes.data,
        m, ksub, k,
        lut.ctypes.data,
        out_ids.ctypes.data, out_dists.ctypes.data,
    )
    if scanned < 0:
        raise out_of_range_code(-scanned - 1, ksub)
    return out_ids, out_dists, int(scanned)


def seed_step(g, x_sq, y_sq, closest):
    """One k-means++ step's distances and potentials; None when the kernel
    is absent.

    ``g`` is the ``(n, t)`` float32 C-contiguous product ``x @ y.T`` of the
    points and ``t >= 2`` candidate seeds; it is overwritten by the squared
    distances ``max((x_sq + y_sq) - 2 g, 0)``.  ``x_sq`` ``(n,)`` and ``y_sq``
    ``(t,)`` are the squared norms and ``closest`` ``(n,)`` each point's
    squared distance to its nearest chosen seed, all float32.  Returns the
    ``(t,)`` potentials ``np.minimum(closest[:, None], g).sum(axis=0)``.
    """
    lib = library()
    if lib is None:
        return None
    n, t = g.shape
    if t < 2:
        # A one-column axis-0 sum is a contiguous reduce, which numpy sums
        # pairwise; the kernel writes the column-wise order only.
        raise ValueError(f"the compiled seeding step takes t >= 2 candidates, got {t}")
    if g.dtype != np.float32 or not g.flags.c_contiguous or not g.flags.writeable:
        raise ValueError("g must be a writeable C-contiguous float32 array")
    x_sq = np.ascontiguousarray(x_sq, dtype=np.float32)
    y_sq = np.ascontiguousarray(y_sq, dtype=np.float32)
    closest = np.ascontiguousarray(closest, dtype=np.float32)
    if x_sq.shape != (n,) or closest.shape != (n,) or y_sq.shape != (t,):
        raise ValueError(
            f"x_sq {x_sq.shape}, closest {closest.shape} and y_sq {y_sq.shape} "
            f"must be ({n},), ({n},) and ({t},)"
        )
    pot = np.empty(t, dtype=np.float32)
    lib.seed_step(
        g.ctypes.data, x_sq.ctypes.data, y_sq.ctypes.data, closest.ctypes.data,
        n, t, pot.ctypes.data,
    )
    return pot
