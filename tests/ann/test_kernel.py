"""Differential suite for the fused Stage PQDist + Stage SelK scan.

``IVFPQIndex.search_preselected`` is the production scan every search path
goes through: per-query terms (``stage_query_terms``) plus the index's
precomputed term table, added into each (query, cell) pair table inside
the scan.  Each generated case checks its answers against two references
composed here from the numpy stages, both scanning the materialised pair
tables of ``stage_build_luts_batch``:

- the batched reference, ``stage_pq_dist_batch`` + ``stage_select_k_batch``;
- the per-query stages, ``stage_pq_dist`` + ``stage_select_k``, one query
  at a time with pruned (``-1``) slots dropped.

Ids and float32 distance *bits* must agree, tie order included.  Cases are
built directly (random quantizers, no training) so geometry can be drawn
freely: empty and ragged cells, k above the candidate count, forced ties,
``nprobe = nlist``, non-contiguous ids, pruned slots, shard views and an
mmap'd index directory.  Where a C compiler exists the production scan is
the compiled kernel of :mod:`repro.ann.kernel`, so these cases are its
bit-exactness contract.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import kernel
from repro.ann.distances import l2_sq
from repro.ann.invlists import PackedInvLists
from repro.ann.io import load_index_dir, save_index_dir
from repro.ann.ivf import IVFPQIndex
from repro.ann.partition import partition_index
from repro.ann.pq import ProductQuantizer

DSUB = 2


@dataclass(frozen=True)
class Case:
    m: int
    ksub: int
    sizes: tuple[int, ...]
    nq: int
    nprobe: int
    k: int
    ties: bool
    residual: bool
    prune: bool
    seed: int

    @property
    def nlist(self) -> int:
        return len(self.sizes)


@st.composite
def cases(draw, max_cell=12, max_nq=4):
    nlist = draw(st.integers(1, 6))
    full_probe = draw(st.booleans())
    return Case(
        m=draw(st.sampled_from((4, 8, 12, 16))),
        ksub=draw(st.sampled_from((16, 64, 256))),
        sizes=tuple(draw(st.lists(st.integers(0, max_cell), min_size=nlist, max_size=nlist))),
        nq=draw(st.integers(1, max_nq)),
        nprobe=nlist if full_probe else draw(st.integers(1, nlist)),
        k=draw(st.integers(1, 24)),
        ties=draw(st.booleans()),
        residual=draw(st.booleans()),
        prune=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def build(case: Case) -> tuple[IVFPQIndex, np.ndarray, np.ndarray]:
    """(index, rotated queries, probed plan) for one case.

    With ``ties`` every coordinate is a small integer, so LUT entries and
    their sums are exact small integers and many candidates share one
    distance; codes are drawn from three values so whole codes repeat.
    """
    rng = np.random.default_rng(case.seed)
    m, ksub, nlist = case.m, case.ksub, case.nlist
    d = m * DSUB

    def coords(shape):
        if case.ties:
            return rng.integers(-2, 3, shape).astype(np.float32)
        return rng.standard_normal(shape).astype(np.float32)

    index = IVFPQIndex(d=d, nlist=nlist, m=m, ksub=ksub, by_residual=case.residual)
    index.centroids = coords((nlist, d))
    index.pq = ProductQuantizer(d=d, m=m, ksub=ksub)
    index.pq.codebooks = coords((m, ksub, DSUB))
    n = sum(case.sizes)
    code_hi = min(ksub, 3) if case.ties else ksub
    codes = rng.integers(0, code_hi, (n, m)).astype(np.uint8)
    ids = rng.choice(10**9, size=n, replace=False).astype(np.int64)
    offsets = np.zeros(nlist + 1, dtype=np.int64)
    np.cumsum(case.sizes, out=offsets[1:])
    index._invlists = PackedInvLists.from_arrays(codes, ids, offsets)

    queries_t = coords((case.nq, d))
    probed = np.stack([rng.permutation(nlist)[: case.nprobe] for _ in range(case.nq)])
    if case.prune:
        probed[rng.random(probed.shape) < 0.3] = -1
    return index, queries_t, probed.astype(np.int64)


def batched_reference(index, luts, probed, k):
    dists, ids, bounds = index.stage_pq_dist_batch(luts, probed)
    out_ids, out_dists = index.stage_select_k_batch(dists, ids, bounds, k)
    return out_ids, out_dists, int(bounds[-1])


def per_query_reference(index, luts, probed, k):
    out_ids = np.empty((len(probed), k), dtype=np.int64)
    out_dists = np.empty((len(probed), k), dtype=np.float32)
    scanned = 0
    for q, cells in enumerate(probed):
        keep = cells >= 0
        dists, ids = index.stage_pq_dist(luts[q][keep], cells[keep])
        out_ids[q], out_dists[q] = index.stage_select_k(dists, ids, k)
        scanned += len(ids)
    return out_ids, out_dists, scanned


def assert_bit_equal(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1].view(np.uint32), ref[1].view(np.uint32))
    assert got[2] == ref[2]


def check_against_references(index, queries_t, probed, k):
    """Production scan == batched reference == per-query stages; returns it."""
    got = index.search_preselected(queries_t, probed, k)
    luts = index.stage_build_luts_batch(queries_t, probed)
    assert_bit_equal(got, batched_reference(index, luts, probed, k))
    assert_bit_equal(got, per_query_reference(index, luts, probed, k))
    return got


class TestDifferential:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_scan_equals_numpy_references(self, case):
        index, queries_t, probed = build(case)
        _, _, scanned = check_against_references(index, queries_t, probed, case.k)
        sizes = np.asarray(case.sizes)
        assert scanned == sum(int(sizes[c]) for c in probed.ravel() if c >= 0)

    @given(cases(), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_shard_views(self, case, n_parts):
        """Zero-copy shards (``PackedInvLists.shard``) scan their slice only."""
        index, queries_t, probed = build(case)
        for shard in partition_index(index, n_parts):
            assert shard.invlists.codes is index.invlists.codes
            check_against_references(shard, queries_t, probed, case.k)

    @given(cases())
    @settings(max_examples=10, deadline=None)
    def test_mmap_index_dir(self, case):
        """Read-only memmaps from ``load_index_dir`` answer like the in-memory index."""
        index, queries_t, probed = build(case)
        want = index.search_preselected(queries_t, probed, case.k)
        with tempfile.TemporaryDirectory() as tmp:
            save_index_dir(index, tmp)
            loaded = load_index_dir(tmp, mmap=True)
            assert isinstance(loaded.invlists.codes, np.memmap)
            got = check_against_references(loaded, queries_t, probed, case.k)
            del loaded
        assert_bit_equal(got, want)


def assert_rows_independent(index, queries_t, probed, k):
    """Each row of one batched scan equals that query scanned alone."""
    batch = index.search_preselected(queries_t, probed, k)
    for q in range(len(probed)):
        ids, dists, _ = index.search_preselected(queries_t[q : q + 1], probed[q : q + 1], k)
        np.testing.assert_array_equal(ids[0], batch[0][q])
        np.testing.assert_array_equal(dists[0].view(np.uint32), batch[1][q].view(np.uint32))


class TestBatchIndependence:
    """A query's ids and distance bits do not depend on its batch-mates."""

    @given(cases(max_nq=9))
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_single_queries(self, case):
        index, queries_t, probed = build(case)
        assert_rows_independent(index, queries_t, probed, case.k)

    @given(cases(max_nq=6), st.integers(2, 3))
    @settings(max_examples=10, deadline=None)
    def test_shard_views(self, case, n_parts):
        index, queries_t, probed = build(case)
        for shard in partition_index(index, n_parts):
            assert_rows_independent(shard, queries_t, probed, case.k)

    @given(cases(max_nq=6))
    @settings(max_examples=5, deadline=None)
    def test_mmap_index_dir(self, case):
        index, queries_t, probed = build(case)
        with tempfile.TemporaryDirectory() as tmp:
            save_index_dir(index, tmp)
            loaded = load_index_dir(tmp, mmap=True)
            assert_rows_independent(loaded, queries_t, probed, case.k)
            del loaded


class TestDistancesAreL2:
    """Scan distances are the squared L2 distance to the decoded vector, so a
    dropped or sign-flipped term of the distance fails, whatever the order
    of float32 additions."""

    @given(cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_reconstruction(self, case):
        index, queries_t, probed = build(case)
        ids, dists, _ = index.search_preselected(queries_t, probed, case.k)
        for q in range(len(probed)):
            found = ids[q] >= 0
            if not found.any():
                continue
            recon = index.reconstruct(ids[q][found]).astype(np.float64)
            want = l2_sq(queries_t[q : q + 1].astype(np.float64), recon)[0]
            np.testing.assert_allclose(dists[q][found], want, rtol=1e-3, atol=1e-4)


class TestTermTable:
    @given(cases())
    @settings(max_examples=10, deadline=None)
    def test_rebuilt_bit_for_bit_after_load(self, case):
        """``load_index_dir`` recomputes the table; the format is unchanged."""
        index, _, _ = build(case)
        want = index.term_table()
        with tempfile.TemporaryDirectory() as tmp:
            save_index_dir(index, tmp)
            assert sorted(os.listdir(tmp)) == [
                "codes.npy", "ids.npy", "meta.npz", "offsets.npy"
            ]
            got = load_index_dir(tmp, mmap=True).term_table()
        assert got is not want
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_rebuilt_when_quantizers_are_replaced(self):
        index, _, _ = build(CORRUPTIBLE)
        first = index.term_table()
        assert index.term_table() is first
        index.centroids = index.centroids + 1.0
        second = index.term_table()
        assert second is not first
        assert not np.array_equal(second, first)


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


class TestKernelTier:
    @needs_cc
    def test_compiled_path_is_in_use(self):
        """With a compiler present the suite above exercises C, not numpy twice."""
        assert kernel.ACTIVE == "c"

    @pytest.mark.parametrize("missing", ["compiler", "fcntl"])
    def test_missing_compiler_falls_back_to_reference(
        self, monkeypatch, tmp_path, caplog, missing
    ):
        index, queries_t, probed = build(CORRUPTIBLE)
        want = index.search_preselected(queries_t, probed, CORRUPTIBLE.k)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        if missing == "compiler":
            monkeypatch.setattr(kernel, "_COMPILER", str(tmp_path / "no-such-cc"))
        else:  # a platform without fcntl (not POSIX)
            monkeypatch.setattr(kernel, "fcntl", None)
        kernel.library.cache_clear()
        try:
            with caplog.at_level(logging.WARNING, logger=kernel.__name__):
                assert kernel.ACTIVE == "numpy"
                got = index.search_preselected(queries_t, probed, CORRUPTIBLE.k)
        finally:
            kernel.library.cache_clear()
        assert len(caplog.records) == 1
        assert not list(tmp_path.rglob("*.so"))
        assert_bit_equal(got, want)

    @needs_cc
    def test_rejects_m_above_numpy_flat_sum(self):
        m = kernel.MAX_M + 8
        tables = np.zeros((1, m, 16), dtype=np.float32)
        one = np.zeros((1, 1), dtype=np.int64)
        lists = PackedInvLists.empty(1, m)
        with pytest.raises(ValueError, match="m <= 128"):
            kernel.scan_select(tables, tables, one.astype(np.float32), one, lists, 1)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_rejects_non_positive_k(self, monkeypatch, compiled):
        """k = 0 would make the C heap write into a zero-size row."""
        if compiled and kernel.library() is None:
            pytest.skip("no C compiler")
        if not compiled:
            monkeypatch.setattr(kernel, "library", lambda: None)
        index, queries_t, probed = build(CORRUPTIBLE)
        with pytest.raises(ValueError, match="k must be positive"):
            index.search_preselected(queries_t, probed, 0)

    @pytest.mark.parametrize("plant", ["shared", "symlink"])
    def test_skips_cache_directories_others_can_write(self, monkeypatch, tmp_path, plant):
        """The shared object's name is predictable, so a cache directory some
        other user could write (or a symlink to one) is never used."""
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        xdg, tmp = tmp_path / "xdg", tmp_path / "tmp"
        xdg.mkdir()
        tmp.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        candidates = [xdg / "repro-kernel", tmp / f"repro-kernel-{os.getuid()}"]

        def plant_at(path):
            if plant == "symlink":
                path.symlink_to(shared)
            else:
                path.mkdir()
                path.chmod(0o777)

        plant_at(candidates[0])
        assert kernel._cache_dir() == candidates[1]
        assert candidates[1].stat().st_mode & 0o777 == 0o700
        candidates[1].rmdir()
        plant_at(candidates[1])
        assert kernel._cache_dir() is None

    @needs_cc
    def test_two_processes_share_one_build(self, tmp_path):
        """Two processes loading into one empty cache both get the kernel,
        and one shared object results (the lock plus rename at work)."""
        env = {
            **os.environ,
            "XDG_CACHE_HOME": str(tmp_path),
            "PYTHONPATH": str(Path(kernel.__file__).parents[2]),
        }
        script = "from repro.ann import kernel; assert kernel.ACTIVE == 'c'"
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        built = sorted(p.name for p in (tmp_path / "repro-kernel").iterdir())
        assert len([name for name in built if name.endswith(".so")]) == 1, built
        assert not [name for name in built if name.startswith(".")], built


class TestMutant:
    @needs_cc
    @pytest.mark.parametrize("residual", [True, False])
    def test_dis0_added_after_the_sum_fails(self, monkeypatch, tmp_path, residual):
        """The suite bites on the pair-table order: a kernel that adds the
        coarse term to each code's sum, instead of folding it into sub-space
        0's row, gives distances a few ulps off and must fail."""
        source = kernel._SOURCE.read_text()
        fold = "lut[c] += d0;"
        scan = "float d = adc(lut, codes + e * m, m, ksub);"
        assert source.count(fold) == 1 and source.count(scan) == 1
        mutant = tmp_path / "_kernel.c"
        mutant.write_text(
            source.replace(fold, ";").replace(scan, scan[:-1] + " + d0;")
        )
        monkeypatch.setattr(kernel, "_SOURCE", mutant)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        kernel.library.cache_clear()
        try:
            assert kernel.ACTIVE == "c"
            index, queries_t, probed = build(replace(MUTANT, residual=residual))
            with pytest.raises(AssertionError):
                check_against_references(index, queries_t, probed, MUTANT.k)
        finally:
            kernel.library.cache_clear()


#: Enough candidates that some distance rounds differently under a mutant.
MUTANT = Case(
    m=16, ksub=64, sizes=(40, 30, 50, 20), nq=4, nprobe=4, k=10,
    ties=False, residual=True, prune=False, seed=7,
)

#: A small case with ksub < 256, so a code byte can lie outside the tables.
CORRUPTIBLE = Case(
    m=4, ksub=16, sizes=(5, 0, 7, 3), nq=2, nprobe=4, k=5,
    ties=False, residual=True, prune=False, seed=1,
)


class TestCorruptCodes:
    """A code byte >= ksub in an index file raises one ValueError naming the
    cell, on every scan path, instead of reading another sub-space's table."""

    @pytest.fixture()
    def corrupt(self, tmp_path):
        index, queries_t, probed = build(CORRUPTIBLE)
        save_index_dir(index, tmp_path)
        codes = np.load(tmp_path / "codes.npy", mmap_mode="r+")
        codes[5, 0] = CORRUPTIBLE.ksub  # first code of cell 2, sub-space 0
        codes.flush()
        del codes
        return load_index_dir(tmp_path, mmap=True), queries_t, probed

    def test_search(self, corrupt):
        index, queries_t, _ = corrupt
        with pytest.raises(ValueError, match="cell 2 "):
            index.search(queries_t, CORRUPTIBLE.k, CORRUPTIBLE.nlist)

    def test_numpy_reference(self, corrupt, monkeypatch):
        index, queries_t, probed = corrupt
        monkeypatch.setattr(kernel, "library", lambda: None)
        with pytest.raises(ValueError, match="cell 2 "):
            index.search_preselected(queries_t, probed, CORRUPTIBLE.k)

    def test_per_query_stage(self, corrupt):
        index, queries_t, probed = corrupt
        luts = index.stage_build_luts_batch(queries_t, probed)
        with pytest.raises(ValueError, match="cell 2 "):
            for q in range(len(probed)):
                index.stage_pq_dist(luts[q], probed[q])
