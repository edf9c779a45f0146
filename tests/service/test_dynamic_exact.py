"""Differential test: the dynamic service against an exact composed reference.

The reference is built here from the service's parts, not from its code:
the primary IVF-PQ index searched at the service's fetch size, exact
squared-L2 distances from each query alone to every row of the live (and,
mid-merge, frozen) delta, the tombstone filter, and a per-row ``np.lexsort`` on (distance,
id).  ``DynamicVectorService.search`` must equal it on ids and on float32
distance bits after every step of seeded insert/delete/merge sequences.
"""

import threading

import numpy as np
import pytest

from repro.ann.distances import l2_sq_blocked
from repro.ann.ivf import IVFPQIndex
from repro.data.synthetic import make_clustered
from repro.service.dynamic import DynamicVectorService

D = 8
KS = (1, 10, 60)


def _reference(svc, queries, k):
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    fetch = k + min(len(svc.deleted), 4 * k) + 4
    p_ids, p_dists = svc.primary.search(
        queries, min(fetch, max(svc.primary.ntotal, 1)), min(svc.nprobe, svc.primary.nlist)
    )
    deltas = [g.vectors_and_ids() for g in (svc._frozen_delta, svc.delta) if g is not None]
    deltas = [(vecs, ids) for vecs, ids in deltas if len(ids)]
    dead = np.array(sorted(svc.deleted), dtype=np.int64)
    out_ids = np.full((len(queries), k), -1, dtype=np.int64)
    out_dists = np.full((len(queries), k), np.inf, dtype=np.float32)
    for qi in range(len(queries)):
        query = queries[qi : qi + 1]
        ids = np.concatenate([p_ids[qi], *(ids for _, ids in deltas)])
        dists = np.concatenate(
            [p_dists[qi], *(l2_sq_blocked(query, vecs)[0] for vecs, _ in deltas)]
        )
        keep = (ids >= 0) & np.isfinite(dists) & ~np.isin(ids, dead)
        ids, dists = ids[keep], dists[keep]
        order = np.lexsort((ids, dists))[:k]
        out_ids[qi, : len(order)] = ids[order]
        out_dists[qi, : len(order)] = dists[order]
    return out_ids, out_dists


def _assert_exact(svc, queries, ks=KS):
    for k in ks:
        got_ids, got_dists = svc.search(queries, k)
        want_ids, want_dists = _reference(svc, queries, k)
        np.testing.assert_array_equal(got_ids, want_ids)
        assert got_dists.dtype == np.float32
        np.testing.assert_array_equal(got_dists.view(np.uint32), want_dists.view(np.uint32))


def _service(n_base, seed):
    vecs = make_clustered(n_base + 200, D, n_clusters=6, intrinsic_dim=3, seed=seed)
    svc = DynamicVectorService(d=D, nlist=4, m=2, ksub=16, nprobe=2, seed=seed)
    svc.bootstrap(vecs[:n_base])
    return svc, vecs


def _with_duplicates(rng, fresh, pool, n_dup):
    """``fresh`` rows plus ``n_dup`` exact copies drawn from ``pool``."""
    return np.vstack([fresh, pool[rng.integers(0, len(pool), size=n_dup)]])


@pytest.mark.parametrize("seed", range(6))
def test_seeded_sequences_match_reference(seed):
    """Insert/delete/merge sequences where duplicate vectors span the
    snapshot, the delta and each generation, so distance ties are common."""
    rng = np.random.default_rng(seed)
    svc, vecs = _service(120, seed)
    queries = np.vstack([vecs[120:124], vecs[rng.integers(0, 120, size=2)]])
    seen = vecs[:120]
    live = list(range(120))
    _assert_exact(svc, queries)
    for step in range(8):
        fresh = vecs[124 + 9 * step: 124 + 9 * step + 4]
        batch = _with_duplicates(rng, fresh, seen, 5)
        live.extend(svc.insert(batch).tolist())
        seen = np.vstack([seen, batch])
        _assert_exact(svc, np.vstack([queries, batch[:2]]))
        victims = rng.choice(len(live), size=6, replace=False)
        gone = set(victims.tolist())
        svc.delete(np.array([live[v] for v in victims]))
        live = [i for j, i in enumerate(live) if j not in gone]
        _assert_exact(svc, queries)
        if step % 3 == 2:
            svc.merge()
            _assert_exact(svc, queries)


def test_k_beyond_live_vectors():
    svc, vecs = _service(20, 11)
    svc.insert(np.vstack([vecs[20:23], vecs[:2]]))
    svc.delete(np.arange(0, 25, 3))
    assert svc.ntotal < 60
    _assert_exact(svc, vecs[:5])
    ids, _ = svc.search(vecs[:5], 60)
    assert (ids[:, svc.ntotal:] == -1).all()


def test_every_delta_row_deleted():
    svc, vecs = _service(80, 12)
    new_ids = svc.insert(np.vstack([vecs[80:90], vecs[:5]]))
    assert svc.delete(new_ids) == len(new_ids)
    _assert_exact(svc, vecs[80:90])
    ids, _ = svc.search(vecs[80:90], 10)
    assert not np.isin(ids, new_ids).any()


def _blocked_train(monkeypatch, fail=False):
    """Make ``IVFPQIndex.train`` wait until released, then train or raise."""
    entered, release = threading.Event(), threading.Event()
    orig_train = IVFPQIndex.train

    def train(index, x):
        entered.set()
        assert release.wait(timeout=60)
        if fail:
            raise MemoryError("rebuild died")
        return orig_train(index, x)

    monkeypatch.setattr(IVFPQIndex, "train", train)
    return entered, release


def _merge_in_thread(svc, errors):
    def run():
        try:
            svc.merge()
        except MemoryError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def test_search_mid_merge_covers_frozen_delta(monkeypatch):
    """While the rebuild is blocked, searches go over the old primary, the
    frozen delta and the live delta, and still equal the reference."""
    svc, vecs = _service(100, 13)
    frozen_ids = svc.insert(np.vstack([vecs[100:130], vecs[:6]]))
    svc.delete(frozen_ids[:4])
    entered, release = _blocked_train(monkeypatch)
    merger = _merge_in_thread(svc, [])
    try:
        assert entered.wait(timeout=60)
        assert svc._frozen_delta is not None
        svc.insert(np.vstack([vecs[130:140], vecs[100:103]]))
        svc.delete(frozen_ids[4:7])
        _assert_exact(svc, np.vstack([vecs[100:106], vecs[130:134]]))
    finally:
        release.set()
        merger.join(timeout=120)
    assert not merger.is_alive() and svc.generation == 1
    _assert_exact(svc, np.vstack([vecs[100:106], vecs[130:134]]))


def test_rollback_restores_answers(monkeypatch):
    """A failed rebuild folds the frozen rows back into the live delta:
    answers equal those from before the merge, then the reference after
    mid-rebuild writes."""
    svc, vecs = _service(100, 14)
    svc.insert(np.vstack([vecs[100:130], vecs[:6]]))
    svc.delete([1, 2, 101])
    queries = np.vstack([vecs[100:106], vecs[:3]])
    before = [svc.search(queries, k) for k in KS]

    entered, release = _blocked_train(monkeypatch, fail=True)
    errors = []
    merger = _merge_in_thread(svc, errors)
    assert entered.wait(timeout=60)
    release.set()
    merger.join(timeout=120)
    assert not merger.is_alive() and len(errors) == 1
    assert svc._frozen_delta is None and svc.generation == 0
    for k, (want_ids, want_dists) in zip(KS, before):
        got_ids, got_dists = svc.search(queries, k)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_dists.view(np.uint32), want_dists.view(np.uint32))
    _assert_exact(svc, queries)

    entered, release = _blocked_train(monkeypatch, fail=True)
    merger = _merge_in_thread(svc, errors)
    try:
        assert entered.wait(timeout=60)
        mid_ids = svc.insert(np.vstack([vecs[140:150], vecs[100:102]]))
        svc.delete(mid_ids[:2])
    finally:
        release.set()
        merger.join(timeout=120)
    assert not merger.is_alive() and len(errors) == 2 and svc._frozen_delta is None
    _assert_exact(svc, np.vstack([queries, vecs[140:145]]))



def test_rejected_insert_burns_no_ids():
    svc, vecs = _service(50, 15)
    next_id = svc._next_id
    for bad in (np.zeros((2, D - 3), np.float32), np.zeros((2, 2, D), np.float32)):
        with pytest.raises(ValueError):
            svc.insert(bad)
        assert svc._next_id == next_id
    np.testing.assert_array_equal(svc.insert(vecs[50:52]), [next_id, next_id + 1])


@pytest.mark.parametrize("k", [0, -1])
def test_non_positive_k_raises(k):
    svc, vecs = _service(50, 16)
    svc.insert(vecs[50:55])
    with pytest.raises(ValueError, match="k must be positive"):
        svc.search(vecs[:2], k)


@pytest.mark.parametrize("d", [D, 64])
def test_answers_do_not_depend_on_batch_mates(d):
    """With a non-empty delta, each row of a batched search equals that
    query searched alone, ids and distance bits: the engine batches
    whatever queries arrive together, so an answer must not depend on them."""
    vecs = make_clustered(900, d, n_clusters=6, intrinsic_dim=3, seed=5)
    svc = DynamicVectorService(d=d, nlist=4, m=2, ksub=16, nprobe=2, seed=5)
    svc.bootstrap(vecs[:300])
    svc.insert(vecs[300:880])
    svc.delete(np.arange(0, 600, 7))
    queries = vecs[880:]
    for k in KS:
        ids, dists = svc.search(queries, k)
        for qi in range(len(queries)):
            one_ids, one_dists = svc.search(queries[qi : qi + 1], k)
            np.testing.assert_array_equal(ids[qi], one_ids[0])
            np.testing.assert_array_equal(dists[qi].view(np.uint32), one_dists[0].view(np.uint32))
