#!/usr/bin/env python
"""Dynamic dataset deployment: the production loop around FANNS (§4).

Production vector search systems manage insertions and deletions on top of
the static snapshot the accelerator serves: an exact incremental index
buffers new vectors, a bitmap masks deletions, and a periodic merge produces
the next snapshot — for which FANNS redesigns the accelerator while the old
one keeps serving.

This example runs that loop end to end on synthetic data:
snapshot -> inserts -> deletes -> queries (union semantics) -> merge ->
FANNS redesign for the new snapshot.
"""

import numpy as np

from repro.ann.flat import brute_force_topk
from repro.ann.recall import recall_at_k
from repro.core import Fanns, RecallGoal
from repro.data.synthetic import make_sift_like
from repro.data.datasets import Dataset
from repro.hw.device import U55C
from repro.service.dynamic import DynamicVectorService


def main() -> None:
    vecs = make_sift_like(24_000, seed=3)
    base, delta, queries = vecs[:20_000], vecs[20_000:23_800], vecs[23_800:]

    print("== bootstrap snapshot ==")
    svc = DynamicVectorService(d=128, nlist=64, m=16, ksub=64, nprobe=8)
    ids = svc.bootstrap(base)
    print(f"snapshot: {svc.ntotal} vectors")

    print("\n== live traffic: inserts + deletes ==")
    new_ids = svc.insert(delta)
    n_deleted = svc.delete(ids[:1000])
    print(f"inserted {len(new_ids)}, deleted {n_deleted}, live total {svc.ntotal}")

    out_ids, _ = svc.search(delta[:20], 1)
    fresh_hit = np.isin(out_ids[:, 0], new_ids).mean()
    print(f"freshly inserted vectors findable: {100 * fresh_hit:.0f}%")
    out_ids, _ = svc.search(queries, 10)
    assert not np.isin(out_ids, ids[:1000]).any(), "deleted ids must never surface"
    print("deleted ids never surface: OK")

    print("\n== periodic merge -> new snapshot ==")
    stats = svc.merge()
    print(
        f"generation {stats.generation}: snapshot {stats.snapshot_size} "
        f"(+{stats.inserted_since} / -{stats.deleted_since})"
    )
    live = np.vstack([base[1000:], delta])
    gt, _ = brute_force_topk(queries, live, 10)
    # Map positions in `live` back to service ids for recall accounting.
    live_ids = np.concatenate([ids[1000:], new_ids])
    out_ids, _ = svc.search(queries, 10)
    r = recall_at_k(np.vectorize(lambda i: i)(out_ids), live_ids[gt])
    print(f"post-merge R@10 vs exact on live set: {r:.2f}")

    print("\n== FANNS redesign for the new snapshot ==")
    ds = Dataset(name="snapshot-gen1", base=svc._snapshot_vectors, queries=queries)
    fanns = Fanns(
        U55C, m=16, ksub=64, nlist_grid=[32, 64], max_train_vectors=8000,
        pe_grid=(1, 2, 4, 6, 8, 12, 16, 24),
    )
    result = fanns.fit(ds, RecallGoal(10, 0.6), max_queries=100)
    print(result.summary())
    print("(the old accelerator keeps serving while this design compiles)")


if __name__ == "__main__":
    main()
