"""Algorithm substrate: from-scratch IVF-PQ approximate nearest neighbor search.

Implements every algorithmic piece the paper depends on, in vectorized NumPy:

- :mod:`repro.ann.distances` — batched/blocked L2 distance kernels.
- :mod:`repro.ann.kmeans` — k-means++ / Lloyd clustering.
- :mod:`repro.ann.pq` — product quantization (encode, decode, ADC lookup).
- :mod:`repro.ann.opq` — optimized product quantization (learned rotation).
- :mod:`repro.ann.flat` — exact brute-force search (ground truth oracle) and
  the growable exact index the dynamic service buffers inserts in.
- :mod:`repro.ann.invlists` — packed CSR inverted-list storage (contiguous
  code/id slabs, zero-copy sharding) — the layout the accelerator streams.
- :mod:`repro.ann.ivf` — the IVF-PQ index (train / add / batched search).
- :mod:`repro.ann.kernel` — the compiled fused PQDist + SelK scan (C via
  ``ctypes``), bit-identical to the numpy stages it falls back to.
- :mod:`repro.ann.partition` — zero-copy shard and replica views of one
  trained index (the multi-accelerator layout).
- :mod:`repro.ann.merge` — exact top-K merge of partial results under the
  canonical (distance, id) candidate order (the scatter-gather reduce).
- :mod:`repro.ann.recall` — recall@K evaluation.
"""

from repro.ann.flat import FlatIndex, brute_force_topk
from repro.ann.invlists import InvListBuilder, PackedInvLists
from repro.ann.io import load_index, load_index_dir, save_index, save_index_dir
from repro.ann.ivf import IVFPQIndex
from repro.ann.kmeans import KMeans, kmeans_fit
from repro.ann.merge import merge_partial_topk, merge_topk
from repro.ann.opq import OPQTransform
from repro.ann.partition import partition_index, replicate_index
from repro.ann.pq import ProductQuantizer
from repro.ann.recall import recall_at_k

__all__ = [
    "FlatIndex",
    "IVFPQIndex",
    "InvListBuilder",
    "KMeans",
    "OPQTransform",
    "PackedInvLists",
    "ProductQuantizer",
    "brute_force_topk",
    "kmeans_fit",
    "load_index",
    "load_index_dir",
    "merge_partial_topk",
    "merge_topk",
    "partition_index",
    "recall_at_k",
    "replicate_index",
    "save_index",
    "save_index_dir",
]

