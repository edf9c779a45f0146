"""Traced runs: the program's own spans, plus a few benchmark-side ones.

The per-layer figures come from :class:`repro.obs.trace.Tracer` spans that
the program already records under an active span: the engine's
``request``/``queue``/``exec``, the router's ``scatter``/``preselect``/
``shard_rpc``/``merge``, the worker's ``worker_scan`` (shipped back on the
batch-result frame) and the index's ``ivf_coarse``/``ivf_build_lut``/
``ivf_pq_scan``/``ivf_select_k`` stage timers.  Calls the program does not
trace (the dynamic service, the NSW graph, the benchmark's own search
loop) get a span from :func:`wrap`, on the same tracer, so they nest in
the same tree.  Spans are span dicts (``Span.to_dict``: µs ``ts`` and
``dur``, ``span``/``parent`` ids, ``args``); they are held in memory and
written by :func:`write_spans` when the run ends.  :class:`FrameCount`
counts wire frames and bytes at the codec functions, which have no span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.net.wire import FRAME_HEADER
from repro.obs.trace import current_span

#: The index's stage timers, by the per-layer metric stem they feed.
KERNEL_SPANS = {
    "preselect": "ivf_coarse",
    "build_lut": "ivf_build_lut",
    "pq_scan": "ivf_pq_scan",
    "select_k": "ivf_select_k",
}


def wrap(tracer, owner, attr: str, name: str, *, items=None) -> None:
    """Record a span named ``name`` around every ``owner.attr`` call.

    The span is a child of the caller's active span, or a new root on
    ``tracer`` when there is none; it stays active during the call, so
    spans the program records inside nest under it.  ``items(args,
    result)`` gives the span's item count (``args["n"]``; default 1).
    """
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        parent = current_span()
        span = parent.child(name) if parent else tracer.start_trace(name)
        if not span:
            return inner(*args, **kwargs)
        with span:
            result = inner(*args, **kwargs)
            span.annotate(n=items(args, result) if items is not None else 1)
        return result

    setattr(owner, attr, wrapper)


def n_queries(args, _result) -> int:
    """Item count of a call whose first argument is a query batch."""
    return len(args[0]) if getattr(args[0], "ndim", 1) > 1 else 1


class FrameCount:
    """Frames and bytes through one module's encode/decode pair, while ``on``.

    Replaces ``module.<encode>`` and ``module.<decode>`` with counting
    wrappers; a decoded payload is counted with its frame header.
    """

    def __init__(self, module, encode: str, decode: str) -> None:
        self.on = False
        self.frames = 0
        self.bytes = 0
        enc, dec = getattr(module, encode), getattr(module, decode)

        def encoder(*args, **kwargs):
            frame = enc(*args, **kwargs)
            self.add(len(frame))
            return frame

        def decoder(payload):
            self.add(len(payload) + FRAME_HEADER.size)
            return dec(payload)

        setattr(module, encode, encoder)
        setattr(module, decode, decoder)

    def add(self, n: int) -> None:
        if self.on:
            self.frames += 1
            self.bytes += n


class Spans:
    """Lookups over a list of span dicts."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def total_us(self, name: str) -> float:
        return float(sum(s["dur"] for s in self.by_name[name]))

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def arg_sum(self, name: str, key: str) -> float:
        return float(sum(s.get("args", {}).get(key, 0) for s in self.by_name[name]))

    def per_call_us(self, name: str) -> float:
        return self.total_us(name) / max(self.calls(name), 1)

    def per_item_us(self, name: str, key: str = "n") -> float:
        return self.total_us(name) / max(self.arg_sum(name, key), 1)

    def kernel_layers(self, queries: float) -> dict[str, float]:
        """``ann.*_us_per_q``: stage time summed over every index that ran
        (both shards on the wire), per query searched."""
        return {
            f"ann.{stem}_us_per_q": self.total_us(span) / max(queries, 1)
            for stem, span in KERNEL_SPANS.items()
        }


def _covered_us(t0: float, t1: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [t0, t1]."""
    covered, cur0, cur1 = 0.0, None, None
    for a, b in sorted((max(a, t0), min(b, t1)) for a, b in intervals):
        if b <= a:
            continue
        if cur1 is None or a > cur1:
            if cur1 is not None:
                covered += cur1 - cur0
            cur0, cur1 = a, b
        else:
            cur1 = max(cur1, b)
    if cur1 is not None:
        covered += cur1 - cur0
    return covered


def layer_table(spans: Spans, root: str) -> dict:
    """Per-layer totals and self times, and the root's unattributed share.

    A span's self time is its duration minus the part of it its child
    spans cover.  The unattributed share is the root layer's summed self
    time over its summed duration: time inside the end-to-end span that
    no deeper timed layer accounts for.
    """
    rows: dict[str, dict] = {}
    for s in spans.spans:
        if s.get("args", {}).get("shared"):
            # A batch-mate's copy of the engine's one deep exec span: it
            # covers its request's wait, but the work is counted once.
            continue
        row = rows.setdefault(s["name"], {"calls": 0, "items": 0, "total_us": 0.0,
                                          "self_us": 0.0})
        t0, dur = s["ts"], s["dur"]
        kids = ((c["ts"], c["ts"] + c["dur"]) for c in spans.children.get(s["span"], ()))
        row["calls"] += 1
        row["items"] += s.get("args", {}).get("n", 1)
        row["total_us"] += dur
        row["self_us"] += dur - _covered_us(t0, t0 + dur, kids)
    root_row = rows.get(root)
    share = (
        root_row["self_us"] / root_row["total_us"]
        if root_row and root_row["total_us"] > 0
        else 0.0
    )
    return {"root": root, "unattributed_share": share, "layers": rows}


def format_table(table: dict) -> str:
    lines = [f"{'layer':<28}{'calls':>8}{'items':>9}{'total_us':>13}{'self_us':>13}"
             f"{'self_us/item':>14}"]
    for name, r in sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_us"]):
        lines.append(
            f"{name:<28}{r['calls']:>8}{r['items']:>9}{r['total_us']:>13.0f}"
            f"{r['self_us']:>13.0f}{r['self_us'] / max(r['items'], 1):>14.1f}"
        )
    lines.append(f"unattributed share of {table['root']}: {table['unattributed_share']:.3f}")
    return "\n".join(lines)


def write_spans(path: Path, spans: list[dict], extra: dict) -> None:
    """Write the span dicts and a summary as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**extra, "spans": spans}))
