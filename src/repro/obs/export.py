"""Trace sinks: JSONL span log and Chrome trace-event / Perfetto JSON.

The Chrome export follows the trace-event format that both
``chrome://tracing`` and https://ui.perfetto.dev open directly: one
complete ("X") event per span, one *process* lane per participating pid
(router vs. each worker), and one *thread* lane per recorded thread
(dispatchers, scatter-pool workers, shard-server connections), named
via "M" metadata events.  Span identity (trace/span/parent ids) rides in
each event's ``args`` so tooling — ``tools/check_trace.py``,
``repro.obs.report`` — can rebuild the span tree from the exported file
alone.

Timestamps are re-based so the earliest span starts at 0; relative
ordering (and therefore parent/child containment) is preserved because
all spans share the host-wide monotonic clock.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "load_chrome_trace",
    "spans_to_chrome",
    "write_chrome_trace",
    "write_jsonl",
]


def _process_labels(spans) -> dict[int, str]:
    """Label each pid lane: pids owning root spans are the router side."""
    root_pids = {s["pid"] for s in spans if s.get("parent") is None}
    labels = {}
    for s in spans:
        pid = s["pid"]
        if pid not in labels:
            role = "router" if pid in root_pids else "worker"
            labels[pid] = f"{role} (pid {pid})"
    return labels


def spans_to_chrome(spans, *, dropped: int = 0) -> dict:
    """Convert span dicts (``Span.to_dict`` shape) to a Chrome trace object."""
    spans = list(spans)
    base = min((s["ts"] for s in spans), default=0)
    events = []
    thread_names: dict[tuple[int, int], str] = {}
    for s in spans:
        args = {"trace": s["trace"], "span": s["span"], "parent": s.get("parent")}
        args.update(s.get("args") or {})
        events.append(
            {
                "name": s["name"],
                "ph": "X",
                "ts": s["ts"] - base,
                "dur": s.get("dur", 0),
                "pid": s["pid"],
                "tid": s["tid"],
                "args": args,
            }
        )
        key = (s["pid"], s["tid"])
        if key not in thread_names and s.get("tname"):
            thread_names[key] = s["tname"]
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for pid, label in sorted(_process_labels(spans).items())
    ]
    meta.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": name},
        }
        for (pid, tid), name in sorted(thread_names.items())
    )
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": int(dropped)},
    }


def write_chrome_trace(path, spans, *, dropped: int = 0) -> Path:
    """Write the merged Chrome/Perfetto trace JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(spans_to_chrome(spans, dropped=dropped), indent=1) + "\n")
    return path


def write_jsonl(path, spans) -> Path:
    """Write one span dict per line (grep/stream-friendly raw sink)."""
    path = Path(path)
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
    return path


def load_chrome_trace(path) -> dict:
    """Parse a Chrome trace file written by :func:`write_chrome_trace`."""
    return json.loads(Path(path).read_text())
