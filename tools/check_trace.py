#!/usr/bin/env python3
"""Validate a Chrome/Perfetto trace written by ``serve-bench --trace``.

Checks the invariants the rest of the observability tooling (Perfetto,
``trace-report``) silently assumes, so CI catches a malformed exporter
before a human stares at a nonsensical flame chart::

    python tools/check_trace.py out.trace.json
    python tools/check_trace.py out.trace.json --expect-workers 2

Validated invariants:

- **schema** — top-level ``traceEvents`` list; every complete ("X")
  event carries name/ts/dur/pid/tid plus ``args.trace`` / ``args.span``
  identity; metadata ("M") events carry ``args.name``.
- **timestamps** — every ``ts`` and ``dur`` is a non-negative number
  and every child span starts no earlier than its parent (all spans
  share the host-wide monotonic clock; ``--slack-us`` absorbs the
  microsecond rounding of retroactive intervals).
- **span tree** — span ids are unique; every non-null parent id exists
  in the file and belongs to the same trace id; at least one root span
  exists.
- **cross-process completeness** (``--expect-workers N``) — at least N
  distinct worker pids (pids owning no root span) recorded spans, and
  at least one trace stitches router and worker processes together
  through the full multi-process stage chain
  (request -> exec -> scatter -> shard_rpc -> worker_scan -> merge).

Exit status is non-zero on any violation — this is a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Stage chain one trace must stitch together in a multi-process run.
MULTIPROC_STAGES = ("request", "exec", "scatter", "shard_rpc", "worker_scan", "merge")


def load_events(path: Path) -> list[dict]:
    """Parse the trace file and return its ``traceEvents`` list."""
    trace = json.loads(path.read_text())
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        raise ValueError("top level must be an object with a 'traceEvents' list")
    return trace["traceEvents"]


def check_schema(events: list[dict]) -> list[str]:
    """Schema violations of individual events (empty list = clean)."""
    errors = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            errors.append(f"event[{i}]: not an object with a 'ph' phase")
            continue
        if ev["ph"] == "M":
            if not isinstance(ev.get("args", {}).get("name"), str):
                errors.append(f"event[{i}]: metadata event without args.name")
            continue
        if ev["ph"] != "X":
            errors.append(f"event[{i}]: unexpected phase {ev['ph']!r}")
            continue
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in ev:
                errors.append(f"event[{i}] ({ev.get('name')!r}): missing {key!r}")
        args = ev.get("args")
        if not isinstance(args, dict) or "trace" not in args or "span" not in args:
            errors.append(
                f"event[{i}] ({ev.get('name')!r}): args must carry span identity "
                f"(trace/span)"
            )
    return errors


def check_timestamps(spans: list[dict], slack_us: float) -> list[str]:
    """Non-negative monotonic timestamps; children start inside parents."""
    errors = []
    by_span = {s["args"]["span"]: s for s in spans}
    for s in spans:
        name = s["name"]
        if not isinstance(s["ts"], (int, float)) or s["ts"] < 0:
            errors.append(f"{name}: negative or non-numeric ts {s['ts']!r}")
        if not isinstance(s["dur"], (int, float)) or s["dur"] < 0:
            errors.append(f"{name}: negative or non-numeric dur {s['dur']!r}")
        parent = by_span.get(s["args"].get("parent"))
        if parent is not None and s["ts"] < parent["ts"] - slack_us:
            errors.append(
                f"{name}: starts {parent['ts'] - s['ts']:.0f}us before its "
                f"parent {parent['name']} (slack {slack_us}us)"
            )
    return errors


def check_tree(spans: list[dict]) -> list[str]:
    """Unique span ids; parents exist within the same trace; roots exist."""
    errors = []
    by_span: dict = {}
    for s in spans:
        sid = s["args"]["span"]
        if sid in by_span:
            errors.append(f"duplicate span id {sid} ({s['name']!r})")
        by_span[sid] = s
    for s in spans:
        pid = s["args"].get("parent")
        if pid is None:
            continue
        parent = by_span.get(pid)
        if parent is None:
            errors.append(f"{s['name']}: parent span {pid} not in trace file")
        elif parent["args"]["trace"] != s["args"]["trace"]:
            errors.append(
                f"{s['name']}: parent {parent['name']} belongs to a "
                f"different trace id"
            )
    if spans and not any(s["args"].get("parent") is None for s in spans):
        errors.append("no root span (every span has a parent)")
    return errors


def check_workers(spans: list[dict], expect_workers: int) -> list[str]:
    """Worker pids present and one trace spans the full multiproc chain."""
    errors = []
    root_pids = {s["pid"] for s in spans if s["args"].get("parent") is None}
    worker_pids = {s["pid"] for s in spans} - root_pids
    if len(worker_pids) < expect_workers:
        errors.append(
            f"expected spans from >= {expect_workers} worker pid(s), found "
            f"{len(worker_pids)} ({sorted(worker_pids)})"
        )
    stages_by_trace: dict = {}
    pids_by_trace: dict = {}
    for s in spans:
        tid = s["args"]["trace"]
        stages_by_trace.setdefault(tid, set()).add(s["name"])
        pids_by_trace.setdefault(tid, set()).add(s["pid"])
    complete = [
        tid
        for tid, names in stages_by_trace.items()
        if names.issuperset(MULTIPROC_STAGES) and len(pids_by_trace[tid]) >= 2
    ]
    if not complete:
        errors.append(
            "no trace stitches router and worker processes through the full "
            f"stage chain {MULTIPROC_STAGES}"
        )
    return errors


def validate(path: Path, *, expect_workers: int = 0, slack_us: float = 10.0) -> list[str]:
    """All violations found in the trace file at ``path``."""
    try:
        events = load_events(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return [f"unreadable trace file: {exc}"]
    errors = check_schema(events)
    if errors:
        return errors  # span checks assume the schema holds
    spans = [e for e in events if e["ph"] == "X"]
    if not spans:
        return ["trace contains no complete ('X') span events"]
    errors += check_timestamps(spans, slack_us)
    errors += check_tree(spans)
    if expect_workers > 0:
        errors += check_workers(spans, expect_workers)
    return errors


def main(argv: list[str] | None = None) -> int:
    """Entry point; non-zero exit on any violated invariant."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace JSON written by serve-bench --trace")
    parser.add_argument(
        "--expect-workers", type=int, default=0, metavar="N",
        help="require spans from >= N worker pids and a complete "
             "cross-process span chain (default: single-process checks only)",
    )
    parser.add_argument(
        "--slack-us", type=float, default=10.0, metavar="US",
        help="parent/child start-time slack for interval rounding (default: 10)",
    )
    args = parser.parse_args(argv)
    errors = validate(
        Path(args.trace), expect_workers=args.expect_workers, slack_us=args.slack_us
    )
    if errors:
        print(f"FAIL: {args.trace}: {len(errors)} violation(s)")
        for err in errors:
            print(f"  - {err}")
        return 1
    spans = [e for e in load_events(Path(args.trace)) if e["ph"] == "X"]
    pids = {s["pid"] for s in spans}
    print(
        f"OK: {args.trace}: {len(spans)} span(s), "
        f"{len({s['args']['trace'] for s in spans})} trace(s), "
        f"{len(pids)} process(es)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
