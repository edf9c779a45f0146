#!/usr/bin/env python3
"""Validate a timeline JSONL written by ``serve-bench --timeline``.

Checks the invariants ``serve-top``, the bench reports, and the SLO
tooling silently assume, so CI catches a malformed collector before a
human stares at a nonsensical dashboard::

    python tools/check_timeline.py timeline.jsonl
    python tools/check_timeline.py timeline.jsonl --expect-restarts 1 --expect-alert

Validated invariants:

- **schema** — first line is a ``meta`` header with a version; every
  other line is a ``tick`` or ``event`` object; ticks carry
  ts/seq/availability, events carry ts/type/pid with a type drawn from
  the journal's typed taxonomy (``repro.obs.events.EVENT_TYPES``).
- **monotonic ticks** — tick timestamps never decrease and ``seq``
  strictly increases (ticks share the host-wide monotonic clock with
  the tracer and the journal).
- **coverage pairing** — every replica-scope ``coverage_lost`` is
  followed by a ``coverage_restored`` for the same (shard, replica)
  slot, and never restored without a preceding loss.
- **recovery accounting** (``--expect-restarts N``) — at least N
  ``worker_restart`` events, each carrying its supervisor-measured
  ``coverage_restored_us``.
- **alerting** (``--expect-alert``) — the SLO monitor fired at least
  one ``slo_alert`` whose timestamp falls inside a replica outage
  window (between a ``coverage_lost`` and its ``coverage_restored``).

Exit status is non-zero on any violation — this is a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The journal's typed taxonomy (mirrors ``repro.obs.events.EVENT_TYPES``;
#: kept literal so the tool stays import-free and runs from any cwd).
EVENT_TYPES = frozenset(
    {
        "coverage_lost",
        "coverage_restored",
        "worker_restart",
        "shed",
        "quota_exceeded",
        "cache_invalidated",
        "slo_alert",
        "slo_alert_cleared",
    }
)

#: Fields every tick record must carry.
TICK_FIELDS = ("ts", "seq", "availability")


def load_records(path: Path) -> list[dict]:
    """Parse the timeline file into a list of record dicts."""
    records = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc})")
            if not isinstance(record, dict):
                raise ValueError(f"line {lineno}: not a JSON object")
            record["_lineno"] = lineno
            records.append(record)
    return records


def check_schema(records: list[dict]) -> list[str]:
    """Per-record schema violations (empty list = clean)."""
    errors = []
    if not records:
        return ["timeline is empty"]
    head = records[0]
    if head.get("kind") != "meta":
        errors.append("line 1: first record must be the 'meta' header")
    elif not isinstance(head.get("version"), int):
        errors.append("line 1: meta header missing integer 'version'")
    for record in records[1:]:
        where = f"line {record['_lineno']}"
        kind = record.get("kind")
        if kind == "tick":
            for field in TICK_FIELDS:
                if field not in record:
                    errors.append(f"{where}: tick missing {field!r}")
        elif kind == "event":
            for field in ("ts", "type", "pid"):
                if field not in record:
                    errors.append(f"{where}: event missing {field!r}")
            etype = record.get("type")
            if etype is not None and etype not in EVENT_TYPES:
                errors.append(f"{where}: unknown event type {etype!r}")
        elif kind == "meta":
            errors.append(f"{where}: duplicate meta header")
        else:
            errors.append(f"{where}: unknown record kind {kind!r}")
    return errors


def check_ticks(ticks: list[dict]) -> list[str]:
    """Tick timestamps never decrease; seq strictly increases."""
    errors = []
    if not ticks:
        return ["timeline contains no tick records"]
    for prev, cur in zip(ticks, ticks[1:]):
        where = f"line {cur['_lineno']}"
        if cur["ts"] < prev["ts"]:
            errors.append(
                f"{where}: tick ts went backwards "
                f"({prev['ts']} -> {cur['ts']})"
            )
        if cur["seq"] <= prev["seq"]:
            errors.append(
                f"{where}: tick seq not increasing "
                f"({prev['seq']} -> {cur['seq']})"
            )
    return errors


def outage_windows(events: list[dict]) -> tuple[list[str], list[tuple]]:
    """Pair replica-scope coverage events into (lost_ts, restored_ts) windows."""
    errors = []
    pending: dict = {}
    windows: list[tuple] = []
    for ev in events:
        if ev.get("scope") != "replica":
            continue
        where = f"line {ev['_lineno']}"
        key = (ev.get("shard"), ev.get("replica"))
        if ev["type"] == "coverage_lost":
            if key in pending:
                errors.append(
                    f"{where}: coverage_lost for slot {key} while already lost"
                )
            pending[key] = ev["ts"]
        elif ev["type"] == "coverage_restored":
            lost_ts = pending.pop(key, None)
            if lost_ts is None:
                errors.append(
                    f"{where}: coverage_restored for slot {key} without a "
                    f"preceding coverage_lost"
                )
            else:
                windows.append((lost_ts, ev["ts"]))
    for key, lost_ts in sorted(pending.items(), key=lambda kv: kv[1]):
        errors.append(
            f"coverage_lost for slot {key} (ts {lost_ts}) never restored"
        )
    return errors, windows


def check_restarts(events: list[dict], expect_restarts: int) -> list[str]:
    """At least N worker_restart events, each with its recovery time."""
    errors = []
    restarts = [ev for ev in events if ev["type"] == "worker_restart"]
    if len(restarts) < expect_restarts:
        errors.append(
            f"expected >= {expect_restarts} worker_restart event(s), "
            f"found {len(restarts)}"
        )
    for ev in restarts:
        where = f"line {ev['_lineno']}"
        us = ev.get("coverage_restored_us")
        if not isinstance(us, (int, float)) or us <= 0:
            errors.append(
                f"{where}: worker_restart without a positive "
                f"coverage_restored_us ({us!r})"
            )
    return errors


def check_alert(events: list[dict], windows: list[tuple]) -> list[str]:
    """An slo_alert fired inside some replica outage window."""
    alerts = [ev["ts"] for ev in events if ev["type"] == "slo_alert"]
    if not alerts:
        return ["expected an slo_alert event, found none"]
    if not windows:
        return ["--expect-alert needs at least one coverage outage window"]
    for ts in alerts:
        if any(lost <= ts <= restored for lost, restored in windows):
            return []
    return [
        f"no slo_alert fired inside an outage window "
        f"(alerts at {alerts}, windows {windows})"
    ]


def validate(
    path: Path, *, expect_restarts: int = 0, expect_alert: bool = False
) -> list[str]:
    """All violations found in the timeline file at ``path``."""
    try:
        records = load_records(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable timeline file: {exc}"]
    errors = check_schema(records)
    if errors:
        return errors  # the structural checks assume the schema holds
    ticks = [r for r in records if r.get("kind") == "tick"]
    events = [r for r in records if r.get("kind") == "event"]
    errors += check_ticks(ticks)
    pair_errors, windows = outage_windows(events)
    errors += pair_errors
    if expect_restarts > 0:
        errors += check_restarts(events, expect_restarts)
    if expect_alert:
        errors += check_alert(events, windows)
    return errors


def main(argv: list[str] | None = None) -> int:
    """Entry point; non-zero exit on any violated invariant."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "timeline", help="timeline JSONL written by serve-bench --timeline"
    )
    parser.add_argument(
        "--expect-restarts", type=int, default=0, metavar="N",
        help="require >= N worker_restart events with recovery times "
             "(default: structural checks only)",
    )
    parser.add_argument(
        "--expect-alert", action="store_true",
        help="require an slo_alert inside a replica outage window",
    )
    args = parser.parse_args(argv)
    errors = validate(
        Path(args.timeline),
        expect_restarts=args.expect_restarts,
        expect_alert=args.expect_alert,
    )
    if errors:
        print(f"FAIL: {args.timeline}: {len(errors)} violation(s)")
        for err in errors:
            print(f"  - {err}")
        return 1
    records = load_records(Path(args.timeline))
    ticks = [r for r in records if r.get("kind") == "tick"]
    events = [r for r in records if r.get("kind") == "event"]
    print(
        f"OK: {args.timeline}: {len(ticks)} tick(s), {len(events)} event(s), "
        f"{len({e['type'] for e in events})} event type(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
