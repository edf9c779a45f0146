#!/usr/bin/env python3
"""Validate a co-design report written by ``codesign-serve --report``.

The autotuner's report is only useful if its internal accounting is
consistent and its model was actually held against a measurement.  This
gate checks both, so CI catches a search that silently stopped pruning,
a ranking that stopped being sorted, or a validation run whose
modeled-vs-measured gap drifted past the documented bound::

    python tools/check_codesign.py codesign_report.json
    python tools/check_codesign.py codesign_report.json --require-validation

Validated invariants:

- **schema** — version-1 report with the traffic/search/winner_spec
  sections the drift tooling reads.
- **search accounting** — ``n_enumerated >= n_feasible >= len(ranked)``,
  prune counts sum to the gap between enumerated and feasible, every
  ranked entry is marked feasible, and the ranked list is sorted by
  modeled QPS (non-increasing).
- **winner consistency** — a winner spec exists iff the frontier is
  non-empty, and its index/topology/engine fields match the top-ranked
  design exactly (the spec is the *deployable* form of rank 1, not a
  separate artifact that can drift).
- **validation honesty** (``--require-validation``) — the winner was
  materialized: results bit-identical to direct search, zero failed
  requests, and ``|qps_gap| <= --max-gap`` (default 0.5, the
  ``CODESIGN_GAP_BOUND`` the harness documents and writes into the
  report's ``gap_bound`` field).

Exit status is non-zero on any violation — a CI gate, like
``check_timeline.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Matches ``repro.harness.serve_bench.CODESIGN_GAP_BOUND``; kept literal
#: so the tool stays import-free and runs from any cwd.
DEFAULT_MAX_GAP = 0.5

#: Required keys of each report section (missing = schema violation).
TOP_KEYS = ("schema", "traffic", "search", "winner_spec", "validation")
SEARCH_KEYS = ("n_enumerated", "n_feasible", "prune_counts", "ranked")
SPEC_KEYS = ("version", "index", "topology", "engine", "tenants", "slo_p99_us")
VALIDATION_KEYS = (
    "time_scale", "modeled_qps", "measured_qps", "qps_gap",
    "n_requests", "n_failed", "bit_identical",
)

#: winner_spec field -> (section, key) of the rank-1 design it must match.
SPEC_DESIGN_FIELDS = (
    ("index", "nlist", "nlist"),
    ("index", "use_opq", "use_opq"),
    ("index", "nprobe", "nprobe"),
    ("topology", "replicas", "replicas"),
    ("topology", "shards", "shards"),
    ("engine", "max_batch", "max_batch"),
    ("engine", "window_us", "window_us"),
)


def load_report(path: Path) -> dict:
    """Parse the report JSON (raises ValueError on malformed input)."""
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc})")
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def check_schema(report: dict) -> list[str]:
    """Top-level shape violations (empty list = clean)."""
    errors = []
    if report.get("schema") != 1:
        errors.append(f"unsupported schema {report.get('schema')!r} (want 1)")
    for key in TOP_KEYS:
        if key not in report:
            errors.append(f"report missing top-level key {key!r}")
    search = report.get("search")
    if not isinstance(search, dict):
        errors.append("'search' section is not an object")
    else:
        for key in SEARCH_KEYS:
            if key not in search:
                errors.append(f"search section missing {key!r}")
    return errors


def check_search(search: dict) -> list[str]:
    """Search-accounting violations: counts, feasibility, ranking order."""
    errors = []
    n_enum, n_feas = search["n_enumerated"], search["n_feasible"]
    ranked = search["ranked"]
    if not isinstance(ranked, list):
        return ["search 'ranked' is not a list"]
    if not (n_enum >= n_feas >= len(ranked) >= 0):
        errors.append(
            f"inconsistent counts: enumerated {n_enum}, feasible {n_feas}, "
            f"ranked {len(ranked)}"
        )
    prune_counts = search["prune_counts"]
    if not isinstance(prune_counts, dict):
        errors.append("search 'prune_counts' is not an object")
        prune_counts = {}
    # Reasons are per-violation (one point can fail several checks), so
    # the reason total must *cover* the pruned points, never undercount.
    pruned = n_enum - n_feas
    total_reasons = sum(prune_counts.values())
    if total_reasons < pruned:
        errors.append(
            f"prune_counts total {total_reasons} cannot cover "
            f"{pruned} pruned point(s)"
        )
    if pruned == 0 and total_reasons > 0:
        errors.append(
            f"prune_counts total {total_reasons} but nothing was pruned"
        )
    prev_qps = None
    for i, entry in enumerate(ranked):
        where = f"ranked[{i}]"
        if not isinstance(entry, dict) or "design" not in entry:
            errors.append(f"{where}: missing design")
            continue
        if entry.get("feasible") is not True:
            errors.append(f"{where}: ranked entry not marked feasible")
        qps = entry.get("modeled_qps")
        if not isinstance(qps, (int, float)) or qps <= 0:
            errors.append(f"{where}: non-positive modeled_qps ({qps!r})")
            continue
        # Non-increasing within float tolerance: a sort that decayed into
        # insertion order is the failure this catches.
        if prev_qps is not None and qps > prev_qps * (1 + 1e-9):
            errors.append(
                f"{where}: ranking not sorted by modeled_qps "
                f"({prev_qps} then {qps})"
            )
        prev_qps = qps
    return errors


def check_winner(report: dict) -> list[str]:
    """Winner-spec presence and its agreement with the rank-1 design."""
    errors = []
    search = report["search"]
    ranked = search["ranked"]
    spec = report.get("winner_spec")
    if search["n_feasible"] > 0 and spec is None:
        return ["frontier is non-empty but winner_spec is null"]
    if search["n_feasible"] == 0:
        if spec is not None:
            errors.append("empty frontier but winner_spec is present")
        return errors
    if not isinstance(spec, dict):
        return [f"winner_spec is not an object ({type(spec).__name__})"]
    for key in SPEC_KEYS:
        if key not in spec:
            errors.append(f"winner_spec missing {key!r}")
    if not spec.get("tenants"):
        errors.append("winner_spec has no tenant lanes")
    if errors or not ranked:
        return errors
    top = ranked[0].get("design", {})
    for section, spec_key, design_key in SPEC_DESIGN_FIELDS:
        got = spec.get(section, {}).get(spec_key)
        want = top.get(design_key)
        if got != want:
            errors.append(
                f"winner_spec {section}.{spec_key}={got!r} does not match "
                f"rank-1 design {design_key}={want!r}"
            )
    if spec.get("qos_scheme") != top.get("qos_scheme"):
        errors.append(
            f"winner_spec qos_scheme={spec.get('qos_scheme')!r} does not "
            f"match rank-1 design {top.get('qos_scheme')!r}"
        )
    return errors


def check_validation(report: dict, max_gap: float) -> list[str]:
    """Validation-honesty violations (the --require-validation gate)."""
    v = report.get("validation")
    if v is None:
        return [
            "--require-validation: report has no validation section "
            "(run codesign-serve with --validate)"
        ]
    if not isinstance(v, dict):
        return [f"validation is not an object ({type(v).__name__})"]
    errors = []
    for key in VALIDATION_KEYS:
        if key not in v:
            errors.append(f"validation missing {key!r}")
    if errors:
        return errors
    if v["bit_identical"] is not True:
        errors.append("materialized winner is not bit-identical to direct search")
    if v["n_failed"] != 0:
        errors.append(f"validation run had {v['n_failed']} failed request(s)")
    gap = v["qps_gap"]
    if not isinstance(gap, (int, float)):
        errors.append(f"qps_gap is not numeric ({gap!r})")
    elif abs(gap) > max_gap:
        errors.append(
            f"|qps_gap| = {abs(gap):.3f} exceeds the bound {max_gap} "
            f"(modeled {v['modeled_qps']:.1f} vs measured "
            f"{v['measured_qps']:.1f} QPS)"
        )
    return errors


def validate(
    path: Path, *, require_validation: bool = False,
    max_gap: float = DEFAULT_MAX_GAP,
) -> list[str]:
    """All violations found in the report file at ``path``."""
    try:
        report = load_report(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable report file: {exc}"]
    errors = check_schema(report)
    if errors:
        return errors  # the consistency checks assume the schema holds
    errors += check_search(report["search"])
    errors += check_winner(report)
    if require_validation:
        errors += check_validation(report, max_gap)
    return errors


def main(argv: list[str] | None = None) -> int:
    """Entry point; non-zero exit on any violated invariant."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report", help="report JSON written by codesign-serve --report"
    )
    parser.add_argument(
        "--require-validation", action="store_true",
        help="require a validation section with bit-identity, zero "
             "failures, and the QPS gap within --max-gap",
    )
    parser.add_argument(
        "--max-gap", type=float, default=DEFAULT_MAX_GAP, metavar="FRAC",
        help="largest tolerated |modeled-vs-measured| QPS gap as a "
             f"fraction (default: {DEFAULT_MAX_GAP})",
    )
    args = parser.parse_args(argv)
    errors = validate(
        Path(args.report),
        require_validation=args.require_validation,
        max_gap=args.max_gap,
    )
    if errors:
        print(f"FAIL: {args.report}: {len(errors)} violation(s)")
        for err in errors:
            print(f"  - {err}")
        return 1
    report = load_report(Path(args.report))
    search = report["search"]
    v = report.get("validation")
    gap = "n/a" if v is None else f"{100 * v['qps_gap']:+.1f}%"
    print(
        f"OK: {args.report}: {search['n_feasible']}/{search['n_enumerated']} "
        f"feasible, {len(search['ranked'])} ranked, qps gap {gap}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
