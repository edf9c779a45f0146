"""One benchmark command for the serving stack.

Usage (from the checkout root)::

    python3 servebench/run.py --workload offline_batch --seed 1 --seconds 15 --trace 0

Workloads: ``offline_batch`` (kernel only), ``online_wire`` (client →
socket server → engine → router → two mmap worker processes) and
``mixed_update`` (engine + result cache over the dynamic service, with a
fixed seeded read/insert/delete sequence).  See ``NOTES.md``.

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
and the spans plus the per-layer self-time table go to
``.servebench/trace/``.  Every answer is checked; a violation makes the
command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("offline_batch", "online_wire", "mixed_update")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny corpus and sizes (smoke test only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS to one thread before numpy loads, here and in every child.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from common import FULL, TINY, WORK_ROOT, cpus_kept_awake, provenance, require_repro

    require_repro()
    from outcome import E2E_UNITS, LAYER_UNITS
    from spans import format_table, write_spans

    if args.workload == "offline_batch":
        import offline as workload
    elif args.workload == "online_wire":
        import wire as workload
    else:
        import mixed as workload

    geo = TINY if args.tiny else FULL
    with cpus_kept_awake() as spinners:
        prov = {**provenance(args.seed), "idle_spinners": spinners}
        print(json.dumps({"provenance": prov}), flush=True)
        out = workload.run(args.seed, geo, args.seconds, bool(args.trace))

    if args.trace:
        names, values = LAYER_UNITS, {n: out.layers.get(n, 0.0) for n in LAYER_UNITS}
        path = WORK_ROOT / "trace" / f"{args.workload}-seed{args.seed}.json"
        tables = out.trace["tables"]
        write_spans(path, out.trace["spans"],
                    {"workload": args.workload, "provenance": prov,
                     "tables": tables, "metrics": values})
        for label, table in tables.items():
            print(f"[{label}]\n{format_table(table)}", file=sys.stderr)
        print(f"spans written to {path}", file=sys.stderr)
    else:
        out.e2e["ok_frac"] = 1.0 - out.failed / max(out.attempted, 1)
        names, values = E2E_UNITS, out.e2e
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"{args.workload} did not report {missing}")
    for why in out.violations:
        print(f"correctness violation: {why}", file=sys.stderr)
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in names.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
