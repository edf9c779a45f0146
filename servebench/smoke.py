"""Fast smoke test of the benchmark at tiny sizes.

    python3 servebench/smoke.py

1. Runs every workload through ``run.py --tiny`` with tracing off and on,
   and checks that the last stdout line names every end-to-end (or
   per-layer) metric with its unit, with the correctness gate passing.
2. Corrupts one answer per workload in process and checks that the gate
   trips: the command's exit code turns non-zero and ``failed`` counts it.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from outcome import E2E_UNITS, LAYER_UNITS  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_reports(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}\n{proc.stderr}"
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    units = LAYER_UNITS if trace else E2E_UNITS
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload}: metric names/units differ: {got}"
    print(f"ok   {workload:14s} trace={trace}: {len(got)} metrics with units")


def gate_trips(workload: str, corrupt) -> None:
    """Run ``workload`` in process with ``corrupt`` patched in."""
    undo = corrupt()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--tiny"])
    finally:
        undo()
    result = _last_json(buf.getvalue())
    assert code != 0 and not result["correct"] and result["failed"] > 0, (code, result)
    assert result["metrics"]["ok_frac"]["value"] < 1.0, result
    print(f"ok   {workload:14s} gate trips on a corrupted answer ({result['failed']} failed)")


def _patch(owner, name, make):
    orig = getattr(owner, name)
    setattr(owner, name, make(orig))
    return lambda: setattr(owner, name, orig)


def corrupt_kernel():
    """Every IVFPQIndex.search after the first few returns one wrong id."""
    from repro.ann import IVFPQIndex

    calls = [0]

    def make(orig):
        def search(self, queries, k, nprobe):
            ids, dists = orig(self, queries, k, nprobe)
            calls[0] += 1
            if calls[0] > 8:
                ids = ids.copy()
                ids[0, 0] += 1
            return ids, dists
        return search

    return _patch(IVFPQIndex, "search", make)


def corrupt_wire():
    """One decoded wire result comes back with a wrong id."""
    import repro.serve.aio as aio

    calls = [0]

    def make(orig):
        def decode_result(payload):
            res = orig(payload)
            calls[0] += 1
            if calls[0] == 50:
                ids = res.ids.copy()
                ids[0] += 1
                res = dataclasses.replace(res, ids=ids)
            return res
        return decode_result

    return _patch(aio, "decode_result", make)


def corrupt_dynamic():
    """Searches return an already-deleted id once deletes have happened."""
    from repro.service.dynamic import DynamicVectorService

    def make(orig):
        def search(self, queries, k, nprobe=None):
            ids, dists = orig(self, queries, k, nprobe)
            if self.deleted:
                ids = ids.copy()
                ids[0, 0] = min(self.deleted)
            return ids, dists
        return search

    return _patch(DynamicVectorService, "search", make)


def main() -> int:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_reports(workload, trace)
    from common import require_repro

    require_repro()
    gate_trips("offline_batch", corrupt_kernel)
    gate_trips("online_wire", corrupt_wire)
    gate_trips("mixed_update", corrupt_dynamic)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
