"""Tests for the null-backend front-end probe (tools/frontend_probe.py)."""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import frontend_probe  # noqa: E402  (needs the tools/ path above)


def test_probe_prints_qps_and_server_cpu(capsys):
    """A short run prints both figures; no ratio is gated (noisy host)."""
    frontend_probe.main(seconds=0.5)
    out = capsys.readouterr().out
    qps = re.search(r"^qps (\d+)$", out, re.M)
    cpu = re.search(r"^server_cpu_us_per_q (\d+\.\d)$", out, re.M)
    assert qps and cpu, out
    assert int(qps.group(1)) > 0
