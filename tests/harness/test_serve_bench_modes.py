"""Tiny end-to-end smokes for the serve-bench modes.

Each mode runs at toy size, must pass its own verdict (answers
bit-identical to direct ``IVFPQIndex.search``; the workers mode also
runs coarse quantization once per batch) and must render its result
table.  Chaos is covered by ``tests/serve/test_chaos.py``; codesign-serve
by its CI smoke.
"""

import pytest

from repro.harness import serve_bench
from repro.harness.serve_bench import BenchResult


def test_basic_mode():
    res = serve_bench.run(n_clients=4, n_requests=40, windows_us=(0.0, 1000.0))
    assert res.checks == {"bit_identical": True}
    assert "serve-bench: closed loop" in res.format()


def test_replicated_mode():
    res = serve_bench.run_replicated(
        replicas=(1, 2), shards=(1, 2), n_clients=8, n_requests=40
    )
    assert res.checks == {"bit_identical": True}
    assert "replicated serve" in res.format()
    assert res.point(replicas=2, shards=2)["report"].n_completed == 40


def test_async_mode():
    # 64 connections is past the thread cap: only the async tier holds
    # them, each request completed.
    res = serve_bench.run_async(connections=(4, 64), requests_per_conn=2, thread_cap=4)
    assert res.checks == {"bit_identical": True}
    assert "async serve" in res.format()
    assert res.point(frontend="async", connections=4)["report"].n_completed == 8
    assert res.point(frontend="threads", connections=64)["report"] is None
    assert res.summary["max_async_connections"] == 64


def test_workers_mode():
    res = serve_bench.run_multiproc(
        workers=(1, 2), n_clients=4, n_requests=40, **serve_bench.MP_QUICK
    )
    assert res.checks == {"bit_identical": True, "coarse_once": True}
    assert "multiproc serve" in res.format()
    assert res.point(workers=2)["report"].n_completed == 40
    for point in res.points:
        assert point["report"].n_errors == 0
        assert point["report"].n_completed == point["report"].n_issued


def test_qos_mode():
    res = serve_bench.run_qos(victims=1, duration_s=0.1, low_rate_qps=400.0)
    assert res.checks == {"bit_identical": True}
    assert "noisy neighbor" in res.format()
    assert res.point(load="low", config="adaptive")["report"].n_completed > 0


class TestBenchResult:
    def result(self) -> BenchResult:
        return BenchResult(
            tables=["table one", "table two"],
            checks={"bit_identical": True},
            points=[
                {"mode": "fifo", "tenant": "a", "report": None},
                {"load": "low", "config": "w=0", "report": None},
                {"load": "high", "config": "w=0", "report": None},
            ],
            notes=["", "headline", "second line"],
        )

    def test_point_finds_the_row_with_every_key(self):
        res = self.result()
        assert res.point(load="high", config="w=0") is res.points[2]
        assert res.point(tenant="a") is res.points[0]

    def test_point_key_error_names_the_measured_keys(self):
        with pytest.raises(KeyError) as exc:
            self.result().point(load="high", config="adaptive")
        message = str(exc.value)
        assert "{'load': 'high', 'config': 'adaptive'}" in message
        # Only the points that carry both keys are listed.
        assert "measured: [('low', 'w=0'), ('high', 'w=0')]" in message

    def test_format_renders_the_tables_then_the_notes(self):
        assert self.result().format() == (
            "table one\n\ntable two\n\nheadline\nsecond line"
        )
        assert BenchResult(tables=["t"], checks={}).format() == "t"
