"""Tiny end-to-end smokes for the serve-bench modes.

Each mode runs at toy size, must pass its own verdict (answers
bit-identical to direct ``IVFPQIndex.search``; the workers mode also
runs coarse quantization once per batch) and must render its result
table.  Chaos is covered by ``tests/serve/test_chaos.py``; codesign-serve
by its CI smoke.
"""

from repro.harness import serve_bench


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
    assert res.row(2, 2).report.n_completed == 40


def test_async_mode():
    # 64 connections is past the thread cap: only the async tier holds
    # them, each request completed.
    res = serve_bench.run_async(connections=(4, 64), requests_per_conn=2, thread_cap=4)
    assert res.checks == {"bit_identical": True}
    assert "async serve" in res.format()
    assert res.row("async", 4).report.n_completed == 8
    assert res.row("threads", 64).report is None
    assert res.max_async_connections() == 64


def test_workers_mode():
    res = serve_bench.run_multiproc(
        workers=(1, 2), n_clients=4, n_requests=40, **serve_bench.MP_QUICK
    )
    assert res.checks == {"bit_identical": True, "coarse_once": True}
    assert "multiproc serve" in res.format()
    assert res.row(2).report.n_completed == 40
    for row in res.rows:
        assert row.report.n_errors == 0
        assert row.report.n_completed == row.report.n_issued


def test_qos_mode():
    res = serve_bench.run_qos(victims=1, duration_s=0.1, low_rate_qps=400.0)
    assert res.checks == {"bit_identical": True}
    assert "noisy neighbor" in res.format()
    assert res.window_row("low", "adaptive").report.n_completed > 0
