"""Tests for the CLI experiment runner (analytic experiments only)."""

import pytest

from repro.harness.cli import EXPERIMENTS, main


class TestCLI:
    def test_all_experiment_ids_registered(self):
        assert set(EXPERIMENTS) == {
            "fig01", "fig03", "fig09", "fig10", "fig11", "fig12", "tab03", "tab04",
            "serve-bench", "trace-report", "serve-top", "codesign-serve",
        }

    def test_runs_analytic_experiment(self, capsys):
        assert main(["fig03"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["figXX"])

    def test_qos_mode_rejects_inapplicable_flags(self):
        """--qos is exclusive with the replicated-matrix flags and takes
        no --clients/--requests (its load matrix is capacity-derived)."""
        with pytest.raises(SystemExit, match="--replicas applies to replicated only"):
            main(["serve-bench", "--qos", "--replicas", "1,2"])
        with pytest.raises(SystemExit, match="--shards applies to replicated only"):
            main(["serve-bench", "--qos", "--shards", "2"])
        with pytest.raises(SystemExit, match="--policy applies to replicated only"):
            main(["serve-bench", "--qos", "--policy", "p2c"])
        with pytest.raises(SystemExit, match="clients"):
            main(["serve-bench", "--qos", "--clients", "8"])
        with pytest.raises(SystemExit, match="--requests applies to"):
            main(["serve-bench", "--qos", "--requests", "100"])

    def test_policy_rejected_outside_replicated_mode(self):
        with pytest.raises(SystemExit, match="replicated"):
            main(["serve-bench", "--policy", "p2c"])


class TestObservabilityFlags:
    def test_trace_rejected_in_modeled_modes(self, tmp_path):
        """Tracing instruments the real engine/worker tiers; the modeled
        qos/async/replicated sweeps refuse the flags instead of silently
        producing a partial trace."""
        out = str(tmp_path / "t.json")
        for extra in (["--qos"], ["--async"], ["--replicas", "1,2"]):
            with pytest.raises(SystemExit, match="--trace"):
                main(["serve-bench", *extra, "--trace", out])
        with pytest.raises(SystemExit, match="--metrics-out"):
            main(["serve-bench", "--qos", "--metrics-out", out])

    def test_trace_sample_validated(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-sample"):
            main(["serve-bench", "--trace", str(tmp_path / "t.json"),
                  "--trace-sample", "1.5"])

    def test_trace_report_requires_trace_path(self):
        with pytest.raises(SystemExit, match="requires --trace"):
            main(["trace-report"])

    def test_trace_report_reads_a_trace(self, tmp_path, capsys):
        import json

        from repro.obs.export import spans_to_chrome
        from repro.obs.trace import Tracer

        tracer = Tracer(sample_rate=1.0, seed=0)
        root = tracer.start_trace("request")
        root.interval("queue", root.t0_us, root.t0_us + 10)
        root.end()
        path = tmp_path / "t.trace.json"
        path.write_text(json.dumps(spans_to_chrome(tracer.spans())))
        assert main(["trace-report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage durations" in out and "queue" in out

    def test_all_excludes_trace_report(self):
        from repro.harness.cli import NOT_IN_ALL

        assert "trace-report" in NOT_IN_ALL

    def test_trace_report_empty_trace_reports_zero_spans(self, tmp_path, capsys):
        """A recorded-but-empty trace (0% sampling hit) renders a clean
        'no spans' report instead of dividing by zero."""
        import json

        path = tmp_path / "empty.trace.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace-report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 span(s)" in out


class TestTimelineFlags:
    def test_timeline_rejected_outside_chaos_and_qos(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        for extra in ([], ["--async"], ["--replicas", "1,2"], ["--workers", "2"]):
            with pytest.raises(SystemExit, match="--timeline"):
                main(["serve-bench", *extra, "--timeline", out])

    def test_serve_top_requires_timeline_path(self):
        with pytest.raises(SystemExit, match="requires --timeline"):
            main(["serve-top", "--once"])

    def test_serve_top_missing_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["serve-top", "--timeline", str(tmp_path / "nope.jsonl"),
                  "--once"])

    def test_serve_top_renders_a_timeline(self, tmp_path, capsys):
        from repro.obs.events import EventLog
        from repro.obs.timeline import write_timeline_jsonl

        events = EventLog()
        events.emit("worker_restart", shard=0, replica=1, exit_code=-9)
        path = tmp_path / "timeline.jsonl"
        write_timeline_jsonl(
            path,
            [{"ts": 10, "seq": 0, "qps": 120.0, "availability": 1.0,
              "p99_us": 900.0, "counters": {"completed": 12}}],
            events.events(),
        )
        assert main(["serve-top", "--timeline", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "serve-top @ tick" in out
        assert "worker_restart" in out

    def test_refresh_validated(self, tmp_path):
        with pytest.raises(SystemExit, match="refresh"):
            main(["serve-top", "--timeline", str(tmp_path / "t.jsonl"),
                  "--refresh", "0"])

    def test_all_excludes_serve_top(self):
        from repro.harness.cli import NOT_IN_ALL

        assert "serve-top" in NOT_IN_ALL


class TestCodesignFlags:
    def test_codesign_rejects_serve_bench_topology_flags(self):
        """codesign-serve picks its own topology; hand-tuning flags are
        the serve-bench modes' business."""
        for extra in (
            ["--workers", "2"], ["--qos"], ["--async"],
            ["--replicas", "1,2"], ["--shards", "2"], ["--policy", "p2c"],
            ["--connections", "4"], ["--clients", "8"], ["--requests", "64"],
        ):
            with pytest.raises(SystemExit, match=f"{extra[0]} applies to"):
                main(["codesign-serve", *extra])

    def test_codesign_rejects_observability_flags(self, tmp_path):
        out = str(tmp_path / "t.json")
        for extra in (["--trace", out], ["--metrics-out", out],
                      ["--timeline", out]):
            with pytest.raises(SystemExit, match=f"{extra[0]} applies to"):
                main(["codesign-serve", *extra])

    def test_codesign_flags_rejected_by_serve_bench(self, tmp_path):
        for extra in (
            ["--traffic", str(tmp_path / "t.json")], ["--validate"],
            ["--report", str(tmp_path / "r.json")],
            ["--spec", str(tmp_path / "s.json")],
        ):
            with pytest.raises(SystemExit, match="codesign-serve only"):
                main(["serve-bench", *extra])

    def test_codesign_in_all_set(self):
        from repro.harness.cli import NOT_IN_ALL

        assert "codesign-serve" not in NOT_IN_ALL


#: The command line that picks each mode with no optional flag set.
MODE_ARGV = {
    "basic": ["serve-bench"],
    "replicated": ["serve-bench", "--replicas", "1"],
    "qos": ["serve-bench", "--qos"],
    "async": ["serve-bench", "--async"],
    "workers": ["serve-bench", "--workers", "1,2"],
    "chaos": ["serve-bench", "--workers", "2,1", "--chaos"],
    "codesign-serve": ["codesign-serve"],
}

#: The runner each mode dispatches to.
MODE_RUNNER = {
    "basic": "run", "replicated": "run_replicated", "qos": "run_qos",
    "async": "run_async", "workers": "run_multiproc", "chaos": "run_chaos",
    "codesign-serve": "run_codesign",
}

#: One valid setting per table flag (``--trace-sample`` needs ``--trace``).
FLAG_ARGV = {
    "--replicas": ["2"], "--shards": ["2"], "--policy": ["p2c"],
    "--clients": ["4"], "--requests": ["8"], "--qos": [], "--tenants": ["3"],
    "--slo-us": ["100"], "--async": [], "--connections": ["4"],
    "--workers": ["1"], "--chaos": [], "--kills": ["1"], "--quick": [],
    "--seed": ["3"], "--trace": ["t.json"],
    "--trace-sample": ["0.5", "--trace", "t.json"], "--metrics-out": ["m.json"],
    "--timeline": ["t.jsonl"], "--traffic": ["p.json"], "--validate": [],
    "--report": ["r.json"], "--spec": ["s.json"],
}


class _StubResult:
    def __init__(self, checks=None):
        self.checks = checks or {}
        self.params = {}

    def format(self) -> str:
        return "stub result"


@pytest.fixture
def stub_runners(monkeypatch):
    """Replace every serve-bench/codesign runner; returns the call log."""
    from repro.harness import serve_bench

    calls = []
    for runner in MODE_RUNNER.values():
        def fake(*args, _name=runner, **kwargs):
            calls.append((_name, kwargs))
            return _StubResult()
        monkeypatch.setattr(serve_bench, runner, fake)
    return calls


class TestModeTable:
    def test_table_covers_every_mode_and_flag(self):
        from repro.harness.cli import MODE_FLAGS

        assert set(MODE_FLAGS) == set(MODE_ARGV)
        assert frozenset().union(*MODE_FLAGS.values()) == set(FLAG_ARGV)

    @pytest.mark.parametrize("flag", sorted(FLAG_ARGV))
    @pytest.mark.parametrize("mode", sorted(MODE_ARGV))
    def test_flag_accepted_exactly_when_the_table_says(
        self, mode, flag, stub_runners, capsys
    ):
        from repro.harness.cli import MODE_FLAGS

        argv = list(MODE_ARGV[mode])
        if flag not in argv:
            argv += [flag, *FLAG_ARGV[flag]]
        try:
            status = main(argv)
        except SystemExit as exc:
            # A mode flag may pick another mode, which then rejects the
            # base mode's own flag: either way the table names the culprit.
            assert " applies to " in str(exc) or " requires " in str(exc)
            accepted = False
        else:
            assert status == 0
            accepted = [name for name, _ in stub_runners] == [MODE_RUNNER[mode]]
        assert accepted == (flag in MODE_FLAGS[mode])

    @pytest.mark.parametrize("argv", [
        ["serve-bench", "--slo-us", "5", "--tenants", "9", "--kills", "7"],
        ["serve-bench", "--async", "--connections", "4", "--tenants", "3",
         "--slo-us", "1", "--kills", "5"],
        ["serve-bench", "--trace-sample", "0.5"],
        ["serve-bench", "--workers", "2", "--trace-sample", "0.5"],
    ])
    def test_flags_once_silently_ignored_rejected(self, argv, stub_runners):
        with pytest.raises(SystemExit, match="applies to|requires"):
            main(argv)
        assert stub_runners == []

    @pytest.mark.parametrize("flag", ["--clients", "--requests", "--tenants", "--kills"])
    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_count_flags_must_be_positive_ints(self, flag, value, stub_runners, capsys):
        with pytest.raises(SystemExit):
            main(["serve-bench", flag, value])
        assert "expected an int >= 1" in capsys.readouterr().err
        assert stub_runners == []

    def test_count_lists_must_be_positive(self, stub_runners, capsys):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--workers", "1,0"])
        assert "expected an int >= 1" in capsys.readouterr().err

    def test_chaos_needs_two_worker_counts(self, stub_runners):
        with pytest.raises(SystemExit, match="exactly two counts"):
            main(["serve-bench", "--workers", "1,2,3", "--chaos"])
        with pytest.raises(SystemExit, match="--chaos requires --workers"):
            main(["serve-bench", "--chaos"])

    def test_runners_default_unset_flags(self, stub_runners, capsys):
        """Unset optional flags are not passed: each runner applies its own
        default (2 victims, 2 kills, sampling rate 1.0)."""
        main(["serve-bench", "--qos"])
        main(["serve-bench", "--workers", "2,2", "--chaos", "--quick"])
        main(["serve-bench", "--trace", "t.json"])
        (_, qos), (_, chaos), (_, basic) = stub_runners
        assert qos == {"seed": 0}
        assert chaos["replicas"] == 2 and chaos["shards"] == 2
        assert "kills" not in chaos and chaos["n_base"] == 6_000
        assert basic == {"seed": 0, "trace_path": "t.json"}


class TestVerdict:
    def test_failed_check_exits_nonzero(self, monkeypatch, capsys):
        from repro.harness import serve_bench

        monkeypatch.setattr(
            serve_bench, "run",
            lambda **kw: _StubResult({"bit_identical": False, "other": True}),
        )
        assert main(["serve-bench"]) == 1
        captured = capsys.readouterr()
        assert "stub result" in captured.out
        assert "check failed: bit_identical" in captured.err
