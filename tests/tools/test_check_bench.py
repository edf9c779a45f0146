"""Tests for the benchmark drift report tool (tools/check_bench.py)."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_bench  # noqa: E402  (needs the tools/ path above)


class TestNumericLeaves:
    def test_flattens_nested_structures(self):
        obj = {"a": 1, "b": {"c": 2.5, "d": [{"qps": 10}, {"qps": 20}]}}
        leaves = check_bench.numeric_leaves(obj)
        assert leaves == {
            "a": 1.0, "b.c": 2.5, "b.d[0].qps": 10.0, "b.d[1].qps": 20.0,
        }

    def test_skips_bools_and_strings(self):
        leaves = check_bench.numeric_leaves({"ok": True, "name": "x", "n": 3})
        assert leaves == {"n": 3.0}


class TestDriftRows:
    def test_reports_percentage_drift_for_matching_metrics(self):
        old = {"qps": 100.0, "p99_us": 2000.0, "note": 7}
        new = {"qps": 110.0, "p99_us": 1000.0, "note": 9}
        rows = check_bench.drift_rows(old, new)
        by_key = {k: (b, c, d) for k, b, c, d in rows}
        assert set(by_key) == {"qps", "p99_us"}  # 'note' filtered out
        assert by_key["qps"][2] == 10.0
        assert by_key["p99_us"][2] == -50.0

    def test_added_and_removed_metrics(self):
        rows = check_bench.drift_rows({"old_qps": 5.0}, {"new_qps": 6.0})
        by_key = {k: (b, c, d) for k, b, c, d in rows}
        assert by_key["old_qps"] == (5.0, None, None)
        assert by_key["new_qps"] == (None, 6.0, None)

    def test_zero_baseline_has_no_drift(self):
        rows = check_bench.drift_rows({"qps": 0.0}, {"qps": 5.0})
        assert rows == [("qps", 0.0, 5.0, None)]

    def test_gap_leaves_tracked_by_default_filter(self):
        """The codesign model-accuracy leaves are drift-tracked."""
        old = {
            "qps_gap": -0.20, "p99_gap": -0.05,
            "modeled_qps": 2000.0, "measured_qps": 1600.0,
            "time_scale": 25.0, "n_failed": 0,
        }
        new = dict(old, qps_gap=-0.10, measured_qps=1800.0)
        rows = check_bench.drift_rows(old, new)
        keys = {k for k, *_ in rows}
        assert {"qps_gap", "p99_gap", "modeled_qps", "measured_qps"} <= keys
        # Non-metric bookkeeping leaves stay out of the drift table.
        assert "time_scale" not in keys
        assert "n_failed" not in keys

    def test_custom_metric_filter(self):
        rows = check_bench.drift_rows(
            {"recall": 0.9, "qps": 1.0}, {"recall": 0.8, "qps": 2.0},
            metrics_re="recall",
        )
        assert [k for k, *_ in rows] == ["recall"]

    def test_max_abs_drift(self):
        rows = check_bench.drift_rows(
            {"qps": 100.0, "grid": [{"p99_us": 10.0}]},
            {"qps": 90.0, "grid": [{"p99_us": 12.0}]},
        )
        assert check_bench.max_abs_drift(rows) == 20.0


class TestFormatReport:
    def test_sections_per_file(self):
        report = check_bench.format_report(
            {
                "BENCH_a.json": [("qps", 100.0, 120.0, 20.0)],
                "BENCH_new.json": None,
            }
        )
        assert "== BENCH_a.json" in report
        assert "+20.0%" in report
        assert "no committed baseline" in report


class TestCommittedBaseline:
    def test_reads_committed_version(self, tmp_path):
        """A committed BENCH file parses through git show, in a throwaway
        repository so the test does not depend on this tree's own .git."""
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"benchmark": "x", "qps": 1.0}))
        git = [
            "git", "-C", str(tmp_path), "-c", "user.name=t",
            "-c", "user.email=t@example.invalid", "-c", "commit.gpgsign=false",
        ]
        subprocess.run([*git, "init", "-q"], check=True)
        subprocess.run([*git, "add", path.name], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "bench"], check=True)
        committed = check_bench.committed_json(path, "HEAD", tmp_path)
        assert committed == {"benchmark": "x", "qps": 1.0}

    def test_uncommitted_file_has_no_baseline(self):
        ghost = REPO_ROOT / "BENCH_does_not_exist.json"
        assert check_bench.committed_json(ghost, "HEAD", REPO_ROOT) is None

    def test_path_outside_repo_has_no_baseline(self, tmp_path):
        """A downloaded artifact outside the repo is a baseline miss, not
        a crash."""
        outside = tmp_path / "BENCH_artifact.json"
        outside.write_text(json.dumps({"qps": 1.0}))
        assert check_bench.committed_json(outside, "HEAD", REPO_ROOT) is None


class TestMainWarnOnly:
    def test_exit_zero_despite_drift(self, capsys):
        """Default mode never fails the build, whatever the numbers do."""
        rc = check_bench.main([str(REPO_ROOT / "BENCH_serve.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "benchmark drift vs HEAD" in out

    def test_report_file_written(self, tmp_path, capsys):
        report = tmp_path / "drift.txt"
        rc = check_bench.main(
            [str(REPO_ROOT / "BENCH_serve.json"), "--report", str(report)]
        )
        assert rc == 0
        assert report.read_text().startswith("benchmark drift vs HEAD")


class TestHistory:
    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        check_bench.append_history(
            path, {"BENCH_a.json": {"qps": 100.0}}, commit="aaa", timestamp=1.0
        )
        check_bench.append_history(
            path, {"BENCH_a.json": {"qps": 110.0}}, commit="bbb", timestamp=2.0
        )
        entries = check_bench.load_history(path)
        assert [e["commit"] for e in entries] == ["aaa", "bbb"]
        assert entries[1]["files"]["BENCH_a.json"]["qps"] == 110.0

    def test_load_skips_corrupt_lines(self, tmp_path):
        """A truncated artifact tail must not poison later appends."""
        path = tmp_path / "hist.jsonl"
        check_bench.append_history(
            path, {"BENCH_a.json": {"qps": 1.0}}, commit="aaa"
        )
        with path.open("a") as fh:
            fh.write('{"commit": "bbb", "files": {"BENCH_a.js')  # cut mid-line
        assert len(check_bench.load_history(path)) == 1
        check_bench.append_history(
            path, {"BENCH_a.json": {"qps": 2.0}}, commit="ccc"
        )
        # The corrupt line also breaks "ccc" (no newline before it), so
        # only further intact appends land — the file stays usable.
        check_bench.append_history(
            path, {"BENCH_a.json": {"qps": 3.0}}, commit="ddd"
        )
        entries = check_bench.load_history(path)
        assert [e["commit"] for e in entries] == ["aaa", "ddd"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert check_bench.load_history(tmp_path / "none.jsonl") == []

    def test_format_history_shows_series_and_drift(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        for i, (commit, qps) in enumerate(
            [("aaa", 100.0), ("bbb", 98.0), ("ccc", 96.0)]
        ):
            check_bench.append_history(
                path, {"BENCH_a.json": {"qps": qps, "p99_us": 10.0 + i}},
                commit=commit, timestamp=float(i),
            )
        text = check_bench.format_history(check_bench.load_history(path))
        assert "aaa -> bbb -> ccc" in text
        assert "100.0 | 98.0 | 96.0" in text
        # The slow-drift signal: small per-run, visible vs first.
        assert "-2.0% vs prev" in text
        assert "-4.0% vs first" in text

    def test_format_history_handles_metric_gaps(self):
        """A metric added mid-history shows '-' for runs without it."""
        entries = [
            {"commit": "aaa", "files": {"BENCH_a.json": {"qps": 1.0}}},
            {"commit": "bbb", "files": {"BENCH_a.json": {"qps": 2.0, "p99": 5.0}}},
        ]
        text = check_bench.format_history(entries)
        assert "- | 5.0" in text

    def test_trend_window_bounded_to_newest_runs(self):
        entries = [
            {"commit": f"c{i}", "files": {"BENCH_a.json": {"qps": float(i)}}}
            for i in range(20)
        ]
        text = check_bench.format_history(entries, max_runs=4)
        header = text.split("\n")[0]
        assert header == "trend over 4 run(s): c16 -> c17 -> c18 -> c19"

    def test_main_with_history_appends_and_prints_trend(self, tmp_path, capsys):
        hist = tmp_path / "bench_history.jsonl"
        for _ in range(2):
            rc = check_bench.main(
                [str(REPO_ROOT / "BENCH_serve.json"), "--history", str(hist)]
            )
            assert rc == 0
        out = capsys.readouterr().out
        assert "bench history" in out and "2 recorded run(s)" in out
        assert len(check_bench.load_history(hist)) == 2

    def test_history_included_in_report_file(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        report = tmp_path / "drift.txt"
        rc = check_bench.main(
            [
                str(REPO_ROOT / "BENCH_serve.json"),
                "--history", str(hist), "--report", str(report),
            ]
        )
        assert rc == 0
        assert "bench history" in report.read_text()


class TestTolerantLoading:
    def test_unreadable_input_skipped_not_fatal(self, tmp_path, capsys):
        """A non-benchmark JSON (or garbage) passed alongside real files —
        e.g. a serve-bench metrics.json swept up by a glob — is skipped
        with a note instead of crashing the report."""
        bad = tmp_path / "BENCH_bogus.json"
        bad.write_text("{not valid json")
        missing = tmp_path / "BENCH_gone.json"
        rc = check_bench.main([str(bad), str(missing),
                               str(REPO_ROOT / "BENCH_serve.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("skipping") == 2
        assert "BENCH_serve.json" in out
