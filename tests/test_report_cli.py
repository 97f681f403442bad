"""Tests for repro-report: dashboards, snapshot export, regression gating."""

import json

import numpy as np
import pytest
from conftest import random_problem

from repro import obs
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.exceptions import ValidationError
from repro.obs.report import (
    DEFAULT_THRESHOLDS,
    compare_snapshots,
    parse_thresholds,
    render_dashboard,
)
from repro.obs.report_cli import main
from repro.privacy.mechanism import LPPMConfig

CONFIG = DistributedConfig(accuracy=1e-3, max_iterations=4)


@pytest.fixture
def trace_path(tmp_path):
    problem = random_problem(np.random.default_rng(0))
    path = tmp_path / "run.jsonl"
    with obs.recording(path):
        solve_distributed(problem, CONFIG, privacy=LPPMConfig(epsilon=0.5), rng=1)
    return path


@pytest.fixture
def metrics_path(trace_path, tmp_path):
    path = tmp_path / "metrics.json"
    assert main(["metrics", str(trace_path), "--deterministic", "--out", str(path)]) == 0
    return path


class TestParseThresholds:
    def test_parses_pairs(self):
        assert parse_thresholds("a=0.05, b=0") == {"a": 0.05, "b": 0.0}

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            parse_thresholds("just-a-name")
        with pytest.raises(ValidationError):
            parse_thresholds("a=not-a-number")
        with pytest.raises(ValidationError):
            parse_thresholds("a=-0.1")


class TestRender:
    def test_writes_dashboard(self, trace_path, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert main(["render", str(trace_path), "--out", str(out)]) == 0
        page = out.read_text()
        assert "wrote" in capsys.readouterr().out
        for section in (
            "Run overview",
            "Convergence",
            "Phase timing profile",
            "Protocol health",
            "Epsilon ledger",
            "Metrics appendix",
        ):
            assert section in page
        assert "<svg" in page
        # Self-contained and static: no scripts, no external references.
        assert "<script" not in page
        assert "http://" not in page and "https://" not in page

    def test_rendering_is_deterministic(self, trace_path, tmp_path):
        a, b = tmp_path / "a.html", tmp_path / "b.html"
        assert main(["render", str(trace_path), "--out", str(a)]) == 0
        assert main(["render", str(trace_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_trace_renders_gracefully(self, tmp_path):
        events = [{"type": "trace_start", "version": 1, "seq": 0}]
        page = render_dashboard(events)
        assert "No runs recorded" in page

    def test_timings_note_when_recorded_without_timings(self, tmp_path):
        problem = random_problem(np.random.default_rng(0))
        path = tmp_path / "plain.jsonl"
        with obs.recording(path, timings=False):
            solve_distributed(problem, CONFIG, rng=1)
        out = tmp_path / "plain.html"
        assert main(["render", str(path), "--out", str(out)]) == 0
        assert "No solve timings" in out.read_text()


class TestMetricsSubcommand:
    def test_json_snapshot(self, trace_path, capsys):
        assert main(["metrics", str(trace_path)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["metrics_version"] == 1
        assert "repro_run_final_cost" in snapshot["families"]

    def test_deterministic_drops_seconds_families(self, metrics_path):
        families = json.loads(metrics_path.read_text())["families"]
        assert families
        assert not any("seconds" in name for name in families)

    def test_prometheus_format(self, trace_path, capsys):
        assert main(["metrics", str(trace_path), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# HELP repro_runs_total" in text
        assert "# TYPE repro_runs_total counter" in text


class TestRegressMetrics:
    def test_identical_snapshots_pass(self, metrics_path, capsys):
        assert main(["regress", str(metrics_path), str(metrics_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def _mutated(self, metrics_path, tmp_path, family, factor):
        snapshot = json.loads(metrics_path.read_text())
        for row in snapshot["families"][family]["series"]:
            row["value"] = row["value"] * factor + 1e-9
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(snapshot))
        return path

    def test_cost_regression_fails(self, metrics_path, tmp_path, capsys):
        worse = self._mutated(metrics_path, tmp_path, "repro_run_final_cost", 1.10)
        assert main(["regress", str(metrics_path), str(worse)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "repro_run_final_cost" in out

    def test_epsilon_regression_fails(self, metrics_path, tmp_path, capsys):
        worse = self._mutated(
            metrics_path, tmp_path, "repro_privacy_epsilon_total", 2.0
        )
        assert main(["regress", str(metrics_path), str(worse)]) == 1
        assert "repro_privacy_epsilon_total" in capsys.readouterr().out

    def test_improvement_passes(self, metrics_path, tmp_path):
        better = self._mutated(metrics_path, tmp_path, "repro_run_final_cost", 0.9)
        assert main(["regress", str(metrics_path), str(better)]) == 0

    def test_threshold_override_tolerates(self, metrics_path, tmp_path):
        worse = self._mutated(metrics_path, tmp_path, "repro_run_final_cost", 1.02)
        assert (
            main(
                [
                    "regress",
                    str(metrics_path),
                    str(worse),
                    "--thresholds",
                    "repro_run_final_cost=0.05",
                ]
            )
            == 0
        )

    def test_bad_threshold_spec_is_usage_error(self, metrics_path):
        assert (
            main(
                ["regress", str(metrics_path), str(metrics_path), "--thresholds", "x"]
            )
            == 2
        )

    def test_unreadable_snapshot_is_usage_error(self, metrics_path, tmp_path):
        assert main(["regress", str(metrics_path), str(tmp_path / "nope.json")]) == 2

    def test_non_metrics_snapshot_is_usage_error(self, metrics_path, tmp_path):
        """Only metrics snapshots compare; any other JSON object is refused."""
        other = {"benchmark": "x", "speedup": 2.0, "identical": True}
        with pytest.raises(ValidationError, match="not a metrics snapshot"):
            compare_snapshots(other, other)
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other))
        assert main(["regress", str(metrics_path), str(path)]) == 2

    def test_missing_series_is_note_not_regression(self, metrics_path, tmp_path, capsys):
        snapshot = json.loads(metrics_path.read_text())
        del snapshot["families"]["repro_run_final_cost"]
        pruned = tmp_path / "pruned.json"
        pruned.write_text(json.dumps(snapshot))
        assert main(["regress", str(metrics_path), str(pruned)]) == 0
        assert "NOTE" in capsys.readouterr().out


class TestDefaultThresholds:
    def test_all_defaults_are_exact_and_nonnegative(self):
        assert DEFAULT_THRESHOLDS
        assert all(value >= 0.0 for value in DEFAULT_THRESHOLDS.values())
        assert all(name.startswith("repro_") for name in DEFAULT_THRESHOLDS)
        # Wall-clock families are never gated by default.
        assert not any("seconds" in name for name in DEFAULT_THRESHOLDS)
