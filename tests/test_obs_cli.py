"""Tests for the repro-trace command-line interface."""

import json

import numpy as np
import pytest

from conftest import random_problem
from repro import obs
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.obs.cli import main

CONFIG = DistributedConfig(accuracy=1e-3, max_iterations=4)


@pytest.fixture
def trace_path(tmp_path):
    problem = random_problem(np.random.default_rng(0))
    path = tmp_path / "run.jsonl"
    with obs.recording(path):
        solve_distributed(problem, CONFIG, rng=1)
    return path


class TestSummary:
    def test_renders_run(self, trace_path, capsys):
        assert main(["summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "run: algorithm1" in out
        assert "final cost" in out
        assert "cost curve" in out

    def test_json_output_is_machine_readable(self, trace_path, capsys):
        assert main(["summary", "--json", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["run"] == "algorithm1"
        assert payload[0]["final_cost"] == payload[0]["reported_final_cost"]

    def test_format_json_matches_legacy_flag(self, trace_path, capsys):
        assert main(["summary", "--format", "json", str(trace_path)]) == 0
        via_format = capsys.readouterr().out
        assert main(["summary", "--json", str(trace_path)]) == 0
        assert capsys.readouterr().out == via_format
        assert json.loads(via_format)[0]["run"] == "algorithm1"

    def test_format_text_is_default(self, trace_path, capsys):
        assert main(["summary", "--format", "text", str(trace_path)]) == 0
        assert "run: algorithm1" in capsys.readouterr().out

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "trace_start", "version": 1, "seq": 0}\n')
        assert main(["summary", str(path)]) == 1
        assert "no runs" in capsys.readouterr().out


class TestValidate:
    def test_clean_trace_passes(self, trace_path, capsys):
        assert main(["validate", str(trace_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_tampered_trace_fails(self, trace_path, tmp_path, capsys):
        tampered = tmp_path / "tampered.jsonl"
        lines = []
        for line in trace_path.read_text().splitlines():
            event = json.loads(line)
            if event["type"] == "iteration":
                event["cost"] += 1.0
            lines.append(json.dumps(event, sort_keys=True))
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(tampered)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_miscounted_iterations_fail(self, trace_path, tmp_path, capsys):
        mutant = tmp_path / "mutant.jsonl"
        lines = []
        for line in trace_path.read_text().splitlines():
            event = json.loads(line)
            if event["type"] == "run_end":
                event["counters"]["algorithm1.iterations"] -= 1
            lines.append(json.dumps(event, sort_keys=True))
        mutant.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(mutant)]) == 1
        assert "counter algorithm1.iterations" in capsys.readouterr().out

    def test_missing_file_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["validate", str(tmp_path / "nope.jsonl")])

    def test_malformed_json_exits_with_message(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SystemExit, match="repro-trace"):
            main(["validate", str(path)])


class TestDiff:
    def test_identical_traces_agree(self, trace_path, capsys):
        assert main(["diff", str(trace_path), str(trace_path)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_different_traces_diverge(self, trace_path, tmp_path, capsys):
        problem = random_problem(np.random.default_rng(9))
        other = tmp_path / "other.jsonl"
        with obs.recording(other):
            solve_distributed(problem, CONFIG, rng=1)
        assert main(["diff", str(trace_path), str(other)]) == 1
        assert "DIFF" in capsys.readouterr().out

    def test_tolerance_flag(self, trace_path, tmp_path, capsys):
        nudged = tmp_path / "nudged.jsonl"
        lines = []
        for line in trace_path.read_text().splitlines():
            event = json.loads(line)
            if event["type"] in ("iteration", "phase"):
                event["cost"] += 1e-12
            if event["type"] == "run_end":
                event["final_cost"] += 1e-12
            lines.append(json.dumps(event, sort_keys=True))
        nudged.write_text("\n".join(lines) + "\n")
        assert main(["diff", str(trace_path), str(nudged), "--tolerance", "1e-9"]) == 0
        assert main(["diff", str(trace_path), str(nudged)]) == 1
