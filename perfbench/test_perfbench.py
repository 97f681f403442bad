"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q

Smoke runs shrink each workload's instances and sample sizes, so they
check the plumbing and the printed metric names, not the timings.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run  # first: puts the program's src/ on sys.path
from perfbench import gate, layers, workloads
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.solution import Solution
from repro.core.sparse import solve_distributed_sparse
from repro.experiments.config import build_problem
from repro.network.faults import FaultConfig
from repro.privacy.mechanism import LPPMConfig
from repro.workload.cityscale import generate_city_instance

ROOT = Path(__file__).resolve().parent.parent
SMALL = DistributedConfig(accuracy=1e-3, max_iterations=4)


@pytest.fixture
def smoke(monkeypatch):
    """Shrink every workload to a run of a few seconds."""
    for workload in workloads.WORKLOADS.values():
        monkeypatch.setattr(workload, "setup_reps", 1)
    lppm = workloads.WORKLOADS["paper-lppm"]
    monkeypatch.setattr(lppm, "noise_seeds", 1)
    monkeypatch.setattr(lppm, "quality_solves", 2)
    monkeypatch.setattr(lppm, "config", SMALL)
    city = workloads.WORKLOADS["city-sparse"]
    monkeypatch.setattr(city, "shape", (4, 30, 600))
    monkeypatch.setattr(city, "instances", 2)
    monkeypatch.setattr(city, "quality_solves", 2)
    sockets = workloads.WORKLOADS["socket-wide"]
    monkeypatch.setattr(sockets, "shape", (2, 8, 60))
    monkeypatch.setattr(sockets, "instances", 2)
    monkeypatch.setattr(sockets, "quality_solves", 2)


def _result_line(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(smoke, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_restores_every_probe_and_matches_counters(smoke, capsys):
    originals = {
        probe.name: vars(probe.owner)[probe.attribute] for probe in layers.default_probes()
    }
    argv = ["--workload", "paper-lppm", "--seed", "1", "--seconds", "0.2", "--trace", "1"]
    assert run.main(argv) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-2])["info"]
    assert info["self_check"] == []
    for probe in layers.default_probes():
        assert vars(probe.owner)[probe.attribute] is originals[probe.name]


def test_probe_credits_nested_busy_time_to_the_outer_call():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    originals = dict(vars(Owner))
    probes = layers.ProbeSet(
        [layers.Probe("owner.outer", Owner, "outer"), layers.Probe("owner.inner", Owner, "inner")]
    )
    probes.install()
    assert Owner().outer() == 2
    assert probes.calls("owner.") == 2
    assert probes["owner.outer"].busy_s > 0.0 and probes["owner.inner"].busy_s == 0.0
    assert probes.uninstall() == []
    assert vars(Owner)["outer"] is originals["outer"] and vars(Owner)["inner"] is originals["inner"]


def test_gate_flags_a_hand_built_infeasible_solution():
    problem = build_problem()
    solution = Solution.zeros(problem)
    assert gate.feasibility_problems(problem, solution) == []
    routing = solution.routing.copy()
    routing[0, 0, 0] = 1.5  # over the unit box and served without caching
    problems = gate.feasibility_problems(problem, Solution(solution.caching, routing))
    assert problems and "infeasible" in problems[0]


def test_gate_flags_a_hand_built_infeasible_sparse_solution():
    instance = generate_city_instance(3, 12, 200, rng=5)
    result = solve_distributed_sparse(instance, SMALL)
    assert gate.feasibility_problems(instance, result.solution) == []
    assert gate.sparse_cost_problems(instance, result) == []
    # Cache one content too many at SBS 0.
    caching = list(result.solution.caching)
    extra = np.setdiff1d(np.arange(instance.num_files), caching[0])[:1]
    caching[0] = np.sort(np.concatenate([caching[0], extra]))
    bad = dataclasses.replace(result.solution, caching=tuple(caching))
    assert gate.feasibility_problems(instance, bad)
    assert gate.sparse_cost_problems(instance, dataclasses.replace(result, cost=result.cost * 1.01))


def test_gate_flags_a_mismatched_socket_cost():
    problem = build_problem()
    reference = solve_distributed(problem, SMALL, faults=FaultConfig())
    assert gate.socket_match_problems(reference, reference) == []
    off = dataclasses.replace(reference, cost=float(np.nextafter(reference.cost, np.inf)))
    problems = gate.socket_match_problems(off, reference)
    assert len(problems) == 1 and "socket cost" in problems[0]


def test_gate_flags_an_incomplete_privacy_ledger():
    problem = build_problem()
    result = solve_distributed(problem, SMALL, privacy=LPPMConfig(epsilon=0.5), rng=2)
    assert gate.ledger_problems(result, 0.5) == []
    result.accountant.record(party="sbs-0", epsilon=0.5, label="unbooked phase")
    assert gate.ledger_problems(result, 0.5)


def test_fingerprint_tells_different_solves_apart():
    problem = build_problem()
    first = solve_distributed(problem, SMALL, privacy=LPPMConfig(epsilon=1.0), rng=1)
    again = solve_distributed(problem, SMALL, privacy=LPPMConfig(epsilon=1.0), rng=1)
    other = solve_distributed(problem, SMALL, privacy=LPPMConfig(epsilon=1.0), rng=2)
    assert gate.fingerprint(first) == gate.fingerprint(again) != gate.fingerprint(other)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    argv = [sys.executable, "perfbench/run.py", "--workload", "paper-lppm", "--seed", "1"]
    argv += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
