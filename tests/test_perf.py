"""Tests for the perf instrumentation registry (repro.perf)."""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro import perf
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.subproblem import solve_subproblem

from conftest import random_problem


class TestTimer:
    def test_accumulates_across_intervals(self):
        timer = perf.Timer()
        with timer:
            pass
        first = timer.elapsed
        assert first >= 0.0
        with timer:
            time.sleep(0.001)
        assert timer.elapsed > first

    def test_stop_without_start_is_harmless(self):
        timer = perf.Timer()
        assert timer.stop() == 0.0
        assert timer.elapsed == 0.0


class TestPerfRegistry:
    def test_count_and_add_time(self):
        registry = perf.PerfRegistry()
        registry.count("events")
        registry.count("events", 4)
        registry.add_time("phase", 0.25)
        snap = registry.snapshot()
        assert snap["counters"]["events"] == 5
        assert snap["timings_s"]["phase"] == pytest.approx(0.25)

    def test_timer_context(self):
        registry = perf.PerfRegistry()
        with registry.timer("work"):
            pass
        assert registry.snapshot()["timings_s"]["work"] >= 0.0

    def test_reset_clears_everything(self):
        registry = perf.PerfRegistry()
        registry.count("a")
        registry.add_time("b", 1.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "timings_s": {}}

    def test_snapshot_is_a_copy(self):
        registry = perf.PerfRegistry()
        registry.count("a")
        snap = registry.snapshot()
        snap["counters"]["a"] = 99
        assert registry.snapshot()["counters"]["a"] == 1


class TestModuleHelpers:
    def test_inactive_by_default(self):
        assert perf.active_registry() is None
        perf.count("ignored")  # must be a silent no-op
        with perf.timed("ignored"):
            pass

    def test_collecting_installs_and_restores(self):
        registry = perf.PerfRegistry()
        with perf.collecting(registry) as active:
            assert active is registry
            assert perf.active_registry() is registry
            perf.count("seen")
        assert perf.active_registry() is None
        assert registry.snapshot()["counters"]["seen"] == 1

    def test_collecting_creates_registry_when_omitted(self):
        with perf.collecting() as registry:
            perf.count("x", 2)
        assert registry.snapshot()["counters"]["x"] == 2

    def test_nested_collecting_restores_outer(self):
        outer, inner = perf.PerfRegistry(), perf.PerfRegistry()
        with perf.collecting(outer):
            with perf.collecting(inner):
                perf.count("tick")
            assert perf.active_registry() is outer
        assert inner.snapshot()["counters"]["tick"] == 1
        assert "tick" not in outer.snapshot()["counters"]

    def test_activate_deactivate(self):
        registry = perf.activate()
        try:
            perf.count("n")
            assert registry.snapshot()["counters"]["n"] == 1
        finally:
            perf.deactivate()
        assert perf.active_registry() is None


class TestSolverInstrumentation:
    def test_subproblem_counters(self):
        problem = random_problem(np.random.default_rng(5))
        aggregate = 0.0 * problem.demand
        with perf.collecting() as registry:
            solve_subproblem(problem, 0, aggregate)
        counters = registry.snapshot()["counters"]
        assert counters["subproblem.solves"] == 1
        assert counters["subgradient.iterations"] >= 1
        # The default (batched) oracle solves whole rows of knapsacks at
        # a time, so it counts rows, not scalar calls.
        assert counters["knapsack.batched_rows"] >= 1
        assert "knapsack.calls" not in counters

    def test_subproblem_counters_legacy_oracle(self):
        from repro.core.subproblem import SubproblemConfig

        problem = random_problem(np.random.default_rng(5))
        aggregate = 0.0 * problem.demand
        with perf.collecting() as registry:
            solve_subproblem(
                problem, 0, aggregate, SubproblemConfig(oracle="legacy")
            )
        counters = registry.snapshot()["counters"]
        assert counters["knapsack.calls"] >= 1

    def test_registry_thread_safety(self):
        """Concurrent count/add_time must not lose increments."""
        import threading

        registry = perf.PerfRegistry()

        def hammer():
            for _ in range(2000):
                registry.count("hits")
                registry.add_time("t", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 8000
        assert abs(snap["timings_s"]["t"] - 8.0) < 1e-6

    def test_distributed_counters_and_timings(self):
        problem = random_problem(np.random.default_rng(5))
        config = DistributedConfig(accuracy=1e-3, max_iterations=3)
        with perf.collecting() as registry:
            result = solve_distributed(problem, config, rng=0)
        snap = registry.snapshot()
        assert snap["counters"]["algorithm1.iterations"] == result.iterations
        assert snap["counters"]["algorithm1.phases"] == (
            result.iterations * problem.num_sbs
        )
        assert snap["timings_s"]["algorithm1.sweep"] > 0.0
        assert snap["timings_s"]["algorithm1.phase_solve"] > 0.0
        # The solve time is a component of the sweep time.
        assert (
            snap["timings_s"]["algorithm1.phase_solve"]
            <= snap["timings_s"]["algorithm1.sweep"]
        )

    def test_instrumentation_does_not_change_results(self):
        problem = random_problem(np.random.default_rng(6))
        config = DistributedConfig(accuracy=1e-3, max_iterations=3)
        plain = solve_distributed(problem, config, rng=0)
        with perf.collecting():
            collected = solve_distributed(problem, config, rng=0)
        assert plain.cost == collected.cost


class TestCounterGlossary:
    def test_every_counter_has_a_glossary_row(self):
        """Each literal ``perf.count("...")`` name in the package is
        documented in the counter glossary of docs/performance.md."""
        root = Path(__file__).resolve().parent.parent
        emitted = {
            name
            for path in (root / "src" / "repro").rglob("*.py")
            for name in re.findall(r'perf\.count\(\s*"([^"]+)"', path.read_text(encoding="utf-8"))
        }
        doc = (root / "docs" / "performance.md").read_text(encoding="utf-8")
        glossary = doc.split("Counter glossary:", 1)[1].split("\n\n")[1]
        documented = set(re.findall(r"^\| `([^`]+)` \|", glossary, flags=re.MULTILINE))
        assert "subproblem.solves" in emitted
        assert sorted(emitted - documented) == []
