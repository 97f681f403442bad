"""Tests for the perf instrumentation registry (repro.perf)."""

import re
from pathlib import Path

import numpy as np

from repro import obs, perf
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.subproblem import solve_subproblem

from conftest import random_problem


class TestPerfRegistry:
    def test_count_accumulates(self):
        registry = perf.PerfRegistry()
        registry.count("events")
        registry.count("events", 4)
        assert registry.snapshot() == {"counters": {"events": 5}}

    def test_reset_clears_everything(self):
        registry = perf.PerfRegistry()
        registry.count("a")
        registry.count("b", 3)
        registry.reset()
        assert registry.snapshot() == {"counters": {}}

    def test_snapshot_is_a_copy(self):
        registry = perf.PerfRegistry()
        registry.count("a")
        snap = registry.snapshot()
        snap["counters"]["a"] = 99
        assert registry.snapshot()["counters"]["a"] == 1


class TestModuleHelpers:
    def test_inactive_by_default(self):
        assert obs.active_counters() is None
        perf.count("ignored")  # must be a silent no-op
        with perf.collecting() as registry:
            pass
        assert registry.snapshot() == {"counters": {}}

    def test_collecting_installs_and_restores(self):
        registry = perf.PerfRegistry()
        with perf.collecting(registry) as active:
            assert active is registry
            perf.count("seen")
        perf.count("seen")  # after the body: the adapter is gone again
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
            perf.count("tock")
        assert inner.snapshot()["counters"] == {"tick": 1}
        assert outer.snapshot()["counters"] == {"tock": 1}

    def test_activate_deactivate(self):
        """Activating a recorder activates its counter table too."""
        recorder = obs.activate(obs.ListRecorder())
        try:
            assert obs.active_counters() is recorder.counters
            perf.count("n")
            assert recorder.counters.snapshot()["counters"]["n"] == 1
        finally:
            obs.deactivate()
        assert obs.active_counters() is None


class TestRecorderCounters:
    def test_counts_land_in_the_active_recorder(self):
        outer, inner = obs.ListRecorder(), obs.ListRecorder()
        with obs.recording(outer):
            perf.count("a")
            with obs.recording(inner):
                perf.count("b", 3)
            perf.count("a")
        assert outer.counters.counters == {"a": 2}
        assert inner.counters.counters == {"b": 3}

    def test_since_reports_sorted_nonzero_changes(self):
        table = obs.CounterTable()
        table.fold({"b": 2, "a": 1})
        before = dict(table.counters)
        table.fold({"c": 4, "a": 0})
        table.count("b")
        assert list(table.since(before).items()) == [("b", 1), ("c", 4)]

    def test_run_end_carries_counters_without_a_registry(self):
        problem = random_problem(np.random.default_rng(5))
        sink = obs.ListRecorder()
        with obs.recording(sink, timings=False):
            result = solve_distributed(problem, DistributedConfig(max_iterations=3), rng=0)
        (end,) = [e for e in sink.events if e["type"] == "run_end"]
        counters = end["counters"]
        assert list(counters) == sorted(counters)
        assert counters["algorithm1.iterations"] == result.iterations
        assert counters["algorithm1.phases"] == result.iterations * problem.num_sbs
        assert counters["subproblem.solves"] == counters["algorithm1.phases"]

    def test_each_run_reports_only_its_own_counts(self):
        problem = random_problem(np.random.default_rng(5))
        config = DistributedConfig(max_iterations=3)
        sink = obs.ListRecorder()
        with obs.recording(sink, timings=False):
            solve_distributed(problem, config, rng=0)
            solve_distributed(problem, config, rng=0)
        first, second = [e["counters"] for e in sink.events if e["type"] == "run_end"]
        assert first == second


class TestSolverInstrumentation:
    def test_subproblem_counters(self):
        problem = random_problem(np.random.default_rng(5))
        aggregate = 0.0 * problem.demand
        with perf.collecting() as registry:
            solve_subproblem(problem, 0, aggregate)
        counters = registry.snapshot()["counters"]
        assert counters["subproblem.solves"] == 1
        assert counters["subproblem.price_probes"] >= 1
        # The oracle solves whole rows of knapsacks at a time, so it
        # counts rows, not scalar calls.
        assert counters["knapsack.batched_rows"] >= 1
        assert "knapsack.calls" not in counters

    def test_subproblem_counters_per_probe(self):
        """The oracle counts its price probes as iterations, one per dual
        value; without polish it solves one recovery row per end of the
        last bracket at most."""
        from repro.core.subproblem import SubproblemConfig

        problem = random_problem(np.random.default_rng(5))
        aggregate = 0.0 * problem.demand
        with perf.collecting() as registry:
            solution = solve_subproblem(problem, 0, aggregate, SubproblemConfig(polish=False))
        counters = registry.snapshot()["counters"]
        assert counters["subproblem.solves"] == 1
        assert counters["subproblem.price_probes"] == len(solution.dual_history) >= 1
        assert 1 <= counters["knapsack.batched_rows"] <= 2
        assert "knapsack.calls" not in counters

    def test_registry_thread_safety(self):
        """Concurrent counts and folds must not lose increments."""
        import sys
        import threading

        registry = perf.PerfRegistry()

        def hammer():
            for _ in range(2000):
                registry.count("hits")
                registry.count("bulk", 3)
                registry.fold({"hits": 1, "folded": 2})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.snapshot() == {
            "counters": {"hits": 16000, "bulk": 24000, "folded": 16000}
        }

    def test_distributed_counters_and_timings(self):
        """The registry counts; the timings are the spans' ``seconds``."""
        problem = random_problem(np.random.default_rng(5))
        config = DistributedConfig(accuracy=1e-3, max_iterations=3)
        sink = obs.ListRecorder()
        with perf.collecting() as registry:
            with obs.recording(sink, timings=True, spans=True):
                result = solve_distributed(problem, config, rng=0)
        counters = registry.snapshot()["counters"]
        assert counters["algorithm1.iterations"] == result.iterations
        assert counters["algorithm1.phases"] == result.iterations * problem.num_sbs
        spans = [e for e in sink.events if e.get("type") == "span"]
        sweeps = [e["seconds"] for e in spans if e["name"] == "iteration"]
        solves = [e["seconds"] for e in spans if e["category"] == "solve"]
        assert len(sweeps) == result.iterations and min(sweeps) > 0.0
        assert len(solves) == counters["algorithm1.phases"]
        # The solve time is a component of the sweep time.
        assert sum(solves) <= sum(sweeps)
        # The run's counters are a ``run_end`` fact, not a root-span
        # attribute, and the same counts the adapter saw.
        root = [e for e in spans if e["parent"] is None][0]
        assert not [key for key in root if key.startswith("perf_")]
        (end,) = [e for e in sink.events if e["type"] == "run_end"]
        assert end["counters"] == {name: counters[name] for name in sorted(counters)}

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
