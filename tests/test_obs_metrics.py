"""Tests for the labeled metrics layer: registry, derivation, parity."""

import json

import numpy as np
import pytest
from conftest import random_problem

from repro import obs
from repro.core.asynchronous import AsyncConfig, solve_asynchronous
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.online import OnlineConfig, simulate_online
from repro.exceptions import ValidationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_sweep
from repro.obs.metrics import (
    MAX_SERIES_PER_FAMILY,
    Histogram,
    MetricsRegistry,
    label_value,
)
from repro.privacy.mechanism import LPPMConfig

CONFIG = DistributedConfig(accuracy=1e-3, max_iterations=4)


class TestLabelValue:
    def test_bool_renders_lowercase(self):
        assert label_value(True) == "true"
        assert label_value(False) == "false"

    def test_numpy_bool_matches_python_bool(self):
        assert label_value(np.bool_(True)) == "true"

    def test_integral_float_drops_point(self):
        assert label_value(5.0) == "5"
        assert label_value(np.float64(5.0)) == "5"

    def test_plain_values(self):
        assert label_value(3) == "3"
        assert label_value("sbs-0") == "sbs-0"
        assert label_value(1.5) == "1.5"


class TestInstruments:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "x").labels()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValidationError):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("repro_g", "g").labels()
        gauge.set(10.0)
        gauge.set(3.0)
        assert gauge.value == 3.0

    def test_histogram_boundary_is_inclusive(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(1.0)  # exactly the first bound -> first bucket
        hist.observe(2.0)  # exactly the second bound -> second bucket
        hist.observe(2.0001)  # above all finite bounds -> +Inf
        assert hist.counts == [1, 1]
        assert hist.inf_count == 1
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.0001)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValidationError):
            Histogram(())
        with pytest.raises(ValidationError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValidationError):
            Histogram((2.0, 1.0))


class TestFamilies:
    def test_empty_label_set(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_plain_total", "no labels")
        family.labels().inc()
        snap = family.snapshot()
        assert snap["labels"] == []
        assert snap["series"] == [{"labels": {}, "value": 1.0}]

    def test_label_name_mismatch_rejected(self):
        family = MetricsRegistry().counter("repro_t_total", "t", ("sbs",))
        with pytest.raises(ValidationError):
            family.labels(scheme="lppm")
        with pytest.raises(ValidationError):
            family.labels()  # missing the declared label
        with pytest.raises(ValidationError):
            family.labels(sbs=0, extra=1)

    def test_cardinality_cap(self):
        family = MetricsRegistry().counter("repro_c_total", "c", ("i",))
        for i in range(MAX_SERIES_PER_FAMILY):
            family.labels(i=i).inc()
        with pytest.raises(ValidationError):
            family.labels(i=MAX_SERIES_PER_FAMILY).inc()
        # Existing series stay writable at the cap.
        family.labels(i=0).inc()

    def test_duplicate_label_name_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("repro_d_total", "d", ("a", "a"))


class TestRegistry:
    def test_reregistration_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x", ("sbs",))
        second = registry.counter("repro_x_total", "x", ("sbs",))
        assert first is second

    def test_conflicting_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x", ("sbs",))
        with pytest.raises(ValidationError):
            registry.gauge("repro_x_total", "x", ("sbs",))
        with pytest.raises(ValidationError):
            registry.counter("repro_x_total", "x", ("scheme",))

    def test_conflicting_histogram_buckets_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", "h", buckets=(1.0, 2.0))
        with pytest.raises(ValidationError):
            registry.histogram("repro_h", "h", buckets=(1.0, 3.0))

    def test_snapshot_is_sorted_and_versioned(self):
        registry = MetricsRegistry()
        registry.counter("repro_b_total", "b").labels().inc()
        registry.counter("repro_a_total", "a").labels().inc()
        snap = registry.snapshot()
        assert snap["metrics_version"] == 1
        assert list(snap["families"]) == ["repro_a_total", "repro_b_total"]

    def test_to_json_deterministic_only_drops_seconds(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x").labels().inc()
        registry.histogram("repro_x_seconds", "wall clock").labels().observe(0.5)
        full = json.loads(registry.to_json())
        trimmed = json.loads(registry.to_json(deterministic_only=True))
        assert "repro_x_seconds" in full["families"]
        assert "repro_x_seconds" not in trimmed["families"]
        assert "repro_x_total" in trimmed["families"]

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x events", ("sbs",)).labels(sbs=0).inc(2)
        hist = registry.histogram("repro_h", "hist", buckets=(1.0, 2.0)).labels()
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        text = registry.to_prometheus()
        assert "# HELP repro_x_total x events" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{sbs="0"} 2' in text
        # Cumulative le buckets plus +Inf, sum and count.
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="2"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_sum 11" in text
        assert "repro_h_count 3" in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x", ("p",)).labels(p='a"b').inc()
        assert 'p="a\\"b"' in registry.to_prometheus()


class TestMerge:
    def test_disjoint_families_carry_over(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("repro_a_total", "a").labels().inc()
        right.counter("repro_b_total", "b").labels().inc(2)
        merged = left.merge(right)
        assert merged is left
        assert left.family("repro_a_total").labels().value == 1.0
        assert left.family("repro_b_total").labels().value == 2.0

    def test_overlapping_counters_add_gauges_overwrite(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("repro_c_total", "c").labels().inc(1)
        right.counter("repro_c_total", "c").labels().inc(2)
        left.gauge("repro_g", "g").labels().set(1.0)
        right.gauge("repro_g", "g").labels().set(9.0)
        left.merge(right)
        assert left.family("repro_c_total").labels().value == 3.0
        assert left.family("repro_g").labels().value == 9.0

    def test_histograms_add_bucketwise(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("repro_h", "h", buckets=(1.0, 2.0)).labels().observe(0.5)
        right.histogram("repro_h", "h", buckets=(1.0, 2.0)).labels().observe(1.5)
        left.merge(right)
        child = left.family("repro_h").labels()
        assert child.counts == [1, 1]
        assert child.count == 2
        assert child.sum == pytest.approx(2.0)

    def test_conflicting_kind_rejected(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("repro_x", "x").labels().inc()
        right.gauge("repro_x", "x").labels().set(1.0)
        with pytest.raises(ValidationError):
            left.merge(right)


class TestLiveOfflineParity:
    """The tentpole invariant: live metering == offline derivation, byte-wise."""

    def _problem(self, seed=0):
        return random_problem(np.random.default_rng(seed))

    def test_algorithm1_snapshots_byte_identical(self, tmp_path):
        problem = self._problem()
        trace = tmp_path / "run.jsonl"
        with obs.metering(trace=trace) as registry:
            solve_distributed(problem, CONFIG, rng=1)
        live = registry.to_json()
        offline = obs.derive_metrics(trace).to_json()
        assert live == offline

    def test_private_run_epsilon_families(self, tmp_path):
        problem = self._problem()
        trace = tmp_path / "run.jsonl"
        with obs.metering(trace=trace) as registry:
            solve_distributed(problem, CONFIG, privacy=LPPMConfig(epsilon=0.5), rng=1)
        assert registry.to_json() == obs.derive_metrics(trace).to_json()
        snap = registry.snapshot()["families"]
        assert "repro_privacy_epsilon_total" in snap
        assert "repro_privacy_epsilon_per_release" in snap
        total = sum(
            row["value"] for row in snap["repro_privacy_epsilon_total"]["series"]
        )
        assert total > 0.0

    def test_metrics_only_run_without_trace(self):
        problem = self._problem()
        with obs.metering() as registry:
            result = solve_distributed(problem, CONFIG, rng=1)
        families = registry.snapshot()["families"]
        assert families["repro_runs_total"]["series"][0]["value"] == 1.0
        cost = families["repro_run_final_cost"]["series"][0]["value"]
        assert cost == pytest.approx(result.cost)

    def test_run_counters_family(self, tmp_path):
        """``run_end.counters`` becomes one labeled counter family, live
        and offline alike, with no perf registry active."""
        problem = self._problem()
        trace = tmp_path / "run.jsonl"
        with obs.metering(trace=trace) as registry:
            result = solve_distributed(problem, CONFIG, rng=1)
        assert registry.to_json() == obs.derive_metrics(trace).to_json()
        series = registry.snapshot()["families"]["repro_run_counters_total"]["series"]
        counted = {row["labels"]["counter"]: row["value"] for row in series}
        (end,) = [e for e in obs.TraceReader(trace).events if e["type"] == "run_end"]
        assert counted == {name: float(value) for name, value in end["counters"].items()}
        assert counted["algorithm1.iterations"] == result.iterations
        assert {row["labels"]["run"] for row in series} == {"algorithm1"}

    def test_async_run_derives_staleness(self, tmp_path):
        problem = self._problem()
        trace = tmp_path / "async.jsonl"
        with obs.metering(trace=trace) as registry:
            solve_asynchronous(problem, AsyncConfig(duration=15.0), rng=3)
        assert registry.to_json() == obs.derive_metrics(trace).to_json()
        families = registry.snapshot()["families"]
        assert "repro_async_staleness" in families
        assert "repro_async_updates_total" in families

    def test_online_run_derives_slots(self, tmp_path):
        problem = self._problem()
        rng = np.random.default_rng(5)
        slots = [
            problem.demand * rng.uniform(0.7, 1.3, size=problem.demand.shape)
            for _ in range(4)
        ]
        trace = tmp_path / "online.jsonl"
        with obs.metering(trace=trace) as registry:
            simulate_online(
                problem,
                slots,
                OnlineConfig(
                    reoptimize_every=2,
                    switch_cost=1.0,
                    distributed=CONFIG,
                ),
            )
        assert registry.to_json() == obs.derive_metrics(trace).to_json()
        families = registry.snapshot()["families"]
        assert "repro_slots_total" in families
        assert "repro_serving_cost_total" in families


class TestSweepRollups:
    def _sweep(self, **kwargs):
        scenario = ScenarioConfig(num_groups=8, num_links=10, seed=3)
        return run_sweep(
            "metrics-sweep",
            "epsilon",
            [0.1, 1.0],
            lambda _x: scenario,
            epsilon_of_x=lambda x: float(x),
            seeds=(7, 11),
            distributed_config=DistributedConfig(accuracy=1e-3, max_iterations=2),
            **kwargs,
        )

    def test_parallel_rollup_matches_serial(self):
        with obs.metering(timings=False) as serial:
            self._sweep(workers=1)
        with obs.metering(timings=False) as parallel:
            self._sweep(workers=3)
        assert serial.to_json() == parallel.to_json()

    def test_scheme_rollups_present(self):
        with obs.metering(timings=False) as registry:
            self._sweep(workers=2)
        families = registry.snapshot()["families"]
        # LRFU has no solver protocol, so only the Algorithm 1 schemes
        # produce run_end rollups; every scheme still counts its cells.
        run_schemes = {
            row["labels"]["scheme"]
            for row in families["repro_scheme_runs_total"]["series"]
        }
        assert run_schemes == {"optimum", "lppm"}
        cell_schemes = {
            row["labels"]["scheme"]
            for row in families["repro_sweep_cells_total"]["series"]
        }
        assert cell_schemes == {"optimum", "lppm", "lrfu"}
        assert "repro_cell_final_cost" in families


class TestTimings:
    """Satellite 1: tracing alone produces per-phase timings (no perf registry)."""

    def test_phase_events_carry_solve_seconds_by_default(self):
        problem = random_problem(np.random.default_rng(3))
        recorder = obs.ListRecorder()
        with obs.recording(recorder):
            solve_distributed(problem, CONFIG, rng=5)
        phases = [e for e in recorder.events if e["type"] == "phase"]
        assert phases
        assert all("solve_seconds" in e for e in phases)
        assert all(e["solve_seconds"] >= 0.0 for e in phases)

    def test_timings_false_strips_solve_seconds(self):
        problem = random_problem(np.random.default_rng(3))
        recorder = obs.ListRecorder()
        with obs.recording(recorder, timings=False):
            solve_distributed(problem, CONFIG, rng=5)
        phases = [e for e in recorder.events if e["type"] == "phase"]
        assert phases
        assert all("solve_seconds" not in e for e in phases)

    def test_timings_flag_restored_after_recording(self):
        assert not obs.timings_enabled()  # no recorder active
        with obs.recording(obs.ListRecorder(), timings=False):
            assert not obs.timings_enabled()
            with obs.recording(obs.ListRecorder()):
                assert obs.timings_enabled()
            assert not obs.timings_enabled()
        assert not obs.timings_enabled()

    def test_jacobi_phases_carry_per_sbs_timings(self):
        problem = random_problem(np.random.default_rng(3))
        recorder = obs.ListRecorder()
        with obs.recording(recorder):
            solve_distributed(
                problem, DistributedConfig(max_iterations=3, mode="jacobi"), rng=5
            )
        phases = [e for e in recorder.events if e["type"] == "phase"]
        assert phases
        assert all("solve_seconds" in e for e in phases)
