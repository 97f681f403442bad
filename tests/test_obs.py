"""Tests for the repro.obs run-trace subsystem."""

import io
import json

import numpy as np
import pytest

from conftest import random_problem
from repro import obs
from repro.core.asynchronous import AsyncConfig, solve_asynchronous
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.online import OnlineConfig, simulate_online
from repro.exceptions import ValidationError
from repro.network.faults import FaultConfig, FaultSchedule, LinkFaultProfile
from repro.obs import (
    TRACE_VERSION,
    ListRecorder,
    NullRecorder,
    TraceReader,
    TraceWriter,
    diff_traces,
    summarize_trace,
    validate_events,
)

CONFIG = DistributedConfig(accuracy=1e-3, max_iterations=4)


def traced_run(
    tmp_path, name="run.jsonl", *, problem=None, rng=1, timings=True, **kwargs
):
    """Run Algorithm 1 under a TraceWriter; return (result, events)."""
    if problem is None:
        problem = random_problem(np.random.default_rng(0))
    path = tmp_path / name
    with obs.recording(path, timings=timings):
        result = solve_distributed(problem, kwargs.pop("config", CONFIG), rng=rng, **kwargs)
    return result, TraceReader(path).events


class TestRecorderPlumbing:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.active_recorder() is None
        obs.emit("iteration", iteration=0, cost=1.0)  # silently dropped

    def test_recording_restores_previous_recorder(self):
        outer = ListRecorder()
        with obs.recording(outer):
            with obs.recording(ListRecorder()) as inner:
                obs.emit("phase", iteration=0, phase=0, sbs=0, cost=1.0)
                assert obs.active_recorder() is inner
            assert obs.active_recorder() is outer
        assert obs.active_recorder() is None

    def test_activate_deactivate(self):
        recorder = obs.activate(ListRecorder())
        try:
            assert obs.enabled()
            obs.emit("protocol", event="retry")
            assert recorder.events == [{"type": "protocol", "event": "retry"}]
        finally:
            obs.deactivate()
        assert not obs.enabled()

    def test_null_recorder_drops_everything(self):
        recorder = NullRecorder()
        recorder.record({"type": "protocol", "event": "drop"})

    def test_list_recorder_sanitizes_numpy(self):
        recorder = ListRecorder()
        with obs.recording(recorder):
            obs.emit(
                "iteration",
                iteration=np.int64(3),
                cost=np.float64(1.5),
                flags=np.array([1.0, 2.0]),
                nested={"x": np.float32(0.5)},
            )
        event = recorder.events[0]
        assert event["iteration"] == 3 and isinstance(event["iteration"], int)
        assert event["cost"] == 1.5 and isinstance(event["cost"], float)
        assert event["flags"] == [1.0, 2.0]
        assert event["nested"] == {"x": 0.5}
        json.dumps(event)  # everything is JSON-serializable


class TestTraceWriter:
    def test_header_and_contiguous_seq(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with TraceWriter(path) as writer:
            writer.record({"type": "protocol", "event": "retry"})
            writer.record({"type": "protocol", "event": "drop"})
        events = TraceReader(path).events
        assert events[0] == {"type": "trace_start", "version": TRACE_VERSION, "seq": 0}
        assert [event["seq"] for event in events] == [0, 1, 2]

    def test_sorted_keys_make_bytes_deterministic(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with TraceWriter(path) as writer:
                writer.record({"type": "protocol", "zeta": 1, "alpha": 2, "event": "x"})
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        assert b'"alpha": 2' in paths[0]

    def test_accepts_open_handle_without_closing_it(self):
        handle = io.StringIO()
        writer = TraceWriter(handle)
        writer.record({"type": "protocol", "event": "retry"})
        writer.close()
        lines = handle.getvalue().strip().splitlines()
        assert len(lines) == 2  # header + one event

    def test_events_written_counts_header(self, tmp_path):
        with TraceWriter(tmp_path / "c.jsonl") as writer:
            assert writer.events_written == 1
            writer.record({"type": "protocol", "event": "retry"})
            assert writer.events_written == 2


class TestTraceReader:
    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "trace_start"}\nnot json\n')
        with pytest.raises(ValidationError):
            TraceReader(path)

    def test_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValidationError):
            TraceReader(path)

    def test_accepts_event_list(self):
        events = [{"type": "trace_start", "version": TRACE_VERSION}]
        assert TraceReader(events).events == events


class TestDistributedTrace:
    def test_default_run_validates(self, tmp_path):
        _, events = traced_run(tmp_path)
        assert validate_events(events) == []

    def test_summary_reproduces_final_cost_exactly(self, tmp_path):
        result, events = traced_run(tmp_path)
        (summary,) = summarize_trace(events)
        assert summary.final_cost == result.cost
        assert summary.reported_final_cost == result.cost
        assert summary.iterations == result.iterations
        assert summary.converged == result.converged

    def test_summary_reproduces_epsilon_ledger_exactly(self, tmp_path):
        from repro.privacy.mechanism import LPPMConfig

        result, events = traced_run(tmp_path, privacy=LPPMConfig(epsilon=0.7))
        assert validate_events(events) == []
        (summary,) = summarize_trace(events)
        assert summary.total_epsilon == result.total_epsilon
        assert summary.reported_total_epsilon == result.total_epsilon
        assert summary.releases > 0
        # Every SBS booked the same basic-composition budget.
        assert len(set(summary.epsilon_by_party.values())) == 1

    def test_iteration_events_carry_dual_gap_and_mu_norm(self, tmp_path):
        _, events = traced_run(tmp_path)
        iterations = [event for event in events if event["type"] == "iteration"]
        assert iterations
        for event in iterations:
            assert event["dual_gap_max"] >= 0.0
            assert event["mu_norm_max"] >= event["mu_norm_mean"] >= 0.0

    def test_phase_events_match_history(self, tmp_path):
        result, events = traced_run(tmp_path)
        phases = [event for event in events if event["type"] == "phase"]
        assert len(phases) == len(result.history.phases)
        for event, record in zip(phases, result.history.phases):
            assert event["iteration"] == record.iteration
            assert event["sbs"] == record.sbs
            assert event["cost"] == record.cost

    def test_resilient_run_traces_protocol_events(self, tmp_path):
        faults = FaultConfig(
            default=LinkFaultProfile(drop=0.3),
            schedule=FaultSchedule().crash_sbs(1, at=2, recover_at=4),
            seed=7,
        )
        result, events = traced_run(
            tmp_path,
            config=DistributedConfig(max_iterations=8, max_retries=3),
            faults=faults,
        )
        assert validate_events(events) == []
        (summary,) = summarize_trace(events)
        assert summary.retries == result.total_retries > 0
        assert summary.stale_phases == result.stale_phases > 0
        assert summary.protocol_counts.get("crash_skip", 0) > 0
        assert summary.protocol_counts.get("recover", 0) > 0
        assert summary.protocol_counts.get("drop", 0) > 0

    def test_prices_run_emits_restoration_iteration(self, tmp_path):
        _, events = traced_run(
            tmp_path, config=DistributedConfig(max_iterations=4, coordination="prices")
        )
        assert validate_events(events) == []
        restorations = [
            event
            for event in events
            if event["type"] == "iteration" and event.get("restoration")
        ]
        assert len(restorations) == 1

    def test_jacobi_run_validates(self, tmp_path):
        _, events = traced_run(
            tmp_path, config=DistributedConfig(max_iterations=4, mode="jacobi")
        )
        assert validate_events(events) == []

    def test_traced_run_matches_untraced(self, tmp_path):
        problem = random_problem(np.random.default_rng(3))
        baseline = solve_distributed(problem, CONFIG, rng=5)
        traced, _ = traced_run(tmp_path, problem=problem, rng=5)
        assert traced.cost == baseline.cost
        np.testing.assert_array_equal(
            traced.solution.routing, baseline.solution.routing
        )

    def test_same_run_gives_byte_identical_traces(self, tmp_path):
        # timings=False strips the wall-clock solve_seconds fields —
        # with them, two runs of the same seed differ byte-wise.
        problem = random_problem(np.random.default_rng(3))
        traced_run(tmp_path, "a.jsonl", problem=problem, rng=5, timings=False)
        traced_run(tmp_path, "b.jsonl", problem=problem, rng=5, timings=False)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestAsyncTrace:
    def test_async_run_validates_and_matches(self, tmp_path):
        from repro.privacy.mechanism import LPPMConfig

        problem = random_problem(np.random.default_rng(0))
        path = tmp_path / "async.jsonl"
        with obs.recording(path):
            result = solve_asynchronous(
                problem,
                AsyncConfig(duration=15.0, drop_probability=0.2),
                privacy=LPPMConfig(epsilon=0.5),
                rng=3,
            )
        events = TraceReader(path).events
        assert validate_events(events) == []
        (summary,) = summarize_trace(events)
        assert summary.run == "async"
        assert summary.final_cost == result.cost
        assert summary.total_epsilon == result.epsilon_spent
        assert summary.protocol_counts.get("drop", 0) == result.messages_dropped


class TestOnlineTrace:
    def test_online_run_nests_inner_runs(self, tmp_path):
        from repro.privacy.mechanism import LPPMConfig

        problem = random_problem(np.random.default_rng(0))
        rng = np.random.default_rng(5)
        slots = [
            problem.demand * rng.uniform(0.7, 1.3, size=problem.demand.shape)
            for _ in range(4)
        ]
        path = tmp_path / "online.jsonl"
        with obs.recording(path):
            result = simulate_online(
                problem,
                slots,
                OnlineConfig(
                    reoptimize_every=2,
                    switch_cost=1.0,
                    distributed=CONFIG,
                    privacy=LPPMConfig(epsilon=0.5),
                ),
                rng=7,
            )
        reader = TraceReader(path)
        assert validate_events(reader.events) == []
        (outer,) = reader.runs()
        assert outer.run == "online"
        assert len(outer.children) == 2  # slots 0 and 2 re-optimize
        summaries = summarize_trace(reader.events)
        assert summaries[0].final_cost == result.total_cost()
        assert summaries[0].reported_total_epsilon == result.epsilon_spent
        assert summaries[0].total_epsilon == result.epsilon_spent


    def test_validate_flags_incomplete_online_ledger(self, tmp_path):
        # A private online run whose child books no epsilon is exactly
        # the slot the composed budget would silently drop; validate must
        # flag the incomplete ledger.
        from repro.privacy.mechanism import LPPMConfig

        problem = random_problem(np.random.default_rng(0))
        slots = [problem.demand, problem.demand]
        path = tmp_path / "online.jsonl"
        with obs.recording(path):
            simulate_online(
                problem,
                slots,
                OnlineConfig(distributed=CONFIG, privacy=LPPMConfig(epsilon=0.5)),
                rng=7,
            )
        events = TraceReader(path).events
        assert validate_events(events) == []
        # Strip the ledger from the second child run_end.
        depth, run_ends = 0, []
        for event in events:
            if event["type"] == "run_start":
                depth += 1
            elif event["type"] == "run_end":
                depth -= 1
                if depth == 1:  # closes a child (inner) run
                    run_ends.append(event)
        assert len(run_ends) == 2
        run_ends[1]["total_epsilon"] = None
        issues = validate_events(events)
        assert any("no epsilon ledger" in issue for issue in issues)


class TestValidateCatchesCorruption:
    def test_missing_header(self):
        assert validate_events([]) == ["trace is empty"]
        issues = validate_events([{"type": "protocol", "event": "retry"}])
        assert any("trace_start" in issue for issue in issues)

    def test_unknown_version(self):
        issues = validate_events([{"type": "trace_start", "version": 999}])
        assert any("version" in issue for issue in issues)

    def test_unknown_event_type(self, tmp_path):
        _, events = traced_run(tmp_path)
        events.append({"type": "mystery"})
        assert any("unknown type" in issue for issue in validate_events(events))

    def test_missing_required_field(self):
        events = [
            {"type": "trace_start", "version": TRACE_VERSION},
            {"type": "privacy", "party": "sbs-0"},  # epsilon missing
        ]
        assert any("missing fields" in issue for issue in validate_events(events))

    def test_gap_in_seq(self, tmp_path):
        _, events = traced_run(tmp_path)
        events[3]["seq"] = 99
        assert any("not contiguous" in issue for issue in validate_events(events))

    def test_tampered_cost_is_caught(self, tmp_path):
        _, events = traced_run(tmp_path)
        for event in events:
            if event["type"] == "iteration":
                event["cost"] += 1.0
        issues = validate_events(events)
        assert any("does not match" in issue or "final cost" in issue for issue in issues)

    def test_tampered_epsilon_is_caught(self, tmp_path):
        from repro.privacy.mechanism import LPPMConfig

        _, events = traced_run(tmp_path, privacy=LPPMConfig(epsilon=0.7))
        for event in events:
            if event["type"] == "privacy":
                event["epsilon"] *= 2.0
        assert any("epsilon" in issue for issue in validate_events(events))

    @pytest.mark.parametrize("dense", [True, False], ids=["grid", "pairs"])
    def test_tampered_iteration_counter_is_caught(self, tmp_path, dense):
        """The layout's iteration counter must equal ``run_end.iterations``."""
        from repro.core.sparse import SparseProblemInstance

        problem = random_problem(np.random.default_rng(0))
        if not dense:
            problem = SparseProblemInstance.from_dense(problem)
        _, events = traced_run(tmp_path, problem=problem)
        assert validate_events(events) == []
        (end,) = [event for event in events if event["type"] == "run_end"]
        name = "algorithm1.iterations" if dense else "algorithm1.sparse_iterations"
        assert end["counters"][name] == end["iterations"]
        end["counters"][name] += 1
        issues = validate_events(events)
        assert any(f"counter {name}" in issue for issue in issues)

    def test_truncated_run_is_caught(self, tmp_path):
        _, events = traced_run(tmp_path)
        truncated = [event for event in events if event["type"] != "run_end"]
        issues = validate_events(truncated)
        assert any("never closed" in issue or "truncated" in issue for issue in issues)


class TestDiff:
    def test_identical_runs_agree(self, tmp_path):
        problem = random_problem(np.random.default_rng(3))
        _, a = traced_run(tmp_path, "a.jsonl", problem=problem, rng=5)
        _, b = traced_run(tmp_path, "b.jsonl", problem=problem, rng=5)
        assert diff_traces(a, b) == []

    def test_different_seeds_diverge(self, tmp_path):
        from repro.privacy.mechanism import LPPMConfig

        problem = random_problem(np.random.default_rng(3))
        privacy = LPPMConfig(epsilon=0.7)
        _, a = traced_run(tmp_path, "a.jsonl", problem=problem, rng=5, privacy=privacy)
        _, b = traced_run(tmp_path, "b.jsonl", problem=problem, rng=6, privacy=privacy)
        assert diff_traces(a, b) != []

    def test_tolerance_absorbs_small_deltas(self, tmp_path):
        _, a = traced_run(tmp_path, "a.jsonl")
        b = [dict(event) for event in a]
        for event in b:
            if event["type"] in ("iteration", "phase", "run_end"):
                for key in ("cost", "final_cost"):
                    if key in event:
                        event[key] += 1e-12
        assert diff_traces(a, b, tolerance=1e-9) == []
        assert diff_traces(a, b) != []

    def test_run_count_mismatch(self, tmp_path):
        _, a = traced_run(tmp_path, "a.jsonl")
        assert any("run count" in d for d in diff_traces(a, a[:1]))
