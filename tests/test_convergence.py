"""Tests for convergence tracking."""

import numpy as np
import pytest

from repro import obs
from repro.core.convergence import CostHistory, PhaseOutcome, PhaseRecord, RunLoop
from repro.core.distributed import DistributedConfig
from repro.exceptions import ProtocolTimeout, ValidationError


def history_with(costs, initial=100.0):
    history = CostHistory(initial_cost=initial)
    for index, cost in enumerate(costs):
        history.record_phase(
            PhaseRecord(iteration=0, phase=index, sbs=index, cost=cost, noise_l1=0.5)
        )
    return history


class TestCostHistory:
    def test_final_cost_initial_when_empty(self):
        history = CostHistory(initial_cost=42.0)
        assert history.final_cost == 42.0

    def test_final_cost_last_iteration(self):
        history = CostHistory(initial_cost=42.0)
        history.close_iteration(30.0)
        history.close_iteration(25.0)
        assert history.final_cost == 25.0

    def test_relative_improvement_none_initially(self):
        history = CostHistory(initial_cost=10.0)
        history.close_iteration(8.0)
        assert history.relative_improvement() is None

    def test_relative_improvement_value(self):
        history = CostHistory(initial_cost=10.0)
        history.close_iteration(8.0)
        history.close_iteration(4.0)
        assert history.relative_improvement() == pytest.approx(1.0)

    def test_relative_improvement_zero_cost(self):
        history = CostHistory(initial_cost=10.0)
        history.close_iteration(1.0)
        history.close_iteration(0.0)
        assert history.relative_improvement() == 0.0

    def test_non_increasing_true(self):
        history = history_with([90.0, 80.0, 80.0, 70.0])
        assert history.is_non_increasing()

    def test_non_increasing_false(self):
        history = history_with([90.0, 95.0])
        assert not history.is_non_increasing()

    def test_non_increasing_respects_initial(self):
        history = history_with([150.0], initial=100.0)
        assert not history.is_non_increasing()

    def test_total_noise(self):
        history = history_with([90.0, 80.0])
        assert history.total_noise() == pytest.approx(1.0)

    def test_phase_costs_array(self):
        history = history_with([90.0, 80.0])
        np.testing.assert_allclose(history.phase_costs(), [90.0, 80.0])

    def test_summary(self):
        history = history_with([90.0, 80.0])
        history.close_iteration(80.0)
        summary = history.summary()
        assert summary["iterations"] == 1
        assert summary["phases"] == 2
        assert summary["final_cost"] == 80.0


STATS = {"dual_gap": 0.25}
WHERE = {"sbs": 1, "iteration": 0, "phase": 0}


def settle_one(problem, outcome, *, on_timeout="degrade", category="solve"):
    """Drive one phase of one sweep through :meth:`RunLoop.settle`."""
    config = DistributedConfig(max_iterations=1, max_retries=3, on_timeout=on_timeout)
    loop = RunLoop(config, problem, cost=lambda: 7.0)
    recorder = obs.ListRecorder()
    with obs.recording(recorder, timings=False, spans=True):
        loop.start()
        for _sweep in loop.sweeps():
            for slot in loop.phases([1], category=category):
                loop.settle(slot, outcome)
        loop.finish()
    return loop, recorder.events


class TestPhaseDriver:
    """The verdict -> event / span / record table of ``RunLoop.settle``."""

    @pytest.mark.parametrize(
        "outcome, event, stale, retries, annotation",
        [
            (PhaseOutcome("delivered", retries=2, noise_l1=0.5, stats=STATS), None, False, 2, {}),
            (
                PhaseOutcome("degraded", retries=1, noise_l1=0.5, stats=STATS),
                {"event": "degrade", "retries": 3},
                True,
                3,
                {},
            ),
            (
                PhaseOutcome("crashed"),
                {"event": "crash_skip"},
                True,
                0,
                {"category": "straggler", "crashed": True},
            ),
            (
                PhaseOutcome("expired", folded=True),
                {"event": "deadline_expired", "folded": True},
                False,
                0,
                {"category": "straggler", "deadline_expired": True, "folded": True},
            ),
            (
                PhaseOutcome("expired", folded=False),
                {"event": "deadline_expired", "folded": False},
                True,
                0,
                {"category": "straggler", "deadline_expired": True, "folded": False},
            ),
        ],
        ids=["delivered", "degraded", "crashed", "expired-folded", "expired-lost"],
    )
    def test_verdict_table(self, tiny_problem, outcome, event, stale, retries, annotation):
        loop, events = settle_one(tiny_problem, outcome)
        protocol = [
            {k: v for k, v in e.items() if k != "type"} for e in events if e["type"] == "protocol"
        ]
        assert protocol == ([] if event is None else [{**event, **WHERE}])
        record = PhaseRecord(
            iteration=0,
            phase=0,
            sbs=1,
            cost=7.0,
            noise_l1=outcome.noise_l1,
            retries=retries,
            stale=stale,
        )
        assert loop.history.phases == [record]
        (phase_event,) = [e for e in events if e["type"] == "phase"]
        assert phase_event["stale"] is stale and phase_event["retries"] == retries
        assert ("dual_gap" in phase_event) == (outcome.stats is not None)
        (span,) = [e for e in events if e["type"] == "span" and e["name"] == "phase"]
        expected = {"category": "solve", **WHERE, **annotation}
        assert {key: span.get(key) for key in expected} == expected

    def test_degraded_raises_before_emitting(self, tiny_problem):
        outcome = PhaseOutcome("degraded", retries=3, stats=STATS)
        recorder = obs.ListRecorder()
        config = DistributedConfig(max_iterations=1, max_retries=3, on_timeout="raise")
        loop = RunLoop(config, tiny_problem, cost=lambda: 7.0)
        with obs.recording(recorder, timings=False):
            loop.start()
            with pytest.raises(ProtocolTimeout, match="sbs-1 upload undelivered after 3"):
                for _sweep in loop.sweeps():
                    for slot in loop.phases([1]):
                        loop.settle(slot, outcome)
        assert [e["type"] for e in recorder.events] == ["run_start"]
        assert loop.history.phases == []

    def test_no_category_opens_no_phase_span(self, tiny_problem):
        _, events = settle_one(tiny_problem, PhaseOutcome("delivered"), category=None)
        assert not [e for e in events if e["type"] == "span" and e["name"] == "phase"]

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValidationError, match="verdict"):
            PhaseOutcome("lost")
