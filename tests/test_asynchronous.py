"""Tests for the event scheduler and the asynchronous optimizer."""

import pytest

from repro.core.asynchronous import AsyncConfig, solve_asynchronous
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.exceptions import ValidationError
from repro.network.eventsim import EventScheduler
from repro.privacy.mechanism import LPPMConfig


class TestEventScheduler:
    def test_time_ordering(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(2.0, lambda: order.append("b"))
        scheduler.schedule(1.0, lambda: order.append("a"))
        scheduler.schedule(3.0, lambda: order.append("c"))
        scheduler.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_fifo_among_ties(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(1.0, lambda: order.append(1))
        scheduler.schedule(1.0, lambda: order.append(2))
        scheduler.run_until(5.0)
        assert order == [1, 2]

    def test_now_advances(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule(1.5, lambda: times.append(scheduler.now))
        scheduler.run_until(2.0)
        assert times == [1.5]
        assert scheduler.now == 2.0

    def test_run_until_boundary_inclusive(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: fired.append(True))
        scheduler.run_until(1.0)
        assert fired == [True]

    def test_events_can_reschedule(self):
        scheduler = EventScheduler()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                scheduler.schedule(1.0, tick)

        scheduler.schedule(0.0, tick)
        scheduler.run_until(10.0)
        assert count[0] == 5

    def test_max_events_guard(self):
        scheduler = EventScheduler()

        def forever():
            scheduler.schedule(0.0, forever)

        scheduler.schedule(0.0, forever)
        executed = scheduler.run_until(1.0, max_events=100)
        assert executed == 100

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_past_t_end_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(5.0, lambda: None)
        scheduler.run_until(6.0)
        with pytest.raises(ValidationError):
            scheduler.run_until(3.0)

    def test_pending_count(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        assert scheduler.pending() == 2
        scheduler.step()
        assert scheduler.pending() == 1

    def test_schedule_at_absolute_time(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule_at(2.5, lambda: times.append(scheduler.now))
        scheduler.run_until(5.0)
        assert times == [2.5]

    def test_schedule_into_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run_until(2.0)
        with pytest.raises(ValidationError, match="past"):
            scheduler.schedule_at(1.0, lambda: None)

    def test_schedule_at_now_allowed(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda: scheduler.schedule_at(1.0, lambda: fired.append(True)))
        scheduler.run_until(2.0)
        assert fired == [True]


class TestAsyncConfig:
    def test_defaults(self):
        AsyncConfig()

    def test_validation(self):
        with pytest.raises(ValidationError):
            AsyncConfig(duration=0.0)
        with pytest.raises(ValidationError):
            AsyncConfig(mean_update_interval=0.0)
        with pytest.raises(ValidationError):
            AsyncConfig(damping=0.0)
        with pytest.raises(ValidationError):
            AsyncConfig(mean_message_delay=-1.0)

    def test_fault_validation(self):
        with pytest.raises(ValidationError):
            AsyncConfig(drop_probability=1.0)
        with pytest.raises(ValidationError):
            AsyncConfig(drop_probability=-0.1)
        with pytest.raises(ValidationError):
            AsyncConfig(crash_windows=((0, 5.0, 5.0),))
        with pytest.raises(ValidationError):
            AsyncConfig(crash_windows=((0, 5.0),))


class TestAsynchronousRuns:
    def test_basic_run(self, tiny_problem):
        result = solve_asynchronous(
            tiny_problem, AsyncConfig(duration=30.0, mean_update_interval=2.0), rng=0
        )
        assert result.cost < tiny_problem.max_cost()
        assert sum(result.updates_per_sbs.values()) > 0
        assert result.events_processed > 0
        assert result.mean_staleness >= 0.0

    def test_reproducible(self, tiny_problem):
        config = AsyncConfig(duration=20.0)
        a = solve_asynchronous(tiny_problem, config, rng=3)
        b = solve_asynchronous(tiny_problem, config, rng=3)
        assert a.cost == pytest.approx(b.cost)
        assert a.updates_per_sbs == b.updates_per_sbs

    def test_trajectory_recorded(self, tiny_problem):
        result = solve_asynchronous(tiny_problem, AsyncConfig(duration=30.0), rng=0)
        times = [t for t, _ in result.cost_trajectory]
        assert times == sorted(times)
        assert len(times) == sum(result.updates_per_sbs.values())

    def test_near_synchronous_quality(self, tiny_problem):
        """Given enough time, the async run settles near the synchronous
        Gauss-Seidel cost (within transient over-serving wiggle)."""
        sync = solve_distributed(
            tiny_problem, DistributedConfig(accuracy=1e-6, max_iterations=15)
        )
        result = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=80.0, mean_update_interval=2.0, mean_message_delay=0.2),
            rng=1,
        )
        window = result.final_window_costs()
        assert window.size > 0
        assert float(window.mean()) <= sync.cost * 1.10

    def test_zero_delay_mode(self, tiny_problem):
        result = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=20.0, mean_message_delay=0.0),
            rng=0,
        )
        assert result.mean_staleness < 10.0

    def test_privacy_budget_tracked(self, tiny_problem):
        result = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=20.0, mean_update_interval=3.0),
            privacy=LPPMConfig(epsilon=0.2),
            rng=0,
        )
        # Per party: each SBS's releases protect its own data, so the
        # run's guarantee is the busiest SBS's total, not the sum.
        assert result.epsilon_spent == pytest.approx(
            0.2 * max(result.updates_per_sbs.values())
        )

    def test_final_window_costs_fraction(self, tiny_problem):
        result = solve_asynchronous(tiny_problem, AsyncConfig(duration=30.0), rng=0)
        full = result.final_window_costs(fraction=1.0)
        tail = result.final_window_costs(fraction=0.25)
        assert tail.size <= full.size


class TestAsyncFaults:
    def test_zero_drop_rate_is_bit_identical_to_default(self, tiny_problem):
        """The fault plumbing must not perturb the failure-free random
        stream: drop_probability=0 reproduces the plain run exactly."""
        plain = solve_asynchronous(tiny_problem, AsyncConfig(duration=25.0), rng=4)
        gated = solve_asynchronous(
            tiny_problem, AsyncConfig(duration=25.0, drop_probability=0.0), rng=4
        )
        assert plain.cost == gated.cost
        assert plain.cost_trajectory == gated.cost_trajectory
        assert gated.messages_dropped == 0

    def test_message_loss_counted_and_survived(self, tiny_problem):
        result = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=60.0, drop_probability=0.2),
            rng=0,
        )
        assert result.messages_dropped > 0
        assert result.cost < tiny_problem.max_cost()

    def test_drop_rate_degrades_gracefully(self, tiny_problem):
        """Moderate loss costs little: the async protocol is naturally
        tolerant because every wake-up re-uploads the full policy."""
        clean = solve_asynchronous(
            tiny_problem, AsyncConfig(duration=80.0, mean_update_interval=2.0), rng=1
        )
        lossy = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=80.0, mean_update_interval=2.0, drop_probability=0.1),
            rng=1,
        )
        clean_tail = float(clean.final_window_costs().mean())
        lossy_tail = float(lossy.final_window_costs().mean())
        assert lossy_tail <= clean_tail * 1.10

    def test_crashed_sbs_skips_wakeups(self, tiny_problem):
        result = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=40.0, crash_windows=((0, 10.0, 25.0),)),
            rng=0,
        )
        assert result.wakeups_skipped > 0
        assert result.cost < tiny_problem.max_cost()

    def test_crash_recovery_resumes_updates(self, tiny_problem):
        """An SBS crashed for a window still records updates afterwards."""
        crashed = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=60.0, mean_update_interval=2.0,
                        crash_windows=((1, 5.0, 30.0),)),
            rng=2,
        )
        clean = solve_asynchronous(
            tiny_problem,
            AsyncConfig(duration=60.0, mean_update_interval=2.0),
            rng=2,
        )
        assert crashed.updates_per_sbs[1] > 0
        assert crashed.updates_per_sbs[1] < clean.updates_per_sbs[1]

    def test_faulty_async_reproducible(self, tiny_problem):
        config = AsyncConfig(
            duration=40.0, drop_probability=0.15, crash_windows=((0, 5.0, 15.0),)
        )
        a = solve_asynchronous(tiny_problem, config, rng=9)
        b = solve_asynchronous(tiny_problem, config, rng=9)
        assert a.cost == b.cost
        assert a.cost_trajectory == b.cost_trajectory
        assert a.messages_dropped == b.messages_dropped
        assert a.wakeups_skipped == b.wakeups_skipped
