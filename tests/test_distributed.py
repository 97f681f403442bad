"""Tests for Algorithm 1 (distributed Gauss-Seidel) and its privacy mode."""

import numpy as np
import pytest

from repro.core.centralized import solve_centralized, solve_lp_relaxation
from repro.core.distributed import (
    DistributedConfig,
    DistributedOptimizer,
    SBSAgent,
    solve_distributed,
)
from repro.exceptions import ValidationError
from repro.network.messaging import Channel, MessageKind
from repro.privacy.mechanism import LaplacePrivacyMechanism, LPPMConfig

from conftest import random_problem


class TestConfig:
    def test_defaults_valid(self):
        DistributedConfig()

    def test_bad_accuracy(self):
        with pytest.raises(ValidationError):
            DistributedConfig(accuracy=-1.0)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            DistributedConfig(mode="chaotic")

    def test_bad_damping(self):
        with pytest.raises(ValidationError):
            DistributedConfig(damping=0.0)


class TestNoiselessRuns:
    def test_converges(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        assert result.converged
        assert result.iterations >= 1

    def test_solution_feasible(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        assert result.solution.is_feasible(tiny_problem)

    def test_cost_below_w(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        assert result.cost < tiny_problem.max_cost()

    def test_cost_above_lp_bound(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        bound, _, _ = solve_lp_relaxation(tiny_problem)
        assert result.cost >= bound - 1e-6

    def test_phase_costs_non_increasing(self, tiny_problem):
        """Theorem 3's monotonicity argument, noiseless case."""
        result = solve_distributed(tiny_problem)
        assert result.history.is_non_increasing()

    def test_caps_mode_bounded_gap(self, rng):
        """The paper-literal caps mode can stall at a block-coordinate
        equilibrium (constraint (4) is coupled), but stays within a
        modest factor of the centralized optimum on these instances."""
        gaps = []
        for seed in range(4):
            problem = random_problem(np.random.default_rng(seed), scarce_bandwidth=True)
            distributed = solve_distributed(
                problem, DistributedConfig(accuracy=1e-6, max_iterations=25)
            )
            centralized = solve_centralized(problem)
            gap = distributed.cost / centralized.cost - 1.0
            assert gap >= -1e-6  # never better than the optimum
            gaps.append(gap)
        assert np.mean(gaps) < 0.10

    def test_prices_mode_near_centralized(self):
        """With congestion-price coordination and best-of-3 sweep orders
        the distributed limit matches the centralized optimum closely."""
        config = DistributedConfig(
            accuracy=1e-6, max_iterations=25, coordination="prices", restarts=3
        )
        gaps = []
        for seed in range(4):
            problem = random_problem(np.random.default_rng(seed), scarce_bandwidth=True)
            distributed = solve_distributed(problem, config, rng=seed)
            centralized = solve_centralized(problem)
            assert distributed.solution.is_feasible(problem)
            gaps.append(distributed.cost / centralized.cost - 1.0)
        assert np.mean(gaps) < 0.01

    def test_unperturbed_equals_reported_without_privacy(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        np.testing.assert_allclose(result.unperturbed_routing, result.solution.routing)
        assert result.unperturbed_cost == pytest.approx(result.cost)

    def test_deterministic_given_seed(self, tiny_problem):
        a = solve_distributed(tiny_problem, rng=5)
        b = solve_distributed(tiny_problem, rng=5)
        assert a.cost == pytest.approx(b.cost)
        np.testing.assert_allclose(a.solution.routing, b.solution.routing)


class TestMessaging:
    def test_messages_flow_through_channel(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        stats = result.channel.stats
        assert stats.messages_sent > 0
        assert MessageKind.POLICY_UPLOAD.value in stats.by_kind
        assert MessageKind.AGGREGATE_BROADCAST.value in stats.by_kind

    def test_upload_count_matches_phases(self, tiny_problem):
        result = solve_distributed(tiny_problem)
        uploads = result.channel.stats.by_kind[MessageKind.POLICY_UPLOAD.value]
        assert uploads == len(result.history.phases)

    def test_sbs_never_receives_individual_policy(self, tiny_problem):
        """Information-flow property: SBSs only ever see aggregates."""
        optimizer = DistributedOptimizer(tiny_problem)
        seen = []
        optimizer.channel.tap(seen.append)
        optimizer.run()
        for message in seen:
            if message.recipient.startswith("sbs") or message.recipient == "*":
                assert message.kind is not MessageKind.POLICY_UPLOAD


class TestPrivateRuns:
    def test_private_run_completes(self, tiny_problem):
        result = solve_distributed(
            tiny_problem,
            DistributedConfig(max_iterations=5, accuracy=1e-3),
            privacy=LPPMConfig(epsilon=0.1),
            rng=0,
        )
        assert result.iterations >= 1
        assert result.accountant is not None

    def test_noise_recorded(self, tiny_problem):
        result = solve_distributed(
            tiny_problem,
            DistributedConfig(max_iterations=4, accuracy=0.0),
            privacy=LPPMConfig(epsilon=0.1),
            rng=0,
        )
        assert result.history.total_noise() > 0.0

    def test_epsilon_accounting(self, tiny_problem):
        config = DistributedConfig(max_iterations=4, accuracy=0.0)
        result = solve_distributed(
            tiny_problem, config, privacy=LPPMConfig(epsilon=0.2), rng=0
        )
        phases_per_sbs = result.iterations
        assert result.total_epsilon == pytest.approx(0.2 * phases_per_sbs)

    def test_mechanism_without_accountant_refused(self, tiny_problem):
        """No release without a ledger: an agent that could perturb but
        book nowhere is refused at construction."""
        mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.1), rng=0)
        with pytest.raises(ValidationError, match="no accountant"):
            SBSAgent(tiny_problem, 0, Channel(), mechanism=mechanism)

    def test_private_cost_at_least_noiseless(self, tiny_problem):
        noiseless = solve_distributed(tiny_problem)
        private = solve_distributed(
            tiny_problem,
            DistributedConfig(max_iterations=6, accuracy=1e-4),
            privacy=LPPMConfig(epsilon=0.01),
            rng=0,
        )
        assert private.cost >= noiseless.cost - 1e-6

    def test_more_budget_less_cost(self, tiny_problem):
        """Across a wide epsilon range the cost trend is monotone."""
        config = DistributedConfig(max_iterations=5, accuracy=1e-3)
        costs = []
        for epsilon in (0.01, 1.0, 1000.0):
            runs = [
                solve_distributed(
                    tiny_problem, config, privacy=LPPMConfig(epsilon=epsilon), rng=seed
                ).cost
                for seed in range(5)
            ]
            costs.append(np.mean(runs))
        assert costs[0] >= costs[1] >= costs[2] - 1e-9

    def test_reported_solution_feasible(self, tiny_problem):
        result = solve_distributed(
            tiny_problem,
            DistributedConfig(max_iterations=4, accuracy=1e-3),
            privacy=LPPMConfig(epsilon=0.1),
            rng=3,
        )
        assert result.solution.is_feasible(tiny_problem)


class TestJacobiMode:
    def test_jacobi_runs(self, tiny_problem):
        """Jacobi updates against stale aggregates can transiently
        over-serve shared requests; everything else stays feasible and
        the repaired solution is always valid."""
        result = solve_distributed(
            tiny_problem, DistributedConfig(mode="jacobi", max_iterations=10)
        )
        report = result.solution.check_feasibility(tiny_problem)
        families = set(report.by_constraint())
        assert families.issubset({"unit_demand(4)"})
        assert result.solution.repaired(tiny_problem).is_feasible(tiny_problem)

    def test_jacobi_with_damping(self, tiny_problem):
        result = solve_distributed(
            tiny_problem,
            DistributedConfig(mode="jacobi", damping=0.5, max_iterations=10),
        )
        assert result.cost < tiny_problem.max_cost()

    def test_damping_tames_oscillation(self, tiny_problem):
        """Undamped Jacobi oscillates between duplicating best responses;
        damping settles it to a (weakly) cheaper repaired policy."""
        undamped = solve_distributed(
            tiny_problem, DistributedConfig(mode="jacobi", max_iterations=15)
        )
        damped = solve_distributed(
            tiny_problem, DistributedConfig(mode="jacobi", max_iterations=15, damping=0.5)
        )
        cost_undamped = undamped.solution.repaired(tiny_problem).cost(tiny_problem)
        cost_damped = damped.solution.repaired(tiny_problem).cost(tiny_problem)
        assert cost_damped <= cost_undamped + 1e-6

    def test_jacobi_bounded_by_w(self, tiny_problem):
        for damping in (1.0, 0.5):
            result = solve_distributed(
                tiny_problem,
                DistributedConfig(mode="jacobi", max_iterations=10, damping=damping),
            )
            assert result.cost <= tiny_problem.max_cost() + 1e-9


class TestJacobiSweepOrder:
    """Jacobi folds the uploads in the order it swept the SBSs."""

    def _problem(self):
        return random_problem(np.random.default_rng(3))

    def test_restarts_run(self):
        problem = self._problem()
        result = solve_distributed(
            problem, DistributedConfig(mode="jacobi", restarts=3), rng=1
        )
        assert result.cost <= problem.max_cost() + 1e-9

    def test_permuted_order_folds_in_sweep_order(self):
        problem = self._problem()
        result = DistributedOptimizer(
            problem, DistributedConfig(mode="jacobi"), sweep_order=[2, 0, 1]
        ).run()
        first = result.history.phases[: problem.num_sbs]
        assert [record.sbs for record in first] == [2, 0, 1]
        assert [record.phase for record in first] == [0, 1, 2]

    @pytest.mark.parametrize("damping", [1.0, 0.7])
    def test_permuted_order_matches_identity(self, damping):
        """Every SBS answers the same aggregate, so the order only changes
        the intermediate phase costs, never an iteration's outcome."""
        problem = self._problem()
        config = DistributedConfig(mode="jacobi", max_iterations=6, damping=damping)
        identity = DistributedOptimizer(problem, config).run()
        permuted = DistributedOptimizer(problem, config, sweep_order=[2, 0, 1]).run()
        assert permuted.history.iteration_costs == identity.history.iteration_costs
        np.testing.assert_array_equal(
            permuted.solution.routing, identity.solution.routing
        )
        np.testing.assert_array_equal(
            permuted.solution.caching, identity.solution.caching
        )
