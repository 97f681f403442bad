"""Final behaviour-coverage batch: incumbent seeding, protocol details,
scheme registry, reporting branches."""

import numpy as np
import pytest

from repro.core.cost import CostModel, LinearCostModel
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.subproblem import solve_subproblem
from repro.experiments.reporting import ascii_chart, format_headline_gaps
from repro.experiments.runner import SweepPoint, SweepResult
from repro.experiments.schemes import SCHEMES


class TestIncumbentSeeding:
    def test_candidate_never_worse(self, tiny_problem, rng):
        """With an incumbent cache seeded, the returned cost is at most
        the incumbent's exact evaluation."""
        from repro.core.routing import optimal_routing_for_sbs, residual_caps
        from repro.core.subproblem import _constant_term, _routing_coefficients

        aggregate = rng.uniform(0.0, 0.4, size=(3, 4))
        incumbent = np.array([1.0, 1.0, 0.0, 0.0])
        result = solve_subproblem(
            tiny_problem, 0, aggregate, candidate_caching=incumbent
        )
        caps = residual_caps(tiny_problem, 0, aggregate)
        routing = optimal_routing_for_sbs(tiny_problem, 0, incumbent, caps)
        incumbent_cost = _constant_term(tiny_problem, 0, aggregate) + float(
            np.sum(_routing_coefficients(tiny_problem, 0) * routing)
        )
        assert result.cost <= incumbent_cost + 1e-9

    def test_monotone_descent_over_many_iterations(self, tiny_problem):
        """The incumbent-seeding guarantee at system level: even with a
        long run and zero accuracy threshold, phase costs never rise."""
        result = solve_distributed(
            tiny_problem, DistributedConfig(accuracy=0.0, max_iterations=12)
        )
        assert result.history.is_non_increasing()

    def test_bad_candidate_shape_rejected(self, tiny_problem):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            solve_subproblem(
                tiny_problem, 0, np.zeros((3, 4)), candidate_caching=np.ones(7)
            )


class TestSchemeRegistry:
    def test_registry_complete(self):
        assert set(SCHEMES) == {"optimum", "lppm", "lrfu", "centralized"}

    def test_registry_callables(self):
        for runner in SCHEMES.values():
            assert callable(runner)


class TestCostModelProtocol:
    def test_linear_model_satisfies_protocol(self):
        model = LinearCostModel()
        assert isinstance(model, CostModel)

    def test_custom_model_satisfies_protocol(self, tiny_problem):
        class Doubled:
            def sbs_cost(self, problem, routing):
                return 2.0 * LinearCostModel().sbs_cost(problem, routing)

            def bs_cost(self, problem, routing):
                return LinearCostModel().bs_cost(problem, routing)

            def total(self, problem, routing):
                return self.sbs_cost(problem, routing) + self.bs_cost(problem, routing)

        model = Doubled()
        assert isinstance(model, CostModel)
        y = np.zeros(tiny_problem.shape)
        y[0, 0, 0] = 1.0
        base = LinearCostModel().total(tiny_problem, y)
        assert model.total(tiny_problem, y) > base


class TestReportingBranches:
    def test_headline_without_lrfu(self):
        points = (
            SweepPoint(x=1.0, costs={"optimum": 100.0, "lppm": 105.0}, stds={}),
        )
        result = SweepResult(
            name="t", x_label="x", points=points, schemes=("optimum", "lppm")
        )
        text = format_headline_gaps(result)
        assert "LPPM over optimum" in text
        assert "LRFU" not in text

    def test_ascii_chart_label_format(self):
        chart = ascii_chart([1.234, 2.567], width=10, label_format="{:.2f}")
        assert "1.23" in chart
        assert "2.57" in chart

    def test_ascii_chart_single_value(self):
        chart = ascii_chart([5.0], width=10)
        assert chart.count("#") == 5


class TestOnlinePrivacyInterplay:
    def test_lazy_private_spends_less(self, tiny_problem):
        """Re-optimizing every other slot halves the budget spend."""
        from repro.core.online import OnlineConfig, simulate_online
        from repro.privacy.mechanism import LPPMConfig
        from repro.workload.dynamics import demand_sequence

        slots = demand_sequence(tiny_problem.demand, 4, rng=0)
        fast = DistributedConfig(accuracy=0.0, max_iterations=2)
        eager = simulate_online(
            tiny_problem,
            slots,
            OnlineConfig(distributed=fast, privacy=LPPMConfig(epsilon=0.1)),
            rng=0,
        )
        lazy = simulate_online(
            tiny_problem,
            slots,
            OnlineConfig(
                distributed=fast,
                privacy=LPPMConfig(epsilon=0.1),
                reoptimize_every=2,
            ),
            rng=0,
        )
        assert lazy.epsilon_spent == pytest.approx(eager.epsilon_spent / 2.0)
