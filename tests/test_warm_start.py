"""Warm-started dual ascent: off by default, same converged cost when on.

Only the batched oracle has multipliers to carry, so every warm-started
run here names it.
"""

import numpy as np
import pytest

from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.subproblem import SubproblemConfig, solve_subproblem
from repro.exceptions import ValidationError

from conftest import random_problem

BATCHED = SubproblemConfig(oracle="batched")


def _config(warm_start: bool) -> DistributedConfig:
    return DistributedConfig(warm_start=warm_start, subproblem=BATCHED)


class TestDefaults:
    def test_warm_start_defaults_to_off(self):
        """The paper-literal cold-start run is the default behaviour."""
        assert DistributedConfig().warm_start is False

    def test_flag_round_trips(self):
        assert _config(True).warm_start is True

    def test_needs_the_batched_oracle(self):
        """The default exact oracle has no multipliers: a warm start would
        silently do nothing, so the config refuses it (and so does the
        solver)."""
        with pytest.raises(ValidationError, match="warm_start"):
            DistributedConfig(warm_start=True)
        problem = random_problem(np.random.default_rng(7))
        aggregate = np.zeros((problem.num_groups, problem.num_files))
        with pytest.raises(ValidationError, match="no multipliers"):
            solve_subproblem(
                problem, 0, aggregate, initial_multipliers=np.zeros(aggregate.shape)
            )


class TestConvergence:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_same_converged_cost_as_cold(self, seed):
        """Warm starting changes the dual path, not where it ends up."""
        problem = random_problem(np.random.default_rng(seed))
        cold = solve_distributed(
            problem, _config(False), rng=0
        )
        warm = solve_distributed(
            problem, _config(True), rng=0
        )
        assert warm.cost == pytest.approx(cold.cost, rel=1e-6)
        assert warm.converged and cold.converged

    def test_warm_start_with_privacy_same_budget(self):
        """The flag must not change how often the mechanism fires."""
        from repro.privacy.mechanism import LPPMConfig

        problem = random_problem(np.random.default_rng(5))
        privacy = LPPMConfig(epsilon=1.0)
        cold = solve_distributed(
            problem, _config(False), privacy=privacy, rng=0
        )
        warm = solve_distributed(
            problem, _config(True), privacy=privacy, rng=0
        )
        assert warm.total_epsilon is not None
        # Equal iteration counts imply equal numbers of noisy releases.
        if warm.iterations == cold.iterations:
            assert warm.total_epsilon == pytest.approx(cold.total_epsilon)


class TestSubproblemWarmStart:
    def test_explicit_multipliers_still_accepted(self):
        """solve_subproblem keeps its public warm-start parameter."""
        problem = random_problem(np.random.default_rng(7))
        aggregate = np.zeros((problem.num_groups, problem.num_files))
        first = solve_subproblem(problem, 0, aggregate, BATCHED)
        again = solve_subproblem(
            problem,
            0,
            aggregate,
            BATCHED,
            initial_multipliers=first.multipliers,
            candidate_caching=first.caching,
        )
        # Primal recovery seeded with the incumbent can never do worse.
        assert again.cost <= first.cost + 1e-9
