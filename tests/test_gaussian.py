"""Tests for the bounded Gaussian mechanism (the paper's future work)."""

import numpy as np
import pytest

from repro.exceptions import PrivacyError
from repro.privacy.factory import build_mechanism
from repro.privacy.gaussian import (
    BoundedGaussian,
    GaussianPPMConfig,
    GaussianPrivacyMechanism,
    gaussian_sigma,
)
from repro.privacy.mechanism import LaplacePrivacyMechanism, LPPMConfig


class TestSigmaCalibration:
    def test_formula(self):
        expected = 1.0 * np.sqrt(2.0 * np.log(1.25 / 1e-6)) / 0.5
        assert gaussian_sigma(1.0, 0.5, 1e-6) == pytest.approx(expected)

    def test_monotone_in_epsilon(self):
        assert gaussian_sigma(1.0, 0.01, 1e-6) > gaussian_sigma(1.0, 1.0, 1e-6)

    def test_invalid(self):
        with pytest.raises(PrivacyError):
            gaussian_sigma(0.0, 1.0, 1e-6)
        with pytest.raises(PrivacyError):
            gaussian_sigma(1.0, 0.0, 1e-6)
        with pytest.raises(PrivacyError):
            gaussian_sigma(1.0, 1.0, 2.0)


class TestBoundedGaussian:
    def test_pdf_zero_outside(self):
        dist = BoundedGaussian(1.0, 0.0, 0.5)
        assert dist.pdf(-0.1) == 0.0
        assert dist.pdf(0.6) == 0.0
        assert dist.pdf(0.2) > 0.0

    def test_pdf_integrates_to_one(self):
        dist = BoundedGaussian(0.4, 0.0, 0.8)
        grid = np.linspace(0.0, 0.8, 4001)
        assert np.trapezoid(dist.pdf(grid), grid) == pytest.approx(1.0, abs=1e-3)

    def test_cdf_endpoints(self):
        dist = BoundedGaussian(0.5, 0.0, 1.0)
        assert float(dist.cdf(-0.01)) == 0.0
        assert float(dist.cdf(1.0)) == pytest.approx(1.0)

    def test_ppf_inverts_cdf(self):
        dist = BoundedGaussian(0.3, 0.0, 0.7)
        for q in (0.05, 0.5, 0.95):
            r = float(dist.ppf(q))
            assert float(dist.cdf(r)) == pytest.approx(q, abs=1e-6)

    def test_samples_inside(self):
        dist = BoundedGaussian(1.0, 0.0, 0.4)
        samples = dist.sample(size=500, rng=0)
        assert samples.min() >= 0.0 and samples.max() <= 0.4

    def test_degenerate(self):
        dist = BoundedGaussian(1.0, 0.2, 0.2)
        np.testing.assert_allclose(dist.sample(size=5, rng=0), 0.2)

    def test_invalid(self):
        with pytest.raises(PrivacyError):
            BoundedGaussian(0.0, 0.0, 1.0)
        with pytest.raises(PrivacyError):
            BoundedGaussian(1.0, 1.0, 0.0)


class TestGaussianMechanism:
    def test_subtractive_band(self):
        mechanism = GaussianPrivacyMechanism(GaussianPPMConfig(epsilon=0.1), rng=0)
        routing = np.random.default_rng(0).uniform(0.0, 1.0, (5, 5))
        perturbed = mechanism.perturb(routing)
        assert np.all(perturbed <= routing + 1e-12)
        assert np.all(perturbed >= 0.5 * routing - 1e-12)  # delta = 0.5

    def test_more_budget_less_noise(self):
        routing = np.full((10, 10), 0.9)
        totals = []
        for epsilon in (0.01, 100.0):
            mechanism = GaussianPrivacyMechanism(GaussianPPMConfig(epsilon=epsilon), rng=1)
            noise = sum(
                float(np.sum(routing - mechanism.perturb(routing))) for _ in range(10)
            )
            totals.append(noise)
        assert totals[0] > totals[1]

    def test_config_validation(self):
        with pytest.raises(PrivacyError):
            GaussianPPMConfig(epsilon=0.0)
        with pytest.raises(PrivacyError):
            GaussianPPMConfig(epsilon=1.0, dp_delta=0.0)
        with pytest.raises(PrivacyError):
            GaussianPPMConfig(epsilon=1.0, delta=1.0)

    def test_rejects_bad_routing(self):
        mechanism = GaussianPrivacyMechanism(GaussianPPMConfig(epsilon=1.0), rng=0)
        with pytest.raises(PrivacyError):
            mechanism.perturb(np.array([[2.0]]))


class TestFactory:
    def test_dispatch_laplace(self):
        assert isinstance(
            build_mechanism(LPPMConfig(epsilon=0.1), rng=0), LaplacePrivacyMechanism
        )

    def test_dispatch_gaussian(self):
        assert isinstance(
            build_mechanism(GaussianPPMConfig(epsilon=0.1), rng=0),
            GaussianPrivacyMechanism,
        )

    def test_unknown_config(self):
        with pytest.raises(PrivacyError):
            build_mechanism(object())


class TestDistributedIntegration:
    def test_gaussian_run(self, tiny_problem):
        from repro.core.distributed import DistributedConfig, solve_distributed

        result = solve_distributed(
            tiny_problem,
            DistributedConfig(max_iterations=4, accuracy=0.0),
            privacy=GaussianPPMConfig(epsilon=0.1),
            rng=0,
        )
        assert result.history.total_noise() > 0.0
        assert result.solution.is_feasible(tiny_problem)
        assert result.total_epsilon == pytest.approx(0.1 * result.iterations)
