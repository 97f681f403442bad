"""Tests for the LPPM mechanism (Definition 2, Theorem 4)."""

import numpy as np
import pytest

from repro.exceptions import PrivacyError
from repro.privacy.mechanism import LaplacePrivacyMechanism, LPPMConfig


class TestConfig:
    def test_beta_formula(self):
        config = LPPMConfig(epsilon=0.5, sensitivity=2.0)
        assert config.beta == pytest.approx(4.0)

    def test_defaults_match_paper(self):
        config = LPPMConfig(epsilon=0.1)
        assert config.delta == 0.5

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyError):
            LPPMConfig(epsilon=0.0)

    def test_invalid_delta(self):
        with pytest.raises(PrivacyError):
            LPPMConfig(epsilon=1.0, delta=1.0)  # delta in [0, 1)
        with pytest.raises(PrivacyError):
            LPPMConfig(epsilon=1.0, delta=-0.1)

    def test_invalid_sensitivity(self):
        with pytest.raises(PrivacyError):
            LPPMConfig(epsilon=1.0, sensitivity=0.0)


class TestPerturbation:
    def test_subtractive(self):
        """Eq. 27: y_hat = y - r with r >= 0, so y_hat <= y."""
        mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.1), rng=0)
        routing = np.full((4, 5), 0.8)
        perturbed = mechanism.perturb(routing)
        assert np.all(perturbed <= routing + 1e-12)

    def test_noise_bounded_by_delta_y(self):
        """r in [0, delta * y] so y_hat >= (1 - delta) * y — the bound
        Theorem 3's convergence argument relies on."""
        delta = 0.4
        mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.01, delta=delta), rng=1)
        routing = np.random.default_rng(0).uniform(0.0, 1.0, size=(6, 6))
        perturbed = mechanism.perturb(routing)
        assert np.all(perturbed >= (1.0 - delta) * routing - 1e-12)

    def test_zero_routing_untouched(self):
        mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.1), rng=0)
        routing = np.zeros((3, 3))
        np.testing.assert_array_equal(mechanism.perturb(routing), routing)

    def test_output_in_unit_interval(self):
        mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=1.0), rng=2)
        routing = np.random.default_rng(1).uniform(0.0, 1.0, size=(5, 5))
        perturbed = mechanism.perturb(routing)
        assert perturbed.min() >= 0.0 and perturbed.max() <= 1.0

    def test_rejects_out_of_range_routing(self):
        mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.1), rng=0)
        with pytest.raises(PrivacyError):
            mechanism.perturb(np.array([[1.4]]))

    def test_reproducible_with_seed(self):
        routing = np.full((3, 3), 0.6)
        a = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.1), rng=7).perturb(routing)
        b = LaplacePrivacyMechanism(LPPMConfig(epsilon=0.1), rng=7).perturb(routing)
        np.testing.assert_array_equal(a, b)

    def test_higher_epsilon_less_noise_on_average(self):
        routing = np.full((10, 10), 0.9)
        noises = []
        for epsilon in (0.01, 100.0):
            mechanism = LaplacePrivacyMechanism(LPPMConfig(epsilon=epsilon), rng=3)
            total = 0.0
            for _ in range(20):
                total += float(np.sum(routing - mechanism.perturb(routing)))
            noises.append(total)
        assert noises[0] > noises[1]

    def test_expected_noise_closed_form(self):
        config = LPPMConfig(epsilon=0.1, delta=0.5)
        mechanism = LaplacePrivacyMechanism(config, rng=4)
        routing = np.full((8, 8), 0.8)
        expected = mechanism.expected_noise(routing)
        empirical = np.zeros_like(routing)
        for _ in range(300):
            empirical += routing - mechanism.perturb(routing)
        empirical /= 300
        assert empirical.mean() == pytest.approx(float(expected.mean()), rel=0.1)
