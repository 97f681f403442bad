"""Differential-privacy substrate: bounded Laplace, LPPM, accounting."""

from .audit import AuditResult, audit_mechanism, estimate_epsilon
from .exponential import exponential_mechanism, private_cache_selection
from .factory import MechanismConfig, build_mechanism
from .gaussian import (
    BoundedGaussian,
    GaussianPPMConfig,
    GaussianPrivacyMechanism,
    gaussian_sigma,
)

from .accountant import (
    PrivacyAccountant,
    Release,
    advanced_composition_epsilon,
    per_release_epsilon,
)
from .analysis import (
    NoiseDistribution,
    Theorem5Bound,
    empirical_cost_increase,
    lipschitz_cost_bound,
    sample_total_noise,
    theorem5_bound,
    total_noise_distribution,
)
from .laplace import BoundedLaplace, Laplace, bounded_laplace_normalizer
from .mechanism import LaplacePrivacyMechanism, LPPMConfig
from .sensitivity import (
    beta_for_epsilon,
    request_sensitivity,
    routing_sensitivity,
    smooth_sensitivity_bound,
)

__all__ = [
    "AuditResult",
    "audit_mechanism",
    "estimate_epsilon",
    "exponential_mechanism",
    "private_cache_selection",
    "MechanismConfig",
    "build_mechanism",
    "BoundedGaussian",
    "GaussianPPMConfig",
    "GaussianPrivacyMechanism",
    "gaussian_sigma",
    "PrivacyAccountant",
    "Release",
    "advanced_composition_epsilon",
    "per_release_epsilon",
    "NoiseDistribution",
    "Theorem5Bound",
    "empirical_cost_increase",
    "lipschitz_cost_bound",
    "sample_total_noise",
    "theorem5_bound",
    "total_noise_distribution",
    "BoundedLaplace",
    "Laplace",
    "bounded_laplace_normalizer",
    "LaplacePrivacyMechanism",
    "LPPMConfig",
    "beta_for_epsilon",
    "request_sensitivity",
    "routing_sensitivity",
    "smooth_sensitivity_bound",
]
