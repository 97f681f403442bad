"""Bounded Gaussian alternative to LPPM (the paper's future work).

Section IV-B lists the Gaussian mechanism alongside Laplace as a
standard DP noise distribution, and the conclusion names "other privacy
preserving mechanisms" as future work.  This module provides the
Gaussian counterpart of LPPM:

* :class:`BoundedGaussian` — a half-normal-style density truncated and
  renormalized to ``[lower, upper]`` (mode at zero, like the bounded
  Laplace), with closed-form cdf/ppf via the error function;
* :class:`GaussianPrivacyMechanism` — subtracts a bounded Gaussian
  disturbance ``r in [0, delta * y]`` from the routing policy, with the
  noise scale calibrated by the classical analytic bound
  ``sigma >= Delta f * sqrt(2 ln(1.25 / dp_delta)) / epsilon``
  (Dwork & Roth 2014, Thm A.1), giving ``(epsilon, dp_delta)``-DP per
  release.

The interface mirrors :class:`~repro.privacy.mechanism.LaplacePrivacyMechanism`
so the distributed optimizer can swap mechanisms for ablation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

import numpy as np
from scipy import special

from .._validation import ArrayLike, rng_from
from ..exceptions import PrivacyError
from .laplace import SampleShape

__all__ = ["BoundedGaussian", "GaussianPPMConfig", "GaussianPrivacyMechanism", "gaussian_sigma"]


def gaussian_sigma(sensitivity: float, epsilon: float, dp_delta: float) -> float:
    """Analytic Gaussian calibration: the classical sufficient sigma.

    ``sigma = Delta f * sqrt(2 ln(1.25 / dp_delta)) / epsilon`` gives
    ``(epsilon, dp_delta)``-DP for ``epsilon <= 1``; for larger epsilon
    it remains a valid (conservative) choice.
    """
    if sensitivity <= 0:
        raise PrivacyError(f"sensitivity must be positive, got {sensitivity}")
    if epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < dp_delta < 1.0:
        raise PrivacyError(f"dp_delta must lie in (0, 1), got {dp_delta}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / dp_delta)) / epsilon


class BoundedGaussian:
    """Zero-mode Gaussian density truncated and renormalized to an interval.

    ``pdf(r) ∝ exp(-r^2 / (2 sigma^2))`` for ``r in [lower, upper]``,
    zero elsewhere.  ``lower``/``upper`` broadcast like the bounded
    Laplace; zero-width intervals are degenerate point masses.
    """

    def __init__(self, sigma: float, lower: ArrayLike, upper: ArrayLike) -> None:
        if sigma <= 0:
            raise PrivacyError(f"sigma must be positive, got {sigma}")
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        lower, upper = np.broadcast_arrays(lower, upper)
        if np.any(upper < lower):
            raise PrivacyError("interval upper bounds must be >= lower bounds")
        self._sigma = float(sigma)
        self._lower = lower.astype(np.float64, copy=True)
        self._upper = upper.astype(np.float64, copy=True)
        self._phi_low = self._standard_cdf(self._lower / sigma)
        self._phi_high = self._standard_cdf(self._upper / sigma)
        self._mass = self._phi_high - self._phi_low
        self._degenerate = self._upper - self._lower <= 0

    @staticmethod
    def _standard_cdf(z: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + special.erf(np.asarray(z, dtype=np.float64) / math.sqrt(2.0)))

    @staticmethod
    def _standard_ppf(q: np.ndarray) -> np.ndarray:
        return math.sqrt(2.0) * special.erfinv(2.0 * np.asarray(q, dtype=np.float64) - 1.0)

    @property
    def sigma(self) -> float:
        return self._sigma

    def pdf(self, r: ArrayLike) -> np.ndarray:
        """Truncated-Gaussian density (zero outside the interval)."""
        r = np.asarray(r, dtype=np.float64)
        base = np.exp(-0.5 * (r / self._sigma) ** 2) / (
            self._sigma * math.sqrt(2.0 * math.pi)
        )
        inside = (r >= self._lower) & (r <= self._upper) & ~self._degenerate
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(inside, base / np.where(self._mass > 0, self._mass, 1.0), 0.0)

    def cdf(self, r: ArrayLike) -> np.ndarray:
        """Cumulative distribution function on the truncated support."""
        r = np.asarray(r, dtype=np.float64)
        clipped = np.clip(r, self._lower, self._upper)
        partial = self._standard_cdf(clipped / self._sigma) - self._phi_low
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(
                self._degenerate,
                np.where(r >= self._lower, 1.0, 0.0),
                partial / np.where(self._mass > 0, self._mass, 1.0),
            )
        return np.where(r < self._lower, 0.0, np.where(r >= self._upper, 1.0, value))

    def ppf(self, q: ArrayLike) -> np.ndarray:
        """Inverse cdf via the error function; basis of :meth:`sample`."""
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0) | (q > 1)):
            raise PrivacyError("quantiles must lie in [0, 1]")
        target = np.clip(self._phi_low + q * self._mass, 1e-15, 1.0 - 1e-15)
        value = self._sigma * self._standard_ppf(target)
        value = np.clip(value, self._lower, self._upper)
        return np.where(self._degenerate, self._lower, value)

    def sample(
        self, size: SampleShape = None, rng: Union[int, np.random.Generator, None] = None
    ) -> np.ndarray:
        """Draw samples by inverse-cdf transform."""
        generator = rng_from(rng)
        shape = self._lower.shape if size is None else size
        return self.ppf(generator.uniform(size=shape))


@dataclasses.dataclass(frozen=True)
class GaussianPPMConfig:
    """Parameters of the Gaussian privacy mechanism.

    ``dp_delta`` is the DP failure probability (the ``delta`` of
    ``(epsilon, delta)``-DP — distinct from the interval factor
    ``delta`` bounding the disturbance, which keeps the paper's name).
    """

    epsilon: float
    dp_delta: float = 1e-6
    delta: float = 0.5
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.dp_delta < 1.0:
            raise PrivacyError(f"dp_delta must lie in (0, 1), got {self.dp_delta}")
        if not 0.0 <= self.delta < 1.0:
            raise PrivacyError(f"delta must lie in [0, 1), got {self.delta}")
        if self.sensitivity <= 0:
            raise PrivacyError(f"sensitivity must be positive, got {self.sensitivity}")

    @property
    def sigma(self) -> float:
        """Calibrated noise scale for ``(epsilon, dp_delta)``-DP."""
        return gaussian_sigma(self.sensitivity, self.epsilon, self.dp_delta)


class GaussianPrivacyMechanism:
    """Subtractive bounded-Gaussian release: ``y_hat = y - r``.

    Drop-in alternative to the Laplace mechanism: the same ``perturb``
    interface, so the distributed optimizer and accountant treat both
    uniformly.
    """

    def __init__(
        self,
        config: GaussianPPMConfig,
        rng: Union[int, np.random.Generator, None] = None,
    ) -> None:
        self.config = config
        self._rng = rng_from(rng)

    def sample_noise(self, routing: np.ndarray) -> np.ndarray:
        """Draw the bounded-Gaussian disturbance for a routing block."""
        routing = np.asarray(routing, dtype=np.float64)
        if np.any(routing < -1e-12) or np.any(routing > 1.0 + 1e-12):
            raise PrivacyError("routing entries must lie in [0, 1] before perturbation")
        upper = self.config.delta * np.clip(routing, 0.0, 1.0)
        distribution = BoundedGaussian(self.config.sigma, np.zeros_like(upper), upper)
        return distribution.sample(rng=self._rng)

    def perturb(self, routing: np.ndarray) -> np.ndarray:
        """Release ``y_hat = y - r``."""
        routing = np.asarray(routing, dtype=np.float64)
        return np.clip(routing - self.sample_noise(routing), 0.0, 1.0)
