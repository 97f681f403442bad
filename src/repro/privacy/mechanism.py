"""The Laplace Privacy Preserving Mechanism — LPPM (Definition 2).

Each SBS, before uploading its routing block ``y_n`` to the BS,
*subtracts* a nonnegative disturbance ``r[n, u, f]`` drawn from the
bounded Laplace distribution on ``I = [0, delta * y[n, u, f]]`` with
scale ``beta = Delta f / epsilon``:

``y_hat = y - r``.

Subtracting (rather than adding) guarantees the reported aggregate never
over-serves a request, so every MU request remains fully satisfiable —
the BS simply picks up the slack, which is where the cost overhead of
privacy comes from (Section IV-B).  Key properties encoded here:

* ``y_hat in [(1 - delta) * y, y]`` — the report keeps a fixed fraction
  of the true policy, which is what makes Algorithm 1 still converge
  (Theorem 3);
* each *release* (one upload) consumes one ``epsilon`` of budget; the
  :class:`~repro.privacy.accountant.PrivacyAccountant` composes releases
  across iterations.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from ..analysis.taint import decl as taint
from .._validation import rng_from
from ..exceptions import PrivacyError
from .laplace import BoundedLaplace
from .sensitivity import beta_for_epsilon

__all__ = ["LPPMConfig", "LaplacePrivacyMechanism"]


@dataclasses.dataclass(frozen=True)
class LPPMConfig:
    """Parameters of the LPPM mechanism.

    Attributes
    ----------
    epsilon:
        Privacy budget per release (per routing upload).
    delta:
        The Laplace component factor ``delta in [0, 1)`` bounding the
        disturbance to ``delta * y`` (Table I / Eq. 28).  The evaluation
        uses ``0.5``.
    sensitivity:
        The query sensitivity ``Delta f`` entering Eq. 30.  Defaults to
        the worst-case per-coordinate routing sensitivity of one.
    """

    epsilon: float
    delta: float = 0.5
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise PrivacyError(f"delta must lie in [0, 1), got {self.delta}")
        if self.sensitivity <= 0:
            raise PrivacyError(f"sensitivity must be positive, got {self.sensitivity}")

    @property
    def beta(self) -> float:
        """Noise scale ``beta = Delta f / epsilon`` (Eq. 30)."""
        return beta_for_epsilon(self.sensitivity, self.epsilon)


class LaplacePrivacyMechanism:
    """Seeded LPPM sampler.

    It books nothing itself: the caller records each release in a
    :class:`~repro.privacy.accountant.PrivacyAccountant`.

    Parameters
    ----------
    config:
        Mechanism parameters.
    rng:
        Seed or generator for reproducible noise.
    """

    def __init__(
        self,
        config: LPPMConfig,
        rng: Union[int, np.random.Generator, None] = None,
    ) -> None:
        self.config = config
        self._rng = rng_from(rng)

    def sample_noise(self, routing: np.ndarray) -> np.ndarray:
        """Draw the disturbance ``r`` for a routing block.

        ``r[u, f] ~ BoundedLaplace(beta, [0, delta * y[u, f]])``; zero
        wherever ``y`` is zero (the degenerate interval).
        """
        routing = np.asarray(routing, dtype=np.float64)
        if np.any(routing < -1e-12) or np.any(routing > 1.0 + 1e-12):
            raise PrivacyError("routing entries must lie in [0, 1] before perturbation")
        upper = self.config.delta * np.clip(routing, 0.0, 1.0)
        distribution = BoundedLaplace(self.config.beta, np.zeros_like(upper), upper)
        return distribution.sample(rng=self._rng)

    @taint.sanitizer(requires_accounting=True)
    def perturb(self, routing: np.ndarray) -> np.ndarray:
        """Release a perturbed routing block ``y_hat = y - r`` (Eq. 27)."""
        routing = np.asarray(routing, dtype=np.float64)
        return np.clip(routing - self.sample_noise(routing), 0.0, 1.0)

    def expected_noise(self, routing: np.ndarray) -> np.ndarray:
        """Closed-form ``E[r]`` per coordinate for a routing block."""
        routing = np.asarray(routing, dtype=np.float64)
        upper = self.config.delta * np.clip(routing, 0.0, 1.0)
        distribution = BoundedLaplace(self.config.beta, np.zeros_like(upper), upper)
        return distribution.mean()
