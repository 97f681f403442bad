"""Step sizes and results of the projected-subgradient dual ascent.

The dual ascent of Section III moves the multipliers along a subgradient
with step ``eta(k)`` at iteration ``k`` and projects them back onto the
nonnegative orthant (Eq. 21); the batched subproblem oracle
(:mod:`repro.core.subproblem`) runs that loop fused with its own
oracle.  The step-size schedule of Eq. 22, ``eta(k) = eta0 / (1 + alpha
* k)``, satisfies the classical divergent-sum / vanishing-step
conditions that guarantee convergence of the dual values (Bertsekas,
*Convex Optimization Algorithms*, Ch. 8).
"""

from __future__ import annotations

import dataclasses
from typing import Any, List

import numpy as np

from ..exceptions import ValidationError

__all__ = ["StepSchedule", "SubgradientResult"]


@dataclasses.dataclass(frozen=True)
class StepSchedule:
    """Diminishing step-size schedule ``eta(k) = eta0 / (1 + alpha * k)``."""

    eta0: float = 1.0
    alpha: float = 0.1

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ValidationError(f"eta0 must be positive, got {self.eta0}")
        if self.alpha < 0:
            raise ValidationError(f"alpha must be nonnegative, got {self.alpha}")

    def __call__(self, iteration: int) -> float:
        return self.eta0 / (1.0 + self.alpha * iteration)


@dataclasses.dataclass
class SubgradientResult:
    """Outcome of a projected subgradient run.

    Attributes
    ----------
    multipliers:
        Final dual iterate.
    best_dual:
        Best (largest) dual value observed.
    best_payload:
        Payload of the oracle at the best iteration, if it keeps one.
    dual_history:
        Dual value per iteration; useful for convergence diagnostics.
    iterations:
        Number of oracle calls performed.
    converged:
        Whether the stopping criterion (small relative dual progress over
        a patience window) fired before the iteration cap.
    """

    multipliers: np.ndarray
    best_dual: float
    best_payload: Any
    dual_history: List[float]
    iterations: int
    converged: bool
