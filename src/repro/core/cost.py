"""Serving-cost functions from Section II-B of the paper.

The total serving cost decomposes as ``f(y) = f1(y) + f2(y)``:

* ``f1`` (Eq. 5): cost of SBSs serving MU requests directly,
  ``sum_{n,u,f} d[n,u] * y[n,u,f] * l[n,u] * lambda[u,f]`` — linear,
  non-decreasing in ``y``.
* ``f2`` (Eq. 6): cost of the BS serving the residual demand,
  ``sum_u d_hat[u] * sum_f (1 - sum_n y[n,u,f] * l[n,u]) * lambda[u,f]``
  — linear, non-increasing in ``y``.

The paper allows any convex non-decreasing ``f1`` / convex non-increasing
``f2``; the linear forms above are the representative instantiation used
throughout the evaluation.  :class:`LinearCostModel` implements them, and
the :class:`CostModel` protocol lets tests plug in alternative convex
models.

When the LPPM privacy mechanism over-serves a request the extra packets
are discarded (Section IV-B), so the residual demand is floored at zero;
``clip_residual`` controls this.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol, runtime_checkable

import numpy as np

from ..analysis.taint import decl as taint
from ..exceptions import ValidationError
from .problem import ProblemInstance

__all__ = [
    "CostModel",
    "LinearCostModel",
    "sbs_serving_cost",
    "bs_serving_cost",
    "total_cost",
    "served_fraction",
    "residual_fraction",
]


@runtime_checkable
class CostModel(Protocol):
    """Protocol for serving-cost models over routing policies."""

    def sbs_cost(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Edge-serving cost ``f1(y)``."""

    def bs_cost(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Backhaul-serving cost ``f2(y)``."""

    def total(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Total cost ``f(y) = f1(y) + f2(y)``."""


def _check_routing_shape(problem: ProblemInstance, routing: np.ndarray) -> np.ndarray:
    routing = np.asarray(routing, dtype=np.float64)
    if routing.shape != problem.shape:
        raise ValidationError(
            f"routing must have shape {problem.shape} (N, U, F), got {routing.shape}"
        )
    return routing


def served_fraction(problem: ProblemInstance, routing: np.ndarray) -> np.ndarray:
    """``(U, F)`` total fraction of each request served by SBSs.

    This is ``sum_n y[n,u,f] * l[n,u]``; constraint (4) requires it to be
    at most one.
    """
    routing = _check_routing_shape(problem, routing)
    return np.einsum("nuf,nu->uf", routing, problem.connectivity)


def residual_fraction(
    problem: ProblemInstance, routing: np.ndarray, *, clip: bool = True
) -> np.ndarray:
    """``(U, F)`` fraction of each request left for the BS to serve.

    With ``clip=True`` (the default) over-served requests contribute zero
    residual, matching the paper's "extra video packet will be discarded"
    semantics for the privacy mechanism.
    """
    residual = 1.0 - served_fraction(problem, routing)
    if clip:
        residual = np.maximum(residual, 0.0)
    return residual


def sbs_serving_cost(problem: ProblemInstance, routing: np.ndarray) -> float:
    """Edge serving cost ``f1(y)`` of Eq. (5)."""
    routing = _check_routing_shape(problem, routing)
    weighted = problem.sbs_cost * problem.connectivity  # (N, U)
    per_pair = np.einsum("nuf,uf->nu", routing, problem.demand)
    return float(np.sum(weighted * per_pair))


def bs_serving_cost(
    problem: ProblemInstance, routing: np.ndarray, *, clip_residual: bool = True
) -> float:
    """Backhaul serving cost ``f2(y)`` of Eq. (6)."""
    residual = residual_fraction(problem, routing, clip=clip_residual)
    return float(np.sum(problem.bs_cost[:, np.newaxis] * residual * problem.demand))


@taint.declassifier("system-wide aggregate cost: the scalar the paper itself reports (Eq. 11), revealing no per-SBS demand")
def total_cost(
    problem: ProblemInstance, routing: np.ndarray, *, clip_residual: bool = True
) -> float:
    """Total serving cost ``f(y) = f1(y) + f2(y)`` of Eq. (7)."""
    return sbs_serving_cost(problem, routing) + bs_serving_cost(
        problem, routing, clip_residual=clip_residual
    )


@dataclasses.dataclass(frozen=True)
class LinearCostModel:
    """The paper's representative linear cost model (Eqs. 5-6).

    Parameters
    ----------
    clip_residual:
        Floor the BS residual at zero (discard over-served packets).
        Disable only inside solvers that already enforce constraint (4),
        where the unclipped objective is linear and easier to reason
        about.
    """

    clip_residual: bool = True

    def sbs_cost(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Edge serving cost ``f1`` (Eq. 5)."""
        return sbs_serving_cost(problem, routing)

    def bs_cost(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Backhaul serving cost ``f2`` (Eq. 6)."""
        return bs_serving_cost(problem, routing, clip_residual=self.clip_residual)

    def total(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Total serving cost ``f = f1 + f2`` (Eq. 7)."""
        return total_cost(problem, routing, clip_residual=self.clip_residual)

    def savings(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Cost saved relative to serving everything from the BS.

        Equals ``W - f(y)`` where ``W`` is :meth:`ProblemInstance.max_cost`.
        """
        return problem.max_cost() - self.total(problem, routing)
