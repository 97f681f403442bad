"""General convex serving-cost models (Section II-B's full generality).

The paper only requires ``f1`` to be convex and non-decreasing in the
routing variables and ``f2`` convex non-increasing; the evaluation uses
the linear representative.  This module provides the natural nonlinear
instance and the solver machinery it needs:

* :class:`CongestionCostModel` — the linear model plus a per-SBS
  quadratic congestion term ``gamma * (traffic_n)^2 / B_n`` modelling
  transmission power growing superlinearly with radio load (cf. the
  energy models of Poularakis et al., the paper's reference [21]);
* :func:`solve_convex_routing` — one SBS's best-response routing for a
  *convex* local cost, by projected gradient descent in traffic space
  (``z = lambda * y``), where the feasible set ``{0 <= z <= caps_z,
  sum(z) <= B_n}`` is exactly the capped simplex that
  :func:`project_capped_simplex` projects onto.

With ``gamma = 0`` the model reduces to the linear one and the solver
recovers the fractional-knapsack solution — both facts are pinned by the
test suite, along with a cross-check against ``scipy.optimize``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .._validation import as_binary_array, as_float_array, check_nonnegative_float
from ..exceptions import ValidationError
from .cost import bs_serving_cost, sbs_serving_cost
from .problem import ProblemInstance

__all__ = ["CongestionCostModel", "project_capped_simplex", "solve_convex_routing"]


@dataclasses.dataclass(frozen=True)
class CongestionCostModel:
    """Linear serving cost plus quadratic per-SBS congestion.

    ``f1(y) = sum_n [ sum_{u,f} d[n,u] y l lambda  +
    gamma * (sum_{u,f} y lambda)^2 / max(B_n, 1) ]`` and the linear
    ``f2``.  ``gamma = 0`` recovers :class:`~repro.core.cost.LinearCostModel`.
    """

    gamma: float = 1.0
    clip_residual: bool = True

    def __post_init__(self) -> None:
        check_nonnegative_float(self.gamma, "gamma")

    def congestion(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """The quadratic congestion term alone."""
        traffic = np.einsum("nuf,uf->n", routing, problem.demand)
        scale = np.maximum(problem.bandwidth, 1.0)
        return float(self.gamma * np.sum(traffic**2 / scale))

    def sbs_cost(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Edge cost ``f1`` including congestion."""
        return sbs_serving_cost(problem, routing) + self.congestion(problem, routing)

    def bs_cost(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Backhaul cost ``f2`` (linear, clipped residual)."""
        return bs_serving_cost(problem, routing, clip_residual=self.clip_residual)

    def total(self, problem: ProblemInstance, routing: np.ndarray) -> float:
        """Total serving cost ``f1 + f2``."""
        return self.sbs_cost(problem, routing) + self.bs_cost(problem, routing)

    # ------------------------------------------------------------------
    def traffic_gradient(
        self, problem: ProblemInstance, sbs: int, traffic: np.ndarray
    ) -> np.ndarray:
        """Gradient of SBS ``sbs``'s local cost w.r.t. its traffic vector.

        In traffic space ``z[u, f] = lambda[u, f] * y[u, f]`` the local
        objective is ``sum (d[n,u] - d_hat[u]) * z / 1`` per unit of
        traffic plus the congestion term, so the gradient is
        ``(d - d_hat) + 2 gamma sum(z) / B_n`` per coordinate (for
        connected pairs; disconnected pairs never carry traffic).
        """
        problem._check_sbs(sbs)
        margin = problem.savings_margin()[sbs]  # (U,), = (d_hat - d) * l
        linear = -margin[:, np.newaxis] * np.ones(problem.num_files)
        scale = max(float(problem.bandwidth[sbs]), 1.0)
        congestion = 2.0 * self.gamma * float(traffic.sum()) / scale
        return linear + congestion


def solve_convex_routing(
    problem: ProblemInstance,
    sbs: int,
    cached: np.ndarray,
    caps: np.ndarray,
    model: CongestionCostModel,
    *,
    max_iter: int = 500,
    tol: float = 1e-8,
    step: Optional[float] = None,
) -> np.ndarray:
    """Best-response routing block for a convex local cost.

    Projected gradient descent over the traffic polytope
    ``{0 <= z <= caps * lambda (cached files only), sum z <= B_n}``.
    The step size defaults to ``1 / L`` with ``L`` the congestion
    curvature (the linear part contributes none); with ``gamma = 0`` a
    single projected step from a greedy-informed start already solves
    the LP, and the iteration merely confirms it.

    Returns the ``(U, F)`` routing block ``y = z / lambda``.
    """
    problem._check_sbs(sbs)
    cached = as_binary_array(cached, "cached", shape=(problem.num_files,))
    caps = as_float_array(
        caps, "caps", shape=(problem.num_groups, problem.num_files), nonnegative=True
    )
    demand = problem.demand
    caps_z = (caps * cached[np.newaxis, :] * demand).ravel()
    budget = float(problem.bandwidth[sbs])
    if not np.isfinite(budget) or budget < 0:
        raise ValidationError(f"bandwidth must be finite nonnegative, got {budget}")

    scale = max(budget, 1.0)
    curvature = 2.0 * model.gamma / scale
    if step is None:
        # Lipschitz constant of the gradient is `curvature * dim` in the
        # worst case (rank-one Hessian); a safe, still-fast choice:
        step = 1.0 / max(curvature * max(1.0, 1.0), 1e-3)
        step = min(step, scale)  # keep the first step within the polytope scale

    z = np.zeros(problem.num_groups * problem.num_files)
    previous_value = np.inf
    for _ in range(max_iter):
        gradient = model.traffic_gradient(
            problem, sbs, z
        ).ravel()
        z_new = project_capped_simplex(z - step * gradient, budget, caps_z)
        value = _local_value(problem, sbs, model, z_new)
        if value > previous_value + 1e-9:
            step *= 0.5  # backtrack on overshoot
            if step < 1e-12:
                break
            continue
        shift = float(np.abs(z_new - z).max(initial=0.0))
        z = z_new
        if previous_value - value < tol * max(1.0, abs(value)) and shift < tol * scale:
            previous_value = value
            break
        previous_value = value
    routing = np.zeros_like(demand)
    positive = demand > 0
    routing[positive] = z.reshape(demand.shape)[positive] / demand[positive]
    return np.clip(routing, 0.0, 1.0)


def _local_value(
    problem: ProblemInstance, sbs: int, model: CongestionCostModel, z: np.ndarray
) -> float:
    """Local objective in traffic space (constant BS term dropped)."""
    margin = problem.savings_margin()[sbs]
    z_matrix = z.reshape(problem.num_groups, problem.num_files)
    linear = float(np.sum(-margin[:, np.newaxis] * z_matrix))
    scale = max(float(problem.bandwidth[sbs]), 1.0)
    return linear + model.gamma * float(z.sum()) ** 2 / scale


def project_capped_simplex(
    point: np.ndarray,
    radius: float,
    cap: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Projection onto ``{z : 0 <= z <= cap, sum(z) <= radius}``.

    Solved by bisection on the dual variable of the sum constraint: the
    projection is ``clip(point - theta, 0, cap)`` where ``theta >= 0`` is
    the smallest value making the budget hold.  If the unconstrained clip
    already satisfies the budget, ``theta = 0``.
    """
    v = np.asarray(point, dtype=np.float64)
    shape = v.shape
    v = v.ravel()
    if cap is None:
        cap_vec = np.ones_like(v)
    else:
        cap_vec = np.broadcast_to(np.asarray(cap, dtype=np.float64), shape).ravel().copy()
    if np.any(cap_vec < 0):
        raise ValidationError("caps must be nonnegative")
    if radius < 0:
        raise ValidationError(f"budget radius must be nonnegative, got {radius}")

    def clipped(theta: float) -> np.ndarray:
        return np.clip(v - theta, 0.0, cap_vec)

    if clipped(0.0).sum() <= radius + tol:
        return clipped(0.0).reshape(shape)
    low, high = 0.0, float(np.max(v))
    for _ in range(max_iter):
        mid = 0.5 * (low + high)
        if clipped(mid).sum() > radius:
            low = mid
        else:
            high = mid
        if high - low < tol:
            break
    result = clipped(high)
    total = result.sum()
    if total > radius and total > 0:
        result *= radius / total
    return result.reshape(shape)
