"""Solution container and feasibility checking.

A :class:`Solution` pairs a binary caching policy ``x`` with a fractional
routing policy ``y`` for a given :class:`~repro.core.problem.ProblemInstance`
and can verify every constraint of the paper's formulation:

(1) cache capacity      ``sum_f x[n,f] <= C_n``
(2) cache coupling      ``y[n,u,f] <= x[n,f]``
(3) bandwidth           ``sum_{u,f} y[n,u,f] * lambda[u,f] <= B_n``
(4) unit demand         ``sum_n y[n,u,f] * l[n,u] <= 1``
(8) integrality         ``x in {0,1}``
(9) box                 ``y in [0,1]``

plus the implicit locality constraint ``y[n,u,f] = 0`` wherever
``l[n,u] = 0`` (an SBS cannot serve an MU group it is not connected to;
the objective never rewards such routing, and keeping it at zero makes
feasibility reports unambiguous).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._validation import as_float_array
from ..exceptions import ValidationError
from .cost import total_cost
from .problem import ProblemInstance

__all__ = ["ConstraintViolation", "FeasibilityReport", "Solution"]

DEFAULT_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class ConstraintViolation:
    """A single violated constraint, with its location and magnitude."""

    constraint: str
    index: Tuple[int, ...]
    amount: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.constraint}{self.index}: violated by {self.amount:.3e}"


@dataclasses.dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking a solution against every model constraint."""

    violations: Tuple[ConstraintViolation, ...]
    tol: float

    @property
    def feasible(self) -> bool:
        return not self.violations

    def worst(self) -> Optional[ConstraintViolation]:
        """The largest violation, or ``None`` when feasible."""
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: v.amount)

    def by_constraint(self) -> Dict[str, int]:
        """Number of violations per constraint family."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.constraint] = counts.get(violation.constraint, 0) + 1
        return counts

    def raise_if_infeasible(self) -> None:
        """Raise :class:`ValidationError` describing the worst violation."""
        worst = self.worst()
        if worst is not None:
            raise ValidationError(
                f"solution is infeasible: {len(self.violations)} violation(s); worst {worst}"
            )


def _collect(
    violations: List[ConstraintViolation],
    constraint: str,
    slack: np.ndarray,
    tol: float,
    max_records: int,
) -> None:
    """Record entries of ``slack`` that exceed ``tol`` (slack = violation)."""
    bad = np.argwhere(slack > tol)
    for index in bad[:max_records]:
        key = tuple(int(i) for i in index)
        violations.append(ConstraintViolation(constraint, key, float(slack[key])))


@dataclasses.dataclass(frozen=True)
class Solution:
    """A (caching, routing) policy pair for a problem instance.

    Attributes
    ----------
    caching:
        ``(N, F)`` binary array ``x``.
    routing:
        ``(N, U, F)`` array ``y`` with entries in ``[0, 1]``.
    """

    caching: np.ndarray
    routing: np.ndarray

    def __post_init__(self) -> None:
        caching = as_float_array(self.caching, "caching", ndim=2)
        routing = as_float_array(self.routing, "routing", ndim=3)
        if routing.shape[0] != caching.shape[0] or routing.shape[2] != caching.shape[1]:
            raise ValidationError(
                f"routing shape {routing.shape} inconsistent with caching shape {caching.shape}"
            )
        caching.setflags(write=False)
        routing.setflags(write=False)
        object.__setattr__(self, "caching", caching)
        object.__setattr__(self, "routing", routing)

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, problem: ProblemInstance) -> "Solution":
        """The trivially feasible all-zero solution (BS serves everything)."""
        num_sbs, num_groups, num_files = problem.shape
        return cls(
            caching=np.zeros((num_sbs, num_files)),
            routing=np.zeros((num_sbs, num_groups, num_files)),
        )

    def cost(self, problem: ProblemInstance, *, clip_residual: bool = True) -> float:
        """Total serving cost of this solution (Eq. 7)."""
        return total_cost(problem, self.routing, clip_residual=clip_residual)

    def cache_occupancy(self) -> np.ndarray:
        """``(N,)`` number of cached contents per SBS."""
        return self.caching.sum(axis=1)

    def bandwidth_usage(self, problem: ProblemInstance) -> np.ndarray:
        """``(N,)`` traffic carried by each SBS (left side of constraint 3)."""
        return np.einsum("nuf,uf->n", self.routing, problem.demand)

    def offloaded_traffic(self, problem: ProblemInstance) -> float:
        """Total demand volume served at the edge."""
        capped = np.minimum(
            np.einsum("nuf,nu->uf", self.routing, problem.connectivity), 1.0
        )
        return float(np.sum(capped * problem.demand))

    # ------------------------------------------------------------------
    def check_feasibility(
        self,
        problem: ProblemInstance,
        *,
        tol: float = DEFAULT_TOL,
        max_records_per_constraint: int = 32,
    ) -> FeasibilityReport:
        """Check every model constraint; return a structured report.

        ``tol`` is an absolute tolerance on each constraint's violation;
        bandwidth violations are additionally allowed a relative slack of
        ``tol * B_n`` to absorb floating-point accumulation over the
        ``U * F`` sum.
        """
        if self.caching.shape != (problem.num_sbs, problem.num_files):
            raise ValidationError(
                f"caching shape {self.caching.shape} does not match problem "
                f"({problem.num_sbs}, {problem.num_files})"
            )
        if self.routing.shape != problem.shape:
            raise ValidationError(
                f"routing shape {self.routing.shape} does not match problem {problem.shape}"
            )
        violations: List[ConstraintViolation] = []
        x, y = self.caching, self.routing
        records = max_records_per_constraint

        integrality = np.minimum(np.abs(x), np.abs(x - 1.0))
        _collect(violations, "integrality(8)", integrality, tol, records)

        _collect(violations, "box_low(9)", -y, tol, records)
        _collect(violations, "box_high(9)", y - 1.0, tol, records)

        capacity = x.sum(axis=1) - problem.cache_capacity
        _collect(violations, "cache_capacity(1)", capacity, tol, records)

        coupling = y - x[:, np.newaxis, :]
        _collect(violations, "cache_coupling(2)", coupling, tol, records)

        usage = np.einsum("nuf,uf->n", y, problem.demand)
        bandwidth = usage - problem.bandwidth * (1.0 + tol)
        _collect(violations, "bandwidth(3)", bandwidth, tol, records)

        served = np.einsum("nuf,nu->uf", y, problem.connectivity)
        _collect(violations, "unit_demand(4)", served - 1.0, tol, records)

        locality = y * (1.0 - problem.connectivity)[:, :, np.newaxis]
        _collect(violations, "locality", locality, tol, records)

        return FeasibilityReport(violations=tuple(violations), tol=tol)

    def is_feasible(self, problem: ProblemInstance, *, tol: float = DEFAULT_TOL) -> bool:
        """True when :meth:`check_feasibility` finds no violations."""
        return self.check_feasibility(problem, tol=tol).feasible

    # ------------------------------------------------------------------
    def repaired(self, problem: ProblemInstance) -> "Solution":
        """Return the nearest straightforwardly feasible solution.

        Projects ``x`` to binary by rounding and keeps only the
        ``C_n`` highest entries per SBS; clips ``y`` to
        ``[0, x] ∩ [0, 1]``, zeroes it outside connectivity, rescales to
        meet the bandwidth budget and caps per-request totals at one.
        The repair never increases any constraint's left-hand side, so the
        result is always feasible; it may of course be suboptimal.
        """
        x = np.where(self.caching >= 0.5, 1.0, 0.0)
        for n in range(problem.num_sbs):
            capacity = int(np.floor(problem.cache_capacity[n] + 1e-9))
            cached = np.flatnonzero(x[n] > 0)
            if cached.size > capacity:
                # Keep the contents with the largest original fractional value,
                # breaking ties by popularity.
                order = np.lexsort(
                    (-problem.file_popularity()[cached], -self.caching[n, cached])
                )
                keep = cached[order[:capacity]]
                x[n] = 0.0
                x[n, keep] = 1.0
        y = np.clip(self.routing, 0.0, 1.0)
        y = np.minimum(y, x[:, np.newaxis, :])
        y = y * problem.connectivity[:, :, np.newaxis]
        usage = np.einsum("nuf,uf->n", y, problem.demand)
        for n in range(problem.num_sbs):
            if usage[n] > problem.bandwidth[n] and usage[n] > 0:
                y[n] *= problem.bandwidth[n] / usage[n]
        served = np.einsum("nuf,nu->uf", y, problem.connectivity)
        over = served > 1.0
        if np.any(over):
            scale = np.ones_like(served)
            scale[over] = 1.0 / served[over]
            y = y * scale[np.newaxis, :, :]
        return Solution(caching=x, routing=y)

    # ------------------------------------------------------------------
    def sparsity(self) -> Dict[str, float]:
        """Occupancy statistics of the dense policy arrays.

        Reports how sparse the policy actually is — the fraction of
        nonzero routing entries is what the compact representation
        stores, so this quantifies the memory the sparse core saves.
        """
        routing_nnz = int(np.count_nonzero(self.routing))
        caching_nnz = int(np.count_nonzero(self.caching))
        return {
            "caching_nnz": float(caching_nnz),
            "caching_density": caching_nnz / max(self.caching.size, 1),
            "routing_nnz": float(routing_nnz),
            "routing_density": routing_nnz / max(self.routing.size, 1),
            "dense_nbytes": float(self.caching.nbytes + self.routing.nbytes),
        }
