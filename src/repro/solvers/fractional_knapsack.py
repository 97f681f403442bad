"""Fractional (continuous bounded) knapsack solver.

Routing one SBS's demand for a fixed cache set (the primal recovery of
the subproblem ``P_n``) has the form::

    min   sum_i  c_i * z_i
    s.t.  sum_i  w_i * z_i <= budget
          0 <= z_i <= cap_i

with weights ``w_i > 0`` (the demand ``lambda[u, f]``) and arbitrary-sign
costs ``c_i``.  Only items with ``c_i < 0`` are worth taking; taking them
in increasing order of ``c_i / w_i`` (most negative cost per unit of
budget first) is optimal — the classic greedy exchange argument.

The solver is exact, runs in ``O(k log k)`` for ``k`` profitable items,
and is cross-checked against the generic LP solvers in the tests.
:class:`KnapsackWorkspace` is the same greedy split into the stages the
subproblem kernel runs, bit for bit equal to the solver.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from .. import perf
from .._validation import ArrayLike
from ..exceptions import ValidationError

__all__ = ["KnapsackResult", "KnapsackWorkspace", "solve_fractional_knapsack"]


@dataclasses.dataclass(frozen=True)
class KnapsackResult:
    """Solution of a fractional knapsack instance."""

    allocation: np.ndarray
    objective: float
    budget_used: float

    def saturated(self, budget: float, *, rtol: float = 1e-9) -> bool:
        """Whether the budget constraint is (numerically) tight."""
        return bool(self.budget_used >= budget * (1.0 - rtol))


@dataclasses.dataclass(frozen=True)
class _Checked:
    costs: np.ndarray
    weights: np.ndarray
    caps: np.ndarray
    budget: float


def _validate(
    costs: ArrayLike,
    weights: ArrayLike,
    caps: Optional[ArrayLike],
    budget: float,
) -> _Checked:
    costs = np.asarray(costs, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if caps is None:
        caps = np.ones_like(costs)
    else:
        caps = np.asarray(caps, dtype=np.float64).ravel()
    if not (costs.shape == weights.shape == caps.shape):
        raise ValidationError(
            "costs, weights and caps must have identical lengths; got "
            f"{costs.shape}, {weights.shape}, {caps.shape}"
        )
    if np.any(~np.isfinite(costs)) or np.any(~np.isfinite(weights)) or np.any(~np.isfinite(caps)):
        raise ValidationError("knapsack inputs must be finite")
    if np.any(weights < 0):
        raise ValidationError("knapsack weights must be nonnegative")
    if np.any(caps < 0):
        raise ValidationError("knapsack caps must be nonnegative")
    budget = float(budget)
    if not np.isfinite(budget) or budget < 0:
        raise ValidationError(f"knapsack budget must be finite and nonnegative, got {budget}")
    return _Checked(costs=costs, weights=weights, caps=caps, budget=budget)


def solve_fractional_knapsack(
    costs: ArrayLike,
    weights: ArrayLike,
    budget: float,
    caps: Optional[np.ndarray] = None,
) -> KnapsackResult:
    """Minimize ``costs @ z`` subject to ``weights @ z <= budget, 0 <= z <= caps``.

    Items with nonnegative cost are left at zero (taking them can only
    hurt).  Zero-weight items with negative cost are free and taken at
    their cap.  Remaining profitable items are taken greedily by cost per
    unit weight until the budget is exhausted, splitting the marginal
    item fractionally.
    """
    perf.count("knapsack.calls")
    data = _validate(costs, weights, caps, budget)
    allocation = np.zeros_like(data.costs)

    profitable = data.costs < 0
    free = profitable & (data.weights == 0)
    allocation[free] = data.caps[free]

    paid = np.flatnonzero(profitable & (data.weights > 0))
    if paid.size:
        ratio = data.costs[paid] / data.weights[paid]
        order = paid[np.argsort(ratio, kind="stable")]
        # Vectorized greedy: item k may take whatever budget is left after
        # all better-ratio items took their fill.
        full = data.caps[order] * data.weights[order]
        budget_before = np.concatenate(([0.0], np.cumsum(full)[:-1]))
        take = np.clip(data.budget - budget_before, 0.0, full)
        positive = take > 0
        allocation[order[positive]] = take[positive] / data.weights[order[positive]]

    objective = float(data.costs @ allocation)
    budget_used = float(data.weights @ allocation)
    return KnapsackResult(allocation=allocation, objective=objective, budget_used=budget_used)


class KnapsackWorkspace:
    """The greedy of :func:`solve_fractional_knapsack` in the two stages
    the subproblem kernel runs, over one set of shared item weights.

    Built for exactly ``weights.size`` items (trusted: 1-D ``float64``,
    finite, nonnegative), it holds only the weights and one prepared
    order; every solve allocates its own result.

    * :meth:`prepare_row` — the cost-dependent stage for costs that stay
      fixed (primal recovery): profitability masks, the stable greedy
      order, and the item caps and groups along it, paid for once.
    * :meth:`solve_masked` — the caps-dependent stage along the prepared
      order, each item's cap switched by its group's entry of a mask;
      one mask, or a batch of masks solved as independent rows.

    Every stage reproduces :func:`solve_fractional_knapsack` bit for
    bit: the paid items (negative cost, positive weight) are sorted by
    the same stable subset sort, the cumulative budget adds the same
    ``cap * weight`` terms in the same order, items the greedy never
    reaches take exactly ``0.0``, and the tail split performs the same
    elementwise divisions.
    """

    __slots__ = (
        "weights",
        "order",
        "order_groups",
        "order_caps",
        "_positive",
        "_zero",
        "_order_weights",
        "_free",
    )

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights
        self._positive = weights > 0.0
        zero = np.equal(weights, 0.0)
        self._zero: Optional[np.ndarray] = zero if zero.any() else None
        self.order = np.empty(0, dtype=np.intp)
        self.order_groups = np.empty(0, dtype=np.intp)
        self.order_caps = np.empty(0)
        self._order_weights = np.empty(0)
        self._free: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def prepare_row(self, costs: np.ndarray, caps: np.ndarray, groups: np.ndarray) -> None:
        """Cost-dependent stage: the paid items (negative cost, positive
        weight) in greedy order (``order``) with their ``groups`` and
        ``caps`` along it, and the free items (negative cost, zero
        weight)."""
        paid = costs < 0.0
        free = None
        if self._zero is not None:
            free = paid & self._zero
            paid &= self._positive
        paid_idx = paid.nonzero()[0]
        ratio = costs[paid_idx] / self.weights[paid_idx]
        self.order = paid_idx[ratio.argsort(kind="stable")]
        self.order_groups = groups.take(self.order)
        self.order_caps = caps.take(self.order)
        self._order_weights = self.weights.take(self.order)
        self._free = None
        if free is not None and free.any():
            items = free.nonzero()[0]
            self._free = (items, caps.take(items), groups.take(items))

    def solve_masked(self, mask: np.ndarray, budget: float) -> np.ndarray:
        """Caps-dependent stage along the prepared order, item ``i`` capped
        at ``caps[i] * mask[..., groups[i]]``.

        ``mask`` is one ``(G,)`` vector or a ``(T, G)`` batch, solved as
        ``T`` independent rows; returns ``(items,)`` or ``(T, items)``
        allocations.
        """
        perf.count("knapsack.batched_rows", 1 if mask.ndim == 1 else mask.shape[0])
        allocation = np.zeros(mask.shape[:-1] + self.weights.shape)
        if self.order.size:
            # Same grouping as the scalar solver: (cap * mask) * w.
            full = self.order_caps * mask.take(self.order_groups, axis=-1)
            full *= self._order_weights
            before = np.empty_like(full)
            before[..., 0] = 0.0
            full[..., :-1].cumsum(axis=-1, out=before[..., 1:])
            take = np.subtract(budget, before)
            # clip(x, 0, hi) == min(max(x, 0), hi) elementwise for finite
            # inputs — two in-place ufuncs instead of the clip dispatch.
            np.maximum(take, 0.0, out=take)
            np.minimum(take, full, out=take)
            vals = np.zeros_like(take)
            np.divide(take, self._order_weights, out=vals, where=take > 0.0)
            allocation[..., self.order] = vals
        if self._free is not None:
            items, caps, groups = self._free
            allocation[..., items] = caps * mask.take(groups, axis=-1)
        return allocation
