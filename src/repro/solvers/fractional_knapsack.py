"""Fractional (continuous bounded) knapsack solver.

The routing subproblem of the paper's Lagrangian decomposition (Eq. 20)
has the form::

    min   sum_i  c_i * z_i
    s.t.  sum_i  w_i * z_i <= budget
          0 <= z_i <= cap_i

with weights ``w_i > 0`` (the demand ``lambda[u, f]``) and arbitrary-sign
costs ``c_i``.  Only items with ``c_i < 0`` are worth taking; taking them
in increasing order of ``c_i / w_i`` (most negative cost per unit of
budget first) is optimal — the classic greedy exchange argument.

The solver is exact, runs in ``O(k log k)`` for ``k`` profitable items,
and is cross-checked against the generic LP solvers in the tests.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .. import perf
from .._validation import ArrayLike
from ..exceptions import ValidationError

__all__ = [
    "KnapsackResult",
    "BatchKnapsackResult",
    "KnapsackBatchWorkspace",
    "solve_fractional_knapsack",
    "solve_fractional_knapsack_batch",
    "maximize_fractional_knapsack",
]


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
    *,
    validate: bool = True,
) -> KnapsackResult:
    """Minimize ``costs @ z`` subject to ``weights @ z <= budget, 0 <= z <= caps``.

    Items with nonnegative cost are left at zero (taking them can only
    hurt).  Zero-weight items with negative cost are free and taken at
    their cap.  Remaining profitable items are taken greedily by cost per
    unit weight until the budget is exhausted, splitting the marginal
    item fractionally.

    ``validate=False`` is the trusted-caller fast path: inputs must
    already be finite, 1-D ``float64`` arrays of equal length with
    nonnegative weights/caps and a nonnegative float budget (``caps``
    required).  The dual-ascent inner loop of Algorithm 1 calls this
    thousands of times per run, where re-validating unchanged arrays
    dominated small instances; the greedy itself is identical bit for
    bit on either path.
    """
    perf.count("knapsack.calls")
    if validate:
        data = _validate(costs, weights, caps, budget)
    else:
        data = _Checked(costs=costs, weights=weights, caps=caps, budget=budget)
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


@dataclasses.dataclass(frozen=True)
class BatchKnapsackResult:
    """Solutions of ``B`` fractional knapsacks sharing weights and budget.

    Row ``b`` is bit-identical to
    ``solve_fractional_knapsack(costs[b], weights, budget, caps[b])``.
    """

    allocations: np.ndarray  # (B, K)
    objectives: np.ndarray  # (B,)
    budgets_used: np.ndarray  # (B,)


class KnapsackBatchWorkspace:
    """Preallocated buffers for batched fractional-knapsack solves.

    A workspace holds ``rows`` independent knapsack rows over ``items``
    shared-weight items.  The solve is split into two stages so callers
    can hoist whatever is invariant for them:

    * :meth:`prepare_row` / :meth:`prepare_all` — the cost-dependent
      stage: profitability masks, value-density ratios and the stable
      greedy order.  Rows whose costs do not change between solves (the
      primal-recovery row of the dual ascent, every polish trial) pay
      for their sort exactly once.
    * :meth:`solve_row` / :meth:`solve_all` / :meth:`solve_prepared` —
      the caps-dependent stage: cumulative-capacity masking and the
      fractional tail split, pure array ops with no Python-level loop.

    Every stage reproduces :func:`solve_fractional_knapsack` bit for
    bit: the full-row stable argsort (non-profitable items pinned to
    ``+inf`` density) restricts to the scalar solver's stable subset
    sort — its first ``paid_count[row]`` positions are exactly the
    scalar solver's paid subset in the same greedy order, so the solve
    stage touches only that prefix — excluded items contribute exactly
    ``0.0`` to the cumulative budget, and the tail split performs the
    same elementwise divisions.
    """

    __slots__ = (
        "rows",
        "items",
        "weights",
        "paid",
        "free",
        "ratio",
        "order",
        "sorted_full",
        "before",
        "take",
        "w_sorted",
        "w_eff",
        "paid_count",
        "positive",
        "vals",
        "allocation",
        "_wpos",
        "_wzero",
        "_w_has_zero",
        "_free_any",
        "_row_offsets",
        "_flat_order",
        "_alloc_flat",
        "_capacity",
        "_floats",
        "_flags",
        "_indices",
        "_item_floats",
        "_item_flags",
    )

    def __init__(self, rows: int, items: int) -> None:
        if rows < 1 or items < 1:
            raise ValidationError(
                f"batch workspace needs rows >= 1 and items >= 1, got ({rows}, {items})"
            )
        self.rows = rows
        self._capacity = 0
        self.paid_count = np.zeros(rows, dtype=np.intp)
        self._w_has_zero = False
        self._free_any = np.zeros(rows, dtype=bool)
        # Flat-index scaffolding: per-row greedy orders offset into the
        # flattened (rows * items) buffers, so gather/scatter go through
        # plain ``take`` / fancy assignment instead of the much slower
        # ``take_along_axis`` machinery.
        self._row_offsets = np.empty((rows, 1), dtype=np.intp)
        self.resize(items)

    def resize(self, items: int) -> None:
        """Set the item count; buffers are re-allocated only to grow.

        Every per-item buffer is a C-contiguous prefix view of a buffer
        sized for the largest item count seen so far, so one workspace
        serves knapsacks of different sizes without allocating again.
        Rows must be re-prepared (and weights re-bound) after a resize.
        """
        if items < 1:
            raise ValidationError(f"batch workspace needs items >= 1, got {items}")
        size = self.rows * items
        if items > self._capacity:
            # One allocation per buffer: views into a single shared
            # arena measured ~8% slower in the polish trial kernel.
            self._capacity = items
            self._floats = [np.empty(size) for _ in range(8)]
            self._flags = [np.zeros(size, dtype=bool) for _ in range(3)]
            self._indices = [np.empty(size, dtype=np.intp) for _ in range(2)]
            self._item_floats = np.empty(items)
            self._item_flags = [np.empty(items, dtype=bool) for _ in range(2)]
        shape = (self.rows, items)
        self.items = items
        (
            self.ratio,
            self.sorted_full,
            self.before,
            self.take,
            self.w_sorted,
            self.w_eff,
            self.vals,
            self.allocation,
        ) = [buffer[:size].reshape(shape) for buffer in self._floats]
        self.paid, self.free, self.positive = [b[:size].reshape(shape) for b in self._flags]
        self.order, self._flat_order = [b[:size].reshape(shape) for b in self._indices]
        self.weights = self._item_floats[:items]
        self._wpos, self._wzero = [flags[:items] for flags in self._item_flags]
        self._alloc_flat = self.allocation.reshape(-1)
        self._row_offsets[:, 0] = np.arange(self.rows, dtype=np.intp) * items
        self.paid_count[:] = 0
        self._free_any[:] = False

    def has_free(self, row: int) -> bool:
        """Whether the prepared row has free items (negative cost, zero weight)."""
        return bool(self._free_any[row])

    def bind_weights(self, weights: np.ndarray) -> None:
        """Install the shared item weights (trusted: 1-D float64, >= 0)."""
        np.copyto(self.weights, weights)
        np.greater(self.weights, 0.0, out=self._wpos)
        np.equal(self.weights, 0.0, out=self._wzero)
        self._w_has_zero = bool(self._wzero.any())

    def prepare_row(self, row: int, costs: np.ndarray) -> None:
        """Cost-dependent stage for one row: masks, densities, greedy order."""
        paid = self.paid[row]
        # ``paid`` transiently holds the profitability mask (costs < 0)
        # until the positive-weight restriction lands on top of it.
        np.less(costs, 0.0, out=paid)
        if self._w_has_zero:
            np.logical_and(paid, self._wzero, out=self.free[row])
            self._free_any[row] = bool(self.free[row].any())
        else:
            self._free_any[row] = False
        np.logical_and(paid, self._wpos, out=paid)
        # Subset sort, exactly as the scalar solver: gather the paid
        # items, sort their value densities stably, and keep the order
        # as item indices.  Sorting n paid items instead of the full row
        # is the difference between O(K log K) and O(n log n) per dual
        # iteration.
        paid_idx = np.flatnonzero(paid)
        n = paid_idx.size
        self.paid_count[row] = n
        order = self.order[row]
        w_sorted = self.w_sorted[row]
        w_eff = self.w_eff[row]
        if n:
            ratio = costs[paid_idx] / self.weights[paid_idx]
            order_n = paid_idx[ratio.argsort(kind="stable")]
            order[:n] = order_n
            self.weights.take(order_n, out=w_sorted[:n])
            w_eff[:n] = w_sorted[:n]
        # The tail is never part of the greedy prefix; index 0 keeps the
        # rectangular solve_all gather in bounds and w_eff zeroes its
        # contribution.
        order[n:] = 0
        w_eff[n:] = 0.0

    def prepare_all(self, costs: np.ndarray) -> None:
        """Cost-dependent stage for every row at once (``costs``: (rows, items))."""
        np.less(costs, 0.0, out=self.paid)
        if self._w_has_zero:
            np.logical_and(self.paid, self._wzero[np.newaxis, :], out=self.free)
            np.any(self.free, axis=1, out=self._free_any)
        else:
            self.free[:] = False
            self._free_any[:] = False
        np.logical_and(self.paid, self._wpos[np.newaxis, :], out=self.paid)
        self.ratio.fill(np.inf)
        np.divide(costs, self.weights[np.newaxis, :], out=self.ratio, where=self.paid)
        self.order[:, :] = self.ratio.argsort(axis=1, kind="stable")
        self.paid_count[:] = np.count_nonzero(self.paid, axis=1)
        self.weights.take(self.order, out=self.w_sorted)
        # w_eff zeroes the non-paid tail of each row so the rectangular
        # solve stage can run to the longest paid prefix; within the
        # prefix the *1.0 mask is exact.
        prefix = np.arange(self.items, dtype=np.intp)[np.newaxis, :]
        np.multiply(self.w_sorted, prefix < self.paid_count[:, np.newaxis], out=self.w_eff)

    def solve_row(self, row: int, caps: np.ndarray, budget: float) -> np.ndarray:
        """Caps-dependent stage for one prepared row; returns a buffer view."""
        perf.count("knapsack.batched_rows")
        allocation = self.allocation[row]
        allocation.fill(0.0)
        n = int(self.paid_count[row])
        if n:
            order_n = self.order[row, :n]
            sorted_full = self.sorted_full[row, :n]
            caps.take(order_n, out=sorted_full)
            np.multiply(sorted_full, self.w_eff[row, :n], out=sorted_full)
            before = self.before[row, :n]
            before[0] = 0.0
            sorted_full[:-1].cumsum(out=before[1:])
            take = self.take[row, :n]
            np.subtract(budget, before, out=take)
            # clip(x, 0, hi) == min(max(x, 0), hi) elementwise for finite
            # inputs — two in-place ufuncs instead of the clip dispatch.
            np.maximum(take, 0.0, out=take)
            np.minimum(take, sorted_full, out=take)
            positive = self.positive[row, :n]
            np.greater(take, 0.0, out=positive)
            vals = self.vals[row, :n]
            vals.fill(0.0)
            np.divide(take, self.w_sorted[row, :n], out=vals, where=positive)
            allocation[order_n] = vals
        if self._free_any[row]:
            free = self.free[row]
            allocation[free] = caps[free]
        return allocation

    def solve_row_scaled(
        self, row: int, scaled: np.ndarray, caps: np.ndarray, budget: float
    ) -> np.ndarray:
        """Like :meth:`solve_row` with ``caps * weights`` precomputed.

        ``scaled`` must hold the elementwise product ``caps * weights``
        — callers whose caps are loop-invariant (the dual routing row of
        the ascent) hoist that multiply out entirely.  ``caps`` is still
        needed for the free-item fixup.
        """
        perf.count("knapsack.batched_rows")
        allocation = self.allocation[row]
        allocation.fill(0.0)
        n = int(self.paid_count[row])
        if n:
            order_n = self.order[row, :n]
            sorted_full = self.sorted_full[row, :n]
            scaled.take(order_n, out=sorted_full)
            before = self.before[row, :n]
            before[0] = 0.0
            sorted_full[:-1].cumsum(out=before[1:])
            take = self.take[row, :n]
            np.subtract(budget, before, out=take)
            np.maximum(take, 0.0, out=take)
            np.minimum(take, sorted_full, out=take)
            positive = self.positive[row, :n]
            np.greater(take, 0.0, out=positive)
            vals = self.vals[row, :n]
            vals.fill(0.0)
            np.divide(take, self.w_sorted[row, :n], out=vals, where=positive)
            allocation[order_n] = vals
        if self._free_any[row]:
            free = self.free[row]
            allocation[free] = caps[free]
        return allocation

    def solve_all(self, caps: np.ndarray, budget: float) -> np.ndarray:
        """Caps-dependent stage for every prepared row; returns a buffer view."""
        perf.count("knapsack.batched_rows", self.rows)
        self.allocation.fill(0.0)
        limit = int(self.paid_count.max())
        if limit:
            # Row-offset flat indices turn the per-row permutation into
            # one flat gather + one flat scatter (``take_along_axis``
            # builds its index grids on every call); rows with fewer
            # paid items than ``limit`` see zeros past their prefix
            # because ``w_eff`` masks their tail.
            order_n = self.order[:, :limit]
            flat_order = self._flat_order[:, :limit]
            np.add(order_n, self._row_offsets, out=flat_order)
            sorted_full = self.sorted_full[:, :limit]
            np.multiply(
                caps.reshape(-1).take(flat_order),
                self.w_eff[:, :limit],
                out=sorted_full,
            )
            before = self.before[:, :limit]
            before[:, 0] = 0.0
            sorted_full[:, :-1].cumsum(axis=1, out=before[:, 1:])
            take = self.take[:, :limit]
            np.subtract(budget, before, out=take)
            np.maximum(take, 0.0, out=take)
            np.minimum(take, sorted_full, out=take)
            positive = self.positive[:, :limit]
            np.greater(take, 0.0, out=positive)
            vals = self.vals[:, :limit]
            vals.fill(0.0)
            np.divide(take, self.w_sorted[:, :limit], out=vals, where=positive)
            self._alloc_flat[flat_order] = vals
        if self._free_any.any():
            self.allocation[self.free] = caps[self.free]
        return self.allocation

    def solve_prepared(
        self,
        row: int,
        caps: np.ndarray,
        budget: float,
        *,
        scratch: Optional["KnapsackBatchWorkspace"] = None,
    ) -> np.ndarray:
        """Solve ``T`` cap variations of one prepared row (``caps``: (T, items)).

        All variations share row ``row``'s costs, so they share its masks
        and greedy order — no per-variation sort.  With a ``scratch``
        workspace of at least ``T`` rows over the same item count, the
        solve runs in its preallocated buffers and returns a view into
        them (valid until the next call); otherwise fresh ``(T, items)``
        arrays are allocated.
        """
        trials = caps.shape[0]
        perf.count("knapsack.batched_rows", trials)
        n = int(self.paid_count[row])
        if scratch is not None and scratch.items == self.items and scratch.rows >= trials:
            sorted_full = scratch.sorted_full[:trials, :n]
            before = scratch.before[:trials, :n]
            take = scratch.take[:trials, :n]
            positive = scratch.positive[:trials, :n]
            vals = scratch.vals[:trials, :n]
            allocation = scratch.allocation[:trials]
        else:
            sorted_full = np.empty((trials, n))
            before = np.empty((trials, n))
            take = np.empty((trials, n))
            positive = np.empty((trials, n), dtype=bool)
            vals = np.empty((trials, n))
            allocation = np.empty_like(caps)
        allocation.fill(0.0)
        if n:
            order_n = self.order[row, :n]
            np.multiply(caps[:, order_n], self.w_eff[row, :n], out=sorted_full)
            before[:, 0] = 0.0
            sorted_full[:, :-1].cumsum(axis=1, out=before[:, 1:])
            np.subtract(budget, before, out=take)
            np.maximum(take, 0.0, out=take)
            np.minimum(take, sorted_full, out=take)
            np.greater(take, 0.0, out=positive)
            vals.fill(0.0)
            np.divide(
                take, self.w_sorted[row, :n][np.newaxis, :], out=vals, where=positive
            )
            allocation[:, order_n] = vals
        if self._free_any[row]:
            free = self.free[row]
            allocation[:, free] = caps[:, free]
        return allocation


def _validate_batch(
    costs: ArrayLike,
    weights: ArrayLike,
    caps: Optional[ArrayLike],
    budget: float,
) -> _Checked:
    costs_arr = np.asarray(costs, dtype=np.float64)
    if costs_arr.ndim != 2:
        raise ValidationError(f"batch costs must be 2-D (rows, items), got {costs_arr.shape}")
    weights_arr = np.asarray(weights, dtype=np.float64).ravel()
    if caps is None:
        caps_arr = np.ones_like(costs_arr)
    else:
        caps_arr = np.asarray(caps, dtype=np.float64)
    if caps_arr.shape != costs_arr.shape:
        raise ValidationError(
            f"batch caps shape {caps_arr.shape} must match costs shape {costs_arr.shape}"
        )
    if weights_arr.shape != (costs_arr.shape[1],):
        raise ValidationError(
            f"batch weights must be shared 1-D of length {costs_arr.shape[1]}, "
            f"got {weights_arr.shape}"
        )
    if (
        np.any(~np.isfinite(costs_arr))
        or np.any(~np.isfinite(weights_arr))
        or np.any(~np.isfinite(caps_arr))
    ):
        raise ValidationError("knapsack inputs must be finite")
    if np.any(weights_arr < 0):
        raise ValidationError("knapsack weights must be nonnegative")
    if np.any(caps_arr < 0):
        raise ValidationError("knapsack caps must be nonnegative")
    budget = float(budget)
    if not np.isfinite(budget) or budget < 0:
        raise ValidationError(f"knapsack budget must be finite and nonnegative, got {budget}")
    return _Checked(costs=costs_arr, weights=weights_arr, caps=caps_arr, budget=budget)


def solve_fractional_knapsack_batch(
    costs: ArrayLike,
    weights: ArrayLike,
    budget: float,
    caps: Optional[np.ndarray] = None,
    *,
    workspace: Optional[KnapsackBatchWorkspace] = None,
    validate: bool = True,
) -> BatchKnapsackResult:
    """Solve ``B`` independent knapsacks sharing ``weights`` and ``budget``.

    ``costs`` and ``caps`` are ``(B, K)``; row ``b`` of the result is bit
    for bit the solution of ``solve_fractional_knapsack(costs[b],
    weights, budget, caps[b])`` — same stable tie-breaking, same
    floating-point operations — computed in a handful of array ops over
    the whole batch instead of ``B`` scalar solves.  ``workspace`` is
    reused when its ``(rows, items)`` matches, otherwise a fresh one is
    allocated.
    """
    perf.count("knapsack.batches")
    if validate:
        data = _validate_batch(costs, weights, caps, budget)
    else:
        assert caps is not None
        data = _Checked(costs=costs, weights=weights, caps=caps, budget=budget)
    rows, items = data.costs.shape
    if workspace is None or workspace.rows != rows or workspace.items != items:
        workspace = KnapsackBatchWorkspace(rows, items)
    workspace.bind_weights(data.weights)
    workspace.prepare_all(data.costs)
    allocations = workspace.solve_all(data.caps, data.budget).copy()
    objectives = np.array([float(data.costs[b] @ allocations[b]) for b in range(rows)])
    budgets_used = np.array([float(data.weights @ allocations[b]) for b in range(rows)])
    return BatchKnapsackResult(
        allocations=allocations, objectives=objectives, budgets_used=budgets_used
    )


def maximize_fractional_knapsack(
    values: ArrayLike,
    weights: ArrayLike,
    budget: float,
    caps: Optional[np.ndarray] = None,
) -> KnapsackResult:
    """Maximize ``values @ z`` under the same constraints.

    Convenience wrapper: ``max v@z == -min (-v)@z``.  The returned
    ``objective`` is the *maximized* value.
    """
    result = solve_fractional_knapsack(-np.asarray(values, dtype=np.float64), weights, budget, caps)
    return KnapsackResult(
        allocation=result.allocation,
        objective=-result.objective,
        budget_used=result.budget_used,
    )
