"""Per-SBS subproblem ``P_n`` (Section III, Eqs. 10-23).

Given the aggregate routing policy ``y_{-n}`` of every other SBS, SBS
``n`` jointly chooses its caching vector ``x_n in {0,1}^F`` and routing
block ``y_n in [0,1]^{U x F}`` to minimize its view of the network cost.
The paper solves this by Lagrangian dual decomposition:

1. relax the cache-coupling constraint ``y <= x`` with multipliers
   ``mu[u, f] >= 0`` (Eq. 15-16);
2. the **caching subproblem** (Eq. 18) maximizes
   ``sum_f x[f] * sum_u mu[u, f]`` under the capacity constraint — its LP
   relaxation is integral (Theorem 1), so it reduces to picking the
   ``C_n`` files with the largest positive aggregated multipliers;
3. the **routing subproblem** (Eq. 20) is a linear program with a single
   budget constraint — an exact fractional knapsack;
4. the multipliers follow the projected subgradient update of Eq. 21
   with the diminishing steps of Eq. 22 and subgradient ``y - x``
   (Eq. 23).

Because the dual iterates' primal pairs need not be jointly feasible, we
add standard *primal recovery*: the cache set of each dual iterate is
paired with its best feasible routing (the knapsack restricted to that
set), and the cheapest pair seen is returned.  The legacy oracle
recovers every new set exactly; the batched kernel skips the sets whose
weak-duality lower bound already proves they cannot beat the incumbent
(:class:`_RecoveryScreen`).  An optional local-search polish swaps files
in/out of the best cache set until no single swap improves the cost,
and an exhaustive solver is provided for validating optimality on tiny
instances.

Everything runs on a flat :class:`ItemView` with one item per ``(row,
file)`` cell: dense callers get the full ``(U, F)`` grid, the sparse
solver only an SBS's demand pairs.  The batched kernel's dual ascent
then iterates over the view's **live items** only::

    live = (priced < 0) & (caps > 0)   |  (start > 0) when warm-started

with ``priced`` the (price-augmented) routing coefficients and ``caps``
the residual caps.  An item outside ``live`` keeps ``mu = +0.0`` and
routing ``0`` in every iterate, by induction from ``mu = +0.0``: its
knapsack cost ``priced + mu`` is ``>= 0``, so it is never paid or
free, or its cap is ``0``, so it takes ``0``; its subgradient is
``0 - x_f <= 0`` and the step is positive, so the projection returns
``+0.0``.  Its terms are signed zeros, and skipping them is exact where
the kernel adds sequentially: per-file sums (``bincount`` accumulates
from ``+0.0``) and the greedy's cumulative budget, whose stable order of
the other items does not change.  Zero-demand cells, which the sparse
solver drops from its views, are one dead class: their coefficient is a
signed zero.  The three pairwise-summed reductions (the dual value, a
recovery's cost and the polish trial costs) keep the full view's
summation tree: the live products are scattered into a full-length
buffer whose dead slots hold exactly the signed zeros the full
computation puts there.

The dual ascent has two oracles.  The **batched kernel** (the default)
hoists every loop invariant, validates arrays once at this API
boundary, solves the dual routing subproblem and primal recovery as one
two-row knapsack batch, screens recoveries by weak duality and runs in
the buffers of a :class:`SubproblemWorkspace`.  A dual iteration sorts
nothing it only needs the top of: the cache set, its filler and the
polish candidates are exact stable top-``k`` selections
(:func:`_top_k`, a threshold from ``np.partition`` with ties to the
lowest index), and the dual routing row sorts only its paid items' value
densities, in one fused knapsack pass.  The **legacy** oracle
(``fast=False``) routes every dual iteration through the public,
validating helpers (:func:`cache_subproblem`, :func:`routing_subproblem`)
on the dense problem the view flattens; it is the reference the kernel
is cross-checked against bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .. import perf
from .._validation import as_float_array, check_positive_int
from ..exceptions import ValidationError
from ..solvers.fractional_knapsack import KnapsackBatchWorkspace, solve_fractional_knapsack
from ..solvers.subgradient import StepSchedule, SubgradientResult, subgradient_ascent
from .problem import ProblemInstance
from .routing import optimal_routing_for_sbs, residual_caps

__all__ = [
    "ItemView",
    "SubproblemConfig",
    "SubproblemSolution",
    "SubproblemWorkspace",
    "solve_subproblem",
    "solve_subproblem_exhaustive",
    "cache_subproblem",
    "routing_subproblem",
]

# Polish trials are evaluated in chunks of this many candidate cache
# vectors: improving passes usually accept a trial from the first chunk
# (the scalar loop would have stopped there too), so later chunks are
# never materialized, and the chunk size bounds the trial scratch
# buffers preallocated in :class:`SubproblemWorkspace`.
_TRIAL_CHUNK = 32

_EPS = float(np.finfo(np.float64).eps)

# The per-item vectors of :class:`SubproblemWorkspace`: full-view ones,
# then the live-item ones of the dual ascent.
_FULL_VECTORS = ("caps", "dual_prod", "cost_prod", "terms")
_LIVE_VECTORS = ("mu", "dual_costs", "subgrad", "priced_mu", "products", "gap")


@dataclasses.dataclass(frozen=True)
class SubproblemConfig:
    """Tunables for the Lagrangian decomposition.

    Attributes
    ----------
    schedule:
        Dual step-size schedule.  ``None`` auto-scales ``eta0`` to half
        the largest absolute routing coefficient so the multipliers can
        reach the coefficients' magnitude in a handful of steps.
    max_iter / tol / patience:
        Stopping controls for the dual ascent (see
        :func:`repro.solvers.subgradient.subgradient_ascent`).
    polish:
        Run single-swap local search on the recovered cache set.
    fast:
        Use the batched, buffer-reusing kernel (see the module
        docstring).  ``False`` selects the legacy per-iteration
        validated helpers; both produce bit-identical solutions.
    oracle:
        Which implementation backs the dual ascent: ``"batched"`` (the
        kernel) or ``"legacy"`` (per-iteration validated helpers).
        ``None`` derives the choice from ``fast`` (``True`` →
        ``"batched"``, ``False`` → ``"legacy"``).
    """

    schedule: Optional[StepSchedule] = None
    max_iter: int = 120
    tol: float = 1e-7
    patience: int = 25
    polish: bool = True
    fast: bool = True
    oracle: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive_int(self.max_iter, "max_iter")
        check_positive_int(self.patience, "patience")
        if self.tol < 0:
            raise ValidationError(f"tol must be nonnegative, got {self.tol}")
        if self.oracle not in (None, "batched", "legacy"):
            raise ValidationError(
                f"oracle must be 'batched', 'legacy' or None, got {self.oracle!r}"
            )

    def resolved_oracle(self) -> str:
        """The effective oracle after applying the ``fast`` default."""
        if self.oracle is not None:
            return self.oracle
        return "batched" if self.fast else "legacy"


@dataclasses.dataclass(frozen=True)
class SubproblemSolution:
    """Solution of ``P_n`` for one SBS.

    ``cost`` is the *local objective* ``f_n`` of Eq. 10 (it contains the
    constant BS term induced by ``y_{-n}``, so it is comparable across
    candidate policies of the same SBS but not across SBSs).

    ``routing`` and ``multipliers`` follow the layout of the view solved
    (``ItemView.shape``): ``(U, F)`` for a dense problem's full grid,
    ``(P_n,)`` — one entry per demand pair — for the sparse solver.
    """

    caching: np.ndarray  # (F,)
    routing: np.ndarray  # ItemView.shape
    cost: float
    best_dual: float
    dual_history: Tuple[float, ...]
    iterations: int
    converged: bool
    multipliers: Optional[np.ndarray] = None  # ItemView.shape, final dual iterate


@dataclasses.dataclass(frozen=True, eq=False)
class ItemView:
    """Flat item view of one SBS's subproblem ``P_n``.

    An item is one ``(row, file)`` cell with its own routing ``y`` and
    multiplier ``mu``; rows are the SBS's MU groups.  Items are listed
    row-major, so every per-file sum adds in the order of the dense
    grid's axis-0 reduction.  The item-aligned inputs and outputs of
    :func:`solve_subproblem` are laid out as ``shape``: ``(U, F)`` for
    a full grid, ``(P,)`` otherwise.

    ``item_row`` / ``item_file`` / ``weight`` are ``(P,)``;
    ``link_cost`` / ``reach`` / ``bs_cost`` are the per-row ``d[n, u]``,
    ``l[n, u]`` and ``d_hat[u]``.  ``constant_offset`` is added to the
    ``y``-independent part of the objective: the sparse solver passes
    the BS cost of the demand outside the SBS's reach, so a local view
    reports its objective on the dense solver's absolute scale.
    """

    item_row: np.ndarray
    item_file: np.ndarray
    weight: np.ndarray
    link_cost: np.ndarray
    reach: np.ndarray
    bs_cost: np.ndarray
    num_files: int
    cache_capacity: float
    bandwidth: float
    constant_offset: float
    shape: Tuple[int, ...]

    @classmethod
    def grid(
        cls, problem: ProblemInstance, sbs: int, *, constant_offset: float = 0.0
    ) -> "ItemView":
        """The full-grid view of SBS ``sbs``: every cell, row-major."""
        num_groups, num_files = problem.num_groups, problem.num_files
        return cls(
            item_row=np.repeat(np.arange(num_groups), num_files),
            item_file=np.tile(np.arange(num_files), num_groups),
            weight=problem.demand_flat(),
            link_cost=problem.sbs_cost[sbs],
            reach=problem.connectivity[sbs],
            bs_cost=problem.bs_cost,
            num_files=num_files,
            cache_capacity=float(problem.cache_capacity[sbs]),
            bandwidth=float(problem.bandwidth[sbs]),
            constant_offset=constant_offset,
            shape=(num_groups, num_files),
        )

    @property
    def num_items(self) -> int:
        """Number of items ``P``."""
        return self.item_row.size

    def to_problem(self) -> ProblemInstance:
        """The dense one-SBS :class:`ProblemInstance` the view flattens."""
        demand = np.zeros((self.reach.size, self.num_files))
        demand[self.item_row, self.item_file] = self.weight
        return ProblemInstance(
            demand=demand,
            connectivity=self.reach[np.newaxis, :].copy(),
            cache_capacity=np.array([self.cache_capacity]),
            bandwidth=np.array([self.bandwidth]),
            sbs_cost=self.link_cost[np.newaxis, :].copy(),
            bs_cost=self.bs_cost.copy(),
        )

    def file_sums(self, values: np.ndarray) -> np.ndarray:
        """``(F,)`` per-file sums of an item vector, each added in row order:
        ``bincount`` adds sequentially, exactly like the axis-0 reduction a
        full grid runs directly (several times faster, bit for bit equal)."""
        if len(self.shape) == 2:
            return np.add.reduce(values.reshape(self.shape), axis=0)
        return np.bincount(self.item_file, weights=values, minlength=self.num_files)

    def subset(self, items: np.ndarray) -> "ItemView":
        """The 1-D view of ``items`` (ascending item indices)."""
        return dataclasses.replace(
            self,
            item_row=self.item_row.take(items),
            item_file=self.item_file.take(items),
            weight=self.weight.take(items),
            shape=(items.size,),
        )


class SubproblemWorkspace:
    """Preallocated scratch buffers for the batched subproblem kernel.

    Holds every per-item buffer of a dual iteration, including the 2-row
    :class:`~repro.solvers.fractional_knapsack.KnapsackBatchWorkspace`
    (row 0: the dual routing subproblem, row 1: primal recovery), so a
    repeat caller pays the allocations once.  Buffers only grow: a solve
    takes prefix views of its item count, so one workspace serves views
    of different sizes — the sparse sweep sizes it for its largest SBS
    view.  Full-view buffers span the view's ``items``; the dual
    ascent's buffers and the knapsack scratch span its ``live`` items.
    Every allocation bumps ``subproblem.workspace_allocs``.
    """

    def __init__(self, problem: Optional[ProblemInstance] = None, *, items: int = 1) -> None:
        if problem is not None:
            items = max(items, problem.num_groups * problem.num_files)
        self.capacity = 0
        self.bind(max(items, 1))

    def bind(self, items: int, live: Optional[int] = None) -> None:
        """Point the full-view buffers at their first ``items`` entries and
        the live-item ones at their first ``live`` (default ``items``),
        growing if needed."""
        live = items if live is None else live
        if items > self.capacity:
            perf.count("subproblem.workspace_allocs")
            self.capacity = items
            self._vectors = [np.empty(items) for _ in _FULL_VECTORS + _LIVE_VECTORS]
            self.knapsack = KnapsackBatchWorkspace(2, items)
            self._trials: Optional[Tuple[np.ndarray, KnapsackBatchWorkspace]] = None
        self.items, self.live = items, live
        full = len(_FULL_VECTORS)
        self.caps, self.dual_prod, self.cost_prod, self.terms = [
            vector[:items] for vector in self._vectors[:full]
        ]
        self.mu, self.dual_costs, self.subgrad, self.priced_mu, self.products, self.gap = [
            vector[:live] for vector in self._vectors[full:]
        ]
        self.knapsack.resize(live)
        if self._trials is not None:
            self._trials[1].resize(live)

    def trials(self) -> Tuple[np.ndarray, KnapsackBatchWorkspace]:
        """Polish trial scratch: ``(_TRIAL_CHUNK, items)`` products and a
        ``_TRIAL_CHUNK``-row knapsack workspace over the live items — the
        largest buffers here, so they are allocated on first use only."""
        if self._trials is None:
            perf.count("subproblem.workspace_allocs")
            scratch = KnapsackBatchWorkspace(_TRIAL_CHUNK, self.capacity)
            scratch.resize(self.live)
            self._trials = (np.empty(_TRIAL_CHUNK * self.capacity), scratch)
        products, scratch = self._trials
        return products[: _TRIAL_CHUNK * self.items].reshape(_TRIAL_CHUNK, -1), scratch


def _routing_coefficients(problem: ProblemInstance, sbs: int) -> np.ndarray:
    """Linear coefficients ``c[u, f]`` of ``y[n, u, f]`` in ``f_n``.

    From Eq. 10: ``c = (d[n,u] - d_hat[u]) * l[n,u] * lambda[u,f]``,
    nonpositive wherever offloading pays.
    """
    return -problem.savings_margin()[sbs][:, np.newaxis] * problem.demand


def _constant_term(problem: ProblemInstance, sbs: int, aggregate_others: np.ndarray) -> float:
    """The ``y_n``-independent part of ``f_n`` (BS cost of what others leave).

    ``sum_u d_hat[u] * sum_f (1 - y_{-n}[u,f] * l[n,u]) * lambda[u,f]``
    evaluated with the aggregate clipped to ``[0, 1]``.
    """
    aggregate = np.clip(aggregate_others, 0.0, 1.0)
    residual = 1.0 - aggregate * problem.connectivity[sbs][:, np.newaxis]
    return float(np.sum(problem.bs_cost[:, np.newaxis] * residual * problem.demand))


def cache_subproblem(
    problem: ProblemInstance,
    sbs: int,
    multipliers: np.ndarray,
    *,
    tie_break_value: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the caching subproblem (Eq. 18) — integral per Theorem 1.

    Maximizes ``sum_f x[f] * m[f]`` with ``m[f] = sum_u mu[u, f]`` under
    ``sum_f x[f] <= C_n`` and ``x in [0, 1]``: select up to ``C_n`` files
    with the largest positive ``m[f]``.  Slots left over by zero
    multipliers are filled by ``tie_break_value`` (typically potential
    savings) — any completion is dual-optimal, and this choice speeds up
    primal recovery.
    """
    problem._check_sbs(sbs)
    multipliers = as_float_array(
        multipliers, "multipliers", shape=(problem.num_groups, problem.num_files)
    )
    aggregated = multipliers.sum(axis=0)
    capacity = int(np.floor(problem.cache_capacity[sbs] + 1e-9))
    tie_break = None
    if tie_break_value is not None:
        tie_break = as_float_array(
            tie_break_value, "tie_break_value", shape=(problem.num_files,)
        )
    return _select_cache_set(problem.num_files, capacity, aggregated, tie_break)


def _top_k(values: np.ndarray, k: int, *, ordered: bool = False) -> np.ndarray:
    """The first ``k`` indices of ``np.argsort(-values, kind="stable")``,
    found by selection instead of a sort.

    One ``np.partition`` finds the ``k``-th largest value ``t``; the
    result is every entry above ``t``, then the lowest-indexed entries
    equal to ``t`` — the ones a stable descending sort puts first.
    Indices come back ascending; ``ordered`` puts them in that sort's
    order by stably sorting only the picked entries.  ``values`` must be
    NaN-free (``-0.0`` ties ``0.0``, as in the sort).
    """
    size = values.size
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= size:
        picked = np.arange(size)
    else:
        kth = size - k
        selected = values.copy()
        selected.partition(kth)
        threshold = selected[kth]
        picked = (values > threshold).nonzero()[0]
        if picked.size < k:
            ties = (values == threshold).nonzero()[0][: k - picked.size]
            picked = np.concatenate((picked, ties))
            picked.sort()
    if ordered:
        picked = picked[np.argsort(-values[picked], kind="stable")]
    return picked


def _select_cache_set(
    num_files: int,
    capacity: int,
    aggregated: np.ndarray,
    tie_break: Optional[np.ndarray],
) -> np.ndarray:
    """Shared greedy selection: top-``capacity`` positive aggregated
    multipliers, remaining slots filled with the untaken files of
    largest ``tie_break`` (ties to the lowest index).

    Equivalent to the original first-come scan along the stable
    descending orders: the chosen *set* (and therefore the binary
    caching vector) is identical.
    """
    caching = np.zeros(num_files)
    if capacity == 0:
        return caching
    # The positive multipliers lead the stable descending order: when
    # fewer than ``capacity`` are positive, the top set holds them all.
    take = _top_k(aggregated, capacity)
    take = take[aggregated[take] > 0]
    caching[take] = 1.0
    if take.size < capacity and tie_break is not None:
        untaken = (caching == 0).nonzero()[0]
        caching[untaken[_top_k(tie_break[untaken], capacity - take.size)]] = 1.0
    return caching


def routing_subproblem(
    problem: ProblemInstance,
    sbs: int,
    multipliers: np.ndarray,
    caps: np.ndarray,
    *,
    extra_cost: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the routing subproblem (Eq. 20) by fractional knapsack.

    Minimizes ``sum (c[u,f] + mu[u,f]) * y`` under the bandwidth budget
    and ``0 <= y <= caps``.  Note the cache coupling has been dualized,
    so ``y`` ranges over all connected pairs regardless of the cache.
    ``extra_cost`` adds a further per-unit term (the BS congestion
    prices of the enhanced coordination mode).
    """
    costs = _routing_coefficients(problem, sbs) + multipliers
    if extra_cost is not None:
        costs = costs + extra_cost
    result = solve_fractional_knapsack(
        costs.ravel(),
        np.broadcast_to(problem.demand, costs.shape).ravel(),
        float(problem.bandwidth[sbs]),
        np.asarray(caps, dtype=np.float64).ravel(),
    )
    return result.allocation.reshape(problem.num_groups, problem.num_files)


def _evaluate_cache_set(
    problem: ProblemInstance,
    sbs: int,
    caching: np.ndarray,
    caps: np.ndarray,
    constant: float,
    extra_cost: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Best feasible routing for a cache set and the resulting objective.

    The objective is the (possibly price-augmented) local cost
    ``constant + sum((c + extra) * y)``.
    """
    routing = optimal_routing_for_sbs(problem, sbs, caching, caps, extra_cost=extra_cost)
    coefficients = _routing_coefficients(problem, sbs)
    if extra_cost is not None:
        coefficients = coefficients + extra_cost
    cost = constant + float(np.sum(coefficients * routing))
    return routing, cost


class _RecoveryScreen:
    """Weak-duality lower bounds on the cost of primal recovery.

    Recovering a cache set ``x`` is the LP ``min p.y`` subject to
    ``w.y <= B`` and ``0 <= y_i <= cap_i * x[file_i]`` (``p`` the priced
    coefficients, ``w`` the demand weights).  Pricing the budget at any
    ``lam >= 0`` bounds it from below for every ``x`` at once::

        cost(x) >= LB(x) = constant - lam*B + sum_f x[f] * g[f],
        g[f] = sum_{items i of f} min(0, p_i + lam*w_i) * cap_i,

    because ``p.y = sum (p_i + lam*w_i) y_i - lam*w.y``, ``w.y <= B``, and
    each term of the sum is smallest at ``y_i = cap_i x[f]`` when its
    coefficient is negative, at ``y_i = 0`` otherwise.

    ``lam`` comes from the incumbent (:meth:`refresh`): the value density
    ``-p_i/w_i`` of its first paid item along the greedy order that is
    not at its cap — the split item where the budget ran out, the LP's
    optimal budget price, so the bound is tight at the incumbent — or
    ``0`` when every available item is at its cap.

    :meth:`bound` returns ``LB(x) - margin``, a floating-point safe lower
    bound on the cost the kernel *computes*.  With ``eps`` the machine
    epsilon, ``S = sum_{p_i < 0} |p_i| cap_i`` and ``P`` items:

    * the recovery's allocations exceed their caps by at most ``2 eps``
      relatively (``(cap*w)/w``), which moves the capped terms by at
      most ``2 eps S`` (only items with ``p_i < 0`` are ever allocated,
      and ``|min(0, p_i + lam*w_i)| <= |p_i|``);
    * its sequential cumulative budget carries at most ``(P+1) eps``
      relative error, so the greedy spends at most ``B (1 + 2(P+1) eps)``
      and the priced budget term moves by at most ``2(P+1) eps lam B``;
    * the cost's and the bound's own reductions (``P`` and ``F`` products,
      ``g`` vanishing on files without items) each err by at most
      ``(P+1) eps (|constant| + S + lam B)``, and a swap bound's two
      extra additions by ``3 eps`` of the same.

    ``margin = 8 (P+1) eps (|constant| + S + lam B)`` covers their sum,
    ``(4P + 9) eps (|constant| + S + lam B)``.  A set whose bound is at
    least the incumbent's cost therefore cannot compute a strictly
    smaller cost, and skipping its recovery changes nothing.  Before an
    incumbent exists the bound is ``-inf``.

    ``view`` may be the live restriction of the view the cost is summed
    over; ``full`` then holds that view's ``(priced, caps)``, so ``P``
    and ``S`` are its own.  Dead items only add signed zeros to ``g``,
    so leaving them out changes no bound.  ``scratch`` holds at least
    ``P`` entries.
    """

    def __init__(
        self,
        view: ItemView,
        priced: np.ndarray,
        caps: np.ndarray,
        constant: float,
        order: np.ndarray,
        order_file: np.ndarray,
        order_caps: np.ndarray,
        scratch: Tuple[np.ndarray, np.ndarray],
        full: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.view, self.priced, self.caps, self.constant = view, priced, caps, constant
        self.order, self.order_file, self.order_caps = order, order_file, order_caps
        full_priced, full_caps = (priced, caps) if full is None else full
        terms = scratch[0][: full_priced.size]
        np.minimum(full_priced, 0.0, out=terms)
        np.multiply(terms, full_caps, out=terms)
        self.scale = abs(constant) - float(np.add.reduce(terms))
        self.slack = 8.0 * (full_priced.size + 1) * _EPS
        self.terms, self.gap = [buffer[: view.num_items] for buffer in scratch]
        self.offset = -np.inf
        self.g = np.zeros(view.num_files)

    def refresh(self, caching: np.ndarray, routing: np.ndarray) -> None:
        """Re-derive ``lam`` and ``g`` from a new incumbent."""
        lam = 0.0
        paid = self.order.size
        if paid:
            available, gap = self.terms[:paid], self.gap[:paid]
            np.take(caching, self.order_file, out=available)
            np.multiply(available, self.order_caps, out=available)
            # Items at their cap sit within a few ulps of it; one clearly
            # below is where the budget ran out.
            available *= 1.0 - 4.0 * _EPS
            np.take(routing, self.order, out=gap)
            np.less(gap, available, out=gap)
            split = int(np.argmax(gap))
            if gap[split]:
                item = self.order[split]
                lam = -float(self.priced[item]) / float(self.view.weight[item])
        np.multiply(self.view.weight, lam, out=self.terms)
        np.add(self.terms, self.priced, out=self.terms)
        np.minimum(self.terms, 0.0, out=self.terms)
        np.multiply(self.terms, self.caps, out=self.terms)
        self.g = self.view.file_sums(self.terms)
        budget = lam * self.view.bandwidth
        self.offset = self.constant - budget - self.slack * (self.scale + budget)

    def bound(self, caching: np.ndarray) -> float:
        """``LB(caching) - margin``."""
        return self.offset + float(np.dot(caching, self.g))

    def swap_bounds(
        self, caching: np.ndarray, outs: np.ndarray, ins: np.ndarray
    ) -> np.ndarray:
        """Bounds of the single swaps ``caching - e[outs] + e[ins]``."""
        return self.bound(caching) - self.g.take(outs) + self.g.take(ins)


def _polish_cache_set(
    caching: np.ndarray,
    best_routing: np.ndarray,
    best_cost: float,
    *,
    evaluate: Callable[[np.ndarray], Tuple[np.ndarray, float]],
    potential: np.ndarray,
    capacity: int,
    max_passes: int = 4,
    max_candidates: int = 12,
    batch_evaluate: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None,
    screen: Optional[_RecoveryScreen] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """First-improvement single-swap local search over the cache set.

    Candidate in-files are limited to the ``max_candidates`` highest
    potential-value uncached files — the only ones that can plausibly
    displace a cached file under a linear objective.  ``evaluate`` maps a
    candidate caching vector to its exact ``(routing, cost)``; the
    oracles supply their own evaluator.

    ``batch_evaluate`` (batched oracle only) maps a ``(T, F)`` matrix of
    trial cache vectors to ``(routings (T, P), costs (T,))`` in one
    shared-order knapsack batch.  Within one pass every swap trial
    derives from the same incumbent (the scalar loop accepts at most one
    swap and then restarts the pass), so evaluating the trials in order,
    chunk by chunk, and accepting the first improving one visits the
    exact same accept sequence as the scalar double loop.

    ``screen`` (batched oracle only) first drops every trial whose
    weak-duality bound proves it cannot improve by more than ``1e-12``;
    the survivors keep their order, so the first improving trial, and
    the whole accept sequence, stay the same — results are
    bit-identical, only provably losing trials stop paying a knapsack.
    """
    caching = caching.copy()
    for _ in range(max_passes):
        cached_files = np.flatnonzero(caching > 0)
        empty_slots = capacity - cached_files.size
        uncached_files = np.flatnonzero(caching == 0)
        # Only candidates with any potential value are worth trying.
        candidates = uncached_files[potential[uncached_files] > 0]
        candidates = candidates[
            _top_k(potential[candidates], max(max_candidates, empty_slots), ordered=True)
        ]
        improved = False
        if empty_slots > 0:
            for f_in in candidates[:empty_slots]:
                trial = caching.copy()
                trial[f_in] = 1.0
                if screen is not None and screen.bound(trial) >= best_cost - 1e-12:
                    perf.count("subproblem.recoveries_screened")
                    continue
                routing, cost = evaluate(trial)
                if cost < best_cost - 1e-12:
                    caching, best_routing, best_cost = trial, routing, cost
                    improved = True
                    if screen is not None:
                        screen.refresh(caching, best_routing)
        if batch_evaluate is not None:
            # The scalar loop scans only the first cached file once the
            # add phase already improved; mirror that exactly.
            outs = cached_files[:1] if improved else cached_files
            if outs.size and candidates.size:
                swap_out = np.repeat(outs, candidates.size)
                swap_in = np.tile(candidates, outs.size)
                if screen is not None:
                    bounds = screen.swap_bounds(caching, swap_out, swap_in)
                    keep = np.flatnonzero(bounds < best_cost - 1e-12)
                    if keep.size < bounds.size:
                        perf.count("subproblem.recoveries_screened", bounds.size - keep.size)
                        swap_out, swap_in = swap_out[keep], swap_in[keep]
                trials = np.tile(caching, (swap_out.size, 1))
                rows = np.arange(swap_out.size)
                trials[rows, swap_out] = 0.0
                trials[rows, swap_in] = 1.0
                # Chunked evaluation with early exit: the first improving
                # trial ends the pass (exactly where the scalar loop
                # stops), so improving passes usually pay for one chunk
                # instead of the full trial matrix.
                for start in range(0, trials.shape[0], _TRIAL_CHUNK):
                    chunk = trials[start : start + _TRIAL_CHUNK]
                    routings, costs = batch_evaluate(chunk)
                    better = np.flatnonzero(costs < best_cost - 1e-12)
                    if better.size:
                        pick = int(better[0])
                        caching = chunk[pick].copy()
                        best_routing = routings[pick].copy()
                        best_cost = float(costs[pick])
                        improved = True
                        if screen is not None:
                            screen.refresh(caching, best_routing)
                        break
        else:
            for f_out in cached_files:
                for f_in in candidates:
                    trial = caching.copy()
                    trial[f_out] = 0.0
                    trial[f_in] = 1.0
                    routing, cost = evaluate(trial)
                    if cost < best_cost - 1e-12:
                        caching, best_routing, best_cost = trial, routing, cost
                        improved = True
                        break
                if improved:
                    break
        if not improved:
            break
    return caching, best_routing, best_cost


def solve_subproblem(
    problem: Union[ProblemInstance, ItemView],
    sbs: Optional[int],
    aggregate_others: np.ndarray,
    config: Optional[SubproblemConfig] = None,
    *,
    prices: Optional[np.ndarray] = None,
    cap_slack: float = 0.0,
    initial_multipliers: Optional[np.ndarray] = None,
    candidate_caching: Optional[np.ndarray] = None,
    workspace: Optional[SubproblemWorkspace] = None,
) -> SubproblemSolution:
    """Solve ``P_n`` by the paper's dual decomposition with primal recovery.

    ``problem`` is a dense :class:`ProblemInstance` with ``sbs``
    selecting the SBS (solved on its full-grid view), or an
    :class:`ItemView` with ``sbs=None``.  ``aggregate_others``,
    ``prices``, ``initial_multipliers`` and the returned routing and
    multipliers are laid out as the view's ``shape``.

    ``prices`` and ``cap_slack`` support the enhanced price-coordination
    mode of the distributed optimizer: prices add a per-unit congestion
    charge to the routing coefficients, and ``cap_slack`` loosens the
    residual caps by a constant so contested pairs can be transiently
    over-served while the prices equilibrate.  With the defaults (no
    prices, zero slack) this is exactly the paper's subproblem; the
    reported ``cost`` is the (price-augmented) local objective.

    ``initial_multipliers`` warm-starts the dual ascent — across
    Gauss-Seidel iterations the aggregate changes little, so reusing the
    previous multipliers reaches the dual region in far fewer steps
    (the :class:`~repro.core.distributed.SBSAgent` passes its last
    multipliers when ``DistributedConfig.warm_start`` is enabled).
    ``candidate_caching`` seeds the primal recovery with an incumbent
    cache set (evaluated exactly under the current caps), guaranteeing
    the returned solution is never worse than keeping the incumbent —
    which is what makes every Gauss-Seidel phase non-increasing
    regardless of dual-ascent noise.

    ``workspace`` supplies the batched kernel's scratch (one is created
    per call when omitted); repeat callers should pass one in.
    """
    config = config or SubproblemConfig()
    if isinstance(problem, ItemView):
        if sbs is not None:
            raise ValidationError("an ItemView is one SBS's subproblem; pass sbs=None")
        # A grid view's weights are the instance's demand, which
        # ProblemInstance has validated; a caller's view is checked here.
        as_float_array(problem.weight, "weight", shape=(problem.num_items,), nonnegative=True)
        view = problem
    else:
        problem._check_sbs(sbs)
        view = ItemView.grid(problem, sbs)
    if not view.num_items:
        raise ValidationError("the view has no items: its local subproblem is empty")
    perf.count("subproblem.solves")
    # Arrays are validated once here, at the API boundary; the oracles
    # below trust them for the whole dual ascent.
    others = as_float_array(aggregate_others, "aggregate_others", shape=view.shape).ravel()
    if not (np.isfinite(cap_slack) and cap_slack >= 0):
        raise ValidationError(f"cap_slack must be finite and nonnegative, got {cap_slack}")
    if prices is not None:
        prices = as_float_array(prices, "prices", shape=view.shape).ravel()
    start = None
    if initial_multipliers is not None:
        start = as_float_array(initial_multipliers, "initial_multipliers").ravel()
        if start.size != view.num_items:
            raise ValidationError(
                f"initial_multipliers must have {view.num_items} entries, got {start.size}"
            )
        start = np.maximum(start, 0.0)
    seed = None
    if candidate_caching is not None:
        seed = as_float_array(candidate_caching, "candidate_caching", shape=(view.num_files,))

    if config.resolved_oracle() == "batched":
        if workspace is None:
            workspace = SubproblemWorkspace(items=view.num_items)
        caching, routing, cost, result = _dual_decomposition(
            view, others, prices, cap_slack, start, seed, config, workspace=workspace
        )
    else:
        # The legacy oracle is the dense reference: it solves the grid of
        # the one-SBS problem the view flattens, and the outcome is
        # gathered back onto the view's items.
        dense = view.to_problem()
        grid = ItemView.grid(dense, 0, constant_offset=view.constant_offset)
        cells = view.item_row * view.num_files + view.item_file

        def on_grid(values: Optional[np.ndarray]) -> Optional[np.ndarray]:
            if values is None:
                return None
            spread = np.zeros(grid.num_items)
            np.put(spread, cells, values)
            return spread

        caching, routing, cost, result = _dual_decomposition(
            grid,
            on_grid(others),
            on_grid(prices),
            cap_slack,
            on_grid(start),
            seed,
            config,
            dense=dense,
        )
        routing = routing[cells]
        result = dataclasses.replace(result, multipliers=result.multipliers[cells])
    return SubproblemSolution(
        caching=caching,
        routing=routing.reshape(view.shape),
        cost=cost,
        best_dual=result.best_dual,
        dual_history=tuple(result.dual_history),
        iterations=result.iterations,
        converged=result.converged,
        multipliers=result.multipliers.reshape(view.shape),
    )


def _dual_decomposition(
    view: ItemView,
    others: np.ndarray,
    prices: Optional[np.ndarray],
    cap_slack: float,
    start: Optional[np.ndarray],
    seed: Optional[np.ndarray],
    config: SubproblemConfig,
    *,
    workspace: Optional[SubproblemWorkspace] = None,
    dense: Optional[ProblemInstance] = None,
) -> Tuple[np.ndarray, np.ndarray, float, SubgradientResult]:
    """The dual ascent on validated item vectors: the batched kernel in
    ``workspace``, or the legacy oracle on ``dense``, the one-SBS problem
    whose full grid ``view`` is.  Routing and multipliers are ``(P,)``."""
    num_files, bandwidth = view.num_files, view.bandwidth
    item_row, weights = view.item_row, view.weight
    capacity = int(np.floor(view.cache_capacity + 1e-9))
    ws = workspace
    if ws is not None:
        ws.bind(view.num_items)
    # Residual caps, exactly as :func:`repro.core.routing.residual_caps`.
    reach = view.reach.take(item_row)
    caps = np.subtract(1.0, others, out=None if ws is None else ws.caps)
    np.clip(caps, 0.0, 1.0, out=caps)
    caps *= reach
    if cap_slack > 0:
        caps = np.minimum(caps + cap_slack * reach, reach)
    # The y-independent BS cost of what the others leave, Eq. 10.
    residual = 1.0 - np.clip(others, 0.0, 1.0) * reach
    constant = (
        float(np.sum(view.bs_cost.take(item_row) * residual * weights)) + view.constant_offset
    )
    # Routing coefficients c = -(d_hat - d) * l * lambda, nonpositive
    # wherever offloading pays.
    row_margin = (view.bs_cost - view.link_cost) * view.reach
    coefficients = np.negative(row_margin).take(item_row) * weights
    priced = coefficients if prices is None else coefficients + prices
    tie_break = view.file_sums(row_margin.take(item_row) * weights * caps)

    schedule = config.schedule
    if schedule is None:
        scale = float(np.max(np.abs(coefficients), initial=0.0))
        # Warm-started duals sit near the optimum already: restart with a
        # quarter of the cold step so successive Gauss-Seidel iterations
        # don't re-inject oscillation into an almost-converged dual.
        eta0_factor = 0.125 if start is not None else 0.5
        schedule = StepSchedule(eta0=max(scale, 1e-12) * eta0_factor, alpha=0.25)

    best: dict = {"cost": np.inf, "caching": None, "routing": None}
    screen: Optional[_RecoveryScreen] = None

    def consider(caching: np.ndarray, routing: np.ndarray, cost: float) -> None:
        if cost < best["cost"]:
            best.update(cost=cost, caching=caching, routing=routing.copy())
            if screen is not None:
                screen.refresh(caching, best["routing"])

    batch_evaluate: Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None
    if dense is not None:
        grid = view.shape
        caps_grid = caps.reshape(grid)
        prices_grid = None if prices is None else prices.reshape(grid)
        priced_grid = priced.reshape(grid)

        def evaluate(caching: np.ndarray) -> Tuple[np.ndarray, float]:
            routing, cost = _evaluate_cache_set(dense, 0, caching, caps_grid, constant, prices_grid)
            return routing.ravel(), cost

        def oracle(multipliers: np.ndarray):
            mu = multipliers.reshape(grid)
            caching = cache_subproblem(dense, 0, mu, tie_break_value=tie_break)
            routing = routing_subproblem(dense, 0, mu, caps_grid, extra_cost=prices_grid)
            dual_value = (
                constant
                + float(np.sum((priced_grid + mu) * routing))
                - float(np.sum(mu.sum(axis=0) * caching))
            )
            subgradient = routing - caching[np.newaxis, :]
            # Primal recovery: evaluate the candidate cache set exactly.
            consider(caching, *evaluate(caching))
            return dual_value, subgradient.ravel(), None

        if seed is not None:
            consider(seed, *evaluate(seed))
        result = subgradient_ascent(
            oracle,
            np.zeros(view.num_items) if start is None else start,
            schedule=schedule,
            max_iter=config.max_iter,
            tol=config.tol,
            patience=config.patience,
        )
    else:
        assert ws is not None
        # The dual ascent runs on the live items (module docstring); a
        # view without any keeps one dead item, which stays dead when
        # computed explicitly, so the knapsack rows are never empty.
        live = np.less(priced, 0.0)
        live &= caps > 0
        if start is not None:
            live |= start > 0
        live_items = np.flatnonzero(live)
        if not live_items.size:
            live_items = np.zeros(1, dtype=np.intp)
        ws.bind(view.num_items, live_items.size)
        sub = view.subset(live_items)
        sub_caps = caps.take(live_items)
        sub_priced = priced.take(live_items)
        sub_coefficients = coefficients.take(live_items)
        sub_prices = None if prices is None else prices.take(live_items)
        # Dead slots of the full-length products the three pairwise sums
        # run over, exactly as the full computation fills them:
        # ``(priced + 0.0) * 0.0`` for the dual value, ``priced * 0.0`` for
        # recovery and polish trial costs.
        np.add(priced, 0.0, out=ws.dual_prod)
        ws.dual_prod *= 0.0
        np.multiply(priced, 0.0, out=ws.cost_prod)
        # Row 0 of the knapsack batch is the dual routing subproblem
        # (costs change with mu each iteration), row 1 is primal
        # recovery: its costs are the fixed priced coefficients, so its
        # greedy order and the caps along it are hoisted here, and a
        # candidate cache set (every polish trial too) only contributes
        # its (F,)-sized mask, gathered along the paid prefix.
        kw = ws.knapsack
        kw.bind_weights(sub.weight)
        kw.prepare_row(1, sub_priced)
        recovery_paid = int(kw.paid_count[1])
        recovery_order = kw.order[1, :recovery_paid]
        recovery_file = sub.item_file.take(recovery_order)
        recovery_caps = sub_caps.take(recovery_order)
        recovery_w_eff = kw.w_eff[1, :recovery_paid]
        recovery_w = kw.w_sorted[1, :recovery_paid]
        free_items = np.flatnonzero(kw.free[1]) if kw.has_free(1) else None
        screen = _RecoveryScreen(
            sub,
            sub_priced,
            sub_caps,
            constant,
            recovery_order,
            recovery_file,
            recovery_caps,
            (ws.terms, ws.gap),
            full=(priced, caps),
        )

        def recover(
            trials: np.ndarray, scratch: KnapsackBatchWorkspace, rows: Union[int, slice]
        ) -> np.ndarray:
            """Live recovery allocation of one ``(F,)`` cache set, or of each
            of ``(T, F)`` trials, along row 1's order in ``scratch[rows]``."""
            perf.count("knapsack.batched_rows", 1 if trials.ndim == 1 else trials.shape[0])
            allocation = scratch.allocation[rows]
            allocation.fill(0.0)
            if recovery_paid:
                sorted_full = scratch.sorted_full[rows, :recovery_paid]
                # Same grouping as the scalar solver: (cap * mask) * w.
                np.multiply(recovery_caps, trials.take(recovery_file, axis=-1), out=sorted_full)
                np.multiply(sorted_full, recovery_w_eff, out=sorted_full)
                before = scratch.before[rows, :recovery_paid]
                before[..., 0] = 0.0
                sorted_full[..., :-1].cumsum(axis=-1, out=before[..., 1:])
                take = scratch.take[rows, :recovery_paid]
                np.subtract(bandwidth, before, out=take)
                np.maximum(take, 0.0, out=take)
                np.minimum(take, sorted_full, out=take)
                positive = scratch.positive[rows, :recovery_paid]
                np.greater(take, 0.0, out=positive)
                vals = scratch.vals[rows, :recovery_paid]
                vals.fill(0.0)
                np.divide(take, recovery_w, out=vals, where=positive)
                allocation[..., recovery_order] = vals
            if free_items is not None:
                allocation[..., free_items] = (
                    sub_caps[free_items] * trials.take(sub.item_file.take(free_items), axis=-1)
                )
            return allocation

        def recovered(caching: np.ndarray) -> Tuple[np.ndarray, float]:
            """Live routing (a buffer view) and cost of one cache set."""
            allocation = recover(caching, kw, 1)
            np.multiply(sub_priced, allocation, out=ws.products)
            ws.cost_prod[live_items] = ws.products
            return allocation, constant + float(np.add.reduce(ws.cost_prod))

        def evaluate(caching: np.ndarray) -> Tuple[np.ndarray, float]:
            routing, cost = recovered(caching)
            return routing.copy(), cost

        def batch_evaluate(trials: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            products, scratch = ws.trials()
            count = trials.shape[0]
            products = products[:count]
            # The dead slots of ``cost_prod``; the live ones are rewritten.
            np.copyto(products, ws.cost_prod)
            allocation = recover(trials, scratch, slice(0, count))
            # Row 1's order is shared, so the trial scratch's ``ratio``
            # rows are free to hold the live products.
            live_products = scratch.ratio[:count]
            np.multiply(allocation, sub_priced, out=live_products)
            products[:, live_items] = live_products
            return allocation, constant + np.add.reduce(products, axis=1)

        if seed is not None:
            consider(seed, *evaluate(seed))
        # Inlined projected-subgradient ascent: the exact control flow of
        # :func:`repro.solvers.subgradient.subgradient_ascent` with the
        # oracle fused in.  One knapsack batch (dual routing + primal
        # recovery) and a handful of in-place array ops over the live
        # items per multiplier update — nothing allocated per iteration
        # beyond row 0's paid-item sort and the (F,)-sized cache-set
        # selection, and no other sort.
        mu = ws.mu
        if start is None:
            mu.fill(0.0)
        else:
            start.take(live_items, out=mu)
        np.maximum(mu, 0.0, out=mu)
        # Row 0's caps never change during the ascent, so the greedy's
        # ``caps * weights`` products are computed exactly once.
        caps_weights = sub_caps * sub.weight
        best_dual = -np.inf
        dual_history = []
        stall = 0
        converged = False
        # The recovery row depends only on the candidate cache set, and
        # the dual iterates oscillate between a handful of sets: any set
        # seen before is skipped outright — its evaluation is
        # deterministic, and the strict < of the best-update means an
        # equal cost never changes the incumbent.  A new set is skipped
        # too when its weak-duality bound already reaches the incumbent's
        # cost: the incumbent only decreases, so it can never win later.
        seen_cache_sets: set = set()
        for iteration in range(config.max_iter):
            aggregated = sub.file_sums(mu)
            caching = _select_cache_set(num_files, capacity, aggregated, tie_break)
            np.add(sub_coefficients, mu, out=ws.dual_costs)
            if sub_prices is not None:
                ws.dual_costs += sub_prices
            alloc0 = kw.solve_row_once(0, ws.dual_costs, caps_weights, sub_caps, bandwidth)
            cache_key = caching.tobytes()
            if cache_key not in seen_cache_sets:
                seen_cache_sets.add(cache_key)
                if screen.bound(caching) < best["cost"]:
                    consider(caching, *recovered(caching))
                else:
                    perf.count("subproblem.recoveries_screened")
            np.add(sub_priced, mu, out=ws.priced_mu)
            np.multiply(ws.priced_mu, alloc0, out=ws.priced_mu)
            ws.dual_prod[live_items] = ws.priced_mu
            dual_value = (
                constant
                + float(np.add.reduce(ws.dual_prod))
                - float(np.add.reduce(aggregated * caching))
            )
            dual_history.append(float(dual_value))
            improved = dual_value > best_dual + config.tol * max(1.0, abs(best_dual))
            if dual_value > best_dual:
                best_dual = float(dual_value)
            stall = 0 if improved else stall + 1
            if stall >= config.patience:
                converged = True
                break
            caching.take(sub.item_file, out=ws.subgrad)
            np.subtract(alloc0, ws.subgrad, out=ws.subgrad)
            np.multiply(ws.subgrad, schedule(iteration), out=ws.subgrad)
            np.add(mu, ws.subgrad, out=mu)
            np.maximum(mu, 0.0, out=mu)
        multipliers = np.zeros(view.num_items)
        multipliers[live_items] = mu
        result = SubgradientResult(
            multipliers, best_dual, None, dual_history, len(dual_history), converged
        )
    perf.count("subgradient.iterations", result.iterations)

    caching, routing, cost = best["caching"], best["routing"], best["cost"]
    if caching is None:  # pragma: no cover - oracle always runs at least once
        raise ValidationError("subgradient ascent performed no iterations")
    if config.polish:
        caching, routing, cost = _polish_cache_set(
            caching,
            routing,
            cost,
            evaluate=evaluate,
            potential=tie_break,
            capacity=capacity,
            batch_evaluate=batch_evaluate,
            screen=screen,
        )
    if dense is None:
        full_routing = np.zeros(view.num_items)
        full_routing[live_items] = routing
        routing = full_routing
    return caching, routing, cost, result


def solve_subproblem_exhaustive(
    problem: ProblemInstance,
    sbs: int,
    aggregate_others: np.ndarray,
    *,
    max_subsets: int = 200_000,
) -> SubproblemSolution:
    """Exact ``P_n`` optimum by enumerating every feasible cache set.

    Exponential in ``F``; guarded by ``max_subsets``.  Used in tests to
    certify the dual-decomposition solver.
    """
    problem._check_sbs(sbs)
    caps = residual_caps(problem, sbs, aggregate_others)
    constant = _constant_term(problem, sbs, aggregate_others)
    capacity = int(np.floor(problem.cache_capacity[sbs] + 1e-9))
    capacity = min(capacity, problem.num_files)
    from math import comb

    total = sum(comb(problem.num_files, k) for k in range(capacity + 1))
    if total > max_subsets:
        raise ValidationError(
            f"exhaustive search would enumerate {total} subsets (> {max_subsets})"
        )
    best_cost = np.inf
    best_caching: Optional[np.ndarray] = None
    best_routing: Optional[np.ndarray] = None
    files = range(problem.num_files)
    for size in range(capacity + 1):
        for subset in itertools.combinations(files, size):
            caching = np.zeros(problem.num_files)
            caching[list(subset)] = 1.0
            routing, cost = _evaluate_cache_set(problem, sbs, caching, caps, constant)
            if cost < best_cost - 1e-12:
                best_cost, best_caching, best_routing = cost, caching, routing
    assert best_caching is not None and best_routing is not None
    return SubproblemSolution(
        caching=best_caching,
        routing=best_routing,
        cost=best_cost,
        best_dual=np.nan,
        dual_history=(),
        iterations=0,
        converged=True,
    )
