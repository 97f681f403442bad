"""Per-SBS subproblem ``P_n`` (Section III, Eq. 10, Theorem 1).

Given the aggregate routing policy ``y_{-n}`` of every other SBS, SBS
``n`` jointly chooses its caching vector ``x_n in {0,1}^F`` and routing
block ``y_n in [0,1]^{U x F}`` to minimize its view of the network cost.
For a fixed cache set the routing is an LP with a single budget
constraint, an exact fractional knapsack (``p`` the priced routing
coefficients, ``w`` the demand weights, ``cap`` the residual caps)::

    cost(x) = constant + min p.y   s.t.  w.y <= B,  0 <= y_i <= cap_i * x[file_i]

*Primal recovery* routes a candidate cache set this way.

The oracle dualizes the SBS bandwidth (3) with one scalar price
``pi >= 0``.  For a fixed price the rest of ``P_n`` separates by file::

    g[f](pi) = sum_{items i of f} min(0, p_i + pi * w_i) * cap_i
    L(pi)    = constant - pi * B + (sum of the C_n most negative g[f])

``L`` lower-bounds the cost of every cache set, is concave, and its
supergradient is the bandwidth overflow of the top-``C_n`` set, an
integral selection (Theorem 1).  Bisection on the sign of that overflow
brackets the optimal price; the top sets at both ends of the last
bracket and the incumbent (``candidate_caching``) are recovered, and the
cheapest is kept.  A set whose weak-duality lower bound already proves
it cannot beat the incumbent is skipped (:class:`_RecoveryScreen`, whose
bound is ``L``'s own expression at the incumbent's budget price).  The
reported ``best_dual`` makes ``cost - best_dual`` a certified gap.  An
optional local-search polish swaps files in/out of the best cache set
until no single swap improves the cost, and an exhaustive solver
validates optimality on tiny instances.

Everything runs on a flat :class:`ItemView` with one item per ``(row,
file)`` cell: a dense instance's SBS gets the full ``(U, F)`` grid, a
sparse instance's only its demand pairs.  The oracle then works on the
view's **live items** only::

    live = (priced < 0) & (caps > 0)

with ``priced`` the (price-augmented) routing coefficients and ``caps``
the residual caps.  An item outside ``live`` contributes nothing to any
``g[f]`` and takes ``0`` in every routing.  Zero-demand cells, which a
sparse instance's views drop, are one dead class: their coefficient is
a signed zero.  Sums run per file, over the live items alone, or with
``math.fsum``, so a pair view and its zero-padded grid give the same
bits.

The kernel validates arrays once at this API boundary, recovers every
cache set on one :class:`~repro.solvers.fractional_knapsack.KnapsackWorkspace`
prepared once per solve, and allocates its scratch afresh on every
call, sized by the live items.  It sorts nothing it only needs the top
of: the cache set, its filler and the polish candidates are exact stable
top-``k`` selections (:func:`_top_k`, a threshold from ``np.partition``
with ties to the lowest index).
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .. import perf
from .._validation import (
    as_binary_array,
    as_float_array,
    check_nonnegative_float,
    check_positive_int,
)
from ..exceptions import ValidationError
from ..solvers.fractional_knapsack import KnapsackWorkspace
from .problem import ProblemInstance
from .routing import optimal_routing_for_sbs, residual_caps

__all__ = [
    "ItemView",
    "SubproblemConfig",
    "SubproblemSolution",
    "solve_subproblem",
    "solve_subproblem_exhaustive",
]

# Polish swap trials are evaluated in chunks of this many candidate
# cache vectors: improving passes usually accept a trial from the first
# chunk, so later chunks are never materialized, and the chunk size
# bounds the trial scratch one chunk allocates.
_TRIAL_CHUNK = 32

_EPS = float(np.finfo(np.float64).eps)


@dataclasses.dataclass(frozen=True)
class SubproblemConfig:
    """Tunables of the subproblem oracle.

    Attributes
    ----------
    max_iter:
        Cap on the dual iterations, the bandwidth-price probes.
    polish:
        Run single-swap local search on the recovered cache set.
    """

    max_iter: int = 120
    polish: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.max_iter, "max_iter")


@dataclasses.dataclass(frozen=True)
class SubproblemSolution:
    """Solution of ``P_n`` for one SBS.

    ``cost`` is the *local objective* ``f_n`` of Eq. 10 (it contains the
    constant BS term induced by ``y_{-n}``, so it is comparable across
    candidate policies of the same SBS but not across SBSs).

    ``best_dual`` is a lower bound on the cost of every cache set;
    ``dual_history`` holds the dual value ``L`` at each probed price.

    ``routing`` follows the layout of the view solved
    (``ItemView.shape``): ``(U, F)`` for a dense problem's full grid,
    ``(P_n,)`` — one entry per demand pair — for a sparse instance.
    """

    caching: np.ndarray  # (F,)
    routing: np.ndarray  # ItemView.shape
    cost: float
    best_dual: float
    dual_history: Tuple[float, ...]
    iterations: int
    converged: bool


def _check_items(name: str, values: np.ndarray, items: Tuple[int], bound: int) -> None:
    """Raise unless ``values`` holds ``items`` indices in ``[0, bound)``."""
    if values.shape != items or (values.size and not 0 <= values.min() <= values.max() < bound):
        raise ValidationError(f"{name} must hold {items[0]} indices in [0, {bound})")


@dataclasses.dataclass(frozen=True, eq=False)
class ItemView:
    """Flat item view of one SBS's subproblem ``P_n``.

    An item is one ``(row, file)`` cell with its own routing ``y``;
    rows are the SBS's MU groups.  Items are listed
    row-major, so every per-file sum adds in the order of the dense
    grid's axis-0 reduction.  The item-aligned inputs and outputs of
    :func:`solve_subproblem` are laid out as ``shape``: ``(U, F)`` for
    a full grid, ``(P,)`` otherwise.

    ``item_row`` / ``item_file`` / ``weight`` are ``(P,)``;
    ``link_cost`` / ``reach`` / ``bs_cost`` are the per-row ``d[n, u]``,
    ``l[n, u]`` and ``d_hat[u]``.  ``constant_offset`` is added to the
    ``y``-independent part of the objective: a sparse instance's view
    carries the BS cost of the demand outside the SBS's reach, so it
    reports its objective on the dense solver's absolute scale.

    Everything is validated once, when the view is built, against the
    rules of the one-SBS :class:`ProblemInstance` it flattens (finite,
    nonnegative weights, costs and capacities, a binary ``reach``,
    ``bs_cost`` dominating every reached ``link_cost``, items inside
    the grid), so the oracle trusts the view.
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

    def __post_init__(self) -> None:
        items = (self.item_row.size,)
        as_float_array(self.weight, "weight", shape=items, nonnegative=True)
        rows = (self.reach.size,)
        reach = as_binary_array(self.reach, "reach", shape=rows)
        link_cost = as_float_array(self.link_cost, "link_cost", shape=rows, nonnegative=True)
        bs_cost = as_float_array(self.bs_cost, "bs_cost", shape=rows, nonnegative=True)
        if np.any((link_cost > bs_cost) & (reach > 0)):
            raise ValidationError("bs_cost must dominate link_cost on every reached row")
        check_nonnegative_float(self.cache_capacity, "cache_capacity")
        check_nonnegative_float(self.bandwidth, "bandwidth")
        _check_items("item_row", self.item_row, items, rows[0])
        _check_items("item_file", self.item_file, items, self.num_files)
        if math.prod(self.shape) != items[0]:
            raise ValidationError(f"shape {self.shape} does not hold {items[0]} items")
        object.__setattr__(self, "reach", reach)

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
        """The 1-D view of ``items`` (ascending item indices).

        Items of a validated view are valid, so the per-solve subset
        skips :meth:`__post_init__`.
        """
        view = copy.copy(self)
        object.__setattr__(view, "item_row", self.item_row.take(items))
        object.__setattr__(view, "item_file", self.item_file.take(items))
        object.__setattr__(view, "weight", self.weight.take(items))
        object.__setattr__(view, "shape", (items.size,))
        return view


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
    scores: np.ndarray,
    tie_break: Optional[np.ndarray],
) -> np.ndarray:
    """Greedy top-set selection: the top-``capacity`` positive per-file
    ``scores``, remaining slots filled with the untaken files of largest
    ``tie_break`` (ties to the lowest index).

    Equivalent to the first-come scan along the stable descending
    orders: the chosen *set* (and therefore the binary caching vector)
    is identical.
    """
    caching = np.zeros(num_files)
    if capacity == 0:
        return caching
    # The positive scores lead the stable descending order: when fewer
    # than ``capacity`` are positive, the top set holds them all.
    take = _top_k(scores, capacity)
    take = take[scores[take] > 0]
    caching[take] = 1.0
    if take.size < capacity and tie_break is not None:
        untaken = (caching == 0).nonzero()[0]
        caching[untaken[_top_k(tie_break[untaken], capacity - take.size)]] = 1.0
    return caching


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
    coefficient is negative, at ``y_i = 0`` otherwise.  Minimizing over
    the cache sets of at most ``C_n`` files gives the oracle's dual
    function ``L(lam)``; :meth:`terms` computes ``g`` (and each file's
    load, the budget its items take at their caps where their priced
    coefficient is negative) for both.

    The screen's ``lam`` comes from the incumbent (:meth:`refresh`): the
    value density ``-p_i/w_i`` of its first paid item along the greedy
    order that is not at its cap — the split item where the budget ran
    out, the LP's optimal budget price, so the bound is tight at the
    incumbent — or ``0`` when every available item is at its cap.

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

    ``view`` is the live restriction of the view solved: dead items only
    add signed zeros to ``g``, so leaving them out changes no bound.
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
    ) -> None:
        self.view, self.priced, self.caps, self.constant = view, priced, caps, constant
        self.order, self.order_file, self.order_caps = order, order_file, order_caps
        terms = np.minimum(priced, 0.0)
        terms *= caps
        self.scale = abs(constant) - float(np.add.reduce(terms))
        self.slack = 8.0 * (priced.size + 1) * _EPS
        self.lam = 0.0
        self.offset = -np.inf
        self.g = np.zeros(view.num_files)

    def terms(
        self, lam: float, caps_weight: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(F,)`` sums ``g(lam)`` and, given the items' ``caps * w``,
        the per-file loads (else ``None``)."""
        terms = self.view.weight * lam
        terms += self.priced
        load = None
        if caps_weight is not None:
            load = self.view.file_sums(np.where(terms < 0.0, caps_weight, 0.0))
        np.minimum(terms, 0.0, out=terms)
        terms *= self.caps
        return self.view.file_sums(terms), load

    def offset_at(self, lam: float, constant: Optional[float] = None) -> float:
        """``constant - lam*B - margin``, the set-independent part of the
        bound at ``lam`` (the screen's own constant unless given)."""
        budget = lam * self.view.bandwidth
        base = self.constant if constant is None else constant
        return base - budget - self.slack * (self.scale + budget)

    def refresh(self, caching: np.ndarray, routing: np.ndarray) -> None:
        """Re-derive ``lam`` and ``g`` from a new incumbent."""
        lam = 0.0
        if self.order.size:
            available = caching.take(self.order_file)
            available *= self.order_caps
            # Items at their cap sit within a few ulps of it; one clearly
            # below is where the budget ran out.
            available *= 1.0 - 4.0 * _EPS
            gap = routing.take(self.order) < available
            split = int(np.argmax(gap))
            if gap[split]:
                item = self.order[split]
                lam = -float(self.priced[item]) / float(self.view.weight[item])
        self.lam = lam
        self.g, _ = self.terms(lam)
        self.offset = self.offset_at(lam)

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
    batch_evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    screen: _RecoveryScreen,
    potential: np.ndarray,
    capacity: int,
    max_passes: int = 4,
    max_candidates: int = 12,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """First-improvement single-swap local search over the cache set.

    Candidate in-files are limited to the ``max_candidates`` highest
    potential-value uncached files — the only ones that can plausibly
    displace a cached file under a linear objective.  A pass first tries
    adding candidates to empty slots, each by ``evaluate`` (one cache
    vector to its exact ``(routing, cost)``), then swapping every cached
    file out against every candidate — only the first cached file once
    an add improved.  ``batch_evaluate`` maps a ``(T, F)`` matrix of swap
    trials to ``(routings (T, P), costs (T,))`` in one shared-order
    knapsack batch; the trials are evaluated in order, chunk by chunk,
    and the first improving one is accepted and ends the pass.

    ``screen`` first drops every trial whose weak-duality bound proves
    it cannot improve by more than ``1e-12``; the survivors keep their
    order, so the first improving trial, and the whole accept sequence,
    stay the same — only provably losing trials stop paying a knapsack.
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
                if screen.bound(trial) >= best_cost - 1e-12:
                    perf.count("subproblem.recoveries_screened")
                    continue
                routing, cost = evaluate(trial)
                if cost < best_cost - 1e-12:
                    caching, best_routing, best_cost = trial, routing, cost
                    improved = True
                    screen.refresh(caching, best_routing)
        outs = cached_files[:1] if improved else cached_files
        if outs.size and candidates.size:
            swap_out = np.repeat(outs, candidates.size)
            swap_in = np.tile(candidates, outs.size)
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
            # trial ends the pass, so improving passes usually pay for
            # one chunk instead of the full trial matrix.
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
                    screen.refresh(caching, best_routing)
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
    candidate_caching: Optional[np.ndarray] = None,
) -> SubproblemSolution:
    """Solve ``P_n`` by one bandwidth price, with primal recovery.

    ``problem`` is a dense :class:`ProblemInstance` with ``sbs``
    selecting the SBS (solved on its full-grid view), or an
    :class:`ItemView` with ``sbs=None``.  ``aggregate_others``,
    ``prices`` and the returned routing are laid out as the view's
    ``shape``.

    ``prices`` and ``cap_slack`` support the enhanced price-coordination
    mode of the distributed optimizer: prices add a per-unit congestion
    charge to the routing coefficients, and ``cap_slack`` loosens the
    residual caps by a constant so contested pairs can be transiently
    over-served while the prices equilibrate.  With the defaults (no
    prices, zero slack) this is exactly the paper's subproblem; the
    reported ``cost`` is the (price-augmented) local objective.

    ``candidate_caching`` seeds the primal recovery with an incumbent
    cache set (evaluated exactly under the current caps), guaranteeing
    the returned solution is never worse than keeping the incumbent —
    which is what makes every Gauss-Seidel phase non-increasing
    whatever the price search does.
    """
    config = config or SubproblemConfig()
    if isinstance(problem, ItemView):
        if sbs is not None:
            raise ValidationError("an ItemView is one SBS's subproblem; pass sbs=None")
        view = problem
    else:
        problem._check_sbs(sbs)
        view = ItemView.grid(problem, sbs)
    if not view.num_items:
        raise ValidationError("the view has no items: its local subproblem is empty")
    perf.count("subproblem.solves")
    # Arrays are validated once here, at the API boundary; the kernel
    # below trusts them.
    others = as_float_array(aggregate_others, "aggregate_others", shape=view.shape).ravel()
    if not (np.isfinite(cap_slack) and cap_slack >= 0):
        raise ValidationError(f"cap_slack must be finite and nonnegative, got {cap_slack}")
    if prices is not None:
        prices = as_float_array(prices, "prices", shape=view.shape).ravel()
    seed = None
    if candidate_caching is not None:
        seed = as_float_array(candidate_caching, "candidate_caching", shape=(view.num_files,))

    kernel = _Kernel(view, others, prices, cap_slack)
    if seed is not None:
        kernel.consider(seed, *kernel.evaluate(seed))
    bound, dual_history, converged = _price_bisection(kernel, config)
    perf.count("subproblem.price_probes", len(dual_history))
    if config.polish:
        kernel.polish()
    routing = np.zeros(view.num_items)
    routing[kernel.live_items] = kernel.routing
    return SubproblemSolution(
        caching=kernel.caching,
        routing=routing.reshape(view.shape),
        cost=kernel.cost,
        best_dual=kernel.certified_dual(bound),
        dual_history=tuple(dual_history),
        iterations=len(dual_history),
        converged=converged,
    )


def _live_items(priced: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The items the oracle runs on (module docstring).

    A view without any keeps item 0, which stays dead when computed
    explicitly, so the knapsack rows are never empty.
    """
    live = np.less(priced, 0.0)
    live &= caps > 0
    live_items = np.flatnonzero(live)
    return live_items if live_items.size else np.zeros(1, dtype=np.intp)


class _Kernel:
    """One solve on validated item vectors: the residual caps and priced
    coefficients, the live items, the recovery knapsack and screen, and
    the cheapest recovered ``(caching, routing, cost)`` (routing over the
    live items)."""

    def __init__(
        self,
        view: ItemView,
        others: np.ndarray,
        prices: Optional[np.ndarray],
        cap_slack: float,
    ) -> None:
        item_row, weights = view.item_row, view.weight
        self.view = view
        self.capacity = int(np.floor(view.cache_capacity + 1e-9))
        # Residual caps, exactly as :func:`repro.core.routing.residual_caps`.
        reach = view.reach.take(item_row)
        caps = np.subtract(1.0, others)
        np.clip(caps, 0.0, 1.0, out=caps)
        caps *= reach
        if cap_slack > 0:
            caps = np.minimum(caps + cap_slack * reach, reach)
        # The y-independent BS cost of what the others leave, Eq. 10,
        # added up per file first, so zero-demand padding changes no bit
        # of the dual values.
        residual = 1.0 - np.clip(others, 0.0, 1.0) * reach
        bs_terms = view.file_sums(view.bs_cost.take(item_row) * residual * weights)
        self.constant = float(np.sum(bs_terms)) + view.constant_offset
        # Routing coefficients c = -(d_hat - d) * l * lambda, nonpositive
        # wherever offloading pays.
        row_margin = (view.bs_cost - view.link_cost) * view.reach
        priced = np.negative(row_margin).take(item_row) * weights
        if prices is not None:
            priced = priced + prices
        self.tie_break = view.file_sums(row_margin.take(item_row) * weights * caps)

        live = self.live_items = _live_items(priced, caps)
        self.sub = view.subset(live)
        self.sub_caps = caps.take(live)
        self.sub_priced = priced.take(live)
        # Primal recovery's knapsack costs are the fixed priced
        # coefficients, so its greedy order and the caps along it are
        # prepared once, and a candidate cache set (every polish trial
        # too) only contributes its (F,)-sized mask, gathered along the
        # paid prefix.
        self.knapsack = KnapsackWorkspace(self.sub.weight)
        self.knapsack.prepare_row(self.sub_priced, self.sub_caps, self.sub.item_file)
        self.screen = _RecoveryScreen(
            self.sub,
            self.sub_priced,
            self.sub_caps,
            self.constant,
            self.knapsack.order,
            self.knapsack.order_groups,
            self.knapsack.order_caps,
        )
        self.cost = np.inf
        self.caching: Optional[np.ndarray] = None
        self.routing: Optional[np.ndarray] = None

    def evaluate(self, caching: np.ndarray) -> Tuple[np.ndarray, float]:
        """Live routing and cost of one cache set."""
        allocation = self.knapsack.solve_masked(caching, self.view.bandwidth)
        products = self.sub_priced * allocation
        return allocation, self.constant + float(np.add.reduce(products))

    def batch_evaluate(self, trials: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Live routings and costs of a ``(T, F)`` batch of cache sets."""
        allocation = self.knapsack.solve_masked(trials, self.view.bandwidth)
        products = allocation * self.sub_priced
        return allocation, self.constant + np.add.reduce(products, axis=1)

    def consider(self, caching: np.ndarray, routing: np.ndarray, cost: float) -> None:
        """Keep ``caching`` if it is strictly cheaper than the incumbent."""
        if cost < self.cost:
            self.cost, self.caching, self.routing = cost, caching, routing.copy()
            self.screen.refresh(caching, self.routing)

    def recover(self, caching: np.ndarray) -> None:
        """Route ``caching`` unless it is the incumbent, or its bound
        proves it cannot beat the incumbent."""
        if self.caching is not None and np.array_equal(caching, self.caching):
            return
        if self.screen.bound(caching) < self.cost:
            self.consider(caching, *self.evaluate(caching))
        else:
            perf.count("subproblem.recoveries_screened")

    def polish(self) -> None:
        """Single-swap local search from the incumbent."""
        self.caching, self.routing, self.cost = _polish_cache_set(
            self.caching,
            self.routing,
            self.cost,
            evaluate=self.evaluate,
            batch_evaluate=self.batch_evaluate,
            screen=self.screen,
            potential=self.tie_break,
            capacity=self.capacity,
        )

    def top_set(self, g: np.ndarray) -> np.ndarray:
        """The cache set minimizing ``sum_f x[f] g[f]``: the ``C_n`` most
        negative ``g``, spare slots filled by the tie-break files."""
        return _select_cache_set(self.view.num_files, self.capacity, np.negative(g), self.tie_break)

    def certified_dual(self, bound: float) -> float:
        """The solution's ``best_dual``.

        ``bound`` is the best ``L - margin`` of the bisection, less the
        constant; the bound at the incumbent's split price (where the
        screen's ``g`` sits) may beat it.  The gap to the incumbent's
        cost is rounded up to the cost's ulp, so ``cost - best_dual`` is
        exactly that gap: it does not depend on how the constant was
        summed, and a pair view reports the gap of its dense grid.
        """
        screen = self.screen
        g = screen.g
        split = screen.offset_at(screen.lam, 0.0) + math.fsum(g[self.top_set(g) > 0])
        variable_cost = float(np.add.reduce(self.sub_priced * self.routing))
        gap = max(variable_cost - max(bound, split), 0.0)
        ulp = float(np.spacing(max(abs(self.cost), gap)))
        return self.cost - math.ceil(gap / ulp) * ulp


def _price_bisection(kernel: _Kernel, config: SubproblemConfig) -> Tuple[float, list, bool]:
    """The oracle: bisection for the bandwidth price maximizing
    ``L`` (module docstring), then recovery of the top sets at both ends
    of the last bracket.

    Returns the best ``L - margin`` probed, less the constant; the ``L``
    of every probe; and whether the bracket closed (its two top sets
    agree, or it is a few ulps wide) before ``config.max_iter`` probes.
    Sums over files use ``math.fsum``, so files a layout pads with zeros
    change no bit.
    """
    sub, screen = kernel.sub, kernel.screen
    bandwidth = sub.bandwidth
    caps_weight = kernel.sub_caps * sub.weight
    dual_history: list = []
    bound = -np.inf

    def probe(price: float) -> Tuple[np.ndarray, np.ndarray, float]:
        """The top set (filled), its files of negative ``g``, and the
        overflow at ``price``; books ``L`` and the bound."""
        nonlocal bound
        g, load = screen.terms(price, caps_weight)
        caching = kernel.top_set(g)
        top = caching > 0
        value = math.fsum(g[top])
        dual_history.append(kernel.constant + (value - price * bandwidth))
        bound = max(bound, screen.offset_at(price, 0.0) + value)
        return caching, top & (g < 0.0), math.fsum(load[top]) - bandwidth

    # Above the largest value density no paid item's priced coefficient
    # is negative, so nothing loads the budget.
    paid = sub.weight > 0.0
    densities = -kernel.sub_priced[paid] / sub.weight[paid]
    top_price = float(np.max(densities, initial=0.0)) * (1.0 + 8.0 * _EPS)
    # The bracket's ends, (price, top set, its files of negative g): lo
    # overflows, hi fits.  The stop compares the files of negative g,
    # which carry the bound: without prices the filled sets already agree
    # at both ends of the first bracket, because the filler ranks files
    # as g(0) does.
    lo = hi = None
    price = 0.0
    converged = False
    for iteration in range(config.max_iter):
        caching, carrying, overflow = probe(price)
        if overflow > 0.0 and price < top_price:
            lo = (price, caching, carrying)
        else:
            hi = (price, caching, carrying)
        if hi is None:
            price = top_price
            continue
        if lo is None or np.array_equal(lo[2], hi[2]) or hi[0] - lo[0] <= 4.0 * _EPS * hi[0]:
            converged = True
            break
        price = 0.5 * (lo[0] + hi[0])
    sets = [end[1] for end in (lo, hi) if end is not None]
    kernel.recover(sets[0])
    if len(sets) == 2 and not np.array_equal(*sets):
        kernel.recover(sets[1])
    return bound, dual_history, converged


def solve_subproblem_exhaustive(
    problem: ProblemInstance,
    sbs: int,
    aggregate_others: np.ndarray,
    *,
    max_subsets: int = 200_000,
) -> SubproblemSolution:
    """Exact ``P_n`` optimum by enumerating every feasible cache set.

    Exponential in ``F``; guarded by ``max_subsets``.  Used in tests to
    check the bandwidth-price oracle's certified gap against the true
    optimum.
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
