"""Routing optimization for a *fixed* caching policy.

Two layers:

* :func:`optimal_routing_for_sbs` — one SBS's best response given the
  aggregate routing of everybody else (the inner problem of ``P_n`` once
  the cache set is fixed).  Because contents have unit size and the cost
  model is linear, this is an exact fractional knapsack.
* :func:`optimal_routing_for_cache` — the network-wide optimal routing
  for a fixed caching matrix ``x``, i.e. the LP over ``y`` with
  constraints (3) and (4).  Solvable either as a transportation min-cost
  flow (``backend="flow"``) or as an LP (``backend="lp"`` /
  ``backend="scipy"``); the two are cross-checked in the tests.

These are used by the subproblem's exhaustive reference to route each
cache set, for rounding repair in the centralized solver, and to give
the LRFU baseline the same routing machinery when a fair comparison is
wanted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import as_binary_array, as_float_array
from ..exceptions import ValidationError
from ..solvers.fractional_knapsack import solve_fractional_knapsack
from ..solvers.lp import solve_lp
from ..solvers.mincostflow import FlowNetwork, min_cost_flow
from .problem import ProblemInstance

__all__ = [
    "residual_caps",
    "optimal_routing_for_sbs",
    "optimal_routing_for_cache",
]


def residual_caps(
    problem: ProblemInstance,
    sbs: int,
    aggregate_others: np.ndarray,
) -> np.ndarray:
    """Per-(u, f) upper bounds on ``y[sbs, u, f]`` given the others.

    Constraint (4) leaves SBS ``n`` at most ``1 - y_{-n}[u, f]`` of each
    request; connectivity zeroes the cap for unreachable groups.  The
    aggregate is clipped to ``[0, 1]`` first so a slightly over-serving
    aggregate (possible transiently under the privacy mechanism) never
    produces negative caps.
    """
    problem._check_sbs(sbs)
    aggregate = as_float_array(
        aggregate_others,
        "aggregate_others",
        shape=(problem.num_groups, problem.num_files),
    )
    caps = np.clip(1.0 - aggregate, 0.0, 1.0)
    caps *= problem.connectivity[sbs][:, np.newaxis]
    return caps


def optimal_routing_for_sbs(
    problem: ProblemInstance,
    sbs: int,
    cached: np.ndarray,
    caps: np.ndarray,
    *,
    extra_cost: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact best routing ``y[sbs]`` for a fixed cache set and caps.

    Minimizes ``sum((d[n,u] - d_hat[u]) * l[n,u] * lambda[u,f] + extra) * y``
    subject to the bandwidth budget ``B_n`` and ``0 <= y <= caps`` with
    ``y[u, f] = 0`` for uncached ``f``.  ``extra_cost`` (shape ``(U, F)``)
    adds a per-unit charge, such as congestion prices, to the
    coefficients.

    Returns a ``(U, F)`` routing block.
    """
    problem._check_sbs(sbs)
    cached = as_binary_array(cached, "cached", shape=(problem.num_files,))
    caps = as_float_array(
        caps, "caps", shape=(problem.num_groups, problem.num_files), nonnegative=True
    )
    margin = problem.savings_margin()[sbs]  # (U,) per-unit saving, >= 0
    costs = -margin[:, np.newaxis] * problem.demand  # (U, F) = c[n,u,f]
    if extra_cost is not None:
        costs = costs + as_float_array(
            extra_cost, "extra_cost", shape=(problem.num_groups, problem.num_files)
        )
    effective_caps = caps * cached[np.newaxis, :]
    result = solve_fractional_knapsack(
        costs.ravel(),
        np.broadcast_to(problem.demand, costs.shape).ravel(),
        float(problem.bandwidth[sbs]),
        effective_caps.ravel(),
    )
    return result.allocation.reshape(problem.num_groups, problem.num_files)


def optimal_routing_for_cache(
    problem: ProblemInstance,
    caching: np.ndarray,
    *,
    backend: str = "lp",
) -> np.ndarray:
    """Network-wide optimal routing for a fixed caching matrix.

    Solves ``min f(y)`` over ``y`` subject to (2) with ``x`` fixed, (3),
    (4) and the box constraints.  Returns the ``(N, U, F)`` routing
    array.

    ``backend="lp"`` builds the LP and lets :func:`repro.solvers.lp.solve_lp`
    choose an engine; ``backend="scipy"`` / ``"simplex"`` force one;
    ``backend="flow"`` solves the equivalent transportation problem with
    the in-house min-cost-flow solver.
    """
    caching = as_binary_array(
        caching, "caching", shape=(problem.num_sbs, problem.num_files)
    )
    if backend == "flow":
        return _routing_by_flow(problem, caching)
    if backend in ("lp", "scipy", "simplex", "auto"):
        lp_backend = "auto" if backend == "lp" else backend
        return _routing_by_lp(problem, caching, lp_backend)
    raise ValidationError(f"unknown routing backend {backend!r}")


def _profitable_triples(problem: ProblemInstance, caching: np.ndarray) -> np.ndarray:
    """Indices ``(n, u, f)`` where routing can reduce cost.

    Requires connectivity, a cached file, positive demand and a positive
    savings margin.
    """
    mask = problem.potential_routing_mask() & (caching[:, np.newaxis, :] > 0)
    return np.argwhere(mask)


def _routing_by_lp(
    problem: ProblemInstance, caching: np.ndarray, backend: str
) -> np.ndarray:
    from scipy import sparse

    triples = _profitable_triples(problem, caching)
    routing = np.zeros(problem.shape)
    if triples.size == 0:
        return routing
    num_vars = triples.shape[0]
    margin = problem.savings_margin()
    n_idx, u_idx, f_idx = triples[:, 0], triples[:, 1], triples[:, 2]
    demand = problem.demand[u_idx, f_idx]
    # Maximize savings == minimize negated savings.
    c = -(margin[n_idx, u_idx] * demand)

    # Bandwidth rows (one per SBS) + unit-demand rows (one per active (u, f)).
    pair_ids: dict = {}
    for k in range(num_vars):
        pair = (int(u_idx[k]), int(f_idx[k]))
        pair_ids.setdefault(pair, len(pair_ids))
    num_rows = problem.num_sbs + len(pair_ids)
    rows = list(n_idx)
    cols = list(range(num_vars))
    vals = list(demand)
    for k in range(num_vars):
        rows.append(problem.num_sbs + pair_ids[(int(u_idx[k]), int(f_idx[k]))])
        cols.append(k)
        vals.append(1.0)
    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(num_rows, num_vars)).tocsr()
    b_ub = np.concatenate([problem.bandwidth, np.ones(len(pair_ids))])
    result = solve_lp(c, a_ub, b_ub, upper=np.ones(num_vars), backend=backend)
    routing[n_idx, u_idx, f_idx] = np.clip(result.x, 0.0, 1.0)
    return routing


def _routing_by_flow(problem: ProblemInstance, caching: np.ndarray) -> np.ndarray:
    triples = _profitable_triples(problem, caching)
    routing = np.zeros(problem.shape)
    if triples.size == 0:
        return routing
    margin = problem.savings_margin()
    pair_ids = {}
    for n, u, f in triples:
        pair_ids.setdefault((int(u), int(f)), len(pair_ids))
    # Node layout: source | SBS nodes | request nodes | sink.
    source = 0
    sbs_base = 1
    pair_base = sbs_base + problem.num_sbs
    sink = pair_base + len(pair_ids)
    network = FlowNetwork(sink + 1)
    for n in range(problem.num_sbs):
        network.add_arc(source, sbs_base + n, float(problem.bandwidth[n]), 0.0)
    for (u, f), pid in pair_ids.items():
        network.add_arc(pair_base + pid, sink, float(problem.demand[u, f]), 0.0)
    arc_of_triple = {}
    for n, u, f in triples:
        pid = pair_ids[(int(u), int(f))]
        arc = network.add_arc(
            sbs_base + int(n),
            pair_base + pid,
            float(problem.demand[u, f]),
            -float(margin[n, u]),
        )
        arc_of_triple[(int(n), int(u), int(f))] = arc
    min_cost_flow(network, source, sink, stop_when_costly=True)
    for (n, u, f), arc in arc_of_triple.items():
        demand = problem.demand[u, f]
        if demand > 0:
            routing[n, u, f] = min(1.0, network.flow_on(arc) / demand)
    return routing
