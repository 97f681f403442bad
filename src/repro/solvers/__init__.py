"""Optimization substrate built from scratch for the reproduction.

The paper relies on a generic LP toolkit (PuLP); this package provides
the equivalent machinery plus the specialized combinatorial solvers that
exploit the problem's structure:

* :mod:`~repro.solvers.fractional_knapsack` — exact greedy solver for the
  routing subproblem's LP structure.
* :mod:`~repro.solvers.simplex` / :mod:`~repro.solvers.lp` — two-phase
  dense simplex and a unified LP front-end with a scipy/HiGHS backend.
* :mod:`~repro.solvers.mincostflow` — successive-shortest-paths min-cost
  flow for routing-given-cache.
* :mod:`~repro.solvers.branch_and_bound` — exact mixed-binary LP solver
  for small-instance reference optima.
"""

from .branch_and_bound import MILPResult, solve_mixed_binary_lp
from .fractional_knapsack import KnapsackResult, solve_fractional_knapsack
from .lp import LPResult, solve_lp
from .mincostflow import FlowNetwork, FlowResult, min_cost_flow
from .simplex import SimplexResult, simplex_solve

__all__ = [
    "MILPResult",
    "solve_mixed_binary_lp",
    "KnapsackResult",
    "solve_fractional_knapsack",
    "LPResult",
    "solve_lp",
    "FlowNetwork",
    "FlowResult",
    "min_cost_flow",
    "SimplexResult",
    "simplex_solve",
]
