"""Hot-path rule: no Python-level loops where batched kernels exist.

The modules on the Algorithm 1 hot path — the subproblem oracle and
the fractional knapsack — are vectorized: their inner work runs as
batched numpy kernels, and a stray ``for`` loop over group/file indices
silently reverts a kernel to per-element Python (the regression the
speed floors of the fast paths exist to catch).

* ``python-loop-in-hot-path`` — flag every ``for`` statement in a hot
  module except the outer iteration of a dual search (``for iteration
  in ...``: the price bisection), which is inherently sequential.
  Loops that are justified — the polish passes and adds (each accepted
  move changes the incumbent), the exhaustive reference oracle, bounded
  chunk dispatch — carry baseline ratchet entries rather than pragmas,
  so any *new* loop trips CI until it is either vectorized or
  explicitly accepted into the baseline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule, register

__all__ = ["PythonLoopInHotPath"]

#: Modules whose inner loops must be numpy kernels, not Python ``for``.
HOT_MODULES = frozenset(
    {
        "repro.core.subproblem",
        "repro.solvers.fractional_knapsack",
    }
)

#: Loop targets that name the sequential outer iteration of a dual
#: search — the one loop an oracle cannot batch away.
_SEQUENTIAL_TARGETS = frozenset({"iteration"})


@register
class PythonLoopInHotPath(Rule):
    """Flag scalar ``for`` loops inside the batched hot modules."""

    code = "REPRO304"
    name = "python-loop-in-hot-path"
    summary = "Python for-loop in a batched hot module; vectorize or baseline it"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag For statements in hot modules, outer dual iteration excepted."""
        if ctx.module not in HOT_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            target = node.target
            if (
                isinstance(target, ast.Name)
                and target.id in _SEQUENTIAL_TARGETS
            ):
                continue
            yield self.finding(
                ctx,
                node,
                "Python-level loop on the batched hot path; vectorize it into "
                "a numpy kernel, or accept it into the baseline with a "
                "justification if it is inherently sequential",
            )
