"""Event counters for the hot paths.

The solvers are instrumented with *optional* counters: every
:func:`count` call is a no-op costing one attribute lookup unless a
:class:`PerfRegistry` has been activated.  Benchmarks (and curious
users) activate one around a run and read back a snapshot:

    from repro import perf

    with perf.collecting() as registry:
        solve_distributed(problem)
    print(registry.snapshot())

Instrumented events (see docs/performance.md for the full glossary):

* ``subproblem.solves`` / ``subgradient.iterations`` — Lagrangian
  solves of ``P_n`` and their dual-ascent iterations;
* ``knapsack.calls`` — fractional-knapsack invocations (the innermost
  hot path of Algorithm 1);
* ``lp.calls`` / ``lp.scipy_fallbacks`` — generic LP solves and how
  often the ``auto`` backend escalated to scipy/HiGHS;
* ``algorithm1.iterations`` / ``algorithm1.phases`` — the Gauss-Seidel
  outer loop.

Nothing here reads a clock: where the time goes is recorded by the
span layer (:mod:`repro.obs.spans`), whose ``seconds`` fields the
critical path (:func:`repro.obs.critical_path`) attributes by layer.

The registry is deliberately process-local: worker processes of the
parallel sweep runner keep their own (discarded) registries, so
counters describe exactly the work done in the measuring process.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "PerfRegistry",
    "activate",
    "deactivate",
    "active_registry",
    "collecting",
    "count",
]


class PerfRegistry:
    """Named event counters.

    :meth:`count` is cheap enough for inner loops; it allocates nothing
    beyond the dictionary entry for a first-seen name.  Updates are
    guarded by a lock so solves instrumented from several threads never
    lose increments to read-modify-write races.
    """

    __slots__ = ("counters", "_lock")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A JSON-ready copy: ``{"counters": {...}}``."""
        return {"counters": dict(self.counters)}

    def reset(self) -> None:
        """Drop every counter."""
        with self._lock:
            self.counters.clear()


_active: Optional[PerfRegistry] = None


def activate(registry: Optional[PerfRegistry] = None) -> PerfRegistry:
    """Install ``registry`` (or a fresh one) as the active collector."""
    global _active
    _active = registry if registry is not None else PerfRegistry()
    return _active


def deactivate() -> None:
    """Stop collecting; instrumentation reverts to no-ops."""
    global _active
    _active = None


def active_registry() -> Optional[PerfRegistry]:
    """The currently active registry, or ``None`` when collection is off."""
    return _active


@contextmanager
def collecting(registry: Optional[PerfRegistry] = None) -> Iterator[PerfRegistry]:
    """Activate a registry for the body and restore the previous one after."""
    global _active
    previous = _active
    _active = registry if registry is not None else PerfRegistry()
    try:
        yield _active
    finally:
        _active = previous


def count(name: str, amount: int = 1) -> None:
    """Increment a counter on the active registry (no-op when inactive)."""
    if _active is not None:
        _active.count(name, amount)
