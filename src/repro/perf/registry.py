"""Lightweight wall-clock timers and event counters for the hot paths.

The solvers are instrumented with *optional* counters: every
:func:`count` / :func:`timed` call is a no-op costing one attribute
lookup unless a :class:`PerfRegistry` has been activated.  Benchmarks
(and curious users) activate one around a run and read back a snapshot:

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
* ``algorithm1.iterations`` / ``algorithm1.phases`` and the
  ``algorithm1.sweep`` / ``algorithm1.phase_solve`` timings — the
  Gauss-Seidel outer loop.

The registry is deliberately process-local: worker processes of the
parallel sweep runner keep their own (discarded) registries, so
counters describe exactly the work done in the measuring process.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "Timer",
    "PerfRegistry",
    "activate",
    "deactivate",
    "active_registry",
    "collecting",
    "count",
    "add_time",
    "timed",
]


class Timer:
    """Re-entrant-free wall-clock stopwatch, usable as a context manager.

    Accumulates across uses: entering/exiting twice adds both intervals
    to :attr:`elapsed`.
    """

    __slots__ = ("elapsed", "_started")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: Optional[float] = None

    def start(self) -> "Timer":
        """Start (or restart) the stopwatch; returns ``self``."""
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the stopwatch and return the total accumulated seconds."""
        if self._started is not None:
            self.elapsed += time.perf_counter() - self._started
            self._started = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False


class PerfRegistry:
    """Named counters plus named accumulated wall-clock timings.

    All methods are cheap enough for inner loops; none allocate beyond
    the dictionary entry for a first-seen name.  Updates are guarded by
    a lock so solves instrumented from several threads never lose
    increments to read-modify-write races.
    """

    __slots__ = ("counters", "timings", "_lock")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timings: Dict[str, float] = {}
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock time under ``name``."""
        with self._lock:
            self.timings[name] = self.timings.get(name, 0.0) + float(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[Timer]:
        """Context manager timing its body into ``name``."""
        stopwatch = Timer().start()
        try:
            yield stopwatch
        finally:
            self.add_time(name, stopwatch.stop())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A JSON-ready copy: ``{"counters": {...}, "timings_s": {...}}``."""
        return {
            "counters": dict(self.counters),
            "timings_s": {k: float(v) for k, v in self.timings.items()},
        }

    def reset(self) -> None:
        """Drop every counter and timing."""
        with self._lock:
            self.counters.clear()
            self.timings.clear()


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


def add_time(name: str, seconds: float) -> None:
    """Accumulate wall time on the active registry (no-op when inactive)."""
    if _active is not None:
        _active.add_time(name, seconds)


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Time the body into the active registry (near-free when inactive)."""
    if _active is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        # Re-read the global: the body may have activated a registry.
        if _active is not None:
            _active.add_time(name, time.perf_counter() - start)
