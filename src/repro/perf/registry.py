"""The hot paths' event counters: :func:`count` and a process-global adapter.

While a recorder is active, :func:`count` adds to its counter table,
and each Algorithm 1 run reports its share as ``run_end.counters``
(:mod:`repro.obs.events`).  :func:`collecting` installs a registry that
sees every count this process makes, recording or not::

    with perf.collecting() as registry:
        solve_distributed(problem)
    print(registry.snapshot())

docs/performance.md has the counter glossary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..obs.recorder import CounterTable, active_counters

__all__ = ["PROCESS_COUNTERS", "PerfRegistry", "collecting", "count"]

PerfRegistry = CounterTable

#: Counters of what one process allocated rather than of what a run did:
#: a socket client owns a kernel workspace where an in-process run shares
#: one.  They reach :func:`collecting` only, never a recorder's table.
PROCESS_COUNTERS = frozenset({"subproblem.workspace_allocs"})

_active: Optional[PerfRegistry] = None


@contextmanager
def collecting(registry: Optional[PerfRegistry] = None) -> Iterator[PerfRegistry]:
    """Install a process-global registry for the body, restoring the previous one after."""
    global _active
    previous = _active
    _active = registry if registry is not None else PerfRegistry()
    try:
        yield _active
    finally:
        _active = previous


def count(name: str, amount: int = 1) -> None:
    """Add to the active recorder's table and the adapter (each only if present)."""
    table = active_counters()
    if table is not None and name not in PROCESS_COUNTERS:
        table.count(name, amount)
    if _active is not None:
        _active.count(name, amount)
