"""Performance observability: event counters and their registry.

See :mod:`repro.perf.registry` for the collection model and
docs/performance.md for the counter glossary.  Wall-clock time is the
span layer's job (:mod:`repro.obs.spans`); this package only counts.
"""

from .registry import (
    PerfRegistry,
    activate,
    active_registry,
    collecting,
    count,
    deactivate,
)

__all__ = [
    "PerfRegistry",
    "activate",
    "active_registry",
    "collecting",
    "count",
    "deactivate",
]
