"""Performance observability: the event counters' ``count`` call and adapter.

See :mod:`repro.perf.registry` for the collection model and
docs/performance.md for the counter glossary.  Counts are trace facts
(``run_end.counters``); wall-clock time is the span layer's job
(:mod:`repro.obs.spans`).
"""

from .registry import PerfRegistry, collecting, count

__all__ = ["PerfRegistry", "collecting", "count"]
