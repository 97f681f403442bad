"""repro.obs — structured run-trace observability for the solvers.

Theorems 2, 3 and 5 are claims about *trajectories* — the per-iteration
cost sequence, its behaviour under LPPM noise, the bounded cost
increase — yet costs and counters alone cannot show a regression in the
duality gap, the epsilon ledger or the retry behaviour until a figure
diverges.  This package records Algorithm 1 executions (and the async /
online variants) as JSONL event streams that the ``repro-trace`` CLI
can summarize, validate and diff.

Usage::

    from repro import obs
    from repro.core.distributed import solve_distributed

    with obs.recording("run.jsonl"):
        result = solve_distributed(problem)
    # $ repro-trace summary run.jsonl
    # $ repro-trace validate run.jsonl

Tracing is off by default: every hook in the solver core is a single
attribute check when no recorder is active, so the hot path keeps its
optimized performance (``benchmarks/test_trace_overhead.py``).  See
docs/observability.md for the event schema and recorder API.
"""

from .derive import MetricsDeriver, MetricsRecorder, derive_metrics, metering
from .events import EVENT_TYPES, REQUIRED_FIELDS, TRACE_VERSION
from .metrics import Counter, Gauge, Histogram, MetricFamily, MetricsRegistry
from .recorder import (
    CounterTable,
    Event,
    ListRecorder,
    NullRecorder,
    TeeRecorder,
    TraceRecorder,
    TraceWriter,
    activate,
    active_counters,
    active_recorder,
    deactivate,
    emit,
    enabled,
    recording,
    timings_enabled,
)
from .recorder import spans_enabled
from .report import compare_snapshots, render_dashboard
from .span_analysis import (
    SpanNode,
    build_span_tree,
    check_spans,
    collect_spans,
    critical_path,
    proxy_fates_by_span,
    render_timeline,
)
from .spans import NOOP_TRACKER, SpanTracker, span
from .trace import (
    RunSegment,
    RunSummary,
    TraceReader,
    diff_traces,
    summarize_run,
    summarize_trace,
    validate_events,
)

__all__ = [
    "EVENT_TYPES",
    "REQUIRED_FIELDS",
    "TRACE_VERSION",
    "CounterTable",
    "Event",
    "ListRecorder",
    "NullRecorder",
    "TeeRecorder",
    "TraceRecorder",
    "TraceWriter",
    "activate",
    "active_counters",
    "active_recorder",
    "deactivate",
    "emit",
    "enabled",
    "recording",
    "timings_enabled",
    "spans_enabled",
    "NOOP_TRACKER",
    "SpanTracker",
    "span",
    "SpanNode",
    "build_span_tree",
    "check_spans",
    "collect_spans",
    "critical_path",
    "proxy_fates_by_span",
    "render_timeline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsDeriver",
    "MetricsRecorder",
    "derive_metrics",
    "metering",
    "compare_snapshots",
    "render_dashboard",
    "RunSegment",
    "RunSummary",
    "TraceReader",
    "diff_traces",
    "summarize_run",
    "summarize_trace",
    "validate_events",
]
