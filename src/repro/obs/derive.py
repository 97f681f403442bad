"""Deriving metrics from the trace event stream — live or offline.

One function, :meth:`MetricsDeriver.observe`, maps every trace event to
registry updates.  Both consumption paths share it:

* **live** — :func:`metering` activates a :class:`MetricsRecorder`
  (optionally tee'd with a :class:`~repro.obs.recorder.TraceWriter`),
  so the solver's emitted events update the registry as they happen;
* **offline** — :func:`derive_metrics` replays a recorded JSONL trace
  through the same deriver.

Because the mapping is a pure function of the event stream (writer
artifacts like ``seq`` and the ``trace_start`` header are ignored), a
live run and an offline derivation from its trace produce **byte
identical** JSON snapshots, and a parallel sweep — whose workers'
events the parent replays in submission order — rolls up to exactly
the serial registry (``tests/test_obs_metrics.py`` pins both).

Metric names are prefixed ``repro_``; the wall-clock families all
contain ``seconds`` in their name so
``MetricsRegistry.to_json(deterministic_only=True)`` can drop them for
baseline comparison.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Union

from .metrics import MetricsRegistry
from .recorder import Event, TeeRecorder, TraceRecorder, TraceWriter, recording
from .trace import TraceReader

__all__ = [
    "MetricsDeriver",
    "MetricsRecorder",
    "derive_metrics",
    "metering",
]

#: Bucket bounds for sub-second solve durations (seconds).
SECONDS_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class MetricsDeriver:
    """Stateful event-to-metrics mapping shared by live and offline paths.

    Tracks the ``run_start``/``run_end`` nesting (so per-iteration
    metrics carry the enclosing run kind as a label) and the sweep's
    ``cell`` -> ``scheme`` assignment (so per-cell outcomes roll up per
    scheme).  Feed events in emission order via :meth:`observe`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._run_stack: List[str] = []
        self._scheme_by_cell: Dict[str, str] = {}

    # -- helpers -------------------------------------------------------
    def _run(self) -> str:
        return self._run_stack[-1] if self._run_stack else "-"

    # -- dispatch ------------------------------------------------------
    def observe(self, event: Event) -> None:
        """Fold one trace event into the registry."""
        kind = event.get("type")
        if not isinstance(kind, str) or kind == "trace_start":
            # The header is written by TraceWriter, not emitted through
            # the hook — skipping it keeps live and offline identical.
            return
        registry = self.registry
        registry.counter(
            "repro_events_total", "Trace events seen, by event kind.", ("event_kind",)
        ).labels(event_kind=kind).inc()
        handler = getattr(self, f"_on_{kind}", None)
        if handler is not None:
            handler(event)

    # -- run bracketing ------------------------------------------------
    def _on_run_start(self, event: Event) -> None:
        run = str(event.get("run", "?"))
        self._run_stack.append(run)
        self.registry.counter(
            "repro_runs_total", "Solver runs started, by run kind.", ("run",)
        ).labels(run=run).inc()

    def _on_run_end(self, event: Event) -> None:
        registry = self.registry
        run = self._run()
        registry.gauge(
            "repro_run_final_cost", "Final cost reported by the last run.", ("run",)
        ).labels(run=run).set(float(event.get("final_cost", 0.0)))
        registry.gauge(
            "repro_run_iterations", "Iterations used by the last run.", ("run",)
        ).labels(run=run).set(float(event.get("iterations", 0)))
        if event.get("converged") is not None:
            registry.gauge(
                "repro_run_converged",
                "Whether the last run converged (1) or hit the cap (0).",
                ("run",),
            ).labels(run=run).set(1.0 if event["converged"] else 0.0)
        if event.get("total_epsilon") is not None:
            registry.gauge(
                "repro_run_total_epsilon",
                "Composed privacy budget reported by the last run.",
                ("run",),
            ).labels(run=run).set(float(event["total_epsilon"]))
        if event.get("stale_phases") is not None:
            registry.gauge(
                "repro_run_stale_phases",
                "Stale (degraded or crash-skipped) phases of the last run.",
                ("run",),
            ).labels(run=run).set(float(event["stale_phases"]))
        channel = event.get("channel")
        if isinstance(channel, dict):
            self._channel_ledger(channel)
        counters = event.get("counters")
        if isinstance(counters, dict):
            for name in sorted(counters):
                registry.counter(
                    "repro_run_counters_total",
                    "Program event counts (repro.perf names) of finished runs.",
                    ("run", "counter"),
                ).labels(run=run, counter=name).inc(float(counters[name]))
        cell = event.get("cell")
        if cell is not None:
            self._cell_rollup(str(cell), event)
        if self._run_stack:
            self._run_stack.pop()

    def _channel_ledger(self, stats: Dict[str, Any]) -> None:
        """Channel byte/retransmit ledgers as labeled counters."""
        registry = self.registry
        by_kind = stats.get("by_kind") or {}
        for kind in sorted(by_kind):
            registry.counter(
                "repro_channel_messages_total",
                "Messages sent, by message kind (retransmissions excluded).",
                ("kind",),
            ).labels(kind=kind).inc(float(by_kind[kind]))
        bytes_by_kind = stats.get("bytes_by_kind") or {}
        for kind in sorted(bytes_by_kind):
            registry.counter(
                "repro_channel_bytes_total",
                "Payload bytes sent, by message kind (retransmissions excluded).",
                ("kind",),
            ).labels(kind=kind).inc(float(bytes_by_kind[kind]))
        for fault in (
            "dropped",
            "duplicated",
            "delayed",
            "reordered",
            "retransmissions",
            "corrupted",
            "byzantine_rejected",
            "deadline_expired",
        ):
            if stats.get(fault):
                registry.counter(
                    "repro_channel_faults_total",
                    "Channel fault outcomes, by fault kind.",
                    ("fault",),
                ).labels(fault=fault).inc(float(stats[fault]))
        if stats.get("retransmitted_bytes"):
            registry.counter(
                "repro_channel_retransmitted_bytes_total",
                "Bytes spent on ARQ retransmissions.",
            ).labels().inc(float(stats["retransmitted_bytes"]))
        if stats.get("messages_sent") is not None:
            registry.counter(
                "repro_channel_wire_messages_total",
                "Total messages on the wire (retransmissions included).",
            ).labels().inc(float(stats["messages_sent"]))
        if stats.get("bytes_sent") is not None:
            registry.counter(
                "repro_channel_wire_bytes_total",
                "Total bytes on the wire (retransmissions included).",
            ).labels().inc(float(stats["bytes_sent"]))

    def _cell_rollup(self, cell: str, event: Event) -> None:
        """Per-scheme sweep rollups, merged deterministically across cells."""
        registry = self.registry
        scheme = self._scheme_by_cell.get(cell, "?")
        registry.counter(
            "repro_scheme_runs_total", "Sweep-cell runs completed, by scheme.", ("scheme",)
        ).labels(scheme=scheme).inc()
        registry.counter(
            "repro_scheme_cost_total",
            "Sum of final costs over a scheme's sweep cells.",
            ("scheme",),
        ).labels(scheme=scheme).inc(float(event.get("final_cost", 0.0)))
        registry.counter(
            "repro_scheme_iterations_total",
            "Sum of iterations over a scheme's sweep cells.",
            ("scheme",),
        ).labels(scheme=scheme).inc(float(event.get("iterations", 0)))
        registry.gauge(
            "repro_cell_final_cost", "Final cost of one sweep cell.", ("cell", "scheme")
        ).labels(cell=cell, scheme=scheme).set(float(event.get("final_cost", 0.0)))

    # -- per-step events -----------------------------------------------
    def _on_iteration(self, event: Event) -> None:
        registry = self.registry
        run = self._run()
        registry.counter(
            "repro_iterations_total", "Solver iterations completed, by run kind.", ("run",)
        ).labels(run=run).inc()
        registry.gauge(
            "repro_cost", "Latest system cost observed, by run kind.", ("run",)
        ).labels(run=run).set(float(event.get("cost", 0.0)))
        if event.get("dual_gap_max") is not None:
            registry.gauge(
                "repro_dual_gap_max",
                "Max per-SBS duality gap of the latest iteration.",
                ("run",),
            ).labels(run=run).set(float(event["dual_gap_max"]))
            registry.histogram(
                "repro_dual_gap",
                "Per-iteration max subproblem duality gap.",
                ("run",),
            ).labels(run=run).observe(float(event["dual_gap_max"]))

    def _on_phase(self, event: Event) -> None:
        registry = self.registry
        run = self._run()
        sbs = event.get("sbs", "-")
        stale = bool(event.get("stale", False))
        registry.counter(
            "repro_phases_total",
            "Per-SBS phases executed, by run kind and staleness.",
            ("run", "sbs", "stale"),
        ).labels(run=run, sbs=sbs, stale=stale).inc()
        retries = event.get("retries")
        if retries:
            registry.counter(
                "repro_phase_retries_total",
                "ARQ retries burned delivering phase uploads.",
                ("run", "sbs"),
            ).labels(run=run, sbs=sbs).inc(float(retries))
        if event.get("noise_l1") is not None:
            registry.histogram(
                "repro_phase_noise_l1", "L1 mass of LPPM noise per phase.", ("run",)
            ).labels(run=run).observe(float(event["noise_l1"]))
        if event.get("dual_gap") is not None:
            registry.gauge(
                "repro_sbs_dual_gap",
                "Latest subproblem duality gap, per SBS.",
                ("run", "sbs"),
            ).labels(run=run, sbs=sbs).set(float(event["dual_gap"]))
        if event.get("solve_seconds") is not None:
            registry.histogram(
                "repro_phase_solve_seconds",
                "Wall-clock subproblem solve time per phase (volatile).",
                ("run", "sbs"),
                buckets=SECONDS_BUCKETS,
            ).labels(run=run, sbs=sbs).observe(float(event["solve_seconds"]))

    def _on_privacy(self, event: Event) -> None:
        registry = self.registry
        party = str(event.get("party", "?"))
        epsilon = float(event.get("epsilon", 0.0))
        registry.counter(
            "repro_privacy_releases_total", "DP releases booked, by party.", ("party",)
        ).labels(party=party).inc()
        registry.counter(
            "repro_privacy_epsilon_total",
            "Total privacy budget booked, by party (basic composition).",
            ("party",),
        ).labels(party=party).inc(epsilon)
        registry.histogram(
            "repro_privacy_epsilon_per_release",
            "Epsilon spend per individual release.",
            ("party",),
        ).labels(party=party).observe(epsilon)
        if event.get("noise_l1") is not None:
            registry.histogram(
                "repro_privacy_noise_l1",
                "Realized L1 noise mass per release.",
                ("party",),
            ).labels(party=party).observe(float(event["noise_l1"]))

    def _on_protocol(self, event: Event) -> None:
        registry = self.registry
        name = str(event.get("event", "?"))
        registry.counter(
            "repro_protocol_events_total",
            "Protocol/fault-layer events, by event name.",
            ("event",),
        ).labels(event=name).inc()
        sbs = event.get("sbs")
        if name == "retry" and sbs is not None:
            registry.counter(
                "repro_retries_total", "ARQ retransmissions, per SBS.", ("sbs",)
            ).labels(sbs=sbs).inc()
        elif name == "degrade" and sbs is not None:
            registry.counter(
                "repro_degraded_phases_total",
                "Phases degraded to a stale report, per SBS.",
                ("sbs",),
            ).labels(sbs=sbs).inc()
        elif name == "crash_skip" and sbs is not None:
            registry.counter(
                "repro_crash_skips_total", "Phases skipped by crashed SBSs.", ("sbs",)
            ).labels(sbs=sbs).inc()
        elif name == "recover" and sbs is not None:
            registry.counter(
                "repro_recoveries_total", "Crash recoveries, per SBS.", ("sbs",)
            ).labels(sbs=sbs).inc()
        elif name == "deadline_expired" and sbs is not None:
            registry.counter(
                "repro_deadline_expired_total",
                "Phases the BS closed on a straggler's missed deadline, per SBS.",
                ("sbs",),
            ).labels(sbs=sbs).inc()
        elif name == "byzantine_reject" and sbs is not None:
            registry.counter(
                "repro_byzantine_rejects_total",
                "Uploads the BS's byzantine filter refused or clipped, per SBS.",
                ("sbs", "reason"),
            ).labels(sbs=sbs, reason=event.get("reason", "-")).inc()
        elif name == "drop":
            registry.counter(
                "repro_dropped_messages_total",
                "Messages lost by the fault layer, by message kind.",
                ("kind",),
            ).labels(kind=event.get("kind", "-")).inc()

    def _on_async_update(self, event: Event) -> None:
        registry = self.registry
        run = self._run()
        registry.counter(
            "repro_async_updates_total", "Asynchronous uploads folded, per SBS.", ("sbs",)
        ).labels(sbs=event.get("sbs", "-")).inc()
        registry.gauge(
            "repro_cost", "Latest system cost observed, by run kind.", ("run",)
        ).labels(run=run).set(float(event.get("cost", 0.0)))
        if event.get("staleness") is not None:
            registry.histogram(
                "repro_async_staleness",
                "Aggregate-view staleness acted on per async update.",
                ("sbs",),
            ).labels(sbs=event.get("sbs", "-")).observe(float(event["staleness"]))

    def _on_slot(self, event: Event) -> None:
        registry = self.registry
        registry.counter(
            "repro_slots_total",
            "Online slots served, by whether the cache was re-optimized.",
            ("reoptimized",),
        ).labels(reoptimized=bool(event.get("reoptimized", False))).inc()
        registry.counter(
            "repro_serving_cost_total", "Cumulative online serving cost."
        ).labels().inc(float(event.get("serving_cost", 0.0)))
        if event.get("switch_cost"):
            registry.counter(
                "repro_switch_cost_total", "Cumulative online cache-switching cost."
            ).labels().inc(float(event["switch_cost"]))
        if event.get("cache_changes"):
            registry.counter(
                "repro_cache_changes_total", "Cumulative online cache changes."
            ).labels().inc(float(event["cache_changes"]))

    def _on_sweep_start(self, event: Event) -> None:
        self.registry.counter(
            "repro_sweeps_total", "Parameter sweeps executed, by sweep name.", ("name",)
        ).labels(name=event.get("name", "?")).inc()

    def _on_cell_start(self, event: Event) -> None:
        cell = str(event.get("cell", "?"))
        scheme = str(event.get("scheme", "?"))
        self._scheme_by_cell[cell] = scheme
        self.registry.counter(
            "repro_sweep_cells_total", "Distinct sweep cells evaluated, by scheme.", ("scheme",)
        ).labels(scheme=scheme).inc()

    def _on_span(self, event: Event) -> None:
        registry = self.registry
        name = str(event.get("name", "?"))
        node = str(event.get("node", "-"))
        category = str(event.get("category", "other"))
        registry.counter(
            "repro_spans_total",
            "Causal spans closed, by span name, node and category.",
            ("name", "node", "category"),
        ).labels(name=name, node=node, category=category).inc()
        if event.get("seconds") is not None:
            registry.histogram(
                "repro_span_seconds",
                "Wall-clock span latency, by span name and node (volatile).",
                ("name", "node"),
                buckets=SECONDS_BUCKETS,
            ).labels(name=name, node=node).observe(float(event["seconds"]))
            if name == "phase":
                registry.histogram(
                    "repro_phase_latency_seconds",
                    "End-to-end per-phase latency seen by the BS (volatile).",
                    ("node",),
                    buckets=SECONDS_BUCKETS,
                ).labels(node=node).observe(float(event["seconds"]))

    def _on_proxy(self, event: Event) -> None:
        registry = self.registry
        fate = str(event.get("fate", "?"))
        if fate == "summary":
            for outcome in (
                "forwarded",
                "dropped",
                "duplicated",
                "delayed",
                "reordered",
                "truncated",
                "schedule_dropped",
            ):
                if event.get(outcome):
                    registry.counter(
                        "repro_runtime_proxy_frames_total",
                        "Chaos-proxy frame outcomes (ProxyStats), by outcome.",
                        ("outcome",),
                    ).labels(outcome=outcome).inc(float(event[outcome]))
            return
        registry.counter(
            "repro_runtime_proxy_fates_total",
            "Per-frame chaos-proxy fault injections, by fate and frame kind.",
            ("fate", "kind"),
        ).labels(fate=fate, kind=event.get("kind", "-")).inc()


class MetricsRecorder(TraceRecorder):
    """A recorder that folds the event stream into a metrics registry.

    Activate it alone for metrics-only runs, or inside a
    :class:`~repro.obs.recorder.TeeRecorder` next to a ``TraceWriter``
    for a traced *and* metered run.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__()
        self.deriver = MetricsDeriver(registry)

    @property
    def registry(self) -> MetricsRegistry:
        """The registry this recorder updates."""
        return self.deriver.registry

    def record(self, event: Event) -> None:
        """Fold one emitted event into the registry."""
        self.deriver.observe(event)


def derive_metrics(
    source: Union[str, Path, List[Event]],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Materialize the metrics of a recorded trace, offline.

    ``source`` is a JSONL trace path or an already-parsed event list.
    Returns the (possibly supplied) registry after replaying every
    event through the same :class:`MetricsDeriver` the live path uses —
    which is what makes offline snapshots byte-identical to live ones.
    """
    events = (
        source if isinstance(source, list) else TraceReader(source).events
    )
    deriver = MetricsDeriver(registry)
    for event in events:
        deriver.observe(event)
    return deriver.registry


@contextmanager
def metering(
    registry: Optional[MetricsRegistry] = None,
    *,
    trace: Union[str, Path, IO[str], TraceRecorder, None] = None,
    timings: bool = True,
    spans: bool = False,
) -> Iterator[MetricsRegistry]:
    """Collect metrics for the body; optionally record a trace too.

    With ``trace`` given, events fan out to a trace sink *and* the
    metrics deriver (one emission, two consumers), so the written trace
    re-derives to exactly the registry this context yields.  ``timings``
    controls whether solvers measure wall-clock ``solve_seconds``;
    ``spans`` opts in to causal span events
    (see :func:`repro.obs.recorder.recording`).
    """
    recorder = MetricsRecorder(registry)
    owned: Optional[TraceWriter] = None
    target: TraceRecorder = recorder
    if trace is not None:
        if isinstance(trace, TraceRecorder):
            sink: TraceRecorder = trace
        else:
            owned = TraceWriter(trace)
            sink = owned
        target = TeeRecorder(sink, recorder)
    try:
        with recording(target, timings=timings, spans=spans):
            yield recorder.registry
    finally:
        if owned is not None:
            owned.close()
