"""Event schema of the run-trace subsystem.

A trace is a JSONL stream: one JSON object per line, each carrying a
``type`` field naming its event class and a writer-assigned ``seq``
monotone sequence number.  The schema is deliberately flat (no nested
event envelopes) so traces can be grepped, streamed and diffed with
ordinary line tools; the only nesting is *logical* — ``run_start`` /
``run_end`` pairs bracket one solver execution, and a sweep trace
contains one such bracket per evaluated cell, tagged with a ``cell``
identifier.

Event types
-----------

``trace_start``
    Writer header: ``version`` of this schema.
``run_start`` / ``run_end``
    Bracket one solver run.  ``run`` names the solver
    (``"algorithm1"``, ``"async"``, ``"online"``); ``run_end`` carries
    the solver-reported ``final_cost`` / ``iterations`` (and, when
    private, ``total_epsilon``) that :mod:`repro.obs.trace` cross-checks
    against the values *reconstructed* from the per-step events.  An
    Algorithm 1 ``run_end`` also carries ``counters``, the nonzero
    :mod:`repro.perf` counts of the run by name (the metric family
    ``repro_run_counters_total``); its :data:`ITERATION_COUNTERS` entry
    must equal ``iterations``.
``phase``
    One Gauss-Seidel / Jacobi phase: ``iteration``, ``phase``, ``sbs``,
    post-phase system ``cost``, LPPM ``noise_l1``, ARQ ``retries``,
    ``stale`` degradation flag, and — when tracing extras are available
    — the subproblem ``dual_gap`` (local primal objective minus best
    dual bound), the multiplier norm ``mu_norm`` and, unless the
    recorder was activated with ``timings=False``, the wall-clock
    ``solve_seconds`` of the subproblem solve (measured inline by the
    solver).  Timing fields are
    wall-clock and therefore excluded from determinism comparisons —
    record with ``timings=False`` when traces must be byte-identical.
``iteration``
    End of a full sweep: ``iteration`` index, system ``cost``,
    ``dual_gap_max`` / ``mu_norm_max`` / ``mu_norm_mean`` aggregated
    over the iteration's solves, and ``restoration=True`` on the
    zero-slack feasibility sweep of price coordination.
``privacy``
    One bounded-Laplace release: ``party``, booked ``epsilon``, the
    accountant ``label`` and the realized ``noise_l1``.
``protocol``
    Fault-layer and ARQ outcomes; ``event`` is one of ``retry``,
    ``degrade``, ``crash_skip``, ``recover``, ``drop``, plus the socket
    runtime's ``deadline_expired`` (the BS closed a straggler's phase at
    the wall-clock deadline; ``folded`` says whether the late upload
    still made the aggregate) and ``byzantine_reject`` (the BS's upload
    filter refused or clipped a report; carries ``reason`` and
    ``action``).
``async_update``
    The BS folded one asynchronous upload: simulated ``time``, ``sbs``,
    post-fold ``cost`` and the acted-upon aggregate ``staleness``.
``slot``
    One online time slot: ``slot``, ``serving_cost``, ``switch_cost``,
    ``cache_changes``, ``reoptimized``.
``sweep_start`` / ``sweep_end`` / ``cell_start``
    Sweep-runner brackets; ``cell_start`` announces one distinct sweep
    cell (``cell`` tag, ``scheme``, ``rng``, ``epsilon``) whose solver
    events follow, each tagged with the same ``cell`` value.
``span``
    One closed causal span (:mod:`repro.obs.spans`): ``name``, span id
    ``span`` (``node:counter``), emitting ``node``, ``trace`` id,
    ``parent`` span id (``null`` for the root), ``category`` (critical-
    path bucket: ``run`` / ``iteration`` / ``epoch`` / ``solve`` /
    ``network`` / ``retry`` / ``straggler`` / ``aggregate`` /
    ``broadcast``), and the hybrid-logical-clock interval ``ls`` /
    ``le``.  When the recorder was activated with ``timings=True`` the
    span also carries wall-clock ``t0`` / ``t1`` / ``seconds`` and the
    optional resource attribute ``rss_peak_kb`` — all masked from
    determinism comparisons like other wall-clock fields.  Spans are
    emitted at close, so a parent's event follows its children's.
``proxy``
    One chaos-proxy observation, emitted inside the run bracket just
    before ``run_end`` when spans are enabled.  ``fate`` is either a
    per-frame fault outcome (``dropped`` / ``truncated`` / ``delayed``
    / ``reordered`` / ``duplicated`` / ``schedule_dropped``, annotated
    with the victim frame's header fields and — when the frame carried
    trace-context — the ``span`` it belongs to) or ``summary`` (the
    merged :class:`repro.runtime.chaos.ProxyStats` counters, from which
    ``repro_runtime_proxy_*`` metric families derive).
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = ["TRACE_VERSION", "EVENT_TYPES", "REQUIRED_FIELDS", "ITERATION_COUNTERS"]

#: Schema version stamped into every ``trace_start`` header.
TRACE_VERSION = 1

#: Required fields per event type, enforced by ``repro-trace validate``.
#: Every event additionally carries ``type`` and (once written) ``seq``.
REQUIRED_FIELDS: Dict[str, FrozenSet[str]] = {
    "trace_start": frozenset({"version"}),
    "run_start": frozenset({"run"}),
    "run_end": frozenset({"final_cost", "iterations"}),
    "phase": frozenset({"iteration", "phase", "sbs", "cost"}),
    "iteration": frozenset({"iteration", "cost"}),
    "privacy": frozenset({"party", "epsilon"}),
    "protocol": frozenset({"event"}),
    "async_update": frozenset({"time", "sbs", "cost"}),
    "slot": frozenset({"slot", "serving_cost"}),
    "sweep_start": frozenset({"name"}),
    "sweep_end": frozenset({"name"}),
    "cell_start": frozenset({"cell", "scheme"}),
    "span": frozenset({"name", "span", "node", "ls", "le"}),
    "proxy": frozenset({"fate"}),
}

#: The known event types (keys of :data:`REQUIRED_FIELDS`).
EVENT_TYPES: FrozenSet[str] = frozenset(REQUIRED_FIELDS)

#: Algorithm 1's iteration counter, by ``run_start.sparse`` (pair layout).
ITERATION_COUNTERS: Dict[bool, str] = {
    False: "algorithm1.iterations",
    True: "algorithm1.sparse_iterations",
}
