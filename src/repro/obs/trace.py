"""Reading, summarizing, validating and diffing JSONL run traces.

The writer side (:mod:`repro.obs.recorder`) is deliberately dumb — it
appends whatever the hooks emit.  This module is where trace semantics
live:

* :class:`TraceReader` parses a JSONL file back into event dicts and
  splits them into :class:`RunSegment` brackets (``run_start`` ..
  ``run_end``), handling nesting (an online run contains one inner
  Algorithm 1 run per re-optimized slot) and sweep ``cell`` tags;
* :func:`summarize_run` reconstructs a run's convergence curve, epsilon
  ledger and protocol counters *from the per-step events alone*, next
  to the solver-reported values carried by ``run_end``;
* :func:`validate_events` checks the stream's structural invariants
  (header, contiguous ``seq``, known types, required fields, balanced
  brackets) and the semantic cross-checks — the reconstructed final
  cost, booked epsilon, retry, stale-phase and iteration counts must
  *exactly* equal what the solver reported.  A trace that validates is
  a faithful record of the run;
* :func:`diff_traces` compares two traces run by run, the machinery
  behind ``repro-trace diff``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..exceptions import ValidationError
from .events import ITERATION_COUNTERS, REQUIRED_FIELDS, TRACE_VERSION
from .recorder import Event

__all__ = [
    "TraceReader",
    "RunSegment",
    "RunSummary",
    "summarize_run",
    "summarize_trace",
    "validate_events",
    "diff_traces",
]


class TraceReader:
    """Parse a JSONL trace file into event dicts.

    ``TraceReader(path).events`` is the full stream in file order;
    :meth:`runs` yields the top-level run brackets and :meth:`cells`
    groups events of a sweep trace by their ``cell`` tag.
    """

    def __init__(self, source: Union[str, Path, List[Event]]) -> None:
        if isinstance(source, (str, Path)):
            self.events = self._parse(Path(source))
        else:
            self.events = list(source)

    @staticmethod
    def _parse(path: Path) -> List[Event]:
        events: List[Event] = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ValidationError(
                        f"{path}:{lineno}: not valid JSON ({error})"
                    ) from error
                if not isinstance(event, dict):
                    raise ValidationError(
                        f"{path}:{lineno}: trace lines must be JSON objects"
                    )
                events.append(event)
        return events

    def runs(self) -> List["RunSegment"]:
        """Top-level ``run_start``..``run_end`` brackets, in trace order."""
        return split_runs(self.events)

    def cells(self) -> Dict[str, List[Event]]:
        """Events of a sweep trace grouped by their ``cell`` tag."""
        grouped: Dict[str, List[Event]] = {}
        for event in self.events:
            cell = event.get("cell")
            if cell is not None:
                grouped.setdefault(str(cell), []).append(event)
        return grouped


@dataclasses.dataclass
class RunSegment:
    """One ``run_start``..``run_end`` bracket and everything inside it.

    ``events`` holds the run's *own* events (children's events live on
    the child segments); ``end`` is ``None`` for a truncated trace.
    """

    start: Event
    end: Optional[Event]
    events: List[Event]
    children: List["RunSegment"]

    @property
    def run(self) -> str:
        """The solver kind (``algorithm1`` / ``async`` / ``online``)."""
        return str(self.start.get("run", "?"))

    def own(self, type_: str) -> List[Event]:
        """This segment's own events of one type (children excluded)."""
        return [event for event in self.events if event.get("type") == type_]


def split_runs(events: List[Event]) -> List[RunSegment]:
    """Group a flat stream into (possibly nested) run segments."""
    roots: List[RunSegment] = []
    stack: List[RunSegment] = []
    for event in events:
        kind = event.get("type")
        if kind == "run_start":
            segment = RunSegment(start=event, end=None, events=[], children=[])
            if stack:
                stack[-1].children.append(segment)
            else:
                roots.append(segment)
            stack.append(segment)
        elif kind == "run_end":
            if stack:
                stack[-1].end = event
                stack.pop()
        elif stack:
            stack[-1].events.append(event)
    return roots


@dataclasses.dataclass
class RunSummary:
    """One run's reconstructed trajectory next to the reported outcome.

    ``final_cost`` / ``total_epsilon`` are reconstructed from per-step
    events; the ``reported_*`` twins come from the ``run_end`` event.
    ``repro-trace validate`` asserts the pairs agree exactly.
    """

    run: str
    iterations: int
    converged: Optional[bool]
    final_cost: Optional[float]
    reported_final_cost: Optional[float]
    convergence_curve: List[float]
    epsilon_by_party: Dict[str, float]
    total_epsilon: Optional[float]
    reported_total_epsilon: Optional[float]
    releases: int
    phases: int
    retries: int
    stale_phases: int
    protocol_counts: Dict[str, int]
    dual_gap_final: Optional[float]

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"run: {self.run}",
            f"  iterations: {self.iterations}"
            + (f" (converged={self.converged})" if self.converged is not None else ""),
            f"  final cost: {self.final_cost!r} "
            f"(reported {self.reported_final_cost!r})",
        ]
        if self.convergence_curve:
            head = ", ".join(f"{cost:.6g}" for cost in self.convergence_curve[:8])
            suffix = ", ..." if len(self.convergence_curve) > 8 else ""
            lines.append(f"  cost curve: [{head}{suffix}]")
        if self.dual_gap_final is not None:
            lines.append(f"  final max subproblem duality gap: {self.dual_gap_final:.6g}")
        if self.releases or self.total_epsilon is not None:
            lines.append(
                f"  privacy: {self.releases} releases, composed epsilon "
                f"{self.total_epsilon!r} (reported {self.reported_total_epsilon!r})"
            )
        lines.append(
            f"  protocol: {self.phases} phases, {self.retries} retries, "
            f"{self.stale_phases} stale phases"
        )
        if self.protocol_counts:
            detail = ", ".join(
                f"{name}={count}" for name, count in sorted(self.protocol_counts.items())
            )
            lines.append(f"  protocol events: {detail}")
        return "\n".join(lines)


def _reconstruct_epsilon(segment: RunSegment) -> Tuple[Dict[str, float], Optional[float]]:
    """Per-party epsilon ledger and the composed per-party guarantee.

    Mirrors :meth:`repro.core.distributed.DistributedResult.total_epsilon`:
    basic composition per party, the max over parties being the run's
    guarantee.  Online runs compose per *inner* run (each slot books its
    own accountant), so their total is the sum of the children's; async
    runs report one global accumulator, so their total sums every
    release in emission order (bit-for-bit the solver's own addition
    order, keeping the exact cross-check meaningful).
    """
    ledger: Dict[str, float] = {}
    for event in segment.own("privacy"):
        party = str(event["party"])
        ledger[party] = ledger.get(party, 0.0) + float(event["epsilon"])
    if segment.run == "async":
        releases = segment.own("privacy")
        if not releases:
            return ledger, None
        total = 0.0
        for event in releases:
            total += float(event["epsilon"])
        return ledger, total
    if segment.run == "online":
        child_totals = [
            total
            for _, total in (_reconstruct_epsilon(child) for child in segment.children)
            if total is not None
        ]
        return ledger, (sum(child_totals) if child_totals else None)
    if not ledger:
        return ledger, None
    return ledger, max(ledger.values())


def _reconstruct_curve(segment: RunSegment) -> List[float]:
    """Per-iteration cost trajectory appropriate to the run kind."""
    if segment.run == "async":
        return [float(event["cost"]) for event in segment.own("async_update")]
    if segment.run == "online":
        return [
            float(event["serving_cost"]) + float(event.get("switch_cost", 0.0))
            for event in segment.own("slot")
        ]
    return [float(event["cost"]) for event in segment.own("iteration")]


def summarize_run(segment: RunSegment) -> RunSummary:
    """Reconstruct one run's summary from its event stream."""
    curve = _reconstruct_curve(segment)
    phases = segment.own("phase")
    protocol = segment.own("protocol")
    ledger, total_epsilon = _reconstruct_epsilon(segment)
    end = segment.end or {}
    if segment.run == "online":
        final_cost: Optional[float] = sum(curve) if curve else None
    else:
        final_cost = curve[-1] if curve else None
    counts: Dict[str, int] = {}
    for event in protocol:
        name = str(event.get("event", "?"))
        counts[name] = counts.get(name, 0) + 1
    gaps = [
        float(event["dual_gap_max"])
        for event in segment.own("iteration")
        if event.get("dual_gap_max") is not None
    ]
    reported_epsilon = end.get("total_epsilon")
    return RunSummary(
        run=segment.run,
        iterations=int(end.get("iterations", len(curve))),
        converged=end.get("converged"),
        final_cost=final_cost,
        reported_final_cost=(
            float(end["final_cost"]) if "final_cost" in end else None
        ),
        convergence_curve=curve,
        epsilon_by_party=ledger,
        total_epsilon=total_epsilon,
        reported_total_epsilon=(
            None if reported_epsilon is None else float(reported_epsilon)
        ),
        releases=len(segment.own("privacy")),
        phases=len(phases),
        retries=counts.get("retry", 0),
        stale_phases=sum(1 for event in phases if event.get("stale")),
        protocol_counts=counts,
        dual_gap_final=(gaps[-1] if gaps else None),
    )


def _walk(segments: List[RunSegment]) -> Iterator[RunSegment]:
    for segment in segments:
        yield segment
        yield from _walk(segment.children)


def summarize_trace(events: List[Event]) -> List[RunSummary]:
    """Summaries for every run in the trace (nested runs included)."""
    return [summarize_run(segment) for segment in _walk(split_runs(events))]


def _check_structure(events: List[Event]) -> List[str]:
    issues: List[str] = []
    if not events:
        return ["trace is empty"]
    head = events[0]
    if head.get("type") != "trace_start":
        issues.append("first event is not a trace_start header")
    elif head.get("version") != TRACE_VERSION:
        issues.append(
            f"unsupported trace version {head.get('version')!r} "
            f"(this reader understands {TRACE_VERSION})"
        )
    expected_seq = 0
    for index, event in enumerate(events):
        kind = event.get("type")
        if kind not in REQUIRED_FIELDS:
            issues.append(f"event {index}: unknown type {kind!r}")
            continue
        missing = sorted(REQUIRED_FIELDS[kind] - set(event))
        if missing:
            issues.append(f"event {index} ({kind}): missing fields {missing}")
        if "seq" in event:
            if int(event["seq"]) != expected_seq:
                issues.append(
                    f"event {index}: seq {event['seq']} is not contiguous "
                    f"(expected {expected_seq})"
                )
            expected_seq = int(event["seq"]) + 1
    depth = 0
    for index, event in enumerate(events):
        if event.get("type") == "run_start":
            depth += 1
        elif event.get("type") == "run_end":
            depth -= 1
            if depth < 0:
                issues.append(f"event {index}: run_end without a matching run_start")
                depth = 0
    if depth > 0:
        issues.append(f"{depth} run_start event(s) never closed by a run_end")
    return issues


def _check_run(segment: RunSegment, issues: List[str]) -> None:
    label = f"run {segment.run!r}"
    summary = summarize_run(segment)
    if segment.end is None:
        issues.append(f"{label}: truncated (no run_end)")
        return
    # Per-iteration events must agree with the last phase of the same
    # iteration: both snapshots are evaluated on the identical reports
    # state, so even the float bits must match.
    phases_by_iteration: Dict[int, Event] = {}
    for event in segment.own("phase"):
        phases_by_iteration[int(event["iteration"])] = event  # keeps the last
    for event in segment.own("iteration"):
        iteration = int(event["iteration"])
        phase = phases_by_iteration.get(iteration)
        if phase is not None and float(phase["cost"]) != float(event["cost"]):
            issues.append(
                f"{label}: iteration {iteration} cost {event['cost']!r} does not "
                f"match its last phase cost {phase['cost']!r}"
            )
    if summary.final_cost is not None and summary.reported_final_cost is not None:
        if summary.final_cost != summary.reported_final_cost:
            issues.append(
                f"{label}: reconstructed final cost {summary.final_cost!r} != "
                f"reported {summary.reported_final_cost!r}"
            )
    if summary.reported_total_epsilon is not None:
        if summary.total_epsilon != summary.reported_total_epsilon:
            issues.append(
                f"{label}: reconstructed per-party epsilon {summary.total_epsilon!r} "
                f"!= reported {summary.reported_total_epsilon!r}"
            )
    if segment.run == "online" and bool(segment.start.get("private")):
        # Ledger completeness: every slot of a private online run that
        # re-optimized must have booked its budget.  A child run with a
        # None ledger is exactly the slot `simulate_online` would have
        # silently dropped from the composed epsilon.
        for child_index, child in enumerate(segment.children):
            child_summary = summarize_run(child)
            if child_summary.reported_total_epsilon is None:
                issues.append(
                    f"{label}: private run but child run {child_index} "
                    f"({child.run!r}) reports no epsilon ledger "
                    "(total_epsilon is None); the composed budget is incomplete"
                )
            elif child_summary.releases == 0 and child_summary.reported_total_epsilon > 0:
                issues.append(
                    f"{label}: child run {child_index} ({child.run!r}) reports "
                    f"epsilon {child_summary.reported_total_epsilon!r} without any "
                    "privacy release events"
                )
    reported_retries = segment.end.get("total_retries")
    if reported_retries is not None and int(reported_retries) != summary.retries:
        issues.append(
            f"{label}: {summary.retries} retry events but run_end reports "
            f"{reported_retries} retransmissions"
        )
    reported_stale = segment.end.get("stale_phases")
    if reported_stale is not None and int(reported_stale) != summary.stale_phases:
        issues.append(
            f"{label}: {summary.stale_phases} stale phase events but run_end "
            f"reports {reported_stale}"
        )
    counters, iterations = segment.end.get("counters"), segment.end.get("iterations")
    name = ITERATION_COUNTERS[bool(segment.start.get("sparse"))]
    if isinstance(counters, dict) and counters.get(name, 0) != iterations:
        issues.append(f"{label}: counter {name} is {counters.get(name, 0)}, not {iterations}")


def validate_events(events: List[Event]) -> List[str]:
    """Every structural and semantic problem found in the stream.

    An empty return value means the trace is well-formed *and* its
    reconstructed trajectory, epsilon ledger and protocol counters agree
    exactly with the solver-reported outcome.
    """
    issues = _check_structure(events)
    for segment in _walk(split_runs(events)):
        _check_run(segment, issues)
    return issues


#: Event fields masked from :func:`diff_traces` unless ``strict_timings``:
#: exact-name matches plus any key containing ``seconds``.  These are
#: wall-clock (or wall-clock-derived resource) measurements, legitimately
#: different between two otherwise identical ``timings=True`` runs.
_VOLATILE_EVENT_KEYS = frozenset({"t0", "t1", "time_seconds", "rss_peak_kb"})


def _mask_event(event: Event) -> Event:
    """Event copy with writer artifacts and wall-clock fields removed."""
    return {
        key: value
        for key, value in event.items()
        if key != "seq"
        and key not in _VOLATILE_EVENT_KEYS
        and "seconds" not in key
    }


def _values_match(x: Any, y: Any, tolerance: float) -> bool:
    """Deep equality with ``tolerance`` slack on numeric leaves."""
    if isinstance(x, bool) or isinstance(y, bool):
        return x == y
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return abs(float(x) - float(y)) <= tolerance
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(
            _values_match(x[key], y[key], tolerance) for key in x
        )
    if isinstance(x, (list, tuple)) and isinstance(y, (list, tuple)):
        return len(x) == len(y) and all(
            _values_match(xi, yi, tolerance) for xi, yi in zip(x, y)
        )
    return bool(x == y)


def _diff_events(
    a: List[Event],
    b: List[Event],
    *,
    tolerance: float,
    strict_timings: bool,
    limit: int = 5,
) -> List[str]:
    """Event-by-event differences, wall-clock fields masked by default."""
    differences: List[str] = []
    if len(a) != len(b):
        differences.append(f"event count: {len(a)} vs {len(b)}")
    mask = (lambda event: {k: v for k, v in event.items() if k != "seq"}) if (
        strict_timings
    ) else _mask_event
    shown = 0
    for index, (left, right) in enumerate(zip(a, b)):
        x, y = mask(left), mask(right)
        if _values_match(x, y, tolerance):
            continue
        if shown < limit:
            keys = sorted(
                key
                for key in x.keys() | y.keys()
                if not _values_match(x.get(key), y.get(key), tolerance)
            )
            differences.append(
                f"event[{index}] ({left.get('type', '?')}): fields differ "
                f"({', '.join(keys)})"
            )
        shown += 1
    if shown > limit:
        differences.append(f"... and {shown - limit} more differing events")
    return differences


def diff_traces(
    a: List[Event],
    b: List[Event],
    *,
    tolerance: float = 0.0,
    strict_timings: bool = False,
) -> List[str]:
    """Differences between two traces, run by run and event by event.

    Compares run kinds, iteration counts, convergence curves (point by
    point, up to ``tolerance``), epsilon ledgers and protocol counters,
    then the raw event streams.  Wall-clock fields (``*seconds*``,
    span ``t0``/``t1``, resource attributes) are masked from the
    event-level comparison unless ``strict_timings=True`` — two
    ``timings=True`` recordings of the same seeded run legitimately
    disagree only on those.  An empty list means the traces tell the
    same story.
    """
    differences: List[str] = []
    runs_a = [summarize_run(segment) for segment in _walk(split_runs(a))]
    runs_b = [summarize_run(segment) for segment in _walk(split_runs(b))]
    if len(runs_a) != len(runs_b):
        differences.append(f"run count: {len(runs_a)} vs {len(runs_b)}")
    for index, (left, right) in enumerate(zip(runs_a, runs_b)):
        tag = f"run[{index}] ({left.run})"
        if left.run != right.run:
            differences.append(f"{tag}: kind {left.run} vs {right.run}")
            continue
        if left.iterations != right.iterations:
            differences.append(
                f"{tag}: iterations {left.iterations} vs {right.iterations}"
            )
        for name, x, y in (
            ("final cost", left.final_cost, right.final_cost),
            ("total epsilon", left.total_epsilon, right.total_epsilon),
        ):
            if (x is None) != (y is None):
                differences.append(f"{tag}: {name} {x!r} vs {y!r}")
            elif x is not None and y is not None and abs(x - y) > tolerance:
                differences.append(f"{tag}: {name} {x!r} vs {y!r}")
        curve_a, curve_b = left.convergence_curve, right.convergence_curve
        if len(curve_a) != len(curve_b):
            differences.append(
                f"{tag}: curve length {len(curve_a)} vs {len(curve_b)}"
            )
        else:
            worst = max(
                (abs(x - y) for x, y in zip(curve_a, curve_b)), default=0.0
            )
            if worst > tolerance:
                differences.append(f"{tag}: curves diverge (max |delta| {worst:.6g})")
        if left.protocol_counts != right.protocol_counts:
            differences.append(
                f"{tag}: protocol events {left.protocol_counts} vs "
                f"{right.protocol_counts}"
            )
        if left.epsilon_by_party != right.epsilon_by_party and tolerance <= 0:
            differences.append(f"{tag}: epsilon ledgers differ")
    differences.extend(
        _diff_events(a, b, tolerance=tolerance, strict_timings=strict_timings)
    )
    return differences
