"""Dashboard rendering and cross-run regression detection.

Two consumers of the telemetry layer live here:

* :func:`render_dashboard` turns a trace (plus an optional metrics
  registry) into one self-contained static HTML page — convergence
  curves as inline SVG, a per-SBS phase-timing profile, the protocol
  health table and the per-party epsilon ledger.  No external assets,
  no scripts, no timestamps: the page is a deterministic function of
  its inputs, so re-rendering the same trace yields the same bytes.
* :func:`compare_snapshots` diffs two metrics snapshots under
  per-metric relative thresholds and reports every regression — the
  machinery behind ``repro-report regress``, which CI runs against the
  committed ``benchmarks/results/METRICS_baseline.json``.

The comparison is directional: the gated families are all
"higher is worse" quantities (cost, epsilon, iterations, retries,
bytes).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..exceptions import ValidationError
from .metrics import MetricsRegistry
from .recorder import Event
from .trace import RunSummary, summarize_trace

__all__ = [
    "DEFAULT_THRESHOLDS",
    "compare_snapshots",
    "load_snapshot",
    "parse_thresholds",
    "render_dashboard",
]

#: Families gated by default when comparing metrics snapshots, with the
#: relative increase tolerated before a regression is declared.  All are
#: higher-is-worse; timings are deliberately absent (volatile).
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "repro_run_final_cost": 0.0,
    "repro_run_total_epsilon": 0.0,
    "repro_run_iterations": 0.0,
    "repro_run_stale_phases": 0.0,
    "repro_privacy_epsilon_total": 0.0,
    "repro_scheme_cost_total": 0.0,
    "repro_retries_total": 0.0,
    "repro_channel_wire_bytes_total": 0.0,
}


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
def parse_thresholds(spec: str) -> Dict[str, float]:
    """Parse ``name=rel,name=rel`` threshold overrides from the CLI."""
    thresholds: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(
                f"threshold {part!r} is not of the form name=relative_increase"
            )
        name, _, raw = part.partition("=")
        try:
            value = float(raw)
        except ValueError as error:
            raise ValidationError(f"threshold {part!r}: {raw!r} is not a number") from error
        if value < 0:
            raise ValidationError(f"threshold {part!r} must be non-negative")
        thresholds[name.strip()] = value
    return thresholds


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Load one metrics snapshot file (a :meth:`MetricsRegistry.to_json` export)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ValidationError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ValidationError(f"{path}: not valid JSON ({error})") from error
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: snapshot must be a JSON object")
    return payload


def _flatten_metrics(snapshot: Mapping[str, Any]) -> Dict[str, Tuple[str, float]]:
    """``{series_id: (family, value)}`` for every numeric metrics series."""
    flat: Dict[str, Tuple[str, float]] = {}
    families = snapshot.get("families", {})
    for name in sorted(families):
        family = families[name]
        for row in family.get("series", []):
            labels = row.get("labels", {})
            rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            series_id = f"{name}{{{rendered}}}" if rendered else name
            if family.get("kind") == "histogram":
                flat[f"{series_id}:sum"] = (name, float(row.get("sum", 0.0)))
                flat[f"{series_id}:count"] = (name, float(row.get("count", 0)))
            else:
                flat[series_id] = (name, float(row.get("value", 0.0)))
    return flat


def _relative_increase(baseline: float, candidate: float) -> float:
    """Signed relative change, against a unit scale when baseline is 0."""
    scale = abs(baseline) if baseline != 0 else 1.0
    return (candidate - baseline) / scale


def _matching_threshold(
    thresholds: Mapping[str, float], family: str, series_id: str
) -> Optional[float]:
    if series_id in thresholds:
        return thresholds[series_id]
    return thresholds.get(family)


def compare_snapshots(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    thresholds: Optional[Mapping[str, float]] = None,
) -> Tuple[List[str], List[str]]:
    """Regressions (and informational notes) between two metrics snapshots.

    Both arguments are parsed JSON payloads of metrics snapshots
    (``metrics_version``/``families``); anything else is a
    :class:`ValidationError`.  Returns ``(regressions, notes)`` — an
    empty regression list means the candidate is no worse than the
    baseline under ``thresholds`` (:data:`DEFAULT_THRESHOLDS` when
    omitted).
    """
    for label, snapshot in (("baseline", baseline), ("candidate", candidate)):
        if "families" not in snapshot:
            raise ValidationError(f"{label} is not a metrics snapshot (no 'families')")
    gates = dict(DEFAULT_THRESHOLDS if thresholds is None else thresholds)
    base_flat = _flatten_metrics(baseline)
    cand_flat = _flatten_metrics(candidate)
    regressions: List[str] = []
    notes: List[str] = []
    for series_id in sorted(base_flat):
        family, base_value = base_flat[series_id]
        limit = _matching_threshold(gates, family, series_id)
        if limit is None:
            continue
        if series_id not in cand_flat:
            notes.append(f"{series_id}: present in baseline only")
            continue
        cand_value = cand_flat[series_id][1]
        increase = _relative_increase(base_value, cand_value)
        if increase > limit:
            regressions.append(
                f"{series_id}: {base_value:g} -> {cand_value:g} "
                f"(+{100 * increase:.3g}% > {100 * limit:g}% allowed)"
            )
    for series_id in sorted(set(cand_flat) - set(base_flat)):
        family = cand_flat[series_id][0]
        if _matching_threshold(gates, family, series_id) is not None:
            notes.append(f"{series_id}: new in candidate")
    return regressions, notes


# ----------------------------------------------------------------------
# Dashboard rendering
# ----------------------------------------------------------------------
_PAGE_STYLE = """
body { font-family: Georgia, 'Times New Roman', serif; margin: 2rem auto;
       max-width: 64rem; color: #1a1a1a; background: #fbfaf8; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #1a1a1a; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .92rem; }
th, td { border: 1px solid #c8c2b8; padding: .3rem .7rem; text-align: right; }
th { background: #efece6; }
td.k, th.k { text-align: left; }
.note { color: #6b6558; font-size: .88rem; }
svg { background: #ffffff; border: 1px solid #c8c2b8; }
.bar { fill: #5b7b9a; }
pre { background: #f2efe9; border: 1px solid #c8c2b8; padding: .6rem;
      overflow-x: auto; font-size: .8rem; }
"""


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{value:,.6g}"


def _svg_curve(curve: Sequence[float], *, width: int = 560, height: int = 180) -> str:
    """Inline SVG polyline of one convergence curve."""
    if len(curve) < 2:
        return '<p class="note">curve has fewer than two points</p>'
    low, high = min(curve), max(curve)
    span = (high - low) or 1.0
    margin = 12.0
    step = (width - 2 * margin) / (len(curve) - 1)
    points = " ".join(
        f"{margin + i * step:.1f},"
        f"{height - margin - (value - low) / span * (height - 2 * margin):.1f}"
        for i, value in enumerate(curve)
    )
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        'role="img" aria-label="convergence curve">'
        f'<polyline fill="none" stroke="#5b7b9a" stroke-width="2" points="{points}"/>'
        f'<text x="{margin}" y="{margin}" font-size="11" fill="#6b6558">'
        f"max {_fmt(high)}</text>"
        f'<text x="{margin}" y="{height - 2}" font-size="11" fill="#6b6558">'
        f"min {_fmt(low)}</text>"
        "</svg>"
    )


def _timing_profile(events: Sequence[Event]) -> List[Tuple[str, int, float]]:
    """Per-SBS ``(sbs, phases, total_solve_seconds)`` rows, sorted by SBS."""
    totals: Dict[str, Tuple[int, float]] = {}
    for event in events:
        if event.get("type") != "phase" or event.get("solve_seconds") is None:
            continue
        sbs = str(event.get("sbs", "-"))
        count, seconds = totals.get(sbs, (0, 0.0))
        totals[sbs] = (count + 1, seconds + float(event["solve_seconds"]))
    return [(sbs, *totals[sbs]) for sbs in sorted(totals, key=lambda s: (len(s), s))]


def _epsilon_ledger(summaries: Sequence[RunSummary]) -> Dict[str, float]:
    ledger: Dict[str, float] = {}
    for summary in summaries:
        for party, epsilon in summary.epsilon_by_party.items():
            ledger[party] = ledger.get(party, 0.0) + epsilon
    return ledger


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    head = "".join(
        f'<th class="k">{html.escape(h)}</th>' if i == 0 else f"<th>{html.escape(h)}</th>"
        for i, h in enumerate(headers)
    )
    body = []
    for row in rows:
        cells = "".join(
            f'<td class="k">{cell}</td>' if i == 0 else f"<td>{cell}</td>"
            for i, cell in enumerate(row)
        )
        body.append(f"<tr>{cells}</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


def render_dashboard(
    events: List[Event],
    registry: Optional[MetricsRegistry] = None,
    *,
    title: str = "repro run report",
) -> str:
    """One self-contained HTML dashboard for a trace (+ optional metrics).

    Sections: run overview, per-run convergence curve (inline SVG),
    per-SBS phase timing profile (present only when the trace was
    recorded with timings on), protocol health, epsilon ledger, and —
    when a registry is supplied — the full Prometheus-text exposition
    in an appendix.  The output is a pure function of the inputs.
    """
    summaries = summarize_trace(events)
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_PAGE_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    if not summaries:
        parts.append('<p class="note">No runs recorded in this trace.</p>')
    else:
        parts.append("<h2>Run overview</h2>")
        parts.append(
            _table(
                ["run", "iterations", "converged", "final cost", "epsilon",
                 "phases", "retries", "stale"],
                [
                    [
                        html.escape(s.run),
                        str(s.iterations),
                        "—" if s.converged is None else str(bool(s.converged)).lower(),
                        _fmt(s.reported_final_cost),
                        _fmt(s.reported_total_epsilon),
                        str(s.phases),
                        str(s.retries),
                        str(s.stale_phases),
                    ]
                    for s in summaries
                ],
            )
        )
        parts.append("<h2>Convergence</h2>")
        for index, summary in enumerate(summaries):
            curve = summary.convergence_curve
            parts.append(
                f'<p class="k">run {index} ({html.escape(summary.run)}) — '
                f"{len(curve)} points</p>"
            )
            parts.append(_svg_curve(curve))

    timing_rows = _timing_profile(events)
    parts.append("<h2>Phase timing profile</h2>")
    if timing_rows:
        total_seconds = sum(seconds for _, _, seconds in timing_rows) or 1.0
        parts.append(
            _table(
                ["sbs", "phases", "solve seconds", "share"],
                [
                    [
                        html.escape(sbs),
                        str(count),
                        f"{seconds:.6f}",
                        f"{100 * seconds / total_seconds:.1f}%",
                    ]
                    for sbs, count, seconds in timing_rows
                ],
            )
        )
    else:
        parts.append(
            '<p class="note">No solve timings in this trace — record with '
            "timings enabled (the default for <code>obs.recording</code>) "
            "to profile phases.</p>"
        )

    parts.append("<h2>Protocol health</h2>")
    protocol_rows = []
    for index, summary in enumerate(summaries):
        for name, count in sorted(summary.protocol_counts.items()):
            protocol_rows.append([f"run {index} ({html.escape(summary.run)})",
                                  html.escape(name), str(count)])
    if protocol_rows:
        parts.append(_table(["run", "event", "count"], protocol_rows))
    else:
        parts.append(
            '<p class="note">No protocol events — the run saw no retries, '
            "drops, degradations or crashes.</p>"
        )

    parts.append("<h2>Epsilon ledger</h2>")
    ledger = _epsilon_ledger(summaries)
    if ledger:
        parts.append(
            _table(
                ["party", "epsilon booked"],
                [[html.escape(party), _fmt(ledger[party])] for party in sorted(ledger)],
            )
        )
    else:
        parts.append('<p class="note">No privacy releases in this trace.</p>')

    if registry is not None:
        parts.append("<h2>Metrics appendix</h2>")
        parts.append("<details><summary>Prometheus exposition</summary>")
        parts.append(f"<pre>{html.escape(registry.to_prometheus())}</pre></details>")

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
