"""Command-line entry point: ``repro-report <subcommand> ...``.

Three subcommands on top of the telemetry layer::

    repro-report render trace.jsonl --out report.html
    repro-report metrics trace.jsonl [--format json|prom] [--deterministic]
    repro-report regress baseline.json candidate.json [--thresholds a=0.01,b=0]

``render`` writes the self-contained HTML dashboard (convergence
curves, phase timing profile, protocol health, epsilon ledger) derived
from a trace.  ``metrics`` materializes the trace's metrics snapshot —
the same bytes a live :func:`repro.obs.metering` run would export —
as JSON or Prometheus text; ``--deterministic`` drops the wall-clock
``*seconds*`` families so the output can serve as a byte-comparable
baseline.  ``regress`` compares two metrics snapshots and exits nonzero
on any regression — the CI end-to-end smoke job gates on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from ..exceptions import ValidationError
from .derive import derive_metrics
from .report import compare_snapshots, load_snapshot, parse_thresholds, render_dashboard
from .trace import TraceReader

__all__ = ["main"]


def _read_trace(path: str) -> TraceReader:
    try:
        return TraceReader(path)
    except OSError as error:
        raise SystemExit(f"repro-report: cannot read {path}: {error}")
    except ValidationError as error:
        raise SystemExit(f"repro-report: {error}")


def _cmd_render(args: argparse.Namespace) -> int:
    reader = _read_trace(args.trace)
    registry = derive_metrics(reader.events)
    page = render_dashboard(reader.events, registry, title=args.title)
    out = Path(args.out)
    out.write_text(page, encoding="utf-8")
    print(f"wrote {out} ({len(page)} bytes, {len(reader.events)} events)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    reader = _read_trace(args.trace)
    registry = derive_metrics(reader.events)
    if args.format == "prom":
        rendered = registry.to_prometheus()
    else:
        rendered = registry.to_json(deterministic_only=args.deterministic)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    try:
        baseline = load_snapshot(args.baseline)
        candidate = load_snapshot(args.candidate)
        thresholds = parse_thresholds(args.thresholds) if args.thresholds else None
        regressions, notes = compare_snapshots(baseline, candidate, thresholds)
    except ValidationError as error:
        print(f"repro-report: {error}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"NOTE: {note}")
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}")
        print(
            f"{len(regressions)} regression(s): {args.candidate} is worse "
            f"than {args.baseline}"
        )
        return 1
    print(f"OK: {args.candidate} is no worse than {args.baseline}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Render telemetry dashboards and gate cross-run regressions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    render = subparsers.add_parser(
        "render", help="render a trace as a self-contained HTML dashboard"
    )
    render.add_argument("trace", help="path to a JSONL trace")
    render.add_argument(
        "--out", default="report.html", metavar="PATH", help="output HTML file"
    )
    render.add_argument(
        "--title", default="repro run report", help="page title of the dashboard"
    )
    render.set_defaults(handler=_cmd_render)

    metrics = subparsers.add_parser(
        "metrics", help="derive a metrics snapshot from a trace, offline"
    )
    metrics.add_argument("trace", help="path to a JSONL trace")
    metrics.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="snapshot encoding (default: json)",
    )
    metrics.add_argument(
        "--deterministic",
        action="store_true",
        help="drop wall-clock *seconds* families (byte-comparable baseline)",
    )
    metrics.add_argument(
        "--out", default=None, metavar="PATH", help="write to a file instead of stdout"
    )
    metrics.set_defaults(handler=_cmd_metrics)

    regress = subparsers.add_parser(
        "regress", help="compare two snapshots; exit nonzero on regression"
    )
    regress.add_argument("baseline", help="baseline metrics snapshot (json)")
    regress.add_argument("candidate", help="candidate metrics snapshot (json)")
    regress.add_argument(
        "--thresholds",
        default=None,
        metavar="NAME=REL,...",
        help="per-metric relative increase tolerated before failing "
        "(default: the built-in higher-is-worse families, exact)",
    )
    regress.set_defaults(handler=_cmd_regress)

    args = parser.parse_args(argv)
    result: int = args.handler(args)
    return result


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
