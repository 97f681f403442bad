"""Command-line interface for the ``repro-lint`` invariant linter.

Usage (also available as ``python -m repro.analysis``)::

    repro-lint [PATH ...]                 # lint (default: src)
    repro-lint --list-rules               # rule catalogue
    repro-lint src --format json          # machine-readable output
    repro-lint src --select REPRO201      # run a subset of rules
    repro-lint src --update-baseline      # grandfather current findings

Exit codes: ``0`` no (non-baselined) findings, ``1`` findings reported,
``2`` usage error (unknown rule, missing path, bad baseline file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import DEFAULT_BASELINE_NAME, load_baseline, partition_findings, write_baseline
from .engine import LintError, lint_paths
from .reporters import render_json, render_sarif, render_text
from .rules import all_rules

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the repro codebase "
        "(determinism, DP-noise provenance, numerical safety, "
        "API hygiene).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--warn-unused-pragmas",
        dest="warn_unused",
        action="store_true",
        default=True,
        help="report suppression pragmas that suppress nothing as "
        "REPRO502 findings (default; only effective when the full "
        "rule set runs)",
    )
    parser.add_argument(
        "--no-warn-unused-pragmas",
        dest="warn_unused",
        action="store_false",
        help="do not report unused suppression pragmas",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="only run these rules (name or code; repeatable/comma-separated)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rules (name or code; repeatable/comma-separated)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=f"baseline file for grandfathered findings "
        f"(default: {DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule count summary to the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_rule_args(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    return [part.strip() for value in values for part in value.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:28s} {rule.summary}")
        return 0

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)
    select = _split_rule_args(args.select)
    ignore = _split_rule_args(args.ignore)
    # Unused-pragma detection is only meaningful against the full rule
    # set: a pragma for a deselected rule is not "unused", it was never
    # given the chance to fire.
    warn_unused = args.warn_unused and not select and not ignore
    try:
        findings, files_checked = lint_paths(
            args.paths,
            select=select,
            ignore=ignore,
            warn_unused=warn_unused,
        )
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        # Unused pragmas are never grandfathered: the fix is deleting a
        # comment, not carrying debt.
        count = write_baseline(
            baseline_path, [f for f in findings if f.code != "REPRO502"]
        )
        print(f"wrote {count} fingerprint(s) to {baseline_path}")
        return 0

    grandfathered = 0
    if baseline_path.exists():
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
        findings, old = partition_findings(findings, baseline)
        grandfathered = len(old)

    if args.format == "json":
        print(render_json(findings, files_checked=files_checked, grandfathered=grandfathered))
    elif args.format == "sarif":
        descriptions = {rule.code: rule.summary for rule in all_rules()}
        print(render_sarif(findings, tool_name="repro-lint", rule_descriptions=descriptions))
    else:
        print(
            render_text(
                findings,
                files_checked=files_checked,
                grandfathered=grandfathered,
                statistics=args.statistics,
            )
        )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
