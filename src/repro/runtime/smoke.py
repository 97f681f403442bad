"""CI smoke driver for the socket runtime: ``python -m repro.runtime.smoke``.

Three checks, exercised by the ``e2e-smoke`` CI job:

* ``faultfree`` — solve each of three 3-SBS instances (the smoke
  instance, a densified small city, whose mostly-zero frames exercise
  the sparse wire payload, and the same city left sparse, whose frames
  are pair vectors) twice, once over sockets and once with the
  in-process simulator (quiet ``FaultConfig``), and demand
  **bit-identical** traces (byte comparison plus ``repro-trace diff``
  for a readable report on divergence) and identical solutions;
* ``chaos`` — run the same instance through the chaos proxy on a fixed
  seed (drops, duplicates, delays, reordering, truncation, one crash
  window) and demand that the run still converges and that the trace
  passes every ``repro-trace validate`` invariant;
* ``timeline`` — span-enabled runs: two fault-free ``spans=True,
  timings=False`` runs must produce byte-identical traces with a
  well-formed merged span tree (single root, no orphans, no cycles),
  then a timed chaos run renders the per-node Gantt SVG and the
  critical-path attribution JSON as CI artifacts, gating that the
  critical path covers the root span's wall-clock within 5%.

All exit nonzero on failure, so the jobs gate merges.  The instance is
deterministic (fixed generator seed) and small enough to finish in
seconds.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .. import obs
from ..core.distributed import DistributedConfig, solve_distributed
from ..core.layout import Instance
from ..core.problem import ProblemInstance
from ..network.faults import FaultConfig, FaultSchedule, LinkFaultProfile
from ..obs.cli import main as trace_cli
from ..obs.span_analysis import check_spans, critical_path
from ..obs.trace import TraceReader
from ..workload.cityscale import generate_city_instance
from .config import RuntimeConfig
from .server import solve_over_sockets

__all__ = ["main", "smoke_problem", "faultfree_problems", "chaos_plan"]

#: Instance size used by the smoke checks (3 SBSs, 50 files).
NUM_SBS = 3
NUM_GROUPS = 4
NUM_FILES = 50


def smoke_problem(seed: int = 2024) -> ProblemInstance:
    """The deterministic 3-SBS / 50-file instance the smoke checks solve."""
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.0, 5.0, size=(NUM_GROUPS, NUM_FILES))
    connectivity = (rng.uniform(size=(NUM_SBS, NUM_GROUPS)) < 0.7).astype(float)
    for n in range(NUM_SBS):
        if connectivity[n].sum() == 0:
            connectivity[n, int(rng.integers(NUM_GROUPS))] = 1.0
    return ProblemInstance(
        demand=demand,
        connectivity=connectivity,
        cache_capacity=np.full(NUM_SBS, float(NUM_FILES // 5)),
        bandwidth=np.full(NUM_SBS, demand.sum() / (2.0 * NUM_SBS)),
        sbs_cost=rng.uniform(0.5, 2.0, size=(NUM_SBS, NUM_GROUPS)),
        bs_cost=rng.uniform(50.0, 100.0, size=NUM_GROUPS),
    )


def faultfree_problems() -> Dict[str, Instance]:
    """The instances ``faultfree`` solves both ways, by trace-file label.

    ``smoke`` is :func:`smoke_problem`; ``city`` is a densified small
    city instance whose blocks are mostly zero, so its frames take the
    sparse path of the wire's array payload; ``city-sparse`` is the same
    city left sparse, so its frames carry pair vectors.
    """
    city = generate_city_instance(NUM_SBS, 8, 60, rng=1)
    return {"smoke": smoke_problem(), "city": city.to_dense(), "city-sparse": city}


def _same_solution(first: Any, second: Any) -> bool:
    """Equal caching and routing arrays, dense or per-SBS pair vectors."""
    for field in ("caching", "routing"):
        ours, theirs = getattr(first, field), getattr(second, field)
        if len(ours) != len(theirs) or not all(map(np.array_equal, ours, theirs)):
            return False
    return True


def _config() -> DistributedConfig:
    return DistributedConfig(max_iterations=8)


def _record(path: Path, runner: Callable[[], object]) -> object:
    with obs.recording(path, timings=False):
        return runner()


def _cmd_faultfree(args: argparse.Namespace) -> int:
    config = _config()
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="runtime-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for label, problem in faultfree_problems().items():
        socket_trace = workdir / f"socket-{label}.jsonl"
        sim_trace = workdir / f"inprocess-{label}.jsonl"
        result_socket, _report = _record(
            socket_trace,
            lambda: solve_over_sockets(
                problem, config, runtime=RuntimeConfig(mode=args.mode)
            ),
        )
        result_sim = _record(
            sim_trace,
            lambda: solve_distributed(problem, config, faults=FaultConfig()),
        )
        print(
            f"{label}: socket cost={result_socket.cost:.6f} "
            f"iterations={result_socket.iterations} | in-process "
            f"cost={result_sim.cost:.6f} iterations={result_sim.iterations}"
        )
        if not _same_solution(result_socket.solution, result_sim.solution):
            print(f"FAIL: {label}: socket and in-process solutions differ", file=sys.stderr)
            failures += 1
        if filecmp.cmp(socket_trace, sim_trace, shallow=False):
            print(f"traces byte-identical: {socket_trace} == {sim_trace}")
        else:
            print(f"FAIL: {label}: traces differ — repro-trace diff follows", file=sys.stderr)
            trace_cli(["diff", str(socket_trace), str(sim_trace)])
            failures += 1
    return 1 if failures else 0


def chaos_plan(seed: int) -> FaultConfig:
    """The fixed chaos mix of the smoke checks and the span tests."""
    return FaultConfig(
        default=LinkFaultProfile(
            drop=0.08, duplicate=0.05, delay=0.08, reorder=0.05, truncate=0.04
        ),
        schedule=FaultSchedule().crash_sbs(1, at=1, recover_at=2),
        seed=seed,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    problem = smoke_problem()
    config = _config()
    runtime = RuntimeConfig(
        faults=chaos_plan(args.seed), ack_timeout=0.1, phase_deadline=10.0
    )
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="runtime-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    trace = workdir / "chaos.jsonl"
    (result, report) = _record(
        trace, lambda: solve_over_sockets(problem, config, runtime=runtime)
    )
    print(
        f"chaos: cost={result.cost:.6f} converged={result.converged} "
        f"stale={result.stale_phases} retries={result.total_retries}"
    )
    print(f"proxy ledger: {json.dumps(report.proxy, sort_keys=True)}")
    failures = 0
    if not result.converged:
        print("FAIL: chaos run did not converge", file=sys.stderr)
        failures += 1
    if trace_cli(["validate", str(trace)]) != 0:
        failures += 1
    return 1 if failures else 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    problem = smoke_problem()
    config = _config()
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="runtime-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0

    # 1) Span determinism + well-formedness: two fault-free runs with
    # spans on and timings off must be byte-identical, and their merged
    # span tree must have one root, no orphans and no cycles.
    first = workdir / f"spans-{args.mode}-a.jsonl"
    second = workdir / f"spans-{args.mode}-b.jsonl"
    for path in (first, second):
        with obs.recording(path, timings=False, spans=True):
            solve_over_sockets(
                problem, config, runtime=RuntimeConfig(mode=args.mode)
            )
    if filecmp.cmp(first, second, shallow=False):
        print(f"span traces byte-identical: {first} == {second}")
    else:
        print(
            "FAIL: span-enabled traces differ across identical runs",
            file=sys.stderr,
        )
        trace_cli(["diff", str(first), str(second), "--strict-timings"])
        failures += 1
    issues = check_spans(TraceReader(str(first)).events)
    if issues:
        for issue in issues:
            print(f"FAIL: malformed span tree: {issue}", file=sys.stderr)
        failures += 1
    else:
        print("span tree well-formed (single root, no orphans, no cycles)")

    # 2) Timed chaos run: render the Gantt SVG and the critical-path
    # attribution JSON (the CI job uploads both as artifacts).
    runtime = RuntimeConfig(
        mode=args.mode,
        faults=chaos_plan(args.seed),
        ack_timeout=0.1,
        phase_deadline=10.0,
    )
    trace = workdir / f"timeline-{args.mode}.jsonl"
    with obs.recording(trace, timings=True, spans=True):
        result, _report = solve_over_sockets(problem, config, runtime=runtime)
    if not result.converged:
        print("FAIL: chaos timeline run did not converge", file=sys.stderr)
        failures += 1
    events = TraceReader(str(trace)).events
    chaos_issues = check_spans(events)
    if chaos_issues:
        for issue in chaos_issues:
            print(f"FAIL: malformed chaos span tree: {issue}", file=sys.stderr)
        failures += 1
    svg = workdir / f"timeline-{args.mode}.svg"
    if trace_cli(["timeline", str(trace), "--out", str(svg)]) != 0:
        failures += 1
    report = critical_path(events)
    path_json = workdir / f"critical-path-{args.mode}.json"
    path_json.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path_json}")
    roots = [
        event
        for event in events
        if event.get("type") == "span" and event.get("parent") is None
    ]
    if report["basis"] == "wall" and roots and "seconds" in roots[0]:
        root_seconds = float(roots[0]["seconds"])
        error = abs(report["total"] - root_seconds) / max(root_seconds, 1e-12)
        print(
            f"critical path covers {report['total']:.4f}s of the root span's "
            f"{root_seconds:.4f}s ({100.0 * error:.2f}% error)"
        )
        if error > 0.05:
            print(
                "FAIL: critical path does not sum to the run wall-clock "
                "within 5%",
                file=sys.stderr,
            )
            failures += 1
    else:
        print("FAIL: timed run produced no wall-basis root span", file=sys.stderr)
        failures += 1
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-runtime-smoke",
        description="Socket-runtime smoke checks (bit-identity and chaos).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    faultfree = subparsers.add_parser(
        "faultfree", help="socket run must bit-match the in-process simulation"
    )
    faultfree.add_argument(
        "--mode", choices=("tasks", "processes"), default="tasks"
    )
    faultfree.add_argument("--workdir", default=None, help="keep traces here")
    faultfree.set_defaults(func=_cmd_faultfree)

    chaos = subparsers.add_parser(
        "chaos", help="seeded chaos run must converge and validate"
    )
    chaos.add_argument("--seed", type=int, default=3)
    chaos.add_argument("--workdir", default=None, help="keep traces here")
    chaos.set_defaults(func=_cmd_chaos)

    timeline = subparsers.add_parser(
        "timeline",
        help="span determinism + Gantt/critical-path rendering for a chaos run",
    )
    timeline.add_argument(
        "--mode", choices=("tasks", "processes"), default="tasks"
    )
    timeline.add_argument("--seed", type=int, default=3)
    timeline.add_argument("--workdir", default=None, help="keep artifacts here")
    timeline.set_defaults(func=_cmd_timeline)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
