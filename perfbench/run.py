"""Algorithm 1 benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper-lppm --seed 1 --seconds 30 --trace 0

One caller in this process issues solves back to back (a closed loop)
for ``--seconds`` seconds, checks every solve (see ``perfbench/gate.py``)
and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half the time runs untraced and half traced, and the metrics are the
per-layer ones.  The end-to-end times are divided by host factors (see
``perfbench/host.py``).  The line before the result records the host
(``nproc``, the pinned thread pools, the host factors, the raw times),
the import time and figures that are not metrics of every workload.
The exit code is nonzero when any check failed.

``perfbench/README.md`` lists the workloads, the metrics and the layer
each per-layer metric belongs to.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

# One thread per BLAS/OpenMP pool, set before numpy loads: the closed
# loop's single caller then never runs more threads than it asked for.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import obs, perf  # noqa: E402

from perfbench import gate, host, layers  # noqa: E402
from perfbench.workloads import WORKLOADS, Item, Workload  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

#: Gain claims must also hold on this seed; it is not used while tuning.
HELD_OUT_SEED = 20201

END_TO_END_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_s_p50": "s",
    "iterations": "count",
    "cost_vs_bs_only": "ratio",
    "offload_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "workload.build_s": "s",
    "subproblem.calls": "count/solve",
    "subproblem.busy_s": "s/solve",
    "subproblem.subgradient_iters": "count/solve",
    "knapsack.batched_rows": "count/solve",
    "knapsack.batches": "count/solve",
    "privacy.perturb_calls": "count/solve",
    "privacy.perturb_busy_s": "s/solve",
    "privacy.noise_elems": "count/solve",
    "privacy.cost_ratio": "ratio",
    "distributed.phases": "count/solve",
    "distributed.messages": "count/solve",
    "distributed.channel_mb": "MB/solve",
    "distributed.stale_phases": "count/solve",
    "distributed.bs_busy_s": "s/solve",
    "distributed.driver_self_s": "s/solve",
    "sparse.sub_instance_calls": "count/solve",
    "sparse.sub_instance_busy_s": "s/solve",
    "sparse.driver_self_s": "s/solve",
    "sparse.block_fill_ratio": "ratio",
    "runtime.driver_self_s": "s/solve",
    "wire.frames": "count/solve",
    "wire.bytes": "B/solve",
    "wire.encode_busy_s": "s/solve",
    "wire.decode_busy_s": "s/solve",
    "critical_path.solve_s": "s/solve",
    "critical_path.network_s": "s/solve",
    "critical_path.aggregate_s": "s/solve",
    "critical_path.broadcast_s": "s/solve",
    "critical_path.driver_s": "s/solve",
    "obs.trace_overhead_ratio": "ratio",
}


class Tally:
    """What a closed loop saw: wall times, quality rows, failures and host probes."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.quality: List[Dict[str, float]] = []
        self.failed = 0
        self.probes: List[float] = []

    def probe(self) -> None:
        """Time one host calibration pass, outside any timed call."""
        self.probes.append(host.probe_once())

    def fail(self, what: str) -> None:
        """Count one failed solve and say why on stderr."""
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)


def set_up(
    workload: Workload, seed: int
) -> Tuple[List[Item], Dict[int, str], List[float], List[float], Tally]:
    """Build the pool, do the reference work and one warm-up solve, several times.

    Repetition ``r`` warms up on pool item ``r``: the median set-up then
    does not hang on how fast one item happens to converge.  Returns the
    last pool, the warm-up solves' fingerprints (a timed solve of the
    same item, from the last pool, must reproduce them), the set-up and
    build seconds of each repetition, and the warm-ups' check outcome
    with a host probe after each repetition.
    """
    setup_s: List[float] = []
    build_s: List[float] = []
    checks = Tally()
    seen: Dict[int, str] = {}
    for rep in range(workload.setup_reps):
        started = time.perf_counter()
        items = workload.build(seed)
        built = time.perf_counter()
        workload.prepare(items)
        item = items[rep % len(items)]
        warm = workload.solve(item)
        setup_s.append(time.perf_counter() - started)
        build_s.append(built - started)
        checks.probe()
        for problem in workload.check(item, warm):
            checks.fail(f"warm-up of item {item.key}: {problem}")
        digest = gate.fingerprint(warm)
        if seen.setdefault(item.key, digest) != digest:
            checks.fail(f"warm-up of item {item.key}: repeated set-up gave a different solve")
    return items, seen, setup_s, build_s, checks


def closed_loop(
    workload: Workload,
    items: List[Item],
    seconds: float,
    seen: Dict[int, str],
    *,
    min_solves: int = 1,
    solve: Optional[Callable[[Item], Any]] = None,
    after_solve: Optional[Callable[[Item, Any, float], None]] = None,
) -> Tally:
    """Solve pool items back to back for ``seconds`` (and ``min_solves``).

    ``after_solve`` runs right after each successful solve, before its
    checks.  Every solve is checked; a pool item solved again must give
    the digest it gave the first time.  The host is probed after every
    solve.
    """
    solve = solve or workload.solve
    tally = Tally()
    started = time.perf_counter()
    position = 0
    while time.perf_counter() - started < seconds or len(tally.walls) < min_solves:
        item = items[position % len(items)]
        position += 1
        solve_started = time.perf_counter()
        try:
            result = solve(item)
        except Exception:  # a solve that raises is a failed solve; keep going
            tally.walls.append(time.perf_counter() - solve_started)
            tally.fail(f"item {item.key} raised:\n{traceback.format_exc()}")
            tally.probe()
            continue
        wall = time.perf_counter() - solve_started
        tally.walls.append(wall)
        if after_solve is not None:
            after_solve(item, result, wall)
        tally.probe()
        problems = workload.check(item, result)
        digest = gate.fingerprint(result)
        if seen.setdefault(item.key, digest) != digest:
            problems.append("solving the same input again gave a different result")
        if problems:
            tally.fail(f"item {item.key}: {'; '.join(problems)}")
        tally.quality.append(workload.quality(item, result))
    return tally


def mean_of(rows: List[Dict[str, float]], key: str) -> float:
    """Mean of ``key`` over ``rows`` (0.0 for a key no row has)."""
    values = [row[key] for row in rows if key in row]
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    workload: Workload,
    items: List[Item],
    seen: Dict[int, str],
    setup_s: List[float],
    setup_probes: List[float],
    seconds: float,
    info: Dict[str, Any],
) -> Tuple[Dict[str, float], Tally]:
    """The untraced run: end-to-end metrics.

    Times are divided by the host factor of the probes taken alongside
    them (rates multiplied): the set-up time by that of the set-up
    probes, the solve times by that of the closed loop's probes.  The
    info line keeps the raw figures next to both factors.
    """
    tally = closed_loop(workload, items, seconds, seen, min_solves=workload.quality_solves)
    sample = tally.quality[: workload.quality_solves]
    walls = tally.walls
    raw = {
        "setup_s": statistics.median(setup_s),
        "solves_per_s": len(walls) / sum(walls),
        "solve_s_p50": statistics.median(walls),
    }
    setup_factor = host.factor(setup_probes)
    factor = host.factor(tally.probes)
    metrics = {
        "setup_s": raw["setup_s"] / setup_factor,
        "solves_per_s": raw["solves_per_s"] * factor,
        "solve_s_p50": raw["solve_s_p50"] / factor,
        "iterations": mean_of(sample, "iterations"),
        "cost_vs_bs_only": mean_of(sample, "cost_vs_bs_only"),
        "offload_frac": mean_of(sample, "offload_frac"),
        "peak_rss_mb": peak_rss_mb(),
    }
    info["host_factor"] = factor
    info["setup_host_factor"] = setup_factor
    info["raw"] = raw
    info["setup_reps_s"] = setup_s
    info["solves"] = len(walls)
    info["quality_solves"] = len(sample)
    if len(walls) >= 100:
        info["solve_s_p90"] = statistics.quantiles(walls, n=10)[-1]
    info["channel_mb_per_solve"] = mean_of(tally.quality, "channel_bytes") / 1e6
    info["privacy_cost_ratio"] = mean_of(sample, "privacy_cost_ratio")
    return metrics, tally


def per_layer(
    workload: Workload,
    items: List[Item],
    seen: Dict[int, str],
    build_s: List[float],
    seconds: float,
    info: Dict[str, Any],
) -> Tuple[Dict[str, float], Tally, List[str]]:
    """Half the time untraced, half traced: per-layer metrics.

    The traced half wraps each layer's public functions
    (:mod:`perfbench.layers`), collects the program's ``repro.perf``
    counters and records spans for ``obs.critical_path``.  Returns the
    metrics, the combined tally and the self-check problems.  A driver's
    self time is defined as the solve's wall time minus every probed busy
    time.  Per-layer seconds are raw; the trace overhead compares the two
    halves each at its own host factor.
    """
    plain = closed_loop(workload, items, seconds / 2, seen)

    probes = layers.ProbeSet(layers.default_probes())
    registry = perf.PerfRegistry()
    totals: Dict[str, float] = {}
    iterations = 0
    events: List[Dict[str, Any]] = []

    def add(key: str, amount: float) -> None:
        totals[key] = totals.get(key, 0.0) + amount

    def traced_solve(item: Item) -> Any:
        probes.reset()
        recorder = obs.ListRecorder()
        with perf.collecting(registry), obs.recording(recorder, timings=True, spans=True):
            result = workload.solve(item)
        events[:] = recorder.events
        return result

    def after_solve(item: Item, result: Any, wall: float) -> None:
        nonlocal iterations
        iterations += result.iterations
        busy = {
            "subproblem": probes.busy_s("subproblem."),
            "privacy": probes.busy_s("privacy."),
            "bs": probes.busy_s("bs."),
            "sub_instance": probes.busy_s("sparse."),
            "encode": probes.busy_s("wire.encode"),
            "decode": probes.busy_s("wire.decode"),
        }
        for key, seconds_busy in busy.items():
            add(f"busy.{key}", seconds_busy)
        add("self", wall - sum(busy.values()))
        add("subproblem.calls", probes.calls("subproblem."))
        add("subproblem.iters", probes.extra("subproblem.", "subgradient_iters"))
        add("privacy.calls", probes.calls("privacy."))
        add("privacy.elems", probes.extra("privacy.", "noise_elems"))
        add("phases", probes.calls("distributed.begin_phase"))
        add("sub_instance.calls", probes.calls("sparse."))
        add("pairs", probes.extra("sparse.", "pairs"))
        add("cells", probes.extra("sparse.", "cells"))
        add("frames", probes.calls("wire.encode"))
        add("wire_bytes", probes.extra("wire.encode", "bytes"))
        for key, value in layers.critical_path_buckets(events).items():
            add(f"cp.{key}", value)

    probes.install()
    try:
        traced = closed_loop(
            workload,
            items,
            seconds / 2,
            seen,
            solve=traced_solve,
            after_solve=after_solve,
        )
    finally:
        unrestored = probes.uninstall()

    counters = registry.counters
    self_check: List[str] = [f"probe {name} was not restored" for name in unrestored]
    expected = {
        "subproblem.solves": totals.get("subproblem.calls", 0.0),
        "algorithm1.phases": totals.get("phases", 0.0),
    }
    if workload.iteration_counter is not None:
        expected[workload.iteration_counter] = iterations
    for counter, seen_by_probes in expected.items():
        if counters.get(counter, 0) != seen_by_probes:
            self_check.append(
                f"counter {counter}={counters.get(counter, 0)} "
                f"but the probes saw {seen_by_probes:g}"
            )
    for problem in self_check:
        print(f"perfbench: SELF-CHECK {problem}", file=sys.stderr)

    for counter in ("knapsack.batched_rows", "knapsack.batches"):
        totals[counter] = counters.get(counter, 0)
    solves = len(traced.quality)

    def per(key: str) -> float:
        return totals.get(key, 0.0) / solves if solves else 0.0

    paired = min(len(plain.walls), len(traced.walls))
    driver = workload.driver_layer
    cells = totals.get("cells", 0.0)
    metrics = {
        "workload.build_s": statistics.median(build_s),
        "subproblem.calls": per("subproblem.calls"),
        "subproblem.busy_s": per("busy.subproblem"),
        "subproblem.subgradient_iters": per("subproblem.iters"),
        "knapsack.batched_rows": per("knapsack.batched_rows"),
        "knapsack.batches": per("knapsack.batches"),
        "privacy.perturb_calls": per("privacy.calls"),
        "privacy.perturb_busy_s": per("busy.privacy"),
        "privacy.noise_elems": per("privacy.elems"),
        "privacy.cost_ratio": mean_of(traced.quality, "privacy_cost_ratio"),
        "distributed.phases": per("phases"),
        "distributed.messages": mean_of(traced.quality, "messages"),
        "distributed.channel_mb": mean_of(traced.quality, "channel_bytes") / 1e6,
        "distributed.stale_phases": mean_of(traced.quality, "stale_phases"),
        "distributed.bs_busy_s": per("busy.bs"),
        "distributed.driver_self_s": per("self") if driver == "distributed" else 0.0,
        "sparse.sub_instance_calls": per("sub_instance.calls"),
        "sparse.sub_instance_busy_s": per("busy.sub_instance"),
        "sparse.driver_self_s": per("self") if driver == "sparse" else 0.0,
        "sparse.block_fill_ratio": totals.get("pairs", 0.0) / cells if cells else 0.0,
        "runtime.driver_self_s": per("self") if driver == "runtime" else 0.0,
        "wire.frames": per("frames"),
        "wire.bytes": per("wire_bytes"),
        "wire.encode_busy_s": per("busy.encode"),
        "wire.decode_busy_s": per("busy.decode"),
        "critical_path.solve_s": per("cp.solve_s"),
        "critical_path.network_s": per("cp.network_s"),
        "critical_path.aggregate_s": per("cp.aggregate_s"),
        "critical_path.broadcast_s": per("cp.broadcast_s"),
        "critical_path.driver_s": per("cp.driver_s"),
        "obs.trace_overhead_ratio": (
            (sum(traced.walls[:paired]) / host.factor(traced.probes))
            / (sum(plain.walls[:paired]) / host.factor(plain.probes))
            if paired
            else 0.0
        ),
    }
    info["solves"] = {"untraced": len(plain.walls), "traced": len(traced.walls)}
    info["traced_solve_s"] = statistics.fmean(traced.walls)
    info["perf_counters"] = dict(sorted(counters.items()))
    combined = Tally()
    combined.walls = plain.walls + traced.walls
    combined.failed = plain.failed + traced.failed
    info["host_factor"] = host.factor(plain.probes + traced.probes)
    return metrics, combined, self_check


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    info: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "import_s": IMPORT_S,
    }
    items, seen, setup_s, build_s, setup_checks = set_up(workload, args.seed)
    if args.trace:
        metrics, tally, self_check = per_layer(workload, items, seen, build_s, args.seconds, info)
        units = PER_LAYER_UNITS
    else:
        metrics, tally = end_to_end(
            workload, items, seen, setup_s, setup_checks.probes, args.seconds, info
        )
        self_check = []
        units = END_TO_END_UNITS
    failed = tally.failed + setup_checks.failed
    attempted = len(tally.walls)
    info["failed_frac"] = failed / attempted
    info["setup_checks_failed"] = setup_checks.failed
    info["self_check"] = self_check
    correct = failed == 0 and not self_check
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
