"""Perf-tracking benchmark harness: emits ``BENCH_*.json``.

Measures the two optimization layers this repository ships for
Algorithm 1 and writes machine-readable records for CI trend tracking:

* ``BENCH_algorithm1.json`` — single-thread hot-path numbers: the legacy
  (per-iteration validated) subproblem oracle vs the batched
  (vectorized-kernel) oracle with an exact solution cross-check, a full
  ``solve_distributed`` run with its perf counters, and a sequential vs
  thread-pool Jacobi sweep.
* ``BENCH_sweeps.json`` — sweep-engine numbers on a figure-style
  epsilon sweep: the legacy serial engine (no dedup, validating solver),
  the optimized serial engine, and the process-parallel engine, with an
  exact serial-vs-parallel cross-check.
* ``BENCH_metrics_overhead.json`` — telemetry-layer numbers: the cost of
  the disabled ``obs.emit`` no-op, the macro overhead of a fully metered
  run (trace + metrics) vs a bare run, and a live-vs-offline snapshot
  byte-identity cross-check.
* ``BENCH_runtime.json`` — socket-transport numbers on the 3-SBS smoke
  instance: ``solve_over_sockets`` wall time vs the in-process
  simulator, a trace bit-identity cross-check, and the retransmission /
  stale-phase / proxy ledger of one fixed-seed chaos run.
* ``BENCH_spans.json`` — causal-span-layer numbers: the cost of the
  disabled ``obs.span`` no-op, a spans-on vs spans-off event-stream
  identity check, byte-identity of two span-enabled socket runs, a span
  tree well-formedness check, and the critical-path coverage of a timed
  run's root span.
* ``BENCH_scaling.json`` — the sparse core on a multi-axis grid growing
  ``N``, ``U`` and ``F`` together (city-scale instances from
  ``generate_city_instance`` solved by ``solve_distributed_sparse``),
  with sparse-vs-dense cross-checks on every point small enough to
  densify.  ``--full`` extends the grid to hundreds of SBSs, thousands
  of MU groups and ``10^6`` contents.

Usage::

    PYTHONPATH=src python benchmarks/bench_to_json.py [--smoke] [--full]
        [--workers N] [--out-dir DIR]

``--smoke`` shrinks the scenario so the harness finishes in seconds (the
CI perf-smoke job runs this on every push).  Records land at the repo
root by default so the committed copies double as regression baselines
for ``repro-report regress``.  The exit code is nonzero whenever any
cross-check diverges, so CI fails loudly if the fast paths ever stop
being exact.

Note on speedup interpretation: the parallel numbers depend on the
machine's core count — on a single-core runner ``parallel_seconds`` can
exceed serial due to process startup, which is why the divergence check,
not the speedup, is the hard gate.  ``speedup_vs_legacy`` (dedup + fast
solver, still one process) is the portable headline number.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro import obs, perf  # noqa: E402
from repro.core.distributed import DistributedConfig, solve_distributed  # noqa: E402
from repro.core.subproblem import (  # noqa: E402
    SubproblemConfig,
    SubproblemWorkspace,
    solve_subproblem,
)
from repro.experiments.config import ScenarioConfig, build_problem  # noqa: E402
from repro.experiments.runner import run_sweep  # noqa: E402


def _machine_record() -> dict:
    """Host facts needed to compare benchmark records across runs."""
    import os

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _time_repeated(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _solutions_identical(a, b) -> bool:
    """Exact agreement of two subproblem solutions, trajectory included."""
    return bool(
        np.array_equal(a.caching, b.caching)
        and np.array_equal(a.routing, b.routing)
        and a.cost == b.cost
        and a.dual_history == b.dual_history
    )


def bench_algorithm1(smoke: bool) -> tuple:
    """Hot-path benchmark: legacy vs batched subproblem oracle.

    Times both oracles on the same instance, cross-checks them exactly,
    runs one full ``solve_distributed`` under perf counters, and
    compares a sequential Jacobi sweep with the thread-pool executor.
    Returns ``(record, ok)`` where ``ok`` is False when the batched
    oracle (or the Jacobi executor) disagrees with the legacy reference
    on any component of the solution.
    """
    scenario = ScenarioConfig() if not smoke else ScenarioConfig(num_groups=12, num_links=16)
    problem = build_problem(scenario, rng=7)
    rng = np.random.default_rng(0)
    aggregate = np.clip(
        rng.random((problem.num_groups, problem.num_files)) * 0.6, 0.0, 1.0
    )
    repeats = 5 if smoke else 8

    batched_cfg = SubproblemConfig(oracle="batched")
    legacy_cfg = SubproblemConfig(oracle="legacy")
    workspace = SubproblemWorkspace(problem)

    batched = solve_subproblem(problem, 0, aggregate, batched_cfg, workspace=workspace)
    legacy = solve_subproblem(problem, 0, aggregate, legacy_cfg)
    identical = _solutions_identical(batched, legacy)

    t_batched = _time_repeated(
        lambda: solve_subproblem(problem, 0, aggregate, batched_cfg, workspace=workspace),
        repeats,
    )
    t_legacy = _time_repeated(
        lambda: solve_subproblem(problem, 0, aggregate, legacy_cfg), max(2, repeats // 2)
    )

    registry = perf.PerfRegistry()
    config = DistributedConfig(accuracy=1e-3, max_iterations=4 if smoke else 8)
    t0 = time.perf_counter()
    with perf.collecting(registry):
        result = solve_distributed(problem, config, rng=0)
    run_wall = time.perf_counter() - t0

    # Jacobi executor: sequential vs thread pool, exact cross-check.
    jacobi_seq_cfg = DistributedConfig(
        accuracy=1e-3, max_iterations=3, mode="jacobi", damping=0.7
    )
    jacobi_par_cfg = DistributedConfig(
        accuracy=1e-3, max_iterations=3, mode="jacobi", damping=0.7, jacobi_workers=4
    )
    jacobi_seq = solve_distributed(problem, jacobi_seq_cfg, rng=0)
    jacobi_par = solve_distributed(problem, jacobi_par_cfg, rng=0)
    jacobi_identical = bool(
        jacobi_seq.cost == jacobi_par.cost
        and np.array_equal(jacobi_seq.solution.caching, jacobi_par.solution.caching)
        and np.array_equal(jacobi_seq.solution.routing, jacobi_par.solution.routing)
    )
    t_jacobi_seq = _time_repeated(
        lambda: solve_distributed(problem, jacobi_seq_cfg, rng=0), 2
    )
    t_jacobi_par = _time_repeated(
        lambda: solve_distributed(problem, jacobi_par_cfg, rng=0), 2
    )

    record = {
        "benchmark": "algorithm1_hot_path",
        "smoke": smoke,
        "machine": _machine_record(),
        "scenario": {
            "num_sbs": problem.num_sbs,
            "num_groups": problem.num_groups,
            "num_files": problem.num_files,
        },
        "solve_subproblem": {
            "legacy_seconds": t_legacy,
            "batched_seconds": t_batched,
            "speedup": t_legacy / t_batched if t_batched > 0 else float("inf"),
            "identical": identical,
        },
        "jacobi_executor": {
            "sequential_seconds": t_jacobi_seq,
            "threadpool_seconds": t_jacobi_par,
            "workers": 4,
            "identical": jacobi_identical,
        },
        "solve_distributed": {
            "wall_seconds": run_wall,
            "cost": result.cost,
            "iterations": result.iterations,
            "converged": result.converged,
            "perf": registry.snapshot(),
        },
    }
    return record, identical and jacobi_identical


def bench_sweeps(smoke: bool, workers: int) -> tuple:
    """Sweep-engine benchmark: legacy serial vs optimized serial vs parallel.

    Returns ``(record, ok)`` where ``ok`` is False when the parallel (or
    dedup) sweep differs from the plain serial sweep in any cell.
    """
    scenario = (
        ScenarioConfig() if not smoke else ScenarioConfig(num_groups=12, num_links=16)
    )
    config = DistributedConfig(
        accuracy=1e-3, max_iterations=3 if smoke else 6,
        subproblem=SubproblemConfig(fast=True),
    )
    legacy_config = DistributedConfig(
        accuracy=1e-3, max_iterations=3 if smoke else 6,
        subproblem=SubproblemConfig(fast=False),
    )
    epsilons = [0.01, 1.0, 100.0] if smoke else [0.01, 0.1, 1.0, 10.0, 100.0]
    seeds = (7, 11) if smoke else (7, 11, 13)

    def sweep(distributed_config, **kw):
        return run_sweep(
            "bench",
            "epsilon",
            epsilons,
            lambda _x: scenario,
            epsilon_of_x=lambda x: float(x),
            seeds=seeds,
            distributed_config=distributed_config,
            **kw,
        )

    # The pre-optimization engine: validating solver, no dedup, serial.
    t0 = time.perf_counter()
    legacy_result = sweep(legacy_config, workers=1, dedup=False)
    t_legacy = time.perf_counter() - t0

    # Serial vs parallel feeds a tight ratio gate, so take best-of-3
    # with the reps interleaved: single-shot sweep walls swing ~10% on
    # busy runners, and process-lifetime drift would otherwise bias
    # whichever side is measured second.
    serial_result = sweep(config, workers=1)
    parallel_result = sweep(config, workers=workers)
    t_serial = float("inf")
    t_parallel = float("inf")
    for _ in range(4):
        t_serial = min(t_serial, _time_repeated(lambda: sweep(config, workers=1), 1))
        t_parallel = min(
            t_parallel, _time_repeated(lambda: sweep(config, workers=workers), 1)
        )

    identical = serial_result == parallel_result
    # The solver fast path is exact, so the legacy engine must agree too.
    identical_vs_legacy = legacy_result == serial_result

    cells = len(epsilons) * len(seeds) * 3
    record = {
        "benchmark": "sweep_engine",
        "smoke": smoke,
        "workers": workers,
        "machine": _machine_record(),
        "sweep": {"x_values": epsilons, "seeds": list(seeds), "cells": cells},
        "legacy_serial_seconds": t_legacy,
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "speedup_vs_legacy": t_legacy / t_serial if t_serial > 0 else float("inf"),
        "speedup_vs_serial": t_serial / t_parallel if t_parallel > 0 else float("inf"),
        "identical_serial_parallel": identical,
        "identical_vs_legacy_engine": identical_vs_legacy,
    }
    return record, identical and identical_vs_legacy


def bench_metrics_overhead(smoke: bool) -> tuple:
    """Telemetry benchmark: disabled-emit cost and metered-run overhead.

    Returns ``(record, ok)`` where ``ok`` is False when the live metrics
    snapshot is not byte-identical to the one derived offline from the
    trace the same run wrote.
    """
    import tempfile

    scenario = (
        ScenarioConfig() if not smoke else ScenarioConfig(num_groups=12, num_links=16)
    )
    problem = build_problem(scenario, rng=7)
    config = DistributedConfig(accuracy=1e-3, max_iterations=4 if smoke else 8)

    # Micro: the disabled fast path — one emit with no recorder active.
    calls = 200_000 if smoke else 1_000_000
    t0 = time.perf_counter()
    for _ in range(calls):
        obs.emit("iteration", iteration=0, cost=0.0)
    noop_per_call = (time.perf_counter() - t0) / calls

    # Macro: bare run vs fully metered run (trace on disk + metrics).
    repeats = 2 if smoke else 3
    t_bare = _time_repeated(lambda: solve_distributed(problem, config, rng=0), repeats)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "bench.jsonl"

        def metered() -> None:
            with obs.metering(trace=str(trace_path)):
                solve_distributed(problem, config, rng=0)

        t_metered = _time_repeated(metered, repeats)
        with obs.metering(trace=str(trace_path)) as registry:
            solve_distributed(problem, config, rng=0)
        live_json = registry.to_json()
        offline_json = obs.derive_metrics(str(trace_path)).to_json()
        events = sum(1 for _ in trace_path.open()) - 1  # minus trace_start

    identical = live_json == offline_json
    record = {
        "benchmark": "metrics_overhead",
        "smoke": smoke,
        "machine": _machine_record(),
        "noop_emit": {"calls": calls, "seconds_per_call": noop_per_call},
        "metered_run": {
            "bare_seconds": t_bare,
            "metered_seconds": t_metered,
            "overhead_ratio": t_metered / t_bare if t_bare > 0 else float("inf"),
            "events": events,
        },
        "live_offline_identical": identical,
    }
    return record, identical


def bench_runtime(smoke: bool) -> tuple:
    """Socket-runtime benchmark: transport overhead plus a chaos ledger.

    Returns ``(record, ok)`` where ``ok`` is False when the fault-free
    socket run is not bit-identical to the in-process simulation or the
    fixed-seed chaos run fails to converge.  Wall times and fault counts
    are informational (timing- and machine-dependent); the booleans are
    the regression gate.
    """
    import filecmp
    import tempfile

    from repro.network.faults import FaultConfig
    from repro.runtime import RuntimeConfig, solve_over_sockets
    from repro.runtime.smoke import chaos_plan, smoke_problem

    problem = smoke_problem()
    config = DistributedConfig(max_iterations=8)
    repeats = 2 if smoke else 3

    t_inprocess = _time_repeated(
        lambda: solve_distributed(problem, config, faults=FaultConfig()), repeats
    )
    t_socket = _time_repeated(
        lambda: solve_over_sockets(problem, config, runtime=RuntimeConfig()), repeats
    )

    with tempfile.TemporaryDirectory() as tmp:
        socket_trace = Path(tmp) / "socket.jsonl"
        sim_trace = Path(tmp) / "inprocess.jsonl"
        with obs.recording(str(socket_trace), timings=False):
            socket_result, _ = solve_over_sockets(
                problem, config, runtime=RuntimeConfig()
            )
        with obs.recording(str(sim_trace), timings=False):
            sim_result = solve_distributed(problem, config, faults=FaultConfig())
        identical = filecmp.cmp(socket_trace, sim_trace, shallow=False) and (
            np.array_equal(
                socket_result.solution.caching, sim_result.solution.caching
            )
            and np.array_equal(
                socket_result.solution.routing, sim_result.solution.routing
            )
        )

    chaos_seed = 3
    runtime = RuntimeConfig(
        faults=chaos_plan(chaos_seed), ack_timeout=0.1, phase_deadline=10.0
    )
    t0 = time.perf_counter()
    chaos_result, chaos_report = solve_over_sockets(problem, config, runtime=runtime)
    chaos_wall = time.perf_counter() - t0

    record = {
        "benchmark": "socket_runtime",
        "smoke": smoke,
        "machine": _machine_record(),
        "scenario": {
            "num_sbs": problem.num_sbs,
            "num_groups": problem.num_groups,
            "num_files": problem.num_files,
        },
        "faultfree": {
            "inprocess_seconds": t_inprocess,
            "socket_seconds": t_socket,
            "overhead_ratio": (
                t_socket / t_inprocess if t_inprocess > 0 else float("inf")
            ),
            "identical": identical,
        },
        "chaos": {
            "seed": chaos_seed,
            "wall_seconds": chaos_wall,
            "converged": chaos_result.converged,
            "iterations": chaos_result.iterations,
            "retransmissions": chaos_report.retransmissions,
            "stale_phases": chaos_report.stale_phases,
            "deadline_expired": chaos_report.deadline_expired,
            "corrupted": chaos_report.corrupted,
            "proxy": chaos_report.proxy,
        },
    }
    return record, identical and chaos_result.converged


def bench_spans(smoke: bool) -> tuple:
    """Span-layer benchmark: disabled no-op cost plus four hard gates.

    Returns ``(record, ok)`` where ``ok`` is False when any boolean
    gate fails: a spans-on run's non-span event stream must match a
    spans-off run exactly (enabling spans never perturbs existing
    traces), two fault-free span-enabled socket runs must write
    byte-identical traces, the merged span tree must be well-formed
    (single root, no orphans, no cycles), and on a timed run the
    critical path must cover the root span's wall-clock within 5%.
    The no-op cost and coverage error are informational.
    """
    import filecmp
    import tempfile

    from repro.obs.recorder import ListRecorder
    from repro.obs.span_analysis import check_spans, critical_path
    from repro.runtime import RuntimeConfig, solve_over_sockets
    from repro.runtime.smoke import smoke_problem

    problem = smoke_problem()
    config = DistributedConfig(max_iterations=8)

    # Micro: the disabled fast path — with no recorder active (or
    # spans=False) every obs.span() returns the shared no-op tracker.
    calls = 200_000 if smoke else 1_000_000
    t0 = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench", category="other"):
            pass
    noop_per_call = (time.perf_counter() - t0) / calls

    # Gate 1: enabling spans must not perturb the existing stream — a
    # spans-on run's events minus span/proxy must equal a spans-off
    # run's events exactly (ListRecorder carries no seq numbers, so
    # in-memory streams compare directly).
    plain = ListRecorder()
    spanned = ListRecorder()
    with obs.recording(plain, timings=False):
        baseline = solve_distributed(problem, config, rng=0)
    with obs.recording(spanned, timings=False, spans=True):
        result = solve_distributed(problem, config, rng=0)
    non_span = [
        event
        for event in spanned.events
        if event.get("type") not in ("span", "proxy")
    ]
    stream_identical = bool(non_span == plain.events and baseline.cost == result.cost)
    span_events = [event for event in spanned.events if event.get("type") == "span"]

    # Gates 2+3: two fault-free span-enabled socket runs must write
    # byte-identical traces with a well-formed merged span tree.
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "spans-a.jsonl"
        second = Path(tmp) / "spans-b.jsonl"
        for path in (first, second):
            with obs.recording(str(path), timings=False, spans=True):
                solve_over_sockets(problem, config, runtime=RuntimeConfig())
        deterministic = bool(filecmp.cmp(first, second, shallow=False))
    well_formed = not check_spans(spanned.events)

    # Gate 4: on a timed socket run the critical path's blocking chain
    # must sum to the root span's wall-clock within 5%.
    timed = ListRecorder()
    with obs.recording(timed, timings=True, spans=True):
        solve_over_sockets(problem, config, runtime=RuntimeConfig())
    path_report = critical_path(timed.events)
    roots = [
        event
        for event in timed.events
        if event.get("type") == "span" and event.get("parent") is None
    ]
    coverage_error = float("inf")
    if path_report["basis"] == "wall" and roots and "seconds" in roots[0]:
        root_seconds = float(roots[0]["seconds"])
        coverage_error = abs(path_report["total"] - root_seconds) / max(
            root_seconds, 1e-12
        )
    coverage_ok = coverage_error <= 0.05

    record = {
        "benchmark": "span_layer",
        "smoke": smoke,
        "machine": _machine_record(),
        "noop_span": {"calls": calls, "seconds_per_call": noop_per_call},
        "faultfree": {
            "span_events": len(span_events),
            "disabled_stream_identical": stream_identical,
            "spans_deterministic": deterministic,
            "well_formed": well_formed,
        },
        "critical_path": {
            "basis": path_report["basis"],
            "total_seconds": path_report["total"],
            "coverage_error": coverage_error,
            "coverage_ok": coverage_ok,
        },
    }
    ok = stream_identical and deterministic and well_formed and coverage_ok
    return record, bool(ok)


def bench_scaling(smoke: bool, full: bool = False) -> tuple:
    """Multi-axis scaling: the sparse core on grids growing N, U *and* F.

    Earlier revisions grew only the group count of a fixed 3-SBS/50-file
    dense scenario, so every point measured the same memory regime.
    This grid builds seeded city-scale instances with
    :func:`repro.workload.generate_city_instance` and solves them with
    :func:`repro.core.solve_distributed_sparse`; each point records the
    build and solve wall times (informational), the compact memory
    footprint, and the deterministic final cost (pinned to 1e-6 relative
    by the CI regress gate).  Points whose ``N*U*F`` fits the densify
    cell budget additionally solve the materialized dense instance with
    ``solve_distributed`` and cross-check cache sets exactly and costs
    to 1e-9 relative — the ``sparse_matches_dense`` boolean is the hard
    gate.  ``--smoke`` runs a tiny grid (CI); the default grid reaches
    ``10^5`` contents; ``--full`` adds the city-scale points
    (hundreds of SBSs, thousands of groups, up to ``10^6`` contents).
    Returns ``(record, ok)``; ``ok`` is False when any densifiable
    point's sparse solve disagrees with the dense reference.
    """
    from repro.core.sparse import DEFAULT_DENSE_CELL_BUDGET, solve_distributed_sparse
    from repro.workload import generate_city_instance

    if smoke:
        grid = [(4, 24, 2_000), (8, 48, 8_000), (16, 96, 32_000)]
    else:
        grid = [(8, 48, 8_000), (16, 96, 32_000), (32, 200, 100_000)]
        if full:
            grid += [(100, 1000, 100_000), (200, 2000, 1_000_000)]
    config = DistributedConfig(
        accuracy=1e-3,
        max_iterations=2,
        subproblem=SubproblemConfig(polish=False, max_iter=40),
    )
    points = {}
    ok = True
    for num_sbs, num_groups, num_files in grid:
        t0 = time.perf_counter()
        instance = generate_city_instance(
            num_sbs,
            num_groups,
            num_files,
            reach=3,
            files_per_group=min(64, max(8, num_files // 50)),
            rng=42,
        )
        build_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = solve_distributed_sparse(instance, config)
        sparse_wall = time.perf_counter() - t0
        cells = num_sbs * num_groups * num_files
        point = {
            "num_sbs": num_sbs,
            "num_groups": num_groups,
            "num_files": num_files,
            "nuf": cells,
            "demand_nnz": instance.demand_nnz,
            "instance_nbytes": sum(instance.nbytes().values()),
            "build_seconds": build_seconds,
            "sparse_wall_seconds": sparse_wall,
            "iterations": result.iterations,
            "distributed_cost": result.cost,
        }
        if cells <= DEFAULT_DENSE_CELL_BUDGET:
            dense_problem = instance.to_dense()
            t0 = time.perf_counter()
            dense = solve_distributed(dense_problem, config, rng=0)
            point["dense_wall_seconds"] = time.perf_counter() - t0
            scale = max(abs(dense.cost), 1.0)
            matches = bool(
                abs(result.cost - dense.cost) / scale <= 1e-9
                and np.array_equal(
                    result.solution.to_dense(instance).caching,
                    dense.solution.caching,
                )
            )
            point["sparse_matches_dense"] = matches
            ok &= matches
        points[f"n{num_sbs:03d}_u{num_groups:04d}_f{num_files:07d}"] = point
        # SparseProblemInstance caches per-SBS indexes; drop the
        # reference before the next (larger) point to bound peak RSS.
        del instance, result
    record = {
        "benchmark": "scaling",
        "smoke": smoke,
        "full": full,
        "machine": _machine_record(),
        "points": points,
    }
    return record, bool(ok)


def main(argv=None) -> int:
    """Run the benchmarks; write JSON records; nonzero exit on divergence."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny scenario for CI (seconds, not minutes)"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="extend the scaling grid to city-scale points "
        "(hundreds of SBSs, 10^5-10^6 contents); ignored with --smoke",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N", help="parallel sweep processes"
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory receiving BENCH_*.json (default: the repo root, "
        "where the committed baselines live)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=("algorithm1", "sweeps", "metrics", "runtime", "spans", "scaling"),
        metavar="NAME",
        help="run only the named section(s); repeatable (default: all)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    args.out_dir.mkdir(parents=True, exist_ok=True)

    def wanted(name: str) -> bool:
        return args.only is None or name in args.only

    ok = True
    if wanted("algorithm1"):
        ok &= _run_algorithm1(args)
    if wanted("sweeps"):
        ok &= _run_sweeps(args)
    if wanted("metrics"):
        ok &= _run_metrics(args)
    if wanted("runtime"):
        ok &= _run_runtime_bench(args)
    if wanted("spans"):
        ok &= _run_spans(args)
    if wanted("scaling"):
        ok &= _run_scaling(args)

    if not ok:
        print("FAIL: fast/parallel results diverged from the reference", file=sys.stderr)
        return 1
    return 0


def _run_algorithm1(args) -> bool:
    algo_record, algo_ok = bench_algorithm1(args.smoke)
    path = args.out_dir / "BENCH_algorithm1.json"
    path.write_text(json.dumps(algo_record, indent=2) + "\n")
    sub = algo_record["solve_subproblem"]
    jacobi = algo_record["jacobi_executor"]
    print(
        f"algorithm1: legacy {sub['legacy_seconds'] * 1e3:.1f} ms, "
        f"batched {sub['batched_seconds'] * 1e3:.1f} ms "
        f"({sub['speedup']:.2f}x, identical={sub['identical']}); "
        f"jacobi pool {jacobi['threadpool_seconds']:.2f} s vs "
        f"seq {jacobi['sequential_seconds']:.2f} s "
        f"(identical={jacobi['identical']}) -> {path}"
    )
    return bool(algo_ok)


def _run_scaling(args) -> bool:
    scaling_record, scaling_ok = bench_scaling(args.smoke, args.full)
    path = args.out_dir / "BENCH_scaling.json"
    path.write_text(json.dumps(scaling_record, indent=2) + "\n")
    points = scaling_record["points"]
    rendered = ", ".join(
        f"{name}: {point['sparse_wall_seconds']:.2f} s"
        for name, point in points.items()
    )
    print(f"scaling: {rendered} (sparse==dense on small points: {scaling_ok}) -> {path}")
    return bool(scaling_ok)


def _run_sweeps(args) -> bool:
    sweep_record, sweep_ok = bench_sweeps(args.smoke, args.workers)
    path = args.out_dir / "BENCH_sweeps.json"
    path.write_text(json.dumps(sweep_record, indent=2) + "\n")
    print(
        f"sweeps: legacy {sweep_record['legacy_serial_seconds']:.2f} s, "
        f"serial {sweep_record['serial_seconds']:.2f} s "
        f"({sweep_record['speedup_vs_legacy']:.2f}x vs legacy), "
        f"parallel[{args.workers}] {sweep_record['parallel_seconds']:.2f} s "
        f"(identical={sweep_record['identical_serial_parallel']}) -> {path}"
    )
    return bool(sweep_ok)


def _run_metrics(args) -> bool:
    metrics_record, metrics_ok = bench_metrics_overhead(args.smoke)
    path = args.out_dir / "BENCH_metrics_overhead.json"
    path.write_text(json.dumps(metrics_record, indent=2) + "\n")
    noop = metrics_record["noop_emit"]["seconds_per_call"]
    metered = metrics_record["metered_run"]
    print(
        f"metrics: no-op emit {noop * 1e9:.0f} ns, metered run "
        f"{metered['overhead_ratio']:.2f}x bare "
        f"(live==offline: {metrics_record['live_offline_identical']}) -> {path}"
    )
    return bool(metrics_ok)


def _run_runtime_bench(args) -> bool:
    runtime_record, runtime_ok = bench_runtime(args.smoke)
    path = args.out_dir / "BENCH_runtime.json"
    path.write_text(json.dumps(runtime_record, indent=2) + "\n")
    faultfree = runtime_record["faultfree"]
    chaos = runtime_record["chaos"]
    print(
        f"runtime: in-process {faultfree['inprocess_seconds']:.2f} s, "
        f"socket {faultfree['socket_seconds']:.2f} s "
        f"({faultfree['overhead_ratio']:.2f}x, "
        f"identical={faultfree['identical']}); chaos[seed={chaos['seed']}] "
        f"retransmissions={chaos['retransmissions']} "
        f"stale={chaos['stale_phases']} "
        f"(converged={chaos['converged']}) -> {path}"
    )
    return bool(runtime_ok)


def _run_spans(args) -> bool:
    spans_record, spans_ok = bench_spans(args.smoke)
    path = args.out_dir / "BENCH_spans.json"
    path.write_text(json.dumps(spans_record, indent=2) + "\n")
    noop = spans_record["noop_span"]["seconds_per_call"]
    faultfree = spans_record["faultfree"]
    critical = spans_record["critical_path"]
    print(
        f"spans: no-op span {noop * 1e9:.0f} ns, "
        f"{faultfree['span_events']} span events "
        f"(stream identical={faultfree['disabled_stream_identical']}, "
        f"deterministic={faultfree['spans_deterministic']}, "
        f"well-formed={faultfree['well_formed']}); critical path covers "
        f"root within {100.0 * critical['coverage_error']:.2f}% "
        f"(ok={critical['coverage_ok']}) -> {path}"
    )
    return bool(spans_ok)


if __name__ == "__main__":
    sys.exit(main())
