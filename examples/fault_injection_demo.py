#!/usr/bin/env python3
"""Fault injection: Algorithm 1 on an unreliable network.

The paper's protocol assumes every policy upload and aggregate
broadcast arrives.  Real backhaul links drop packets and small base
stations reboot.  This demo wraps the distributed optimizer in the
seeded fault layer (``FaultyChannel``) and shows two degradation
curves against the failure-free optimum:

* **final cost vs upload drop rate** — the stop-and-wait ARQ layer
  (sequence numbers + acks + capped exponential backoff) repairs
  moderate loss at the price of retransmissions;
* **final cost vs crash duration** — a crashed SBS keeps *serving*
  its last committed policy while the BS reuses its stale report, so
  cost degrades gracefully instead of the run aborting; on recovery
  the SBS restores its last report and cache set from a checkpoint
  and rejoins.

Run:  python examples/fault_injection_demo.py
"""

from repro.core.distributed import DistributedConfig, solve_distributed
from repro.experiments.config import ScenarioConfig, build_problem
from repro.network.faults import FaultConfig, FaultSchedule, LinkFaultProfile
from repro.network.messaging import MessageKind
from repro.workload.trace import TraceConfig

DROP_RATES = (0.0, 0.05, 0.10, 0.20, 0.30, 0.50)
CRASH_DURATIONS = (0, 1, 2, 3, 5)


def main() -> None:
    scenario = ScenarioConfig(
        num_groups=12,
        num_links=18,
        bandwidth=200.0,
        cache_capacity=4,
        trace=TraceConfig(num_videos=18, head_views=10_000.0, tail_views=400.0),
        demand_to_bandwidth=3.0,
    )
    problem = build_problem(scenario)
    config = DistributedConfig(accuracy=1e-5, max_iterations=15)
    clean = solve_distributed(problem, config)
    print(
        f"Problem: {problem.num_sbs} SBSs, {problem.num_groups} groups, "
        f"{problem.num_files} files; failure-free cost {clean.cost:,.1f} "
        f"in {clean.iterations} iterations"
    )

    print(f"\n{'drop rate':>9} | {'final cost':>12} | {'gap':>8} | "
          f"{'drops':>5} | {'retries':>7} | {'stale':>5}")
    print("-" * 62)
    for rate in DROP_RATES:
        faults = FaultConfig(
            by_kind={MessageKind.POLICY_UPLOAD: LinkFaultProfile(drop=rate)},
            seed=7,
        )
        result = solve_distributed(problem, config, faults=faults)
        gap = result.cost / clean.cost - 1.0
        print(
            f"{rate:>9.0%} | {result.cost:>12,.1f} | {gap:>+8.3%} | "
            f"{result.channel.stats.dropped:>5} | "
            f"{result.total_retries:>7} | {result.stale_phases:>5}"
        )

    print(f"\n{'crash len':>9} | {'final cost':>12} | {'gap':>8} | "
          f"{'stale':>5} | stale iterations")
    print("-" * 62)
    for duration in CRASH_DURATIONS:
        if duration == 0:
            schedule = FaultSchedule()
        else:
            schedule = FaultSchedule().crash_sbs(1, at=1, recover_at=1 + duration)
        result = solve_distributed(problem, config, faults=FaultConfig(schedule=schedule))
        gap = result.cost / clean.cost - 1.0
        stale_iters = sorted({r.iteration for r in result.history.stale_phases()})
        print(
            f"{duration:>9} | {result.cost:>12,.1f} | {gap:>+8.3%} | "
            f"{result.stale_phases:>5} | {stale_iters}"
        )

    print(
        "\nModerate loss is invisible in the final cost — retries repair "
        "it within the same phase.  A crashed SBS shows up as stale "
        "phases (the BS reuses its last report and residual demand falls "
        "back to the macro BS at cost f2), and convergence is simply "
        "deferred until the node recovers from its checkpoint."
    )


if __name__ == "__main__":
    main()
