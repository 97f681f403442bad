"""Fully asynchronous distributed optimization (the paper's future work).

Section III closes with: *"In practice, SBSs may not update in one
iteration using possible outdated information.  The asynchronized
settings can be generalized by this algorithm while the convergence
proof is more complex."*  This module builds that setting as a
discrete-event simulation:

* every SBS wakes up on its own (exponential) clock, solves ``P_n``
  against the **latest aggregate it has received** — which may be
  arbitrarily stale — and uploads its policy, damped toward its
  previous report as in the Jacobi mode;
* uploads and broadcasts traverse the network with random delays, so
  different SBSs hold different views of the aggregate at any instant;
* the BS folds uploads in as they arrive and broadcasts the running
  aggregate;
* LPPM can be applied per upload exactly as in the synchronous run.

The nodes are Algorithm 1's own protocol agents: each SBS is a resilient
:class:`~repro.core.distributed.SBSAgent` whose wake-up runs
:meth:`~repro.core.distributed.SBSAgent.compute_phase` (so ``y_{-n}``,
the solve, LPPM and the per-party privacy ledger are the synchronous
run's), and the BS is a :class:`~repro.core.distributed.BaseStationAgent`.
Each broadcast is a message tagged with its send ordinal, and a
delivery hands it to one SBS's mailbox; the agent acts on the newest
ordinal it holds.  The k-th wake-up of SBS ``n`` is booked as iteration
``k``, phase ``n``.

The result records the cost trajectory over simulated time, per-SBS
staleness statistics (how old the acted-upon aggregate was), and the
final policy — letting the benchmarks quantify how much asynchrony
actually costs relative to Theorem 2's synchronized ideal.

The simulation does not run on :class:`~repro.core.convergence.RunLoop`,
the outer loop the synchronous solvers share: it is event-driven over
simulated time, so it has no sweep or iteration boundary to close.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from .._validation import check_nonnegative_float, rng_from
from ..exceptions import ValidationError
from ..network.eventsim import EventScheduler
from ..network.messaging import Channel, Message, MessageKind
from ..privacy.factory import MechanismConfig
from .distributed import BaseStationAgent, SBSAgent, build_sbs_agents
from .problem import ProblemInstance
from .solution import Solution
from .subproblem import SubproblemConfig

__all__ = ["AsyncConfig", "AsyncResult", "solve_asynchronous"]


@dataclasses.dataclass(frozen=True)
class AsyncConfig:
    """Parameters of the asynchronous simulation.

    Attributes
    ----------
    duration:
        Simulated time horizon.
    mean_update_interval:
        Mean of each SBS's exponential wake-up clock.
    mean_message_delay:
        Mean one-way latency of uploads and broadcasts (exponential).
    damping:
        Upload damping in ``(0, 1]``: the uploaded policy is
        ``damping * new + (1 - damping) * previous`` — the async
        analogue of the Jacobi damping, taming oscillation caused by
        simultaneous best responses to the same stale view.
    subproblem:
        Per-SBS solver configuration.
    drop_probability:
        Probability that any one message (upload or broadcast copy) is
        lost in transit.  The async protocol needs no ARQ to survive
        this: a lost upload simply leaves the BS's view stale until the
        SBS's next wake-up, a bounded extra staleness.
    crash_windows:
        Node-crash schedule: ``(sbs_index, start_time, end_time)``
        triples.  A crashed SBS skips its wake-ups and loses in-flight
        messages addressed to it; its last report stays in the BS's view
        (the BS serves the residual at ``f2`` either way).
    """

    duration: float = 50.0
    mean_update_interval: float = 3.0
    mean_message_delay: float = 0.5
    damping: float = 0.6
    subproblem: SubproblemConfig = dataclasses.field(default_factory=SubproblemConfig)
    drop_probability: float = 0.0
    crash_windows: Tuple[Tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        for name, value in (
            ("duration", self.duration),
            ("mean_update_interval", self.mean_update_interval),
        ):
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        check_nonnegative_float(self.mean_message_delay, "mean_message_delay")
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError(f"damping must lie in (0, 1], got {self.damping}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValidationError(
                f"drop_probability must lie in [0, 1), got {self.drop_probability}"
            )
        for window in self.crash_windows:
            if len(window) != 3:
                raise ValidationError(
                    f"crash windows are (sbs, start, end) triples, got {window!r}"
                )
            sbs, start, end = window
            if int(sbs) < 0 or start < 0 or end <= start:
                raise ValidationError(f"malformed crash window {window!r}")


@dataclasses.dataclass
class AsyncResult:
    """Outcome of an asynchronous run."""

    solution: Solution
    cost: float
    cost_trajectory: List[Tuple[float, float]]
    updates_per_sbs: Dict[int, int]
    mean_staleness: float
    events_processed: int
    epsilon_spent: float = 0.0
    messages_dropped: int = 0
    wakeups_skipped: int = 0

    def final_window_costs(self, fraction: float = 0.25) -> np.ndarray:
        """Costs recorded in the trailing ``fraction`` of the run."""
        if not self.cost_trajectory:
            return np.array([])
        t_end = self.cost_trajectory[-1][0]
        cutoff = t_end * (1.0 - fraction)
        return np.array([c for t, c in self.cost_trajectory if t >= cutoff])


def solve_asynchronous(
    problem: ProblemInstance,
    config: Optional[AsyncConfig] = None,
    *,
    privacy: Optional[MechanismConfig] = None,
    rng: Union[int, np.random.Generator, None] = None,
) -> AsyncResult:
    """Run the asynchronous protocol for ``config.duration`` time units."""
    config = config or AsyncConfig()
    generator = rng_from(rng)
    scheduler = EventScheduler()
    if obs.enabled():
        obs.emit(
            "run_start",
            run="async",
            num_sbs=problem.num_sbs,
            duration=config.duration,
            mean_update_interval=config.mean_update_interval,
            mean_message_delay=config.mean_message_delay,
            damping=config.damping,
            drop_probability=config.drop_probability,
            private=privacy is not None,
        )

    channel = Channel()
    base_station = BaseStationAgent(problem, channel)
    agents, accountant = build_sbs_agents(
        problem, channel, config.subproblem, privacy=privacy, rng=generator, resilient=True
    )
    sent_at: List[float] = []  # simulated send time of each broadcast, by ordinal

    trajectory: List[Tuple[float, float]] = []
    updates: Dict[int, int] = {n: 0 for n in problem.sbs_indices()}
    staleness_samples: List[float] = []
    dropped = [0]
    skipped = [0]

    def delay(mean: float) -> float:
        if mean <= 0:
            return 0.0
        # repro-lint: disable=noise-outside-privacy -- message-delay jitter for the event sim, not a DP release
        return float(generator.exponential(mean))

    def node_crashed(sbs: int) -> bool:
        now = scheduler.now
        return any(
            int(index) == sbs and start <= now < end
            for index, start, end in config.crash_windows
        )

    def link_drops() -> bool:
        # Guard the draw so a zero drop rate leaves the random stream —
        # and therefore the failure-free trajectory — bit-identical.
        if config.drop_probability <= 0.0:
            return False
        return bool(generator.random() < config.drop_probability)

    def bs_receive_upload(sbs: int, block: np.ndarray, staleness: float) -> None:
        if link_drops():
            dropped[0] += 1
            obs.emit("protocol", event="drop", kind="upload", sbs=sbs, time=scheduler.now)
            return
        base_station.fold(sbs, block)
        trajectory.append((scheduler.now, base_station.system_cost()))
        obs.emit(
            "async_update",
            time=scheduler.now,
            sbs=sbs,
            cost=trajectory[-1][1],
            staleness=staleness,
        )
        message = Message(
            kind=MessageKind.AGGREGATE_BROADCAST,
            sender=base_station.name,
            recipient="*",
            payload=base_station.aggregate(),
            iteration=len(sent_at),
            phase=0,
        )
        sent_at.append(scheduler.now)
        for agent in agents:
            scheduler.schedule(
                delay(config.mean_message_delay),
                lambda a=agent: sbs_receive_aggregate(a, message),
            )

    def sbs_receive_aggregate(agent: SBSAgent, message: Message) -> None:
        if link_drops() or node_crashed(agent.index):
            # Lost on the wire, or arrived at a node that is down: a
            # crashed SBS keeps only the view it had before the crash.
            dropped[0] += 1
            obs.emit(
                "protocol", event="drop", kind="aggregate", sbs=agent.index, time=scheduler.now
            )
            return
        channel.inject(agent.name, message)

    def sbs_wakeup(agent: SBSAgent) -> None:
        sbs = agent.index
        if node_crashed(sbs):
            # Down: do no work, but keep the clock alive so the SBS
            # resumes updating once its crash window ends.
            skipped[0] += 1
            obs.emit("protocol", event="crash_skip", sbs=sbs, time=scheduler.now)
            scheduler.schedule(
                delay(config.mean_update_interval), lambda a=agent: sbs_wakeup(a)
            )
            return
        previous = agent.last_report
        report, _ = agent.compute_phase(updates[sbs], sbs)
        if config.damping < 1.0:
            agent.last_report = config.damping * report + (1.0 - config.damping) * previous
        # The acted-upon staleness travels with the upload so the
        # async_update event reports the view age this report was based
        # on (simulated time: deterministic, byte-identity safe).
        tag = agent.aggregate_tag
        staleness = scheduler.now - (0.0 if tag is None else sent_at[tag[0]])
        staleness_samples.append(staleness)
        updates[sbs] += 1
        scheduler.schedule(
            delay(config.mean_message_delay),
            lambda s=sbs, b=agent.last_report, st=staleness: bs_receive_upload(s, b, st),
        )
        scheduler.schedule(delay(config.mean_update_interval), lambda a=agent: sbs_wakeup(a))

    # Kick off: every SBS gets an initial wake-up at a random offset.
    for agent in agents:
        scheduler.schedule(delay(config.mean_update_interval), lambda a=agent: sbs_wakeup(a))

    scheduler.run_until(config.duration, max_events=1_000_000)

    epsilon_spent = 0.0 if accountant is None else accountant.max_party_epsilon()
    result = AsyncResult(
        solution=base_station.layout.solution(
            [agent.caching for agent in agents],
            [base_station.report(agent.index) for agent in agents],
        ),
        cost=base_station.system_cost(),
        cost_trajectory=trajectory,
        updates_per_sbs=updates,
        mean_staleness=float(np.mean(staleness_samples)) if staleness_samples else 0.0,
        events_processed=scheduler.events_processed,
        epsilon_spent=epsilon_spent,
        messages_dropped=dropped[0],
        wakeups_skipped=skipped[0],
    )
    if obs.enabled():
        obs.emit(
            "run_end",
            final_cost=float(result.cost),
            iterations=sum(updates.values()),
            total_epsilon=(epsilon_spent if privacy is not None else None),
            events_processed=result.events_processed,
            messages_dropped=result.messages_dropped,
            wakeups_skipped=result.wakeups_skipped,
            mean_staleness=result.mean_staleness,
        )
    return result
