"""Algorithm 1 — the distributed updating algorithm (Section III).

The algorithm is a Gauss-Seidel sweep over SBSs.  In phase ``n`` of
iteration ``tau``, SBS ``n``:

1. receives the BS's broadcast of the *aggregated* routing policy and
   subtracts its own last report to obtain ``y_{-n}`` (Eq. 25) — it never
   sees another SBS's individual policy;
2. solves its subproblem ``P_n`` (one bandwidth price, see
   :mod:`repro.core.subproblem`);
3. optionally perturbs the resulting routing block with LPPM
   (Section IV) and uploads it to the BS (line 4 of Algorithm 1);
4. the BS folds the upload into its aggregate and broadcasts it (line 5).

All exchanges go through :class:`repro.network.messaging.Channel`, so an
eavesdropper tap observes exactly what the paper's attacker observes —
the broadcast aggregates — and nothing more.

Termination follows Algorithm 1: stop when the relative cost change
drops to the accuracy level ``gamma`` or after ``T`` iterations.  With
LPPM the evaluated cost uses the *reported* (perturbed) policies, since
those are the fractions actually served from the edge; the residual is
picked up by the BS.

An asynchronous (Jacobi-style) variant with stale aggregates — the
paper's stated future work — is provided via ``mode="jacobi"``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs, perf
from ..analysis.taint import decl as taint
from .._validation import check_in_interval, check_positive_int, rng_from
from ..exceptions import ProtocolError, ValidationError
from ..network.faults import FaultConfig, FaultyChannel
from ..network.messaging import Channel, Message, MessageKind
from ..privacy.accountant import PrivacyAccountant
from ..privacy.factory import MechanismConfig, build_mechanism
from ..privacy.mechanism import LaplacePrivacyMechanism
from .convergence import (
    CostHistory,
    PhaseOutcome,
    PhaseSlot,
    RunLoop,
    Sweep,
    check_sweep_order,
    solve_clock,
    solve_stats,
)
from .layout import Instance, Layout, layout_for
from .solution import Solution
from .sparse import SparseSolution
from .subproblem import SubproblemConfig, solve_subproblem

__all__ = [
    "DistributedConfig",
    "DistributedResult",
    "BaseStationAgent",
    "SBSAgent",
    "Checkpoint",
    "CheckpointStore",
    "DistributedOptimizer",
    "solve_distributed",
]

#: Fault-tolerant runs: the cap, in channel ticks, of the exponential
#: backoff between upload retransmissions (waits go 1, 2, 4, ...).
RETRY_BACKOFF_CAP = 8


@dataclasses.dataclass(frozen=True)
class DistributedConfig:
    """Run parameters of Algorithm 1.

    Attributes
    ----------
    accuracy:
        The accuracy level ``gamma``: stop once the relative cost change
        between iterations is at most this.
    max_iterations:
        The iteration cap ``T``.
    subproblem:
        Configuration forwarded to every per-SBS solve.
    mode:
        ``"gauss-seidel"`` (the paper's synchronized algorithm) or
        ``"jacobi"`` (asynchronous-style: every SBS best-responds to the
        previous iteration's aggregate simultaneously; convergence is not
        guaranteed by Theorem 2 — damping mitigates oscillation).
    damping:
        Jacobi damping factor in ``(0, 1]``; the uploaded policy is
        ``damping * new + (1 - damping) * previous``.  Ignored in
        Gauss-Seidel mode.
    coordination:
        ``"caps"`` — the paper-literal scheme: each SBS caps its routing
        at the residual ``1 - y_{-n}``.  Block-coordinate descent over
        the *coupled* constraint (4) can then stall at a non-optimal
        equilibrium (Theorem 2's cited result assumes a product
        constraint set).  ``"prices"`` — an enhancement that dualizes
        constraint (4) at the BS: the broadcast carries per-pair
        congestion prices updated by subgradient on the over-service
        ``sum_n y - 1``, SBSs see them as per-unit charges, and residual
        caps are loosened by a decaying slack so contested pairs can be
        transiently over-served while prices equilibrate.  A final
        zero-slack sweep restores feasibility (the price step and slack
        schedules are constants of :mod:`repro.core.convergence`).
        DESIGN.md discusses the trade-off; the evaluation defaults to
        the paper-literal mode.
    max_retries:
        Fault-tolerant runs only: how many times an SBS retransmits an
        unacknowledged ``POLICY_UPLOAD`` before declaring the phase lost
        (the backoff between tries is capped at
        :data:`RETRY_BACKOFF_CAP` channel ticks).
    on_timeout:
        What to do when every retry fails: ``"degrade"`` (the default)
        lets the BS reuse the SBS's last known report and the unserved
        residual falls back to the BS at cost ``f2``; ``"raise"`` aborts
        the run with :class:`~repro.exceptions.ProtocolTimeout`.
    """

    accuracy: float = 1e-4
    max_iterations: int = 30
    subproblem: SubproblemConfig = dataclasses.field(default_factory=SubproblemConfig)
    mode: str = "gauss-seidel"
    damping: float = 1.0
    coordination: str = "caps"
    restarts: int = 1
    max_retries: int = 4
    on_timeout: str = "degrade"

    def __post_init__(self) -> None:
        if self.accuracy < 0:
            raise ValidationError(f"accuracy must be nonnegative, got {self.accuracy}")
        check_positive_int(self.max_iterations, "max_iterations")
        if self.mode not in ("gauss-seidel", "jacobi"):
            raise ValidationError(f"mode must be 'gauss-seidel' or 'jacobi', got {self.mode!r}")
        check_in_interval(self.damping, "damping", low=0.0, high=1.0, low_open=True)
        if self.coordination not in ("caps", "prices"):
            raise ValidationError(
                f"coordination must be 'caps' or 'prices', got {self.coordination!r}"
            )
        check_positive_int(self.restarts, "restarts")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be nonnegative, got {self.max_retries}")
        if self.on_timeout not in ("degrade", "raise"):
            raise ValidationError(
                f"on_timeout must be 'degrade' or 'raise', got {self.on_timeout!r}"
            )


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """Durable snapshot of one SBS's protocol state.

    Everything an SBS needs to rejoin a run mid-sweep after a crash:
    the last policy it reported (and the last one the BS acknowledged),
    its cache decision, and a monotone upload sequence number so the
    BS's duplicate detection survives the reboot.
    """

    iteration: int
    last_report: np.ndarray
    acked_report: np.ndarray
    caching: np.ndarray
    true_routing: np.ndarray
    has_solved: bool
    seq: int


class CheckpointStore:
    """In-memory stable storage for per-node :class:`Checkpoint` snapshots.

    Models the SBS's local NVRAM: state written here survives a crash of
    the node (but the store itself is per-run — a fresh run starts
    empty).  ``save`` overwrites; ``load`` returns ``None`` for a node
    that never checkpointed, which forces a cold rejoin.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[str, Checkpoint] = {}

    def save(self, node: str, checkpoint: Checkpoint) -> None:
        """Persist ``node``'s snapshot, replacing any earlier one."""
        self._snapshots[node] = checkpoint

    def load(self, node: str) -> Optional[Checkpoint]:
        """Latest snapshot for ``node``, or ``None`` if never saved."""
        return self._snapshots.get(node)

    def __contains__(self, node: str) -> bool:
        return node in self._snapshots

    def __len__(self) -> int:
        return len(self._snapshots)


@dataclasses.dataclass
class DistributedResult:
    """Outcome of a distributed run.

    With LPPM active, two policies coexist (Section IV-B):

    * the **reported** (perturbed) routing ``y_hat = y - r`` the BS
      aggregates — this is what each SBS commits to serving, so the
      system cost (``cost``, evaluated at ``solution.routing``) is
      ``f(y_hat)``, the quantity Theorems 3 and 5 analyse; the deflated
      portion of every request falls back to the BS;
    * the **pre-noise** routing each SBS computed
      (``unperturbed_routing`` / ``unperturbed_cost``) — what the run
      would have served without the mechanism.  The attacker never sees
      it; :mod:`repro.attacks` measures how well it can be estimated.

    Without privacy the two coincide.  A sparse instance's solution is
    a :class:`~repro.core.sparse.SparseSolution` (routings per SBS pair).
    """

    solution: Union[Solution, SparseSolution]
    cost: float
    iterations: int
    converged: bool
    history: CostHistory
    channel: Channel
    unperturbed_routing: Any = None
    unperturbed_cost: Optional[float] = None
    accountant: Optional[PrivacyAccountant] = None

    @property
    def stale_phases(self) -> int:
        """Phases where the BS reused a stale report (degradation windows)."""
        return self.history.stale_phase_count()

    @property
    def total_retries(self) -> int:
        """Upload retransmissions the ARQ layer needed across the run."""
        return self.history.total_retries()

    @property
    def total_epsilon(self) -> Optional[float]:
        """Per-SBS privacy budget spent (basic composition), if private.

        Each SBS's own data is protected by its own releases, so the
        per-party total is the meaningful guarantee; all SBSs spend the
        same budget in a synchronized run.
        """
        return None if self.accountant is None else self.accountant.max_party_epsilon()


def close_run(
    loop: RunLoop,
    layout: Layout,
    *,
    caching: Sequence[np.ndarray],
    true_routing: Sequence[np.ndarray],
    reports: Sequence[np.ndarray],
    channel: Channel,
    accountant: Optional[PrivacyAccountant],
) -> DistributedResult:
    """Assemble a run's result from the final per-SBS state (through the
    ``layout``), then emit ``run_end`` with its privacy, pre-noise cost
    and traffic totals.  Mail still queued on the ``channel`` is never
    read, so it is dropped rather than kept alive by the result.
    """
    for node in channel.nodes:
        channel.drain(node)
    unperturbed = layout.solution(caching, true_routing)
    result = DistributedResult(
        solution=layout.solution(caching, reports),
        cost=loop.history.final_cost,
        iterations=loop.iterations,
        converged=loop.converged,
        history=loop.history,
        channel=channel,
        unperturbed_routing=unperturbed.routing,
        unperturbed_cost=unperturbed.cost(layout.problem),
        accountant=accountant,
    )
    # repro-taint: disable=REPRO701 -- deliberate accuracy-loss reporting: pre-noise cost is a scalar system aggregate (Fig. 5)
    loop.finish(
        total_epsilon=result.total_epsilon,
        unperturbed_cost=result.unperturbed_cost,
        channel=dataclasses.asdict(channel.stats),
    )
    return result


class BaseStationAgent:
    """The BS of Algorithm 1: aggregates uploads, broadcasts the total.

    Its reports live in the store of the instance's block ``layout``
    (:mod:`repro.core.layout`), and every write to them goes through
    :meth:`fold`.  In ``"prices"`` coordination the BS also maintains
    per-pair congestion prices and piggybacks them on the broadcast: the
    payload is then the aggregate stacked on the prices.
    """

    def __init__(self, problem: Instance, channel: Channel, *, with_prices: bool = False) -> None:
        self.name = "bs"
        self._problem = problem
        self.layout = layout_for(problem)
        self._channel = channel
        channel.register(self.name)
        self._reports = self.layout.new_reports()
        self._with_prices = with_prices
        self.prices = np.zeros(self.layout.broadcast_shape)
        # Price update scale: one unit of over-service on pair (u, f) is
        # worth about the pair's best margin times its demand.
        self._price_scale = self.layout.price_scale()
        self._price_cap = 1.5 * self._price_scale
        # Highest upload sequence number folded per SBS (ARQ dedup state).
        self._folded_seq: Dict[int, int] = {}

    @property
    def reports(self) -> Any:
        """The layout's store of the latest (possibly perturbed) reports."""
        return self._reports

    def report(self, index: int) -> np.ndarray:
        """The latest report folded for SBS ``index``."""
        return self.layout.report(self._reports, index)

    def fold(self, index: int, block: np.ndarray) -> None:
        """Fold SBS ``index``'s report into the aggregate."""
        self.layout.fold(self._reports, index, block)

    def aggregate(self) -> np.ndarray:
        """The aggregated load ``sum_n y[n]`` the BS broadcasts."""
        return self.layout.aggregate(self._reports)

    def update_prices(self, step: float) -> None:
        """Projected subgradient step on the dual of constraint (4).

        ``pi <- [pi + step * scale * (sum_n y - 1)]^+``, capped so a
        price can never exceed 1.5x the pair's best possible margin
        (beyond which no SBS would serve it anyway).
        """
        violation = self.aggregate() - 1.0
        self.prices = np.clip(
            self.prices + step * self._price_scale * violation, 0.0, self._price_cap
        )

    def broadcast_aggregate(self, iteration: int, phase: int) -> None:
        """Line 5 of Algorithm 1: broadcast the aggregated load."""
        payload = self.aggregate()
        if self._with_prices:
            payload = np.stack([payload, self.prices])
        self._channel.send(
            Message(
                kind=MessageKind.AGGREGATE_BROADCAST,
                sender=self.name,
                recipient="*",
                payload=payload,
                iteration=iteration,
                phase=phase,
            )
        )

    def broadcast_phase(self, slot: PhaseSlot, *, span: Callable[..., Any] = obs.span) -> None:
        """Line 5 after a delivered phase: update prices, then broadcast.

        Runs inside an ``aggregate`` span from ``span`` (the ambient
        factory in process, the BS node tracker's on sockets).
        """
        iteration, price_step = slot.sweep.iteration, slot.sweep.price_step
        with span(
            "aggregate", category="aggregate", sbs=slot.sbs, iteration=iteration, phase=slot.phase
        ):
            if price_step is not None:
                self.update_prices(price_step)
            self.broadcast_aggregate(iteration, slot.phase)

    def collect_upload(self, expected_sbs: int) -> np.ndarray:
        """Receive one policy upload and fold it into the aggregate."""
        message = self._channel.receive(self.name)
        if message.kind is not MessageKind.POLICY_UPLOAD:
            raise ProtocolError(f"BS expected a policy upload, got {message.kind}")
        if message.sender != f"sbs-{expected_sbs}":
            raise ProtocolError(
                f"BS expected an upload from sbs-{expected_sbs}, got {message.sender}"
            )
        block = self._checked_upload(expected_sbs, message)
        self.fold(expected_sbs, block)
        return block

    def _checked_upload(self, index: int, message: Message) -> np.ndarray:
        block = np.asarray(message.payload)
        if block.shape != self.layout.report_shape(index):
            raise ProtocolError(f"upload has wrong shape {block.shape}")
        return block

    def absorb_uploads(self) -> List[int]:
        """Drain the mailbox, folding fresh sequenced uploads (ARQ receive).

        Used by the fault-tolerant protocol instead of
        :meth:`collect_upload`.  Every ``POLICY_UPLOAD`` is answered with
        a cumulative acknowledgement carrying the highest sequence number
        folded for that sender, so retransmitted duplicates are re-acked
        without being folded twice (stop-and-wait ARQ with idempotent
        receive).  Returns the SBS indices whose reports were updated.
        """
        folded: List[int] = []
        for message in self._channel.drain(self.name):
            if message.kind is not MessageKind.POLICY_UPLOAD:
                continue
            try:
                index = int(message.sender.split("-", 1)[1])
            except (IndexError, ValueError):
                raise ProtocolError(f"malformed upload sender {message.sender!r}")
            self._problem._check_sbs(index)
            block = self._checked_upload(index, message)
            if message.seq > self._folded_seq.get(index, 0):
                self.fold(index, block)
                self._folded_seq[index] = message.seq
                folded.append(index)
            self._channel.send(
                Message(
                    kind=MessageKind.ACK,
                    sender=self.name,
                    recipient=message.sender,
                    payload=np.array([float(self._folded_seq.get(index, 0))]),
                    iteration=message.iteration,
                    phase=message.phase,
                    seq=self._folded_seq.get(index, 0),
                )
            )
        return folded

    def has_folded(self, index: int, seq: int) -> bool:
        """Whether an upload with sequence ``seq`` from SBS ``index`` was folded.

        Acks are cumulative, so any folded sequence number at or above
        ``seq`` means that upload's payload is part of the aggregate.
        This is the BS-side half of the exclusive delivered-vs-stale
        decision: a phase whose upload was folded is *delivered* even if
        every acknowledgement back to the SBS was lost.
        """
        self._problem._check_sbs(index)
        return self._folded_seq.get(index, 0) >= seq

    def system_cost(self) -> float:
        """Network cost evaluated at the reported policies."""
        return self.layout.system_cost(self._reports)


# Pre-noise per-SBS state the privacy layer exists to protect: the
# taint analyzer treats every read of these fields as raw data
# (Section III's y_n and the unperturbed aggregates kept for
# accuracy-loss reporting).
taint.source_attribute("true_routing", "pre-noise routing policy y_n")
taint.source_attribute("unperturbed_routing", "stacked pre-noise policies")
taint.source_attribute("unperturbed_cost", "cost of the pre-noise solution")


class SBSAgent:
    """One SBS: solves ``P_n`` locally, optionally applies LPPM.

    Its view (built once) and slice of each broadcast come from the
    instance's block layout.
    """

    def __init__(
        self,
        problem: Instance,
        index: int,
        channel: Channel,
        *,
        subproblem_config: Optional[SubproblemConfig] = None,
        mechanism: Optional[LaplacePrivacyMechanism] = None,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> None:
        problem._check_sbs(index)
        if mechanism is not None and accountant is None:
            raise ValidationError(f"sbs-{index} has a privacy mechanism but no accountant")
        self.index = index
        self.name = f"sbs-{index}"
        self._layout = layout_for(problem)
        self._view = self._layout.view(index)
        self._channel = channel
        channel.register(self.name)
        self._config = subproblem_config or SubproblemConfig()
        self._mechanism = mechanism
        self._accountant = accountant
        # Fault-tolerance state (inert on the reliable, failure-free path).
        self.resilient = False
        self.recoveries = 0
        self._crashed = False
        self._reset()

    def _reset(self) -> None:
        """Set the volatile state to its initial value (a crash loses it)."""
        self.caching = np.zeros(self._view.num_files)
        self.true_routing = np.zeros(self._view.shape)
        self.last_report = np.zeros(self._view.shape)
        self._acked_report = np.zeros(self._view.shape)
        self._has_solved = False
        # Trace extras of the most recent solve (populated only while a
        # repro.obs recorder is active; None otherwise).
        self.last_solve_stats: Optional[Dict[str, float]] = None
        self._seq = 0
        self._max_ack = 0
        # This SBS's entries of the newest broadcast, (aggregate, prices),
        # and that broadcast's (iteration, phase) tag.
        self._agg_entries: Optional[tuple] = None
        self._agg_tag: Optional[tuple] = None

    def _ingest(self, messages) -> None:
        """Fold drained messages into local state (aggregate memory, acks).

        Broadcasts can arrive late or out of order on a faulty channel,
        so "latest" is decided by the ``(iteration, phase)`` tag rather
        than arrival order; stale stragglers never overwrite a fresher
        view.  Only this SBS's entries of the payload are kept.
        """
        for message in messages:
            if message.kind is MessageKind.AGGREGATE_BROADCAST:
                tag = (message.iteration, message.phase)
                if self._agg_tag is None or tag >= self._agg_tag:
                    self._agg_tag = tag
                    self._agg_entries = self._own_entries(message.payload)
            elif message.kind is MessageKind.ACK:
                self._max_ack = max(self._max_ack, int(message.payload[0]))

    @property
    def aggregate_tag(self) -> Optional[tuple]:
        """``(iteration, phase)`` of the newest broadcast read, ``None`` before any."""
        return self._agg_tag

    def _own_entries(self, payload: np.ndarray) -> tuple:
        """This SBS's ``(aggregate, prices)`` entries of a broadcast.

        Plain broadcasts carry the layout's aggregate (prices ``None``);
        price-coordination broadcasts stack the prices under it.
        """
        gather, index = self._layout.gather, self.index
        if payload.ndim > len(self._layout.broadcast_shape):
            return gather(payload[0], index), gather(payload[1], index)
        return gather(payload, index), None

    def read_latest_aggregate(self) -> tuple:
        """Drain the mailbox; return this SBS's entries of the freshest
        broadcast, ``(aggregate, prices)``, laid out as its view.

        On the reliable path a missing broadcast is a protocol-order bug
        and raises :class:`~repro.exceptions.ProtocolError`.  A resilient
        agent instead degrades gracefully: it reuses the last aggregate
        it ever received (broadcasts can be dropped), falling back to the
        all-zero initial aggregate if it has never heard from the BS.
        """
        messages = self._channel.drain(self.name)
        self._ingest(messages)
        if not any(message.kind is MessageKind.AGGREGATE_BROADCAST for message in messages):
            if not self.resilient:
                raise ProtocolError(f"{self.name} has no aggregate broadcast to read")
        if self._agg_entries is None:
            return np.zeros(self._view.shape), None
        return self._agg_entries

    def begin_phase(self) -> tuple:
        """Drain the mailbox and form ``y_{-n}`` (counts one phase).

        Returns ``(aggregate_others, prices)`` for the solve.
        """
        perf.count("algorithm1.phases")
        aggregate, prices = self.read_latest_aggregate()
        return np.clip(aggregate - self.last_report, 0.0, None), prices

    def compute_phase(self, iteration: int, phase: int, *, cap_slack: float = 0.0) -> tuple:
        """Read the aggregate, solve ``P_n``, apply LPPM; no upload yet.

        Returns ``(report, noise_l1)`` — the (possibly perturbed) policy
        block to upload and the L1 mass of privacy noise injected.  The
        caller is responsible for delivering the report (reliably or via
        the ARQ layer).
        """
        aggregate_others, prices = self.begin_phase()
        started = solve_clock()
        result = solve_subproblem(
            self._view,
            None,
            aggregate_others,
            self._config,
            prices=prices,
            cap_slack=cap_slack,
            candidate_caching=self.caching if self._has_solved else None,
        )
        self.last_solve_stats = solve_stats(result, started)
        self._has_solved = True
        self.caching = result.caching
        self.true_routing = result.routing
        report = self.true_routing
        noise_l1 = 0.0
        if self._mechanism is not None:
            report = self._mechanism.perturb(report)
            noise_l1 = float(np.abs(self.true_routing - report).sum())
            label = f"iter-{iteration}-phase-{phase}"
            self._accountant.record(
                party=self.name,
                epsilon=self._mechanism.config.epsilon,
                label=label,
            )
            # repro-taint: disable=REPRO701 -- noise_l1 is DP noise-magnitude telemetry (Section V), not the raw policy
            obs.emit(
                "privacy",
                iteration=iteration,
                phase=phase,
                party=self.name,
                epsilon=float(self._mechanism.config.epsilon),
                label=label,
                noise_l1=noise_l1,
            )
        self.last_report = report
        return report, noise_l1

    def send_upload(
        self, report: np.ndarray, iteration: int, phase: int, *, seq: int = 0
    ) -> None:
        """Line 4 of Algorithm 1: upload the policy block to the BS."""
        self._channel.send(
            Message(
                kind=MessageKind.POLICY_UPLOAD,
                sender=self.name,
                recipient="bs",
                payload=report,
                iteration=iteration,
                phase=phase,
                seq=seq,
            )
        )

    def run_phase(self, iteration: int, phase: int, *, cap_slack: float = 0.0) -> float:
        """Execute one phase: read aggregate, solve ``P_n``, upload.

        Returns the L1 mass of privacy noise injected (zero when not
        private).
        """
        report, noise_l1 = self.compute_phase(iteration, phase, cap_slack=cap_slack)
        # repro-taint: disable=REPRO701 -- sanctioned upload release: perturbed and booked when privacy is on (raw only in the explicit non-private ablation)
        self.send_upload(report, iteration, phase)
        return noise_l1

    # -- reliable-delivery (ARQ) sender state --------------------------
    def next_seq(self) -> int:
        """Allocate the next upload sequence number."""
        self._seq += 1
        return self._seq

    def await_ack(self, seq: int) -> bool:
        """Poll the mailbox; True once the BS has acked ``seq`` (or later).

        Acks are cumulative, so a duplicate or reordered ack for a later
        sequence number also confirms this one.  Broadcasts drained while
        polling are folded into the aggregate memory, not discarded.
        """
        self._ingest(self._channel.drain(self.name))
        return self._max_ack >= seq

    def commit_report(self) -> None:
        """Mark the last computed report as acknowledged by the BS."""
        self._acked_report = self.last_report

    def rollback_report(self) -> None:
        """Undelivered upload: revert to the last report the BS holds.

        Keeps the SBS's ``y_{-n}`` bookkeeping consistent with the BS's
        actual aggregate when a phase's upload was lost.
        """
        self.last_report = self._acked_report

    # -- crash / recovery ----------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state (idempotent within one crash window)."""
        if self._crashed:
            return
        self._crashed = True
        self._reset()
        # A down node's mailbox does not accumulate: anything delivered
        # before the crash was lost with the volatile state.
        self._channel.drain(self.name)

    def recover(self, store: CheckpointStore) -> None:
        """Rejoin after a crash, restoring the last checkpoint if any.

        Without a checkpoint the SBS cold-rejoins from the initial state
        (as if it had never participated); with one it resumes exactly
        where its last completed phase left off.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.recoveries += 1
        checkpoint = store.load(self.name)
        obs.emit(
            "protocol",
            event="recover",
            sbs=self.index,
            restored=checkpoint is not None,
            checkpoint_iteration=(None if checkpoint is None else checkpoint.iteration),
        )
        if checkpoint is None:
            return
        self.last_report = checkpoint.last_report.copy()
        self._acked_report = checkpoint.acked_report.copy()
        self.caching = checkpoint.caching.copy()
        self.true_routing = checkpoint.true_routing.copy()
        self._has_solved = checkpoint.has_solved
        self._seq = checkpoint.seq

    def save_checkpoint(self, store: CheckpointStore, iteration: int) -> None:
        """Snapshot protocol state to stable storage (end of a phase)."""
        store.save(
            self.name,
            Checkpoint(
                iteration=iteration,
                last_report=np.array(self.last_report, copy=True),
                acked_report=np.array(self._acked_report, copy=True),
                caching=np.array(self.caching, copy=True),
                true_routing=np.array(self.true_routing, copy=True),
                has_solved=self._has_solved,
                seq=self._seq,
            ),
        )


def build_sbs_agents(
    problem: Instance,
    channel: Channel,
    subproblem_config: SubproblemConfig,
    *,
    privacy: Optional[MechanismConfig],
    rng: np.random.Generator,
    resilient: bool = False,
) -> Tuple[List[SBSAgent], Optional[PrivacyAccountant]]:
    """One agent per SBS on ``channel``, and the run's accountant.

    With ``privacy`` every SBS gets its own noise stream, seeded from
    ``rng`` in SBS order, and all of them book into one shared
    :class:`~repro.privacy.accountant.PrivacyAccountant`; without it
    there is no mechanism and no accountant.
    """
    accountant = PrivacyAccountant() if privacy is not None else None
    agents: List[SBSAgent] = []
    for n in problem.sbs_indices():
        mechanism = None
        if privacy is not None:
            child_seed = int(rng.integers(np.iinfo(np.int64).max))
            mechanism = build_mechanism(privacy, rng=child_seed)
        agent = SBSAgent(
            problem,
            n,
            channel,
            subproblem_config=subproblem_config,
            mechanism=mechanism,
            accountant=accountant,
        )
        agent.resilient = resilient
        agents.append(agent)
    return agents, accountant


class DistributedOptimizer:
    """Orchestrates Algorithm 1 over the message-passing substrate.

    Dense and sparse instances run one protocol; the instance's block
    layout (:mod:`repro.core.layout`) shapes each report and broadcast.
    """

    def __init__(
        self,
        problem: Instance,
        config: Optional[DistributedConfig] = None,
        *,
        privacy: Optional[MechanismConfig] = None,
        rng: Union[int, np.random.Generator, None] = None,
        sweep_order: Optional[Sequence[int]] = None,
        faults: Optional[FaultConfig] = None,
    ) -> None:
        self.problem = problem
        self.config = config or DistributedConfig()
        self._order = check_sweep_order(sweep_order, problem.num_sbs)
        self.faults = faults
        if faults is not None and self.config.mode != "gauss-seidel":
            raise ValidationError(
                "fault injection is implemented for the gauss-seidel protocol; "
                "use solve_asynchronous for faulty asynchronous runs"
            )
        self.channel: Channel = Channel() if faults is None else FaultyChannel(faults)
        self.checkpoints = CheckpointStore()
        self.base_station = BaseStationAgent(
            problem, self.channel, with_prices=self.config.coordination == "prices"
        )
        self.layout = self.base_station.layout
        agents, self.accountant = build_sbs_agents(
            problem,
            self.channel,
            self.config.subproblem,
            privacy=privacy,
            rng=rng_from(rng),
            resilient=faults is not None,
        )
        self.sbss: List[SBSAgent] = agents

    # ------------------------------------------------------------------
    def run(self) -> DistributedResult:
        """Execute Algorithm 1 until the accuracy level or iteration cap."""
        resilient, layout = self.faults is not None, self.layout
        loop = RunLoop(
            self.config,
            self.problem,
            cost=self.base_station.system_cost,
            private=self.accountant is not None,
            resilient=resilient,
            root_attrs={"mode": self.config.mode, **layout.run_fields},
            counter=layout.counter,
            idle=layout.idle(),
        )
        loop.start(**layout.run_fields)
        # Initial broadcast: the all-zero aggregate every SBS starts from
        # (the paper's y_{-n}(tau=0) = 0 initialisation).
        self.base_station.broadcast_aggregate(iteration=-1, phase=-1)
        for sweep in loop.sweeps():
            # Jacobi runs restore feasibility with a Gauss-Seidel sweep.
            if self.config.mode == "jacobi" and not sweep.restoration:
                self._jacobi_sweep(loop, sweep)
            elif resilient:
                self.channel.set_time(sweep.iteration)
                loop.run_phases(self._order, self._faulty_phase)
            else:
                loop.run_phases(self._order, self._reliable_phase)

        return close_run(
            loop,
            layout,
            caching=[agent.caching for agent in self.sbss],
            true_routing=[agent.true_routing for agent in self.sbss],
            reports=[self.base_station.report(agent.index) for agent in self.sbss],
            channel=self.channel,
            accountant=self.accountant,
        )

    # -- transports: each runs one phase and reports its PhaseOutcome --
    def _reliable_phase(self, slot: PhaseSlot) -> PhaseOutcome:
        """One phase over the reliable channel, following Algorithm 1's lines 2-5.

        The active SBS reads the latest aggregate broadcast, solves
        ``P_n`` and uploads (line 4); the BS folds the upload in,
        updates congestion prices when price coordination is on, and
        broadcasts to everyone (line 5).  Every upload is therefore
        sandwiched between two broadcasts — exactly the information an
        eavesdropper on the broadcast channel gets to see.
        """
        agent = self.sbss[slot.sbs]
        noise_l1 = agent.run_phase(slot.sweep.iteration, slot.phase, cap_slack=slot.sweep.slack)
        self.base_station.collect_upload(slot.sbs)
        self.base_station.broadcast_phase(slot)
        return PhaseOutcome("delivered", noise_l1=noise_l1, stats=agent.last_solve_stats)

    def _faulty_phase(self, slot: PhaseSlot) -> PhaseOutcome:
        """One phase over the faulty channel.

        The reliable phase's structure, but a crashed SBS skips the
        phase (the BS reuses its last known report), a recovered one is
        restored from its last checkpoint so it rejoins mid-run, and the
        upload travels through the ARQ layer.  An upload that exhausts
        every retry rolls the SBS back to its last acknowledged report.
        """
        agent, iteration, phase = self.sbss[slot.sbs], slot.sweep.iteration, slot.phase
        if not self.channel.node_is_up(agent.name):
            agent.crash()
            return PhaseOutcome("crashed")
        agent.recover(self.checkpoints)
        report, noise_l1 = agent.compute_phase(iteration, phase, cap_slack=slot.sweep.slack)
        with obs.span(
            "upload", category="network", sbs=slot.sbs, iteration=iteration, phase=phase
        ) as upload_span:
            # repro-taint: disable=REPRO701 -- sanctioned upload release via ARQ retry path (same contract as run_phase)
            retries = self._upload_with_retries(agent, report, iteration, phase)
            upload_span.annotate(
                category="retry" if retries else None,
                delivered=retries is not None,
                retries=self.config.max_retries if retries is None else retries,
            )
        if retries is None:
            # The BS keeps the SBS's last folded report; roll the SBS's
            # own view back so its y_{-n} bookkeeping matches.
            agent.rollback_report()
            return PhaseOutcome("degraded", noise_l1=noise_l1, stats=agent.last_solve_stats)
        agent.commit_report()
        agent.save_checkpoint(self.checkpoints, iteration)
        self.base_station.broadcast_phase(slot)
        return PhaseOutcome(
            "delivered", retries=retries, noise_l1=noise_l1, stats=agent.last_solve_stats
        )

    def _upload_with_retries(
        self, agent: SBSAgent, report: np.ndarray, iteration: int, phase: int
    ) -> Optional[int]:
        """Deliver one upload via stop-and-wait ARQ with capped backoff.

        Sends the sequenced upload, lets the BS absorb whatever arrived,
        and polls for the cumulative ack.  Between attempts the channel
        clock advances by an exponentially growing backoff (capped at
        :data:`RETRY_BACKOFF_CAP` ticks) so delayed in-flight messages get a
        chance to surface before the next retransmission.  Returns the
        number of retries used, or ``None`` when the budget was
        exhausted.
        """
        seq = agent.next_seq()
        backoff = 1
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self.channel.stats.retransmissions += 1
                obs.emit(
                    "protocol",
                    event="retry",
                    sbs=agent.index,
                    iteration=iteration,
                    phase=phase,
                    attempt=attempt,
                    seq=seq,
                )
                self.channel.advance(backoff)
                backoff = min(2 * backoff, RETRY_BACKOFF_CAP)
            agent.send_upload(report, iteration, phase, seq=seq)
            self.base_station.absorb_uploads()
            if agent.await_ack(seq):
                return attempt
        # Last chance: flush any still-delayed traffic before giving up.
        self.channel.advance(RETRY_BACKOFF_CAP)
        self.base_station.absorb_uploads()
        if agent.await_ack(seq):
            return self.config.max_retries
        # Exclusive deadline check: an upload that was folded exactly at
        # the retry-budget boundary (delivered, but every ack back was
        # lost or still in flight) is *delivered*, full stop.  Without
        # this check the phase would be double-booked — the BS aggregate
        # already contains the fresh report, yet the phase would also be
        # recorded stale and the SBS rolled back, leaving its y_{-n}
        # bookkeeping out of sync with what the BS actually holds.
        if self.base_station.has_folded(agent.index, seq):
            return self.config.max_retries
        return None

    def _jacobi_sweep(self, loop: RunLoop, sweep: Sweep) -> None:
        """All SBSs best-respond to the same (stale) aggregate, with damping.

        Every SBS solves and uploads before the BS folds anything; the
        phases (no ``phase`` span: nothing is solved in them) are the BS
        folding the uploads in sweep order, and it broadcasts once.
        """
        noise = {
            index: self.sbss[index].run_phase(sweep.iteration, phase=0, cap_slack=sweep.slack)
            for index in self._order
            if index not in loop.idle
        }
        loop.run_phases(self._order, functools.partial(self._jacobi_fold, noise), category=None)
        if sweep.price_step is not None:
            self.base_station.update_prices(sweep.price_step)
        self.base_station.broadcast_aggregate(sweep.iteration, phase=len(self.sbss))

    def _jacobi_fold(self, noise: Dict[int, float], slot: PhaseSlot) -> PhaseOutcome:
        """Fold one Jacobi upload, damped toward the SBS's previous report."""
        agent, damping = self.sbss[slot.sbs], self.config.damping
        previous = self.base_station.report(slot.sbs).copy()
        block = self.base_station.collect_upload(slot.sbs)
        if damping < 1.0:
            damped = damping * block + (1.0 - damping) * previous
            self.base_station.fold(slot.sbs, damped)
            agent.last_report = damped
        return PhaseOutcome("delivered", noise_l1=noise[slot.sbs], stats=agent.last_solve_stats)


def solve_distributed(
    problem: Instance,
    config: Optional[DistributedConfig] = None,
    *,
    privacy: Optional[MechanismConfig] = None,
    rng: Union[int, np.random.Generator, None] = None,
    faults: Optional[FaultConfig] = None,
) -> DistributedResult:
    """Run Algorithm 1, optionally best-of-``restarts`` sweep orders.

    With ``config.restarts > 1`` the run is repeated under different
    Gauss-Seidel sweep orders (identity first, then random
    permutations) and the cheapest final solution is kept — a legitimate
    distributed protocol, since the BS already evaluates the reported
    system cost.  Restarts are refused with privacy enabled: every extra
    run would spend additional budget, which should be an explicit
    decision, not a solver default.

    ``faults`` switches the run onto a :class:`~repro.network.faults.FaultyChannel`
    and the fault-tolerant protocol (sequence-numbered uploads with
    ack/retry, checkpoint-based crash recovery, graceful degradation);
    with ``faults=None`` the failure-free protocol runs unchanged.

    A :class:`~repro.core.sparse.SparseProblemInstance` runs on pair
    vectors (:class:`~repro.core.layout.PairLayout`) with every option
    above, and its result carries a
    :class:`~repro.core.sparse.SparseSolution`.
    """
    config = config or DistributedConfig()
    if config.restarts == 1:
        return DistributedOptimizer(
            problem, config, privacy=privacy, rng=rng, faults=faults
        ).run()
    if privacy is not None:
        raise ValidationError(
            "restarts > 1 with LPPM would multiply the privacy budget; "
            "run the restarts explicitly if that is intended"
        )
    generator = rng_from(rng)
    orders = [list(range(problem.num_sbs))]
    for _ in range(config.restarts - 1):
        orders.append(list(generator.permutation(problem.num_sbs)))
    best: Optional[DistributedResult] = None
    for order in orders:
        result = DistributedOptimizer(
            problem, config, privacy=None, rng=generator, sweep_order=order, faults=faults
        ).run()
        if best is None or result.cost < best.cost:
            best = result
    assert best is not None
    return best
