"""Convergence tracking and the outer loop of the distributed algorithm.

Theorem 2 guarantees the Gauss-Seidel cost sequence converges to the
optimum; Theorem 3 shows each phase's update is non-increasing even with
LPPM noise.  :class:`CostHistory` records the cost after every phase and
iteration so tests can assert those properties and the benchmarks can
report convergence speed.  :class:`RunLoop` is Algorithm 1's outer loop
(sweep, evaluate, stop at ``gamma`` or ``T``) and its phase driver,
written once for every synchronous solver: a transport runs one phase
and returns a :class:`PhaseOutcome`, and :meth:`RunLoop.settle` alone
turns it into protocol events, span annotations and a
:class:`PhaseRecord`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

import numpy as np

from .. import obs, perf
from ..exceptions import ProtocolTimeout, ValidationError
from ..obs.spans import NOOP_TRACKER

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from .distributed import DistributedConfig
    from .problem import ProblemInstance
    from .sparse import SparseProblemInstance
    from .subproblem import SubproblemSolution

__all__ = [
    "PhaseRecord",
    "CostHistory",
    "Sweep",
    "PhaseOutcome",
    "PhaseSlot",
    "RunLoop",
    "check_sweep_order",
    "solve_clock",
    "solve_stats",
]

#: The four ways a phase can end; :meth:`RunLoop.settle` maps each one.
VERDICTS = ("delivered", "degraded", "crashed", "expired")

#: Prices mode at iteration ``tau``: price step ``PRICE_ETA0 / (1 +
#: PRICE_ALPHA * tau)`` and cap slack ``SLACK0 * SLACK_DECAY ** tau``.
PRICE_ETA0, PRICE_ALPHA, SLACK0, SLACK_DECAY = 0.5, 0.5, 0.5, 0.65


@dataclasses.dataclass(frozen=True)
class PhaseRecord:
    """Cost snapshot after one SBS finished its phase.

    ``retries`` counts upload retransmissions the ARQ layer needed for
    this phase; ``stale`` marks a phase whose SBS contributed nothing
    fresh (it was crashed, or every delivery attempt failed) so the BS
    reused the last known report — the graceful-degradation path.
    """

    iteration: int
    phase: int
    sbs: int
    cost: float
    noise_l1: float = 0.0
    retries: int = 0
    stale: bool = False


@dataclasses.dataclass
class CostHistory:
    """Cost trajectory of one distributed run."""

    initial_cost: float
    phases: List[PhaseRecord] = dataclasses.field(default_factory=list)
    iteration_costs: List[float] = dataclasses.field(default_factory=list)

    def record_phase(self, record: PhaseRecord) -> None:
        """Append one phase's cost snapshot."""
        self.phases.append(record)

    def close_iteration(self, cost: float) -> None:
        """Record the system cost at the end of a full iteration."""
        self.iteration_costs.append(float(cost))

    @property
    def final_cost(self) -> float:
        if self.iteration_costs:
            return self.iteration_costs[-1]
        return self.initial_cost

    def relative_improvement(self) -> Optional[float]:
        """Last iteration's relative cost change (Algorithm 1's test)."""
        if len(self.iteration_costs) < 2:
            return None
        previous, current = self.iteration_costs[-2], self.iteration_costs[-1]
        if current == 0:
            return 0.0
        return abs(previous - current) / abs(current)

    def phase_costs(self) -> np.ndarray:
        """Per-phase cost values as an array."""
        return np.array([record.cost for record in self.phases])

    def is_non_increasing(self, *, tol: float = 1e-7) -> bool:
        """Whether the per-phase cost trajectory never increases.

        Holds exactly for the noiseless algorithm; with LPPM it holds for
        each phase's *optimization* step but the noise subtraction can
        nudge the evaluated cost either way, so callers should only
        assert this on noiseless runs.
        """
        costs = np.concatenate(([self.initial_cost], self.phase_costs()))
        scale = max(abs(self.initial_cost), 1.0)
        return bool(np.all(np.diff(costs) <= tol * scale))

    def total_noise(self) -> float:
        """Total L1 privacy noise injected across all phases."""
        return float(sum(record.noise_l1 for record in self.phases))

    def stale_phases(self) -> List[PhaseRecord]:
        """Phases where the BS had to reuse a stale report (degradation)."""
        return [record for record in self.phases if record.stale]

    def stale_phase_count(self, iteration: Optional[int] = None) -> int:
        """Number of stale phases (optionally within one iteration)."""
        return sum(
            1
            for record in self.phases
            if record.stale and (iteration is None or record.iteration == iteration)
        )

    def total_retries(self) -> int:
        """Total upload retransmissions across all phases."""
        return sum(record.retries for record in self.phases)

    def summary(self) -> dict:
        """Compact run summary for logs and reports."""
        return {
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "iterations": len(self.iteration_costs),
            "phases": len(self.phases),
            "total_noise_l1": self.total_noise(),
            "stale_phases": self.stale_phase_count(),
            "retries": self.total_retries(),
        }


@dataclasses.dataclass(frozen=True)
class Sweep:
    """One pass over the SBSs, as :meth:`RunLoop.sweeps` hands it out.

    ``slack`` and ``price_step`` follow the prices-mode schedule (``0.0``
    and ``None`` in caps mode); ``restoration`` marks the final
    zero-slack, frozen-price sweep of a prices-mode run.
    """

    iteration: int
    slack: float
    price_step: Optional[float]
    restoration: bool = False


@dataclasses.dataclass(frozen=True)
class PhaseOutcome:
    """How one phase ended, as its transport reports it to :meth:`RunLoop.settle`.

    ``verdict`` is one of :data:`VERDICTS`; ``folded`` tells an expired
    phase whose upload still reached the aggregate.  ``retries``,
    ``noise_l1`` and the solve's trace extras ``stats`` (see
    :func:`solve_stats`) go into the phase record and event.
    """

    verdict: str
    retries: int = 0
    noise_l1: float = 0.0
    stats: Optional[Dict[str, float]] = None
    folded: bool = False

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValidationError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")


@dataclasses.dataclass(frozen=True)
class PhaseSlot:
    """One phase of a sweep, as :meth:`RunLoop.phases` hands it out.

    ``span`` is the open ``phase`` span (the shared no-op when the
    transport has none); a transport may hand its trace-context on.
    """

    sweep: Sweep
    phase: int
    sbs: int
    span: Any


def check_sweep_order(order: Optional[Iterable[int]], num_sbs: int) -> List[int]:
    """Validate a Gauss-Seidel sweep order; ``None`` is ``0..N-1``."""
    checked = list(range(num_sbs)) if order is None else [int(i) for i in order]
    if sorted(checked) != list(range(num_sbs)):
        raise ValidationError(f"sweep_order must be a permutation of 0..{num_sbs - 1}")
    return checked


def solve_clock() -> Optional[float]:
    """Start time of a subproblem solve, read only while timings are traced."""
    return time.perf_counter() if obs.timings_enabled() else None


def solve_stats(
    result: "SubproblemSolution", started: Optional[float]
) -> Optional[Dict[str, float]]:
    """A solve's ``phase``-event extras, or ``None`` when nothing records.

    ``dual_gap`` and ``mu_norm`` always; ``solve_seconds`` since
    ``started`` (a :func:`solve_clock` reading) when timings are on.
    """
    if not obs.enabled():
        return None
    stats = {
        "dual_gap": float(result.cost - result.best_dual),
        "mu_norm": (
            0.0 if result.multipliers is None else float(np.linalg.norm(result.multipliers))
        ),
    }
    if started is not None:
        stats["solve_seconds"] = time.perf_counter() - started
    return stats


class RunLoop:
    """Algorithm 1's outer loop and phase driver, shared by every synchronous solver.

    The in-process optimizer and the socket server differ only in how
    one phase travels between the SBS and the BS.
    Everything else lives here, once: the ``run_start`` / ``phase`` /
    ``iteration`` / ``run_end`` events, the root, iteration and phase
    spans, the prices-mode slack and step schedule, the convergence
    test, the restoration sweep and, in :meth:`settle`, the verdict of
    each phase.  The caller drives the loop with its own ``for`` (so an
    ``async`` transport can ``await``)::

        loop = RunLoop(config, problem, cost=base_station.system_cost)
        loop.start()
        for sweep in loop.sweeps():
            for slot in loop.phases(order):
                loop.settle(slot, transport(slot))  # -> PhaseOutcome
        loop.finish()

    :meth:`run_phases` is that inner ``for`` for synchronous transports.
    ``cost`` evaluates the system cost after a phase, and an
    iteration's cost is the cost after its last phase.  The run stops
    once the relative cost change is at most ``config.accuracy``, the
    prices-mode slack has settled below 0.02 (immature prices say
    nothing about optimality) and the iteration has at most
    ``allowed_stale`` stale phases (a frozen cost certifies nothing);
    ``allowed_stale`` is 0 in process and the quorum on sockets.

    ``span`` is the span factory (the ambient :func:`repro.obs.span`, or
    a node tracker's ``span``); ``root_attrs`` the root span's
    attributes; ``counter`` the :mod:`repro.perf` name counting
    iterations (restoration excluded).  With recording on, ``run_end``
    carries ``counters``: what the active recorder counted between
    :meth:`start` and :meth:`finish`.  ``idle`` SBSs have nothing to
    solve or upload: :meth:`phases` settles theirs as delivered without
    handing them to the transport.
    """

    def __init__(
        self,
        config: "DistributedConfig",
        problem: Union["ProblemInstance", "SparseProblemInstance"],
        *,
        cost: Callable[[], float],
        private: bool = False,
        resilient: bool = False,
        allowed_stale: int = 0,
        span: Optional[Callable[..., Any]] = None,
        root_attrs: Optional[Dict[str, Any]] = None,
        counter: Optional[str] = None,
        idle: Collection[int] = (),
    ) -> None:
        self.config = config
        self.idle = idle
        self.problem = problem
        self.history = CostHistory(initial_cost=problem.max_cost())
        self.iterations = 0
        self.converged = False
        self._cost = cost
        self._private = private
        self._resilient = resilient
        self._allowed_stale = allowed_stale
        self._span = span or obs.span
        self._root_attrs = root_attrs or {"mode": config.mode}
        self._counter = counter
        self._counted: Dict[str, int] = {}
        self._root: Any = None
        self._iteration = -1
        self._sweep = Sweep(-1, 0.0, None)
        self._gaps: List[float] = []
        self._norms: List[float] = []

    def start(self, **fields: Any) -> None:
        """Emit ``run_start`` (plus the caller's ``fields``), open the root span."""
        config, problem = self.config, self.problem
        table = obs.active_counters()
        if table is not None:
            self._counted = dict(table.counters)
            obs.emit(
                "run_start",
                run="algorithm1",
                num_sbs=problem.num_sbs,
                num_groups=problem.num_groups,
                num_files=problem.num_files,
                mode=config.mode,
                coordination=config.coordination,
                accuracy=config.accuracy,
                max_iterations=config.max_iterations,
                private=self._private,
                resilient=self._resilient,
                warm_start=config.warm_start,
                initial_cost=float(self.history.initial_cost),
                **fields,
            )
        # Explicit start/finish (not ``with``): the root closes before
        # the ``run_end`` emit so its event stays inside the run bracket.
        self._root = self._span("run", category="run", **self._root_attrs).start()

    def sweeps(self) -> Iterator[Sweep]:
        """Yield each sweep inside its ``iteration`` span until the run stops."""
        config = self.config
        with_prices = config.coordination == "prices"
        previous_cost = self.history.initial_cost
        for iteration in range(config.max_iterations):
            slack = SLACK0 * SLACK_DECAY**iteration if with_prices else 0.0
            price_step = PRICE_ETA0 / (1.0 + PRICE_ALPHA * iteration) if with_prices else None
            if self._counter is not None:
                perf.count(self._counter)
            self._begin(iteration)
            self._sweep = Sweep(iteration, slack, price_step)
            with self._span("iteration", category="iteration", iteration=iteration):
                yield self._sweep
            cost = self._close()
            self.iterations = iteration + 1
            relative_change = abs(previous_cost - cost) / (abs(cost) if cost != 0 else 1.0)
            self._emit_iteration(cost, relative_change=float(relative_change))
            if (
                relative_change <= config.accuracy
                and ((not with_prices) or slack < 0.02)
                and self.history.stale_phase_count(iteration) <= self._allowed_stale
            ):
                self.converged = True
                break
            previous_cost = cost
        if with_prices:
            # Feasibility restoration: one zero-slack sweep with frozen
            # prices removes any residual over-service left by the slack.
            self._begin(self.iterations)
            self._sweep = Sweep(self.iterations, 0.0, None, restoration=True)
            with self._span(
                "iteration",
                category="iteration",
                iteration=self.iterations,
                restoration=True,
            ):
                yield self._sweep
            self._emit_iteration(self._close(), restoration=True)

    def phases(
        self, order: Iterable[int], *, category: Optional[str] = "solve"
    ) -> Iterator[PhaseSlot]:
        """Yield each phase of the current sweep inside its ``phase`` span.

        Phase ``k`` is the ``k``-th SBS of ``order``.  ``category`` is
        the span's category (``solve`` in process, ``network`` on
        sockets); ``None`` opens no span, for the Jacobi fold.  The
        caller hands each slot to :meth:`settle` before asking for the
        next.
        """
        sweep = self._sweep
        factory = NOOP_TRACKER.span if category is None else self._span
        for phase, sbs in enumerate(order):
            with factory(
                "phase", category=category, sbs=sbs, iteration=sweep.iteration, phase=phase
            ) as span:
                slot = PhaseSlot(sweep, phase, sbs, span)
                if sbs in self.idle:
                    self.settle(slot, PhaseOutcome("delivered"))
                else:
                    yield slot

    def run_phases(
        self,
        order: Iterable[int],
        transport: Callable[[PhaseSlot], PhaseOutcome],
        *,
        category: Optional[str] = "solve",
    ) -> None:
        """Run the current sweep's phases through a synchronous ``transport``."""
        for slot in self.phases(order, category=category):
            self.settle(slot, transport(slot))

    def settle(self, slot: PhaseSlot, outcome: PhaseOutcome) -> None:
        """Decide, emit and record one phase from its transport's outcome.

        * ``delivered``: no event; the outcome's retries; fresh.
        * ``degraded``: a ``degrade`` event; ``max_retries`` retries; stale.
        * ``crashed``: a ``crash_skip`` event; the phase span turns
          ``straggler`` with ``crashed=True``; stale.
        * ``expired``: a ``deadline_expired`` event carrying ``folded``;
          the span turns ``straggler`` with ``deadline_expired=True`` and
          ``folded``; stale unless folded.

        A degraded phase under ``on_timeout="raise"`` raises
        :class:`~repro.exceptions.ProtocolTimeout` before anything is
        emitted.  Then the phase is recorded at the cost after it, and
        its ``phase`` event carries the solve's ``stats`` (``dual_gap``
        and ``mu_norm``, which the iteration event aggregates, and
        ``solve_seconds`` with timings on).
        """
        config, verdict = self.config, outcome.verdict
        where = {"sbs": slot.sbs, "iteration": slot.sweep.iteration, "phase": slot.phase}
        retries, stale = outcome.retries, verdict != "delivered"
        if verdict == "degraded":
            if config.on_timeout == "raise":
                raise ProtocolTimeout(
                    f"sbs-{slot.sbs} upload undelivered after {config.max_retries} "
                    f"retries (iteration {slot.sweep.iteration}, phase {slot.phase})"
                )
            retries = config.max_retries
            obs.emit("protocol", event="degrade", retries=retries, **where)
        elif verdict == "crashed":
            obs.emit("protocol", event="crash_skip", **where)
            slot.span.annotate(category="straggler", crashed=True)
        elif verdict == "expired":
            stale = not outcome.folded
            obs.emit("protocol", event="deadline_expired", folded=outcome.folded, **where)
            slot.span.annotate(
                category="straggler", deadline_expired=True, folded=outcome.folded
            )
        record = PhaseRecord(
            iteration=slot.sweep.iteration,
            phase=slot.phase,
            sbs=slot.sbs,
            cost=self._cost(),
            noise_l1=outcome.noise_l1,
            retries=retries,
            stale=stale,
        )
        self.history.record_phase(record)
        if not obs.enabled():
            return
        fields: Dict[str, object] = dataclasses.asdict(record)
        stats = outcome.stats
        if stats:
            fields["dual_gap"] = stats["dual_gap"]
            fields["mu_norm"] = stats["mu_norm"]
            self._gaps.append(stats["dual_gap"])
            self._norms.append(stats["mu_norm"])
            if "solve_seconds" in stats:
                fields["solve_seconds"] = stats["solve_seconds"]
        obs.emit("phase", **fields)

    def finish(self, *, total_epsilon: Optional[float] = None, **fields: Any) -> None:
        """Close the root span, then emit ``run_end`` (plus the caller's ``fields``)."""
        if obs.spans_enabled() and obs.timings_enabled() and resource is not None:
            # Peak RSS is volatile: masked from determinism like ``seconds``.
            self._root.annotate(rss_peak_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        self._root.finish()
        table = obs.active_counters()
        if table is not None:
            history = self.history
            obs.emit(
                "run_end",
                final_cost=float(history.final_cost),
                iterations=self.iterations,
                converged=self.converged,
                total_epsilon=total_epsilon,
                stale_phases=history.stale_phase_count(),
                total_retries=history.total_retries(),
                phases=len(history.phases),
                counters=table.since(self._counted),
                **fields,
            )

    def _begin(self, iteration: int) -> None:
        self._iteration = iteration
        self._gaps, self._norms = [], []

    def _close(self) -> float:
        cost = self.history.phases[-1].cost
        self.history.close_iteration(cost)
        return cost

    def _emit_iteration(
        self,
        cost: float,
        *,
        relative_change: Optional[float] = None,
        restoration: bool = False,
    ) -> None:
        if not obs.enabled():
            return
        fields: Dict[str, object] = {"iteration": self._iteration, "cost": float(cost)}
        if relative_change is not None:
            fields["relative_change"] = relative_change
        if restoration:
            fields["restoration"] = True
        if self._gaps:
            fields["dual_gap_max"] = max(self._gaps)
        if self._norms:
            fields["mu_norm_max"] = max(self._norms)
            fields["mu_norm_mean"] = sum(self._norms) / len(self._norms)
        obs.emit("iteration", **fields)
