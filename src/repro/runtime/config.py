"""Configuration and report types for the socket runtime.

:class:`RuntimeConfig` is everything the process-level runtime adds on
top of :class:`~repro.core.distributed.DistributedConfig`: transport
placement (asyncio tasks vs separate OS processes), the BS's
straggler/deadline policy, the opt-in byzantine filter, scripted
adversaries for exercising it, and the chaos-proxy fault plan.

:class:`ClientSession` is the picklable bundle shipped to each SBS
client — in ``"processes"`` mode it crosses a ``spawn`` boundary, so it
carries only plain dataclasses (the problem instance pickles itself).

:class:`RuntimeReport` summarizes what the transport did to the run:
wall time, stragglers, rejected reports, corrupt frames and the chaos
proxy's ledger — the numbers the ``runtime`` benchmark section and the
CI smoke job assert on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional

from .._validation import check_in_interval
from ..core.distributed import DistributedConfig
from ..core.layout import Instance
from ..exceptions import ValidationError
from ..network.faults import FaultConfig
from ..privacy.factory import MechanismConfig

__all__ = ["ADVERSARY_MODES", "RuntimeConfig", "ClientSession", "RuntimeReport"]

#: Scripted client misbehaviours (test/benchmark plumbing).  Each acts on
#: the client's *first* granted phase only, so a run demonstrates the
#: detection/recovery path and then converges normally:
#:
#: * ``"nan"``     — upload a report poisoned with non-finite values;
#: * ``"range"``   — upload a report scaled far outside ``[0, 1]``;
#: * ``"shape"``   — upload a report with the wrong block shape;
#: * ``"straggle"``— sleep past the BS's phase deadline before solving.
ADVERSARY_MODES = ("nan", "range", "shape", "straggle")


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the process-level socket runtime.

    Attributes
    ----------
    host:
        Interface the BS server (and chaos proxy) bind; loopback by
        default — the runtime models a deployment, it is not one.
    mode:
        ``"tasks"`` runs every SBS client as an asyncio task inside the
        orchestrating process (fast, still real sockets); ``"processes"``
        spawns one OS process per SBS (real isolation, spawn start
        method, the session is pickled across).
    quorum:
        Fraction of SBSs that must deliver fresh reports for an
        iteration to count as *clean* for convergence.  ``1.0`` (the
        default) reproduces the in-process rule — any stale phase blocks
        the convergence test; ``0.75`` lets one straggler out of four
        slide.  The BS always proceeds with stale reports either way;
        quorum only gates *termination*.
    phase_deadline:
        Wall-clock seconds the BS waits for a granted SBS's
        ``phase_done`` before closing the phase with the stale report
        (straggler policy).  Counted in ``ChannelStats.deadline_expired``.
    ack_timeout:
        Client-side wall-clock seconds per ARQ attempt before the upload
        is retransmitted.
    control_timeout:
        Wall-clock ceiling on control handshakes (hello, shutdown,
        phase-result delivery).  Generous: expiry means a peer died.
    byzantine_filter:
        Validate every upload at the BS before folding it: block shape,
        finiteness, and range against the routing invariants
        ``0 <= y <= 1 + cap_slack``.  Violations are counted in
        ``ChannelStats.byzantine_rejected`` and traced as
        ``byzantine_reject`` protocol events.
    byzantine_policy:
        ``"reject"`` refuses the upload outright (no ack, so the sender's
        ARQ exhausts and the phase degrades); ``"clip"`` folds the report
        clipped into range instead (shape violations are always
        rejected — there is nothing to clip).
    adversaries:
        Optional ``{sbs_index: mode}`` scripted misbehaviours (see
        :data:`ADVERSARY_MODES`).
    straggle_seconds:
        How long a ``"straggle"`` adversary sleeps; ``0.0`` means
        "pick ``2.5 x phase_deadline``" so the deadline reliably fires.
    faults:
        Chaos plan for the socket proxy.  ``None`` runs clients straight
        against the BS server; otherwise a
        :class:`~repro.runtime.chaos.ChaosProxy` is interposed and
        drops/duplicates/delays/reorders/truncates data-plane frames on
        the seeded schedule.
    """

    host: str = "127.0.0.1"
    mode: str = "tasks"
    quorum: float = 1.0
    phase_deadline: float = 30.0
    ack_timeout: float = 0.25
    control_timeout: float = 60.0
    byzantine_filter: bool = False
    byzantine_policy: str = "reject"
    adversaries: Mapping[int, str] = dataclasses.field(default_factory=dict)
    straggle_seconds: float = 0.0
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.mode not in ("tasks", "processes"):
            raise ValidationError(
                f"runtime mode must be 'tasks' or 'processes', got {self.mode!r}"
            )
        check_in_interval(self.quorum, "quorum", low=0.0, high=1.0, low_open=True)
        for name in ("phase_deadline", "ack_timeout", "control_timeout"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.byzantine_policy not in ("reject", "clip"):
            raise ValidationError(
                f"byzantine_policy must be 'reject' or 'clip', got {self.byzantine_policy!r}"
            )
        for index, adversary in self.adversaries.items():
            if adversary not in ADVERSARY_MODES:
                raise ValidationError(
                    f"unknown adversary mode {adversary!r} for SBS {index} "
                    f"(expected one of {ADVERSARY_MODES})"
                )
        if self.straggle_seconds < 0:
            raise ValidationError(
                f"straggle_seconds must be nonnegative, got {self.straggle_seconds}"
            )

    def straggle_delay(self) -> float:
        """Seconds a straggler adversary sleeps before its first solve."""
        if self.straggle_seconds > 0.0:
            return self.straggle_seconds
        return 2.5 * self.phase_deadline


@dataclasses.dataclass(frozen=True)
class ClientSession:
    """Everything one SBS client process/task needs, picklable.

    ``port`` already points at the chaos proxy when one is interposed —
    clients never know whether they are being tampered with.
    ``privacy_seed`` is the per-SBS child seed the server derived in
    index order, which is exactly how the in-process optimizer seeds its
    mechanisms (bit-identical noise streams).
    """

    index: int
    host: str
    port: int
    problem: Instance
    config: DistributedConfig
    ack_timeout: float
    control_timeout: float
    timings: bool = False
    spans: bool = False
    privacy: Optional[MechanismConfig] = None
    privacy_seed: Optional[int] = None
    adversary: Optional[str] = None
    straggle_seconds: float = 0.0

    @property
    def name(self) -> str:
        """This client's protocol node name."""
        return f"sbs-{self.index}"


@dataclasses.dataclass
class RuntimeReport:
    """Transport-level outcome of one socket run.

    The solver-level outcome lives in the accompanying
    :class:`~repro.core.distributed.DistributedResult`; this report adds
    what only the runtime can see — placement, wall time, straggler and
    byzantine counts, and the chaos proxy's per-fault ledger (``None``
    for fault-free runs).
    """

    mode: str
    num_clients: int
    wall_seconds: float = 0.0
    deadline_expired: int = 0
    byzantine_rejected: int = 0
    corrupted: int = 0
    retransmissions: int = 0
    stale_phases: int = 0
    proxy: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (benchmark JSON / CI assertions)."""
        return dataclasses.asdict(self)
