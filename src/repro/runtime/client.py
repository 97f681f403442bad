"""SBS client for the socket runtime.

Each client wraps the *unchanged* in-process :class:`~repro.core.distributed.SBSAgent`
— same subproblem solves, same LPPM mechanism, same warm-start and
checkpoint state machine — and replaces only the transport: instead of a
shared in-memory channel, received frames are injected into a private
:class:`_Mailbox` and uploads travel as wire frames through a
stop-and-wait ARQ loop with wall-clock ack timeouts.

The BS drives the protocol with ``CONTROL`` grants:

* ``solve``   — run one Gauss-Seidel phase: recover if crashed, solve
  ``P_n`` against the freshest broadcast aggregate, upload with retries,
  then report ``phase_done`` and await the BS's verdict
  (``phase_result``: commit+checkpoint, or roll back);
* ``crash``   — the fault schedule has this SBS down: wipe volatile
  state, exactly like the in-process ``SBSAgent.crash``;
* ``shutdown``— ship final caching/routing state (nonzero entries
  only, see :func:`nonzero_entries`) and exit.

Trace events the agent emits (privacy releases, recoveries) and the
:mod:`repro.perf` counts it makes are captured in a local
:class:`~repro.obs.ListRecorder` and *shipped* with ``phase_done`` for
the BS to replay into the authoritative trace and fold into its
recorder's counters.  In ``"tasks"`` mode the capture windows swap the
process-global recorder, which is safe because they contain no
``await`` — nothing else can run while the swap is active.  (Outside a
window, where a count would reach the BS's recorder in tasks mode
only, the agent counts nothing once the run has started.)

When the session opts into spans, the client owns a per-node
:class:`~repro.obs.spans.SpanTracker` (``sbs-i`` ids, Lamport clock
seeded from the grant's wire trace-context) whose events go into the
same shipped buffer: a ``solve`` span around recover+compute and one
``upload`` span per ARQ attempt (category ``network`` for the first,
``retry`` after), each upload frame carrying its span's trace-context
so the chaos proxy can annotate the exact attempt it tampers with.
The tracker writes to the local buffer directly — never the global
recorder — so span capture is safe across the ARQ ``await``s too.

``client_main`` is the picklable ``spawn`` entry point for
``"processes"`` mode.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from ..obs import spans
from ..core.distributed import CheckpointStore, SBSAgent
from ..exceptions import ProtocolError, ProtocolTimeout
from ..network.messaging import Channel, Message, MessageKind
from ..privacy.accountant import PrivacyAccountant
from ..privacy.factory import build_mechanism
from .config import ClientSession
from .wire import Frame, FrameSource, write_frame

__all__ = ["run_client", "client_main", "nonzero_entries", "scatter_entries"]


class _Mailbox(Channel):
    """Receive-side channel for one client node.

    Only :meth:`inject` ever feeds it (frames decoded off the socket), so
    the agent's drain-based receive paths — ``read_latest_aggregate``,
    ``await_ack`` — work unchanged while sends go over the wire instead.
    """

    def inject(self, message: Message) -> None:
        """Deliver one received message into every local queue."""
        for name in self._queues:
            if name != message.sender:
                self._queues[name].append(message)


def nonzero_entries(block: np.ndarray) -> Dict[str, List[Any]]:
    """``block``'s nonzero entries as flat C-order indices plus values.

    This is how ``final_state`` ships the SBS's caching and routing:
    JSON ints and ``repr`` floats round-trip exactly, and an entry is
    nonzero by bit pattern (as in the wire's array payload), so ``-0.0``
    survives too.  :func:`scatter_entries` is the inverse.
    """
    flat = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    index = np.flatnonzero(flat.view(np.uint64))
    return {"index": index.tolist(), "value": flat[index].tolist()}


def scatter_entries(
    meta: Mapping[str, Any], key: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """Scatter ``meta[key]``, a :func:`nonzero_entries` map, into a zero block.

    The map arrives from the network, so it is checked first: raises
    ``ValueError`` (naming ``key``) unless the index and value lists have
    equal lengths, the indices are integers strictly increasing inside
    the block, and every value is a finite number.
    """
    entries = meta.get(key)
    if not isinstance(entries, Mapping):
        entries = {}
    try:
        index = np.asarray(entries.get("index"))
        value = np.asarray(entries.get("value"))
    except ValueError:  # ragged nested lists
        index = value = np.zeros((0, 0))
    size = math.prod(shape)
    if index.ndim != 1 or value.shape != index.shape:
        reason = "index and value are not equal-length flat lists"
    elif index.size and index.dtype.kind != "i":
        reason = "indices are not integers"
    elif index.size and (index[0] < 0 or index[-1] >= size or np.any(np.diff(index) <= 0)):
        reason = f"indices are not strictly increasing inside [0, {size})"
    elif value.size and (value.dtype.kind not in "if" or not np.all(np.isfinite(value))):
        reason = "values are not finite numbers"
    else:
        block = np.zeros(size)
        block[index.astype(np.intp)] = value
        return block.reshape(shape)
    raise ValueError(f"{key}: {reason}")


def _corrupt(report: np.ndarray, mode: str) -> np.ndarray:
    """Scripted byzantine payloads (see ``RuntimeConfig.adversaries``)."""
    block = np.array(report, copy=True)
    if mode == "nan":
        block.flat[0] = np.nan
        return block
    if mode == "range":
        return block * 40.0 + 7.0
    if mode == "shape":
        return np.concatenate([block, block], axis=0)
    return block


class _ClientLoop:
    """One SBS client's protocol state machine over an open connection."""

    def __init__(
        self,
        session: ClientSession,
        source: FrameSource,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.session = session
        self.source = source
        self.writer = writer
        mechanism = (
            build_mechanism(session.privacy, rng=session.privacy_seed)
            if session.privacy is not None
            else None
        )
        self.mailbox = _Mailbox()
        self.agent = SBSAgent(
            session.problem,
            session.index,
            self.mailbox,
            subproblem_config=session.config.subproblem,
            mechanism=mechanism,
            accountant=PrivacyAccountant() if mechanism is not None else None,
            warm_start=session.config.warm_start,
        )
        self.agent.resilient = True
        self.store = CheckpointStore()
        self.events = obs.ListRecorder()
        self.tracker: Any = (
            spans.SpanTracker(
                session.name, sink=self.events, timings=session.timings
            )
            if session.spans
            else spans.NOOP_TRACKER
        )
        self.corrupted = 0
        self._corrupt_shipped = 0
        self._adversary_spent = False
        # Control frames read while waiting for something more specific.
        self.pending: Deque[Frame] = deque()

    # -- plumbing ------------------------------------------------------
    @property
    def name(self) -> str:
        return self.agent.name

    def _take_events(self) -> List[Dict[str, Any]]:
        events = list(self.events.events)
        self.events.events.clear()
        return events

    def _take_counters(self) -> Dict[str, int]:
        counts = self.events.counters.since({})
        self.events.counters.reset()
        return counts

    def _take_corrupted(self) -> int:
        delta = self.corrupted - self._corrupt_shipped
        self._corrupt_shipped = self.corrupted
        return delta

    async def _send(self, frame: Frame) -> None:
        write_frame(self.writer, frame)
        await self.writer.drain()

    async def _send_control(self, iteration: int, phase: int, meta: Dict[str, Any]) -> None:
        await self._send(
            Frame(
                kind=MessageKind.CONTROL,
                sender=self.name,
                recipient="bs",
                iteration=iteration,
                phase=phase,
                meta=meta,
            )
        )

    async def _next_until(self, end: Optional[float]) -> Optional[Frame]:
        """Next decoded frame before deadline ``end`` (loop-clock seconds)."""
        loop = asyncio.get_running_loop()
        while True:
            remaining = None if end is None else end - loop.time()
            if remaining is not None and remaining <= 0:
                return None
            kind, frame = await self.source.next(remaining)
            if kind == "timeout":
                return None
            if kind == "eof":
                raise ProtocolError(f"{self.name}: connection to the BS closed")
            if kind == "corrupt":
                self.corrupted += 1
                continue
            return frame

    async def _control(self, end: Optional[float]) -> Optional[Frame]:
        """Next CONTROL frame; data frames are injected into the mailbox."""
        if self.pending:
            return self.pending.popleft()
        while True:
            frame = await self._next_until(end)
            if frame is None:
                return None
            if frame.kind is not MessageKind.CONTROL:
                self.mailbox.inject(frame.to_message())
                continue
            return frame

    # -- ARQ -----------------------------------------------------------
    async def _await_ack(self, seq: int, timeout: float) -> bool:
        """One attempt's ack wait; buffers control frames for later."""
        if self.agent.await_ack(seq):
            return True
        end = asyncio.get_running_loop().time() + timeout
        while True:
            frame = await self._next_until(end)
            if frame is None:
                return self.agent.await_ack(seq)
            if frame.kind is MessageKind.CONTROL:
                self.pending.append(frame)
                continue
            self.mailbox.inject(frame.to_message())
            if self.agent.await_ack(seq):
                return True

    async def _await_result(self, iteration: int, phase: int) -> str:
        """The BS's verdict for this phase (``delivered`` / ``degraded``)."""
        end = asyncio.get_running_loop().time() + self.session.control_timeout
        holdback: List[Frame] = []
        try:
            while True:
                frame = await self._control(end)
                if frame is None:
                    raise ProtocolTimeout(
                        f"{self.name}: no phase_result for iteration {iteration} "
                        f"phase {phase} within {self.session.control_timeout}s"
                    )
                meta = frame.meta or {}
                if (
                    meta.get("action") == "phase_result"
                    and int(meta.get("iteration", -2)) == iteration
                    and int(meta.get("phase", -2)) == phase
                ):
                    return str(meta.get("verdict", "degraded"))
                holdback.append(frame)
        finally:
            self.pending.extendleft(reversed(holdback))

    # -- phases --------------------------------------------------------
    async def _solve_phase(self, grant: Frame) -> None:
        meta = grant.meta or {}
        iteration = int(meta.get("iteration", 0))
        phase = int(meta.get("phase", 0))
        cap_slack = float(meta.get("cap_slack", 0.0))
        parent = self.tracker.adopt(grant.trace_ctx)
        if self.session.adversary == "straggle" and not self._adversary_spent:
            self._adversary_spent = True
            await asyncio.sleep(self.session.straggle_seconds)
        # Sync agent calls run under the local recorder; the window has
        # no awaits, so in tasks mode nothing else can emit meanwhile.
        with obs.recording(self.events, timings=self.session.timings):
            with self.tracker.span(
                "solve",
                parent=parent,
                category="solve",
                sbs=self.session.index,
                iteration=iteration,
                phase=phase,
            ):
                self.agent.recover(self.store)
                report, noise_l1 = self.agent.compute_phase(
                    iteration, phase, cap_slack=cap_slack
                )
        upload = report
        if (
            self.session.adversary in ("nan", "range", "shape")
            and not self._adversary_spent
        ):
            self._adversary_spent = True
            upload = _corrupt(report, self.session.adversary)
        seq = self.agent.next_seq()
        acked = False
        attempts_used = 0
        for attempt in range(self.session.config.max_retries + 1):
            attempts_used = attempt
            attempt_span = self.tracker.span(
                "upload",
                parent=parent,
                category="network" if attempt == 0 else "retry",
                sbs=self.session.index,
                iteration=iteration,
                phase=phase,
                attempt=attempt,
                upload_seq=seq,
            )
            attempt_span.start()
            # repro-taint: disable=REPRO701,REPRO702 -- sanctioned upload frame: perturbed when privacy is on, epsilon booked whenever an accountant is attached
            await self._send(
                Frame(
                    kind=MessageKind.POLICY_UPLOAD,
                    sender=self.name,
                    recipient="bs",
                    iteration=iteration,
                    phase=phase,
                    seq=seq,
                    array=upload,
                    trace_ctx=attempt_span.context(),
                )
            )
            got_ack = await self._await_ack(seq, self.session.ack_timeout)
            attempt_span.annotate(acked=got_ack)
            attempt_span.finish()
            if got_ack:
                acked = True
                break
        if not acked and self.agent.await_ack(seq):
            acked = True  # the ack surfaced right after the last timeout
        retries = attempts_used if acked else self.session.config.max_retries
        # repro-taint: disable=REPRO701,REPRO702 -- phase_done control carries the scalar noise_l1 telemetry, not the policy
        await self._send_control(
            iteration,
            phase,
            {
                "action": "phase_done",
                "iteration": iteration,
                "phase": phase,
                "seq": seq,
                "retries": retries,
                "delivered": acked,
                "noise_l1": noise_l1,
                "stats": dict(self.agent.last_solve_stats or {}),
                "events": self._take_events(),
                "counters": self._take_counters(),
                "corrupted": self._take_corrupted(),
            },
        )
        verdict = await self._await_result(iteration, phase)
        if verdict == "delivered":
            self.agent.commit_report()
            self.agent.save_checkpoint(self.store, iteration)
        else:
            self.agent.rollback_report()

    # -- lifecycle -----------------------------------------------------
    async def run(self) -> None:
        await self._send_control(-1, -1, {"action": "hello", "index": self.session.index})
        while True:
            frame = await self._control(None)
            if frame is None:  # pragma: no cover - None only under a deadline
                raise ProtocolTimeout(f"{self.name}: BS went silent")
            action = (frame.meta or {}).get("action")
            if action == "solve":
                await self._solve_phase(frame)
            elif action == "crash":
                with obs.recording(self.events, timings=self.session.timings):
                    self.agent.crash()
            elif action == "shutdown":
                # repro-taint: disable=REPRO701 -- shutdown hands true_routing to the orchestrating harness over its trusted control channel for result verification
                await self._send_control(
                    -1,
                    -1,
                    {
                        "action": "final_state",
                        "caching": nonzero_entries(self.agent.caching),
                        "true_routing": nonzero_entries(self.agent.true_routing),
                        "events": self._take_events(),
                        "counters": self._take_counters(),
                        "corrupted": self._take_corrupted(),
                    },
                )
                return
            # Unknown actions are ignored (forward compatibility).


async def run_client(session: ClientSession) -> None:
    """Connect to the BS (or its chaos proxy) and serve until shutdown."""
    reader, writer = await asyncio.open_connection(session.host, session.port)
    source = FrameSource(reader)
    try:
        await _ClientLoop(session, source, writer).run()
    finally:
        source.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


def client_main(session: ClientSession) -> None:
    """Entry point for ``"processes"`` mode (multiprocessing ``spawn``)."""
    asyncio.run(run_client(session))
