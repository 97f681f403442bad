"""BS aggregation server and orchestrator for the socket runtime.

The server owns the *authoritative* protocol state: internally it drives
the same :class:`~repro.core.distributed.BaseStationAgent` over a real
in-memory :class:`~repro.network.messaging.Channel` (the "bus"), so
folding, cumulative acks, duplicate suppression and traffic accounting
are byte-for-byte the in-process implementation.  The socket layer only
moves frames between that bus and the TCP clients: uploads read off a
client's connection are re-sent onto the bus and absorbed by the BS
agent; the acks and broadcasts it queues are flushed back out as frames.

The run loop and phase driver are the in-process optimizer's own
:class:`~repro.core.convergence.RunLoop`.  The server is only a
transport: :meth:`RuntimeServer._phase` grants one phase, awaits the
client's report and returns a
:class:`~repro.core.convergence.PhaseOutcome`, and ``RunLoop.settle``
emits and records it exactly as for the in-process faulty channel.  So
a fault-free socket run's trace and
:class:`~repro.core.solution.Solution` are bit-identical to
``solve_distributed(problem, config, faults=FaultConfig())``.

On top of that parity baseline the server adds what only a real
deployment needs:

* **straggler policy** — a wall-clock ``phase_deadline`` per granted
  phase; at expiry the phase is *expired*: the BS proceeds with the
  stale report (or, if the upload was folded but the ``phase_done``
  never arrived, with the fresh one) and counts
  ``ChannelStats.deadline_expired``.  A quorum fraction below ``1.0``
  lets iterations with a bounded number of stale phases still certify
  convergence.
* **byzantine filter** (opt-in) — shape/finiteness/range validation of
  every upload against the routing invariants before it touches the
  aggregate, with a ``reject`` (refuse + let the sender's ARQ exhaust)
  or ``clip`` (fold the sanitised report) policy.

``solve_over_sockets`` is the synchronous entry point; it returns the
familiar :class:`~repro.core.distributed.DistributedResult` plus a
:class:`~repro.runtime.config.RuntimeReport`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..obs import spans
from .._validation import rng_from
from ..core.convergence import PhaseOutcome, PhaseSlot, RunLoop
from ..core.distributed import (
    BaseStationAgent,
    DistributedConfig,
    DistributedResult,
    close_run,
)
from ..core.layout import Instance
from ..exceptions import ProtocolError, ProtocolTimeout, ValidationError
from ..network.messaging import Channel, Message, MessageKind
from ..privacy.accountant import PrivacyAccountant
from ..privacy.factory import MechanismConfig
from .chaos import ChaosProxy
from .client import client_main, run_client, scatter_entries
from .config import ClientSession, RuntimeConfig, RuntimeReport
from .wire import Frame, FrameSource, frame_from_message, write_frame

__all__ = ["RuntimeServer", "solve_over_sockets"]


class _ClientLink:
    """Server-side state for one connected SBS client."""

    def __init__(
        self, index: int, source: FrameSource, writer: asyncio.StreamWriter
    ) -> None:
        self.index = index
        self.name = f"sbs-{index}"
        self.source = source
        self.writer = writer
        self.alive = True
        # Phases closed by the deadline policy, mapped to their verdict;
        # a late ``phase_done`` for one of these gets that verdict back
        # (so the client commits/rolls back consistently) but can no
        # longer change the record.
        self.resolved: Dict[Tuple[int, int], str] = {}
        # Upload seqs already rejected by the byzantine filter, so a
        # retransmitted poisoned report is not double-counted.
        self.rejected: set = set()


class RuntimeServer:
    """Accepts SBS connections and runs Algorithm 1 over them."""

    def __init__(
        self,
        problem: Instance,
        config: DistributedConfig,
        runtime: RuntimeConfig,
        *,
        privacy: Optional[MechanismConfig] = None,
        rng: Union[int, np.random.Generator, None] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        self.runtime = runtime
        self.privacy = privacy
        self.bus = Channel()
        # Registration order matches DistributedOptimizer: BS first, then
        # the SBSs in index order (broadcast fan-out order parity).
        self.base_station = BaseStationAgent(
            problem, self.bus, with_prices=config.coordination == "prices"
        )
        self.layout = self.base_station.layout
        for index in problem.sbs_indices():
            self.bus.register(f"sbs-{index}")
        self.accountant = PrivacyAccountant() if privacy is not None else None
        # Per-SBS mechanism seeds, drawn exactly as the in-process
        # optimizer draws them (index order, one int64 per private SBS).
        generator = rng_from(rng)
        self.privacy_seeds: Dict[int, int] = {}
        if privacy is not None:
            for index in problem.sbs_indices():
                self.privacy_seeds[index] = int(
                    generator.integers(np.iinfo(np.int64).max)
                )
        self._links: Dict[int, _ClientLink] = {}
        self._hello: Dict[int, asyncio.Event] = {
            index: asyncio.Event() for index in problem.sbs_indices()
        }
        self._fold_count: Dict[int, int] = {index: 0 for index in problem.sbs_indices()}
        self._slack = 0.0
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        # Chaos proxy (when interposed), so span-enabled runs can emit
        # its recorded fault fates into the trace before ``run_end``.
        self.proxy: Optional[ChaosProxy] = None
        # Span tracker for the BS node; re-evaluated at run() entry so a
        # server built outside a recording context still picks spans up.
        self._spans: Any = spans.NOOP_TRACKER

    # -- connection plumbing -------------------------------------------
    async def start(self) -> int:
        """Bind an ephemeral port and start accepting; returns the port."""
        self._server = await asyncio.start_server(
            self._accept, self.runtime.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in self._links.values():
            link.source.close()
            link.writer.close()

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        source = FrameSource(reader)
        kind, frame = await source.next(self.runtime.control_timeout)
        hello: Mapping[str, Any] = {}
        if kind == "frame" and frame is not None and frame.kind is MessageKind.CONTROL:
            hello = frame.meta or {}
        index = int(hello["index"]) if hello.get("action") == "hello" and "index" in hello else -1
        if index not in self._hello or index in self._links:
            source.close()
            writer.close()
            return
        self._links[index] = _ClientLink(index, source, writer)
        self._hello[index].set()

    async def _await_hellos(self) -> None:
        try:
            await asyncio.wait_for(
                asyncio.gather(*(event.wait() for event in self._hello.values())),
                timeout=self.runtime.control_timeout,
            )
        except asyncio.TimeoutError:
            missing = sorted(i for i, e in self._hello.items() if not e.is_set())
            raise ProtocolTimeout(
                f"SBS clients {missing} did not connect within "
                f"{self.runtime.control_timeout}s"
            ) from None

    def _write(self, link: _ClientLink, frame: Frame) -> None:
        if not link.alive:
            return
        try:
            write_frame(link.writer, frame)
        except (ConnectionError, OSError):
            link.alive = False

    async def _flush_link(self, link: _ClientLink) -> None:
        """Push every bus message queued for this client onto its socket."""
        for message in self.bus.drain(link.name):
            self._write(link, frame_from_message(message))
        if link.alive:
            try:
                await link.writer.drain()
            except (ConnectionError, OSError):
                link.alive = False

    async def _flush_all(self) -> None:
        for link in self._links.values():
            await self._flush_link(link)

    async def _send_control(
        self,
        link: _ClientLink,
        iteration: int,
        phase: int,
        meta: Dict[str, Any],
        *,
        trace_ctx: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._write(
            link,
            Frame(
                kind=MessageKind.CONTROL,
                sender="bs",
                recipient=link.name,
                iteration=iteration,
                phase=phase,
                meta=meta,
                trace_ctx=trace_ctx,
            ),
        )
        if link.alive:
            try:
                await link.writer.drain()
            except (ConnectionError, OSError):
                link.alive = False

    # -- upload ingestion ----------------------------------------------
    def _byzantine_verdict(self, index: int, block: np.ndarray) -> Optional[str]:
        """Why the filter dislikes SBS ``index``'s ``block`` (``None`` when clean)."""
        if block.shape != self.layout.report_shape(index):
            return "shape"
        if not np.all(np.isfinite(block)):
            return "nonfinite"
        if block.min() < -1e-9 or block.max() > 1.0 + self._slack + 1e-9:
            return "range"
        return None

    async def _ingest_upload(self, link: _ClientLink, frame: Frame) -> None:
        """Validate one upload, fold it via the bus, flush the ack."""
        if frame.sender != link.name or frame.array is None:
            self.bus.stats.corrupted += 1
            return
        tag = (frame.iteration, frame.phase)
        if tag in link.resolved:
            # The deadline policy already closed this phase; folding now
            # would desync the client's rollback from the BS aggregate.
            return
        block = frame.array
        if self.runtime.byzantine_filter:
            reason = self._byzantine_verdict(link.index, block)
            if reason is not None:
                action = (
                    "reject"
                    if reason == "shape" or self.runtime.byzantine_policy == "reject"
                    else "clip"
                )
                if frame.seq not in link.rejected:
                    link.rejected.add(frame.seq)
                    self.bus.stats.byzantine_rejected += 1
                    obs.emit(
                        "protocol",
                        event="byzantine_reject",
                        sbs=link.index,
                        iteration=frame.iteration,
                        phase=frame.phase,
                        reason=reason,
                        action=action,
                    )
                if action == "reject":
                    return  # no ack: the sender's ARQ exhausts and degrades
                block = np.clip(
                    np.nan_to_num(block, nan=0.0, posinf=1.0, neginf=0.0),
                    0.0,
                    1.0 + self._slack,
                )
        elif block.shape != self.layout.report_shape(link.index):
            # Without the filter a malformed block is indistinguishable
            # from wire corruption; count it, never crash the fold.
            self.bus.stats.corrupted += 1
            return
        self.bus.send(
            Message(
                kind=MessageKind.POLICY_UPLOAD,
                sender=link.name,
                recipient="bs",
                payload=block,
                iteration=frame.iteration,
                phase=frame.phase,
                seq=frame.seq,
            )
        )
        if link.index in self.base_station.absorb_uploads():
            self._fold_count[link.index] += 1
        await self._flush_link(link)

    # -- event replay --------------------------------------------------
    def _replay(self, meta: Mapping[str, Any], *, rebase: Optional[float] = None) -> None:
        """Fold a client report's trace events, corrupt frames and counters in.

        Only the event families the in-process optimizer emits from
        *inside* a phase are replayed — privacy releases (also folded
        into the server's accountant), crash recoveries and, for
        span-enabled runs, the client's ``span`` events (solve + upload
        attempts).  Retries are synthesized separately from the
        ``phase_done`` retry count so they can never be double-reported.
        The counters go into the active recorder's table only: in tasks
        mode the client's ``perf.count`` calls already reached the
        process adapter.

        ``rebase`` is the server-side wall-clock at grant time: client
        span ``t0``/``t1`` values come from a foreign ``perf_counter``
        epoch (a different process in ``"processes"`` mode), so they are
        shifted onto the server's clock before re-emission, anchoring
        the earliest client span at the grant.
        """
        self.bus.stats.corrupted += int(meta.get("corrupted", 0))
        table, counts = obs.active_counters(), meta.get("counters")
        if table is not None and isinstance(counts, Mapping):
            # From the network: fold only the integer counts.
            table.fold({str(name): n for name, n in counts.items() if type(n) is int})
        events: List[Dict[str, Any]] = list(meta.get("events", []))
        shift: Optional[float] = None
        if rebase is not None:
            t0s = [
                event["t0"]
                for event in events
                if event.get("type") == "span" and "t0" in event
            ]
            if t0s:
                shift = rebase - min(t0s)
        for event in events:
            fields = {key: value for key, value in event.items() if key != "type"}
            type_ = event.get("type")
            if type_ == "privacy":
                if self.accountant is not None:
                    self.accountant.record(
                        party=str(fields.get("party")),
                        epsilon=float(fields.get("epsilon", 0.0)),
                        label=str(fields.get("label")),
                    )
                obs.emit("privacy", **fields)
            elif type_ == "protocol" and fields.get("event") == "recover":
                obs.emit("protocol", **fields)
            elif type_ == "span" and obs.spans_enabled():
                try:
                    self._spans.observe_clock(int(fields.get("le", 0)))
                except (TypeError, ValueError):
                    pass
                if shift is not None:
                    for key in ("t0", "t1"):
                        if key in fields:
                            fields[key] = float(fields[key]) + shift
                obs.emit("span", **fields)

    async def _send_verdict(
        self, link: _ClientLink, iteration: int, phase: int, verdict: str
    ) -> None:
        """Tell the client how its phase ended, so it commits or rolls back."""
        meta = {"action": "phase_result", "iteration": iteration, "phase": phase}
        meta["verdict"] = verdict
        await self._send_control(link, iteration, phase, meta)

    async def _replay_late(self, link: _ClientLink, meta: Dict[str, Any]) -> None:
        """Handle a ``phase_done`` for a phase the deadline already closed.

        The record is final — only the client-side events (privacy
        spends, recoveries) and counts are salvaged, never retries — but the client
        is still waiting on a verdict, so send the recorded one.
        """
        self._replay(meta)
        tag = (int(meta.get("iteration", -1)), int(meta.get("phase", -1)))
        await self._send_verdict(link, *tag, link.resolved.get(tag, "degraded"))

    async def _serve(
        self, link: _ClientLink, tag: Optional[Tuple[int, int]] = None
    ) -> Optional[Dict[str, Any]]:
        """Process the link's frames: fold uploads, answer late ``phase_done``.

        With ``tag``, the granted ``(iteration, phase)``, serve until that
        phase's ``phase_done`` (returned) or the phase deadline.  Without
        it, process only what is already buffered: late traffic from
        deadline-closed phases is resolved before the client's next
        grant.  Returns ``None`` otherwise; EOF marks the link dead.
        """
        loop = asyncio.get_running_loop()
        end = loop.time() + self.runtime.phase_deadline
        while True:
            remaining = 0.0
            if tag is not None:
                remaining = end - loop.time()
                if remaining <= 0:
                    return None
            kind, frame = await link.source.next(remaining)
            if kind == "eof":
                link.alive = False
            if kind in ("timeout", "eof"):
                return None
            if kind == "corrupt":
                self.bus.stats.corrupted += 1
                continue
            assert frame is not None
            if frame.kind is MessageKind.POLICY_UPLOAD:
                await self._ingest_upload(link, frame)
            elif frame.kind is MessageKind.CONTROL:
                meta = frame.meta or {}
                if meta.get("action") == "phase_done":
                    if (int(meta.get("iteration", -1)), int(meta.get("phase", -1))) == tag:
                        return meta
                    await self._replay_late(link, meta)

    # -- the sweep -----------------------------------------------------
    async def _broadcast(self, slot: PhaseSlot) -> None:
        """Line 5 after a delivered phase: update prices, queue the broadcast
        on the bus, then flush it (and the acks) out to every client."""
        self.base_station.broadcast_phase(slot, span=self._spans.span)
        with self._spans.span(
            "broadcast",
            category="broadcast",
            sbs=slot.sbs,
            iteration=slot.sweep.iteration,
            phase=slot.phase,
        ):
            await self._flush_all()

    async def _phase(self, slot: PhaseSlot) -> PhaseOutcome:
        """The socket transport: grant one phase, await it, replay its events.

        The client's ``phase_done`` brings the phase's verdict, retry
        count and in-phase events; the server replays those events,
        synthesizes the ``retry`` events, folds a delivered upload into
        the broadcast and sends the verdict back.  The grant carries the
        ``phase`` span's trace-context, so the client-side solve and
        upload-attempt spans stitch in under it.  A client that sends
        nothing by ``phase_deadline`` has its phase closed as expired
        (delivered if its upload was folded); a crashed or disconnected
        client skips the phase.
        """
        sweep, phase, index = slot.sweep, slot.phase, slot.sbs
        iteration = sweep.iteration
        link = self._links[index]
        schedule = self.runtime.faults.schedule if self.runtime.faults else None
        if schedule is not None and schedule.is_crashed(link.name, iteration):
            await self._send_control(link, iteration, phase, {"action": "crash"})
            return PhaseOutcome("crashed")
        await self._serve(link)
        meta: Optional[Dict[str, Any]] = None
        fold_before = self._fold_count[index]
        # Server-side wall-clock at grant time: the anchor client span
        # timestamps are rebased onto (timings-gated).
        window_t0 = self._spans.wall()
        if link.alive:
            await self._send_control(
                link,
                iteration,
                phase,
                {
                    "action": "solve",
                    "iteration": iteration,
                    "phase": phase,
                    "cap_slack": sweep.slack,
                },
                trace_ctx=slot.span.context(),
            )
            meta = await self._serve(link, (iteration, phase))
        if meta is None:
            # Straggler or dead client.  If the upload made it into the
            # fold the phase is *delivered* — the in-process exclusive
            # boundary rule — otherwise it is stale.
            folded = link.alive and self._fold_count[index] > fold_before
            link.resolved[(iteration, phase)] = "delivered" if folded else "degraded"
            if not link.alive:
                return PhaseOutcome("crashed")
            if folded:
                await self._broadcast(slot)
            self.bus.stats.deadline_expired += 1
            return PhaseOutcome("expired", folded=folded)
        self._replay(meta, rebase=window_t0)
        retries = int(meta.get("retries", 0))
        seq = int(meta.get("seq", 0))
        for attempt in range(1, retries + 1):
            self.bus.stats.retransmissions += 1
            obs.emit(
                "protocol",
                event="retry",
                sbs=index,
                iteration=iteration,
                phase=phase,
                attempt=attempt,
                seq=seq,
            )
        delivered = bool(meta.get("delivered")) or self.base_station.has_folded(index, seq)
        verdict = "delivered" if delivered else "degraded"
        await self._send_verdict(link, iteration, phase, verdict)
        if delivered:
            await self._broadcast(slot)
        return PhaseOutcome(
            verdict,
            retries=retries,
            noise_l1=float(meta.get("noise_l1", 0.0)),
            stats=meta.get("stats") or None,
        )

    # -- run orchestration ---------------------------------------------
    async def _shutdown_clients(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Release every client; return their final caching and routing."""
        finals: Dict[int, Mapping[str, Any]] = {}
        for index in self.problem.sbs_indices():
            link = self._links[index]
            await self._serve(link)
            await self._send_control(link, -1, -1, {"action": "shutdown"})
            meta: Optional[Dict[str, Any]] = None
            if link.alive:
                loop = asyncio.get_running_loop()
                end = loop.time() + self.runtime.control_timeout
                while meta is None:
                    remaining = end - loop.time()
                    if remaining <= 0:
                        break
                    kind, frame = await link.source.next(remaining)
                    if kind in ("timeout", "eof"):
                        break
                    if kind == "corrupt":
                        self.bus.stats.corrupted += 1
                        continue
                    assert frame is not None
                    if frame.kind is MessageKind.CONTROL:
                        frame_meta = frame.meta or {}
                        if frame_meta.get("action") == "final_state":
                            meta = frame_meta
                        elif frame_meta.get("action") == "phase_done":
                            await self._replay_late(link, frame_meta)
            if meta is not None:
                self._replay(meta)
                finals[index] = meta
        # Decoded only once every client is released, so a malformed
        # state cannot strand the clients still waiting for shutdown.
        caching: List[np.ndarray] = []
        routing: List[np.ndarray] = []
        for index in self.problem.sbs_indices():
            shapes = (self.layout.cache_size(index),), self.layout.report_shape(index)
            meta = finals.get(index)
            if meta is None:
                # A dead client's volatile state is gone, exactly like a
                # crashed in-process agent: zeros.
                caching.append(np.zeros(shapes[0]))
                routing.append(np.zeros(shapes[1]))
                continue
            try:
                caching.append(scatter_entries(meta, "caching", shapes[0]))
                routing.append(scatter_entries(meta, "true_routing", shapes[1]))
            except ValueError as error:
                raise ProtocolError(
                    f"{self._links[index].name}: malformed final_state {error}"
                ) from None
        return caching, routing

    async def run(self) -> DistributedResult:
        """Execute Algorithm 1 against the connected clients."""
        self._spans = (
            spans.SpanTracker("bs") if obs.spans_enabled() else spans.NOOP_TRACKER
        )
        await self._await_hellos()
        problem, layout = self.problem, self.layout
        run_loop = RunLoop(
            self.config,
            problem,
            cost=self.base_station.system_cost,
            private=self.accountant is not None,
            resilient=True,
            allowed_stale=int(
                np.floor((1.0 - self.runtime.quorum) * problem.num_sbs + 1e-9)
            ),
            span=self._spans.span,
            root_attrs={
                "mode": self.runtime.mode,
                "num_sbs": problem.num_sbs,
                **layout.run_fields,
            },
            counter=layout.counter,
            idle=layout.idle(),
        )
        run_loop.start(**layout.run_fields)
        self.base_station.broadcast_aggregate(iteration=-1, phase=-1)
        await self._flush_all()
        for sweep in run_loop.sweeps():
            self._slack = sweep.slack
            # The socket sweep ignores any sweep order: phase n is SBS n.
            for slot in run_loop.phases(problem.sbs_indices(), category="network"):
                run_loop.settle(slot, await self._phase(slot))

        caching, true_routing = await self._shutdown_clients()
        if obs.spans_enabled() and self.proxy is not None:
            # Chaos-proxy fault fates (deterministically ordered by link
            # and frame ordinal) belong inside the run bracket, before
            # the root span closes.
            for fate in self.proxy.fate_events():
                obs.emit("proxy", **fate)
            obs.emit("proxy", fate="summary", **self.proxy.stats_dict())
        return close_run(
            run_loop,
            layout,
            caching=caching,
            true_routing=true_routing,
            reports=[self.base_station.report(index) for index in problem.sbs_indices()],
            channel=self.bus,
            accountant=self.accountant,
        )


async def _run_runtime(
    problem: Instance,
    config: DistributedConfig,
    runtime: RuntimeConfig,
    privacy: Optional[MechanismConfig],
    rng: Union[int, np.random.Generator, None],
) -> Tuple[DistributedResult, RuntimeReport]:
    started = time.perf_counter()
    server = RuntimeServer(problem, config, runtime, privacy=privacy, rng=rng)
    proxy: Optional[ChaosProxy] = None
    tasks: List[asyncio.Task] = []
    processes: List[multiprocessing.process.BaseProcess] = []
    try:
        port = await server.start()
        client_port = port
        if runtime.faults is not None:
            proxy = ChaosProxy(runtime.faults, runtime.host, port, host=runtime.host)
            client_port = await proxy.start()
            server.proxy = proxy
        timings = obs.timings_enabled()
        spans_on = obs.spans_enabled()
        sessions = [
            ClientSession(
                index=index,
                host=runtime.host,
                port=client_port,
                problem=problem,
                config=config,
                ack_timeout=runtime.ack_timeout,
                control_timeout=runtime.control_timeout,
                timings=timings,
                spans=spans_on,
                privacy=privacy,
                privacy_seed=server.privacy_seeds.get(index),
                adversary=runtime.adversaries.get(index),
                straggle_seconds=runtime.straggle_delay(),
            )
            for index in problem.sbs_indices()
        ]
        if runtime.mode == "processes":
            context = multiprocessing.get_context("spawn")
            for session in sessions:
                process = context.Process(
                    target=client_main, args=(session,), daemon=True
                )
                process.start()
                processes.append(process)
        else:
            tasks = [asyncio.create_task(run_client(session)) for session in sessions]
        result = await server.run()
        report = RuntimeReport(
            mode=runtime.mode,
            num_clients=problem.num_sbs,
            wall_seconds=time.perf_counter() - started,
            deadline_expired=server.bus.stats.deadline_expired,
            byzantine_rejected=server.bus.stats.byzantine_rejected,
            corrupted=server.bus.stats.corrupted,
            retransmissions=server.bus.stats.retransmissions,
            stale_phases=result.stale_phases,
            proxy=None if proxy is None else proxy.stats_dict(),
        )
        return result, report
    finally:
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=runtime.control_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            for task in done:
                task.exception()  # retrieve, so the loop does not warn
        loop = asyncio.get_running_loop()
        for process in processes:
            await loop.run_in_executor(None, process.join, runtime.control_timeout)
            if process.is_alive():  # pragma: no cover - hung client safeguard
                process.terminate()
                await loop.run_in_executor(None, process.join, 5.0)
        if proxy is not None:
            await proxy.close()
        await server.close()


def solve_over_sockets(
    problem: Instance,
    config: Optional[DistributedConfig] = None,
    *,
    privacy: Optional[MechanismConfig] = None,
    rng: Union[int, np.random.Generator, None] = None,
    runtime: Optional[RuntimeConfig] = None,
) -> Tuple[DistributedResult, RuntimeReport]:
    """Run Algorithm 1 with every SBS as a socket client of the BS.

    The distributed semantics — and, for fault-free runs, the exact
    trace and :class:`~repro.core.solution.Solution` — match
    ``solve_distributed(problem, config, faults=FaultConfig())``; see
    ``docs/failure_model.md`` for the runtime's threat model.  Returns
    the solver result plus the transport-level
    :class:`~repro.runtime.config.RuntimeReport` (wall time, stragglers,
    byzantine rejections, chaos-proxy ledger).

    A :class:`~repro.core.sparse.SparseProblemInstance` runs on pair
    vectors, as in process: every frame carries an SBS's ``P_n`` pair
    entries or the ``nnz``-long aggregate, never a ``(U, F)`` block.
    """
    config = config or DistributedConfig()
    runtime = runtime or RuntimeConfig()
    if config.mode != "gauss-seidel":
        raise ValidationError(
            "the socket runtime implements the gauss-seidel protocol; "
            f"got mode {config.mode!r}"
        )
    if config.restarts != 1:
        raise ValidationError(
            "the socket runtime runs a single pass; use solve_distributed "
            "for multi-restart searches"
        )
    if runtime.phase_deadline < runtime.ack_timeout * (config.max_retries + 2):
        raise ValidationError(
            "phase_deadline must cover a full ARQ exhaustion: need at least "
            f"ack_timeout * (max_retries + 2) = "
            f"{runtime.ack_timeout * (config.max_retries + 2):.3f}s, got "
            f"{runtime.phase_deadline}s"
        )
    for index in runtime.adversaries:
        problem._check_sbs(int(index))
    # The coroutine ``asyncio.run`` drives returns None: on CPython 3.11
    # its SIGINT handling formats the main task, result included, and the
    # result's repr would format every array in it.
    outcome: List[Tuple[DistributedResult, RuntimeReport]] = []

    async def main() -> None:
        outcome.append(await _run_runtime(problem, config, runtime, privacy, rng))

    asyncio.run(main())
    return outcome[0]
