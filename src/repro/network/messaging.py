"""Synchronous message-passing substrate for the distributed algorithm.

The paper's Algorithm 1 exchanges two message kinds per phase:

* each SBS **uploads** its (possibly privacy-perturbed) routing policy to
  the BS (line 4);
* the BS **broadcasts** the aggregated load to the SBSs (line 5).

This module simulates those exchanges explicitly instead of sharing
numpy arrays between solver objects.  That buys three things:

1. the information flow matches the paper — an SBS only ever sees the
   *aggregate* ``y_{-n}``, never another SBS's individual policy;
2. channels support *taps*, so the eavesdropper of Section IV (who can
   observe the broadcast aggregate in transit) is a first-class object
   used by :mod:`repro.attacks`;
3. message and byte counters quantify the protocol's communication cost.

Payloads are defensively copied on send so a node mutating its local
array cannot retroactively alter a delivered message.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

import numpy as np

from ..analysis.taint import decl as taint
from ..exceptions import FrameError, ProtocolError, ValidationError

__all__ = ["MAX_PAYLOAD_BYTES", "MessageKind", "Message", "Channel", "ChannelStats"]

#: Hard ceiling on a single message payload (bytes).  The largest
#: legitimate payload is one stacked ``(2, U, F)`` price broadcast; 16 MiB
#: leaves orders of magnitude of headroom while still rejecting a
#: runaway (or adversarial) allocation before it is copied and queued.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024


class MessageKind(enum.Enum):
    """Protocol message types of Algorithm 1."""

    POLICY_UPLOAD = "policy_upload"        # SBS -> BS: routing block (U, F)
    AGGREGATE_BROADCAST = "aggregate"      # BS -> SBS: aggregated routing (U, F)
    ACK = "ack"                            # BS -> SBS: cumulative upload ack
    CONTROL = "control"                    # orchestration metadata


@taint.carrier
@dataclasses.dataclass(frozen=True)
class Message:
    """A single message in flight.

    ``sender``/``recipient`` are node names (``"bs"`` or ``"sbs-<n>"``;
    ``recipient="*"`` denotes a broadcast).  ``payload`` is a read-only
    numpy array; ``iteration`` and ``phase`` tag the Gauss-Seidel step
    that produced it.  ``seq`` is a per-sender sequence number used by
    the reliable-delivery (ARQ) layer; the default ``0`` means
    "unsequenced" and is what the failure-free protocol sends.
    """

    kind: MessageKind
    sender: str
    recipient: str
    payload: np.ndarray
    iteration: int
    phase: int
    seq: int = 0

    def nbytes(self) -> int:
        """Size of the payload in bytes (communication-cost accounting)."""
        return int(self.payload.nbytes)


@dataclasses.dataclass
class ChannelStats:
    """Cumulative traffic counters for a channel.

    Beyond the send counters, the fault-injection layer
    (:class:`repro.network.faults.FaultyChannel`) and the ARQ layer in
    :mod:`repro.core.distributed` fold their outcomes in here too, so a
    single object answers both "what did the protocol cost" and "what
    did the network do to it".
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    # Fault-injection outcomes (always zero on a reliable Channel).
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    # Receive-side integrity outcomes (populated by the truncation fault
    # and the socket runtime of :mod:`repro.runtime`): frames discarded
    # because their checksum or framing failed, reports rejected by the
    # BS's byzantine filter, and phases the BS closed because a straggler
    # missed the phase deadline.
    corrupted: int = 0
    byzantine_rejected: int = 0
    deadline_expired: int = 0
    # Retransmissions issued by the ARQ layer (each is also counted in
    # ``messages_sent`` when it hits the wire).
    retransmissions: int = 0
    # Wire traffic carrying an already-seen sequence number: ARQ resends
    # and repeated cumulative acks.  Counted in ``messages_sent`` /
    # ``bytes_sent`` (they do cross the wire) but kept out of the
    # per-kind payload ledgers, which tally each distinct payload once.
    retransmitted_messages: int = 0
    retransmitted_bytes: int = 0

    def record(self, message: Message, *, retransmission: bool = False) -> None:
        """Fold one sent message into the counters.

        ``messages_sent`` / ``bytes_sent`` are *wire* totals and grow on
        every send.  The ``by_kind`` / ``bytes_by_kind`` ledgers measure
        *delivered payload*, so a retried upload (same sequence number
        sent again) lands in ``retransmitted_*`` instead of inflating
        its kind's ledger; the invariant is
        ``bytes_sent == sum(bytes_by_kind.values()) + retransmitted_bytes``.
        """
        self.messages_sent += 1
        self.bytes_sent += message.nbytes()
        if retransmission:
            self.retransmitted_messages += 1
            self.retransmitted_bytes += message.nbytes()
            return
        key = message.kind.value
        self.by_kind[key] = self.by_kind.get(key, 0) + 1
        self.bytes_by_kind[key] = self.bytes_by_kind.get(key, 0) + message.nbytes()


class Channel:
    """A reliable, in-order, synchronous message channel with taps.

    ``send`` enqueues a message for its recipient; ``receive`` pops the
    oldest message addressed to a node (broadcasts are delivered to every
    registered node).  Taps registered via :meth:`tap` observe every
    message as it is sent — this models the paper's threat: "attackers
    [can] access the aggregated routing policy during the broadcasting".
    """

    def __init__(self) -> None:
        self._queues: Dict[str, Deque[Message]] = {}
        self._taps: List[Callable[[Message], None]] = []
        self.stats = ChannelStats()
        # Highest sequence number seen per (sender, recipient, kind)
        # conversation; a sequenced message at or below it is a re-send.
        self._highest_seq: Dict[Tuple[str, str, str], int] = {}

    def register(self, node_name: str) -> None:
        """Register a node so it can receive broadcasts."""
        if not node_name or node_name == "*":
            raise ValidationError(f"invalid node name {node_name!r}")
        self._queues.setdefault(node_name, deque())

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._queues)

    def tap(self, observer: Callable[[Message], None]) -> None:
        """Attach an observer invoked for every sent message."""
        self._taps.append(observer)

    @taint.sink("bs-upload")
    def send(self, message: Message) -> None:
        """Deliver ``message`` (or broadcast it when recipient is ``"*"``).

        Payloads are validated at the send boundary: a zero-length or
        oversized payload (or one that cannot be represented as a float
        array at all) raises :class:`~repro.exceptions.FrameError`
        instead of being silently queued — the receive side should never
        have to guess what an empty routing block means.
        """
        try:
            payload = np.array(message.payload, dtype=np.float64, copy=True)
        except (TypeError, ValueError) as error:
            raise FrameError(
                f"{message.kind.value} payload from {message.sender!r} is not "
                f"numeric: {error}"
            ) from error
        if payload.size == 0:
            raise FrameError(
                f"zero-length {message.kind.value} payload from {message.sender!r}"
            )
        if payload.nbytes > MAX_PAYLOAD_BYTES:
            raise FrameError(
                f"{message.kind.value} payload from {message.sender!r} is "
                f"{payload.nbytes} bytes, exceeding the {MAX_PAYLOAD_BYTES}-byte frame limit"
            )
        payload.setflags(write=False)
        message = dataclasses.replace(message, payload=payload)
        if message.recipient == "*":
            recipients = [name for name in self._queues if name != message.sender]
            if not recipients:
                raise ProtocolError("broadcast sent but no nodes are registered")
        else:
            if message.recipient not in self._queues:
                raise ProtocolError(f"unknown recipient {message.recipient!r}")
            recipients = [message.recipient]
        retransmission = False
        if message.seq > 0:
            conversation = (message.sender, message.recipient, message.kind.value)
            if message.seq <= self._highest_seq.get(conversation, 0):
                retransmission = True
            else:
                self._highest_seq[conversation] = message.seq
        self.stats.record(message, retransmission=retransmission)
        for observer in self._taps:
            observer(message)
        self._deliver(message, recipients)

    def _deliver(self, message: Message, recipients: List[str]) -> None:
        """Enqueue ``message`` for each recipient (reliable, in order).

        A new aggregate broadcast evicts the same sender's older one
        still queued (in order, the newest is the freshest).  Subclasses
        (:class:`repro.network.faults.FaultyChannel`) override this hook
        to drop, duplicate, delay or reorder deliveries; taps and stats
        have already observed the send by the time it runs.
        """
        supersedes = message.kind is MessageKind.AGGREGATE_BROADCAST
        for name in recipients:
            queue = self._queues[name]
            for position, queued in enumerate(queue if supersedes else ()):
                if queued.kind is message.kind and queued.sender == message.sender:
                    del queue[position]  # at most one is ever queued
                    break
            queue.append(message)

    def receive(self, node_name: str) -> Message:
        """Pop the oldest pending message for ``node_name``."""
        if node_name not in self._queues:
            raise ProtocolError(f"node {node_name!r} is not registered")
        queue = self._queues[node_name]
        if not queue:
            raise ProtocolError(f"no pending message for {node_name!r}")
        return queue.popleft()

    def pending(self, node_name: str) -> int:
        """Number of undelivered messages for ``node_name``."""
        if node_name not in self._queues:
            raise ProtocolError(f"node {node_name!r} is not registered")
        return len(self._queues[node_name])

    def drain(self, node_name: str) -> List[Message]:
        """Receive every pending message for ``node_name``."""
        messages = []
        while self.pending(node_name):
            messages.append(self.receive(node_name))
        return messages
