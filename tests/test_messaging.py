"""Tests for the message-passing substrate."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import FrameError, ProtocolError, ValidationError
from repro.network.messaging import MAX_PAYLOAD_BYTES, Channel, Message, MessageKind


def make_message(sender="sbs-0", recipient="bs", kind=MessageKind.POLICY_UPLOAD):
    return Message(
        kind=kind,
        sender=sender,
        recipient=recipient,
        payload=np.ones((2, 2)),
        iteration=0,
        phase=0,
    )


class TestChannelBasics:
    def test_send_receive(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.send(make_message())
        message = channel.receive("bs")
        np.testing.assert_array_equal(message.payload, np.ones((2, 2)))

    def test_fifo_order(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        first = make_message()
        second = Message(
            kind=MessageKind.POLICY_UPLOAD,
            sender="sbs-0",
            recipient="bs",
            payload=np.zeros((1,)),
            iteration=1,
            phase=0,
        )
        channel.send(first)
        channel.send(second)
        assert channel.receive("bs").iteration == 0
        assert channel.receive("bs").iteration == 1

    def test_unknown_recipient(self):
        channel = Channel()
        channel.register("bs")
        with pytest.raises(ProtocolError, match="unknown recipient"):
            channel.send(make_message(recipient="ghost"))

    def test_receive_unregistered(self):
        channel = Channel()
        with pytest.raises(ProtocolError):
            channel.receive("nobody")

    def test_receive_empty(self):
        channel = Channel()
        channel.register("bs")
        with pytest.raises(ProtocolError, match="no pending"):
            channel.receive("bs")

    def test_invalid_node_name(self):
        channel = Channel()
        with pytest.raises(ValidationError):
            channel.register("*")

    def test_pending_and_drain(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.send(make_message())
        channel.send(make_message())
        assert channel.pending("bs") == 2
        assert len(channel.drain("bs")) == 2
        assert channel.pending("bs") == 0

    def test_drain_preserves_fifo_order(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        for iteration in range(4):
            channel.send(
                Message(
                    kind=MessageKind.POLICY_UPLOAD,
                    sender="sbs-0",
                    recipient="bs",
                    payload=np.zeros((1,)),
                    iteration=iteration,
                    phase=0,
                )
            )
        assert [m.iteration for m in channel.drain("bs")] == [0, 1, 2, 3]

    def test_drain_empty_queue_returns_empty_list(self):
        channel = Channel()
        channel.register("bs")
        assert channel.drain("bs") == []

    def test_drain_unregistered_node(self):
        channel = Channel()
        with pytest.raises(ProtocolError, match="not registered"):
            channel.drain("ghost")

    def test_pending_unregistered_node(self):
        channel = Channel()
        with pytest.raises(ProtocolError, match="not registered"):
            channel.pending("ghost")

    def test_empty_node_name_rejected(self):
        channel = Channel()
        with pytest.raises(ValidationError):
            channel.register("")


class TestBroadcast:
    def test_broadcast_reaches_everyone_but_sender(self):
        channel = Channel()
        for name in ("bs", "sbs-0", "sbs-1"):
            channel.register(name)
        channel.send(make_message(sender="bs", recipient="*", kind=MessageKind.AGGREGATE_BROADCAST))
        assert channel.pending("sbs-0") == 1
        assert channel.pending("sbs-1") == 1
        assert channel.pending("bs") == 0

    def test_newer_broadcast_supersedes_a_queued_one(self):
        """A mailbox keeps only the newest broadcast of each sender, in
        order among the other mail; stats and taps still see every send."""
        channel = Channel()
        for name in ("bs", "relay", "sbs-0"):
            channel.register(name)
        tapped = []
        channel.tap(tapped.append)

        def broadcast(sender, iteration):
            message = make_message(
                sender=sender, recipient="*", kind=MessageKind.AGGREGATE_BROADCAST
            )
            channel.send(dataclasses.replace(message, iteration=iteration))

        broadcast("bs", 0)
        broadcast("relay", 0)
        channel.send(make_message(sender="bs", recipient="sbs-0", kind=MessageKind.ACK))
        broadcast("bs", 1)
        broadcast("bs", 2)
        queued = [(m.sender, m.kind, m.iteration) for m in channel.drain("sbs-0")]
        assert queued == [
            ("relay", MessageKind.AGGREGATE_BROADCAST, 0),
            ("bs", MessageKind.ACK, 0),
            ("bs", MessageKind.AGGREGATE_BROADCAST, 2),
        ]
        assert len(tapped) == 5
        assert channel.stats.by_kind == {"aggregate": 4, "ack": 1}

    def test_broadcast_without_nodes(self):
        channel = Channel()
        channel.register("bs")
        with pytest.raises(ProtocolError, match="no nodes"):
            channel.send(
                make_message(sender="bs", recipient="*", kind=MessageKind.AGGREGATE_BROADCAST)
            )


class TestPayloadIsolation:
    def test_payload_copied_on_send(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        payload = np.ones((2,))
        message = Message(
            kind=MessageKind.POLICY_UPLOAD,
            sender="sbs-0",
            recipient="bs",
            payload=payload,
            iteration=0,
            phase=0,
        )
        channel.send(message)
        payload[0] = 99.0  # sender mutates after send
        delivered = channel.receive("bs")
        assert delivered.payload[0] == 1.0

    def test_delivered_payload_read_only(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.send(make_message())
        delivered = channel.receive("bs")
        with pytest.raises(ValueError):
            delivered.payload[0, 0] = 5.0


class TestTapsAndStats:
    def test_tap_sees_everything(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        seen = []
        channel.tap(seen.append)
        channel.send(make_message())
        channel.send(make_message(sender="bs", recipient="*", kind=MessageKind.AGGREGATE_BROADCAST))
        assert len(seen) == 2

    def test_stats_counters(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.send(make_message())
        assert channel.stats.messages_sent == 1
        assert channel.stats.bytes_sent == 4 * 8
        assert channel.stats.by_kind == {"policy_upload": 1}

    def test_bytes_by_kind_breakdown(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.send(make_message())  # (2, 2) float64 upload = 32 bytes
        channel.send(make_message())
        channel.send(
            Message(
                kind=MessageKind.AGGREGATE_BROADCAST,
                sender="bs",
                recipient="*",
                payload=np.zeros((3,)),  # 24 bytes
                iteration=0,
                phase=0,
            )
        )
        assert channel.stats.bytes_by_kind == {"policy_upload": 64, "aggregate": 24}
        assert sum(channel.stats.bytes_by_kind.values()) == channel.stats.bytes_sent

    def test_zero_length_payload_rejected_at_send(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        with pytest.raises(FrameError, match="zero-length"):
            channel.send(
                Message(
                    kind=MessageKind.POLICY_UPLOAD,
                    sender="sbs-0",
                    recipient="bs",
                    payload=np.zeros((0, 4)),
                    iteration=0,
                    phase=0,
                )
            )

    def test_oversized_payload_rejected_at_send(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        with pytest.raises(FrameError, match="exceed"):
            channel.send(
                Message(
                    kind=MessageKind.POLICY_UPLOAD,
                    sender="sbs-0",
                    recipient="bs",
                    payload=np.zeros(MAX_PAYLOAD_BYTES // 8 + 1),
                    iteration=0,
                    phase=0,
                )
            )

    def test_non_numeric_payload_rejected_at_send(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        with pytest.raises(FrameError, match="numeric"):
            channel.send(
                Message(
                    kind=MessageKind.POLICY_UPLOAD,
                    sender="sbs-0",
                    recipient="bs",
                    payload=np.array(["nope"], dtype=object),
                    iteration=0,
                    phase=0,
                )
            )

    def test_fault_counters_start_at_zero(self):
        stats = Channel().stats
        assert stats.dropped == stats.duplicated == stats.delayed == 0
        assert stats.reordered == stats.retransmissions == 0

    def test_message_nbytes(self):
        assert make_message().nbytes() == 32

    def test_default_seq_is_unsequenced(self):
        assert make_message().seq == 0


class TestRetransmissionAccounting:
    """ARQ re-sends hit the wire totals but not the payload ledgers."""

    def _sequenced(self, seq, payload=None):
        return Message(
            kind=MessageKind.POLICY_UPLOAD,
            sender="sbs-0",
            recipient="bs",
            payload=np.ones((2, 2)) if payload is None else payload,
            iteration=0,
            phase=0,
            seq=seq,
        )

    def test_retried_upload_not_double_counted_in_payload_ledger(self):
        """Regression: a retried upload used to inflate bytes_by_kind."""
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.send(self._sequenced(seq=1))
        channel.send(self._sequenced(seq=1))  # ARQ retry, same payload
        channel.send(self._sequenced(seq=1))  # second retry
        stats = channel.stats
        assert stats.messages_sent == 3            # wire traffic
        assert stats.bytes_sent == 96
        assert stats.by_kind == {"policy_upload": 1}       # distinct payloads
        assert stats.bytes_by_kind == {"policy_upload": 32}
        assert stats.retransmitted_messages == 2
        assert stats.retransmitted_bytes == 64

    def test_wire_ledger_invariant(self):
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        for seq in (1, 1, 2, 3, 3, 3):
            channel.send(self._sequenced(seq))
        stats = channel.stats
        assert stats.bytes_sent == (
            sum(stats.bytes_by_kind.values()) + stats.retransmitted_bytes
        )
        assert stats.by_kind == {"policy_upload": 3}
        assert stats.retransmitted_messages == 3

    def test_conversations_are_tracked_independently(self):
        """Seq spaces are per (sender, recipient, kind), not global."""
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        channel.register("sbs-1")
        channel.send(self._sequenced(seq=2))
        other = Message(
            kind=MessageKind.POLICY_UPLOAD,
            sender="sbs-1",
            recipient="bs",
            payload=np.ones((2, 2)),
            iteration=0,
            phase=0,
            seq=1,  # lower seq, but a different sender: not a re-send
        )
        channel.send(other)
        ack0 = Message(
            kind=MessageKind.ACK,
            sender="bs",
            recipient="sbs-0",
            payload=np.array([2.0]),
            iteration=0,
            phase=0,
            seq=2,
        )
        ack1 = dataclasses.replace(ack0, recipient="sbs-1", seq=1)
        channel.send(ack0)
        channel.send(ack1)  # lower seq, but a different recipient
        assert channel.stats.retransmitted_messages == 0
        assert channel.stats.by_kind == {"policy_upload": 2, "ack": 2}

    def test_unsequenced_traffic_never_classified_as_retransmission(self):
        """The failure-free protocol (seq=0 everywhere) is unaffected."""
        channel = Channel()
        channel.register("bs")
        channel.register("sbs-0")
        for _ in range(5):
            channel.send(make_message())
        assert channel.stats.retransmitted_messages == 0
        assert channel.stats.by_kind == {"policy_upload": 5}
        assert sum(channel.stats.bytes_by_kind.values()) == channel.stats.bytes_sent
