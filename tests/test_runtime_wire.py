"""Wire codec tests: framing, CRC, header/trace peeking, limits, fuzz."""

import asyncio
import math
import socket
import struct
import zlib

import numpy as np
import pytest

from repro.exceptions import FrameError
from repro.network.messaging import MAX_PAYLOAD_BYTES, Message, MessageKind
from repro.runtime import (
    Frame,
    decode_frame,
    encode_frame,
    frame_from_message,
    peek_header,
)
from repro.runtime.wire import MAX_FRAME_BYTES, peek_trace_ctx, read_frame, write_frame


def _array_frame(**overrides):
    fields = dict(
        kind=MessageKind.POLICY_UPLOAD,
        sender="sbs-0",
        recipient="bs",
        iteration=3,
        phase=1,
        seq=7,
        array=np.arange(12.0).reshape(3, 4),
    )
    fields.update(overrides)
    return Frame(**fields)


class TestRoundTrip:
    def test_array_frame_round_trips_exactly(self):
        frame = _array_frame()
        decoded = decode_frame(encode_frame(frame))
        assert decoded.kind is MessageKind.POLICY_UPLOAD
        assert (decoded.sender, decoded.recipient) == ("sbs-0", "bs")
        assert (decoded.iteration, decoded.phase, decoded.seq) == (3, 1, 7)
        assert decoded.array.dtype == np.float64
        np.testing.assert_array_equal(decoded.array, frame.array)
        assert decoded.meta is None

    def test_1d_shape_survives(self):
        payload = np.array([1.0, 2.0, 3.0])
        decoded = decode_frame(encode_frame(_array_frame(array=payload)))
        assert decoded.array.shape == payload.shape
        np.testing.assert_array_equal(decoded.array, payload)

    def test_0d_scalar_decodes_as_length_one_vector(self):
        # Protocol payloads are always >= 1-d (acks are shape (1,)); a
        # 0-d scalar flattens to (1,) on the wire rather than erroring.
        decoded = decode_frame(encode_frame(_array_frame(array=np.array(5.0))))
        assert decoded.array.shape == (1,)
        assert decoded.array[0] == 5.0

    def test_json_frame_round_trips_floats_exactly(self):
        # repr-based shortest round-trip: float64 values survive the hop.
        meta = {
            "action": "phase_done",
            "noise_l1": 0.1 + 0.2,
            "stats": {"dual_gap": 1e-17, "solve_seconds": 3.141592653589793},
            "delivered": True,
        }
        frame = _array_frame(array=None, meta=meta, kind=MessageKind.CONTROL)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.meta == meta
        assert decoded.meta["noise_l1"] == 0.1 + 0.2
        assert decoded.array is None

    def test_message_round_trip(self):
        message = Message(
            kind=MessageKind.ACK,
            sender="bs",
            recipient="sbs-2",
            payload=np.array([4.0]),
            iteration=2,
            phase=0,
            seq=4,
        )
        back = decode_frame(encode_frame(frame_from_message(message))).to_message()
        assert back.kind is MessageKind.ACK
        assert (back.sender, back.recipient, back.seq) == ("bs", "sbs-2", 4)
        np.testing.assert_array_equal(back.payload, message.payload)

    def test_json_frame_has_no_message_equivalent(self):
        frame = _array_frame(array=None, meta={"action": "hello"})
        with pytest.raises(FrameError, match="no Message equivalent"):
            frame.to_message()


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _payload_len(raw, frame):
    """Bytes of the payload section: the frame minus header, names, dims, CRC."""
    return len(raw) - 22 - len(frame.sender) - len(frame.recipient) - 4 * frame.array.ndim - 4


class TestSparsePayload:
    def test_special_values_cross_bit_for_bit(self):
        nan_with_payload = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
        values = np.array(
            [0.0, -0.0, nan_with_payload, np.inf, -np.inf, 5e-324, -2.2e-308, 1.0, 0.0]
        )
        decoded = decode_frame(encode_frame(_array_frame(array=values))).array
        np.testing.assert_array_equal(_bits(decoded), _bits(values))

    @pytest.mark.parametrize("fill", [0.0, 1.5], ids=["all-zero", "all-nonzero"])
    def test_uniform_blocks_round_trip(self, fill):
        block = np.full((5, 7), fill)
        frame = _array_frame(array=block)
        raw = encode_frame(frame)
        decoded = decode_frame(raw).array
        np.testing.assert_array_equal(_bits(decoded), _bits(block))
        assert _payload_len(raw, frame) == math.ceil(35 / 8) + (8 * 35 if fill else 0)

    @pytest.mark.parametrize("size", range(1, 18))
    def test_every_bitmap_padding_length(self, size):
        rng = np.random.default_rng(size)
        block = np.where(rng.random(size) < 0.5, rng.normal(size=size), 0.0)
        frame = _array_frame(array=block)
        raw = encode_frame(frame)
        np.testing.assert_array_equal(_bits(decode_frame(raw).array), _bits(block))
        nonzero = int(np.count_nonzero(block))
        assert _payload_len(raw, frame) == math.ceil(size / 8) + 8 * nonzero
        assert _payload_len(raw, frame) <= block.nbytes + math.ceil(size / 8)

    def test_prices_payload_decodes_c_ordered_and_read_only(self):
        # The prices-mode broadcast: aggregate stacked on prices, (2, U, F).
        rng = np.random.default_rng(7)
        block = np.where(rng.random((2, 4, 9)) < 0.2, rng.random((2, 4, 9)), 0.0)
        frame = _array_frame(kind=MessageKind.AGGREGATE_BROADCAST, array=block)
        raw = encode_frame(frame)
        decoded = decode_frame(raw).array
        assert decoded.shape == (2, 4, 9)
        assert decoded.dtype == np.float64
        assert decoded.flags.c_contiguous and not decoded.flags.writeable
        np.testing.assert_array_equal(_bits(decoded), _bits(block))
        assert _payload_len(raw, frame) <= block.nbytes + math.ceil(block.size / 8)

    def test_fortran_ordered_input_travels_in_c_order(self):
        block = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        decoded = decode_frame(encode_frame(_array_frame(array=block))).array
        assert decoded.flags.c_contiguous
        np.testing.assert_array_equal(decoded, block)

    def test_nonzero_padding_bits_rejected(self):
        # Shape (3,): one bitmap byte whose 5 low bits are padding.
        raw = bytearray(encode_frame(_array_frame(array=np.zeros(3))))
        raw[-5] |= 0x01  # the bitmap byte is the whole payload
        with pytest.raises(FrameError, match="padding"):
            decode_frame(_resign(bytes(raw[:-4])))

    def test_value_count_mismatch_rejected(self):
        body = encode_frame(_array_frame(array=np.array([0.0, 2.0, 0.0])))[:-4]
        with pytest.raises(FrameError, match="bitmap needs"):
            decode_frame(_resign(body + struct.pack("<d", 3.0)))
        with pytest.raises(FrameError, match="bitmap needs"):
            decode_frame(_resign(body[:-8]))

    def test_shape_beyond_the_payload_cap_rejected(self):
        # An all-zero bitmap is 64x smaller than the block it describes;
        # the decoder caps the block, not just the frame.
        cells = MAX_PAYLOAD_BYTES // 8 + 8
        header = bytes(encode_frame(_array_frame(array=np.zeros(1))))[:29]
        body = header + struct.pack("<I", cells) + bytes(cells // 8)
        with pytest.raises(FrameError, match="exceeding"):
            decode_frame(_resign(body))

    def test_truncated_bitmap_rejected(self):
        # Shape (20,) all zero: the payload is a 3-byte bitmap; cut it short.
        body = encode_frame(_array_frame(array=np.zeros(20)))[:-4]
        with pytest.raises(FrameError, match="shorter than"):
            decode_frame(_resign(body[:-1]))


class TestCorruptionDetection:
    def test_flipped_payload_byte_fails_crc(self):
        raw = bytearray(encode_frame(_array_frame()))
        raw[-10] ^= 0xFF  # inside the payload, before the CRC
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(raw))

    def test_truncated_frame_rejected(self):
        raw = encode_frame(_array_frame())
        with pytest.raises(FrameError):
            decode_frame(raw[: len(raw) // 2])

    def test_bad_magic_rejected(self):
        raw = bytearray(encode_frame(_array_frame()))
        raw[0:4] = b"XXXX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(raw))

    def test_unknown_version_rejected(self):
        raw = bytearray(encode_frame(_array_frame()))
        raw[4] = 99
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(raw))

    def test_unknown_kind_code_rejected(self):
        raw = bytearray(encode_frame(_array_frame()))
        raw[5] = 99  # kind byte; re-sign the CRC so only the kind is bad
        body = bytes(raw[:-4])
        import zlib

        signed = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FrameError, match="kind"):
            decode_frame(signed)


class TestPeekHeader:
    def test_routing_fields_without_full_decode(self):
        header = peek_header(encode_frame(_array_frame()))
        assert header.kind is MessageKind.POLICY_UPLOAD
        assert (header.iteration, header.phase, header.seq) == (3, 1, 7)
        assert (header.sender, header.recipient) == ("sbs-0", "bs")

    def test_peek_ignores_payload_corruption(self):
        # The proxy routes on the header even when the payload is damaged.
        raw = bytearray(encode_frame(_array_frame()))
        raw[-6] ^= 0xFF
        header = peek_header(bytes(raw))
        assert header.sender == "sbs-0"


def _resign(body: bytes) -> bytes:
    """Append a fresh CRC32 so only the deliberate damage is visible."""
    return body + struct.pack("<I", zlib.crc32(body))


_CTX = {"trace": "bs", "span": "bs:4", "clock": 17}


class TestTraceContext:
    def test_context_round_trips_on_both_payload_flavours(self):
        for frame in (
            _array_frame(trace_ctx=_CTX),
            _array_frame(
                array=None, meta={"action": "grant"}, kind=MessageKind.CONTROL,
                trace_ctx=_CTX,
            ),
        ):
            decoded = decode_frame(encode_frame(frame))
            assert decoded.trace_ctx == _CTX

    def test_frames_without_context_are_unchanged(self):
        # The trace section is strictly additive: no flag bit, no extra
        # bytes, and peeking returns None before any parsing.
        raw = encode_frame(_array_frame())
        assert not raw[6] & 0x02
        assert peek_trace_ctx(raw) is None
        assert decode_frame(raw).trace_ctx is None
        assert len(encode_frame(_array_frame(trace_ctx=_CTX))) > len(raw)

    def test_peek_matches_full_decode(self):
        raw = encode_frame(_array_frame(trace_ctx=_CTX))
        assert peek_trace_ctx(raw) == decode_frame(raw).trace_ctx

    def test_oversized_context_rejected(self):
        huge = {"trace": "x" * 300}
        with pytest.raises(FrameError, match="exceeding"):
            encode_frame(_array_frame(trace_ctx=huge))

    def test_truncated_inside_context_rejected(self):
        raw = bytearray(encode_frame(_array_frame(trace_ctx=_CTX)))
        # Inflate the u8 section length past the end of the frame.
        offset = 22 + len("sbs-0") + len("bs")
        raw[offset] = 255
        with pytest.raises(FrameError, match="truncated inside its trace context"):
            decode_frame(_resign(bytes(raw[:-4])))

    def test_flag_without_section_rejected(self):
        # Set the trace flag on a frame that carries no trace section:
        # whatever bytes follow the names are not a valid section.
        raw = bytearray(encode_frame(_array_frame()))
        raw[6] |= 0x02
        with pytest.raises(FrameError):
            decode_frame(_resign(bytes(raw[:-4])))

    def test_garbage_json_in_context_rejected(self):
        raw = bytearray(encode_frame(_array_frame(trace_ctx=_CTX)))
        offset = 22 + len("sbs-0") + len("bs")
        length = raw[offset]
        raw[offset + 1 : offset + 1 + length] = b"\xff" * length
        with pytest.raises(FrameError, match="malformed"):
            decode_frame(_resign(bytes(raw[:-4])))
        with pytest.raises(FrameError, match="malformed"):
            peek_trace_ctx(_resign(bytes(raw[:-4])))

    def test_non_object_context_rejected(self):
        raw = bytearray(encode_frame(_array_frame(trace_ctx=_CTX)))
        offset = 22 + len("sbs-0") + len("bs")
        length = raw[offset]
        body = b"[1, 2]".ljust(length, b" ")
        raw[offset + 1 : offset + 1 + length] = body
        with pytest.raises(FrameError, match="JSON object"):
            decode_frame(_resign(bytes(raw[:-4])))

    def test_fuzzed_mutations_never_crash(self):
        # Corrupt frames must either decode cleanly (CRC collision) or
        # raise FrameError — never escape as a different exception.
        rng = np.random.default_rng(2024)
        base = encode_frame(
            _array_frame(trace_ctx=_CTX, array=np.arange(6.0))
        )
        for _ in range(400):
            raw = bytearray(base)
            op = int(rng.integers(3))
            if op == 0:  # flip one bit
                pos = int(rng.integers(len(raw)))
                raw[pos] ^= 1 << int(rng.integers(8))
                data = bytes(raw)
            elif op == 1:  # truncate
                data = bytes(raw[: int(rng.integers(len(raw)))])
            else:  # corrupt a slice, then re-sign so parsing runs deep
                pos = int(rng.integers(max(1, len(raw) - 8)))
                span = int(rng.integers(1, 8))
                raw[pos : pos + span] = bytes(
                    int(b) for b in rng.integers(0, 256, size=span)
                )
                data = _resign(bytes(raw[:-4]))
            for probe in (decode_frame, peek_trace_ctx):
                try:
                    probe(data)
                except FrameError:
                    pass


class TestEncodeLimits:
    def test_exactly_one_payload_flavour(self):
        with pytest.raises(FrameError, match="exactly one"):
            _array_frame(meta={"also": 1})
        with pytest.raises(FrameError, match="exactly one"):
            _array_frame(array=None, meta=None)

    def test_zero_length_payload_rejected(self):
        with pytest.raises(FrameError, match="zero-length"):
            encode_frame(_array_frame(array=np.zeros((0,))))

    def test_oversized_payload_rejected(self):
        huge = np.zeros(MAX_PAYLOAD_BYTES // 8 + 1)
        with pytest.raises(FrameError, match="exceeding"):
            encode_frame(_array_frame(array=huge))

    def test_non_numeric_payload_rejected(self):
        with pytest.raises(FrameError, match="not numeric"):
            encode_frame(_array_frame(array=np.array(["a", "b"], dtype=object)))

    def test_empty_and_oversized_names_rejected(self):
        with pytest.raises(FrameError, match="node names"):
            encode_frame(_array_frame(sender=""))
        with pytest.raises(FrameError, match="node names"):
            encode_frame(_array_frame(recipient="x" * 256))

    def test_dense_frame_at_the_payload_cap_crosses_a_stream(self):
        # A fully dense MAX_PAYLOAD_BYTES block gains its bitmap on the
        # wire; the frame ceiling must still admit it.
        block = np.arange(1.0, MAX_PAYLOAD_BYTES // 8 + 1.0)
        assert block.nbytes == MAX_PAYLOAD_BYTES
        frame = _array_frame(array=block)

        async def exchange():
            left, right = socket.socketpair()
            reader, reader_side = await asyncio.open_connection(sock=left)
            _, writer = await asyncio.open_connection(sock=right)
            try:
                write_frame(writer, frame)
                _, received = await asyncio.gather(writer.drain(), read_frame(reader))
                return received
            finally:
                writer.close()
                reader_side.close()

        received = asyncio.run(exchange())
        assert len(encode_frame(frame)) <= MAX_FRAME_BYTES
        np.testing.assert_array_equal(received.array, block)
