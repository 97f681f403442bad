"""Wire framing and codec for the socket runtime.

One protocol message travels as one length-prefixed frame::

    u32 length | header | sender | recipient | [trace] | dims | payload | u32 crc32

with a fixed little-endian header::

    magic "RPRO" | version u8 | kind u8 | flags u8 | ndim u8 |
    iteration i32 | phase i32 | seq u32 | sender_len u8 | recipient_len u8

The optional ``trace`` section — present only when the ``flags`` bit
``0x02`` is set — is a u8-length-prefixed sorted-key JSON object
carrying the causal trace-context of :mod:`repro.obs.spans` (trace id,
span id, logical clock).  It is how BS-side and SBS-side spans stitch
into one tree across OS processes.  Spans are opt-in, so frames of a
spans-disabled run are byte-identical to the pre-span wire format.

Payloads come in two flavours, selected by the flags bit:

* **array** — a C-order ``float64`` block whose shape is carried in the
  ``dims`` section.  Every Algorithm 1 message (policy upload, aggregate
  broadcast, cumulative ack) is an array frame.  Version 2 sends only
  the block's nonzero entries::

      bitmap (ceil(n / 8) bytes, np.packbits) | nonzero float64 values

  An entry is *nonzero* when its 64-bit pattern is not all zeros, so
  ``-0.0``, NaN payload bits, infinities and subnormals all cross bit
  for bit and the decoded block equals the in-process
  :class:`~repro.network.messaging.Message` payload exactly.  The
  bitmap's padding bits must be zero and the payload must be exactly
  ``ceil(n / 8) + 8 * popcount`` bytes long.  A policy upload is
  nonzero only on the pairs its SBS can afford to serve, so this is
  what keeps wide-block frames small.
* **json** — a sorted-key JSON object.  Runtime control traffic (hello,
  phase grants, ``phase_done`` reports, shutdown) is JSON; Python's JSON
  round-trips ``float64`` exactly (``repr``-based shortest encoding), so
  solver statistics survive the hop bit-for-bit.

The trailing CRC32 covers everything before it.  A frame that fails the
magic, version, bitmap, length-consistency or CRC check raises
:class:`~repro.exceptions.FrameError`; receivers treat that as a corrupt
frame (counted, then discarded) rather than a fatal error, which is what
lets the chaos proxy truncate frames on purpose.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import struct
import zlib
from collections import deque
from typing import Any, Deque, Dict, Mapping, Optional, Tuple

import numpy as np

from ..analysis.taint import decl as taint
from ..exceptions import FrameError
from ..network.messaging import MAX_PAYLOAD_BYTES, Message, MessageKind

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "Frame",
    "FrameHeader",
    "FrameSource",
    "encode_frame",
    "decode_frame",
    "peek_header",
    "peek_trace_ctx",
    "frame_from_message",
    "read_frame_bytes",
    "read_frame",
    "write_raw",
    "write_frame",
]

#: Wire protocol version stamped into every frame header.
WIRE_VERSION = 2

#: Hard ceiling on one encoded frame: a fully dense array payload at the
#: payload cap plus its bitmap (one bit per float64), and header room.
MAX_FRAME_BYTES = MAX_PAYLOAD_BYTES + MAX_PAYLOAD_BYTES // 64 + 64 * 1024

_MAGIC = b"RPRO"
_HEADER = struct.Struct("<4sBBBBiiIBB")
_U32 = struct.Struct("<I")
_FLAG_JSON = 0x01
_FLAG_TRACE = 0x02
_MAX_TRACE_CTX_BYTES = 255

_KIND_CODES: Dict[MessageKind, int] = {
    MessageKind.POLICY_UPLOAD: 1,
    MessageKind.AGGREGATE_BROADCAST: 2,
    MessageKind.ACK: 3,
    MessageKind.CONTROL: 4,
}
_CODE_KINDS: Dict[int, MessageKind] = {code: kind for kind, code in _KIND_CODES.items()}


@taint.carrier
@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded wire frame: a :class:`Message` or a control object.

    Exactly one of ``array`` / ``meta`` is set.  Array frames map 1:1 to
    in-process messages via :meth:`to_message`; JSON frames carry the
    runtime's control vocabulary in ``meta``.  ``trace_ctx`` is the
    optional causal trace-context (:mod:`repro.obs.spans`) riding in
    the frame's trace section — orthogonal to the payload choice and
    absent when spans are off.
    """

    kind: MessageKind
    sender: str
    recipient: str
    iteration: int
    phase: int
    seq: int = 0
    array: Optional[np.ndarray] = None
    meta: Optional[Mapping[str, Any]] = None
    trace_ctx: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if (self.array is None) == (self.meta is None):
            raise FrameError("frame must carry exactly one of an array or a JSON payload")

    def to_message(self) -> Message:
        """The in-process :class:`Message` equivalent of an array frame."""
        if self.array is None:
            raise FrameError("JSON control frames have no Message equivalent")
        return Message(
            kind=self.kind,
            sender=self.sender,
            recipient=self.recipient,
            payload=self.array,
            iteration=self.iteration,
            phase=self.phase,
            seq=self.seq,
        )


@dataclasses.dataclass(frozen=True)
class FrameHeader:
    """The cheap-to-parse header slice the chaos proxy routes on."""

    kind: MessageKind
    iteration: int
    phase: int
    seq: int
    sender: str
    recipient: str


def frame_from_message(message: Message) -> Frame:
    """Wrap an in-process message as an array frame."""
    return Frame(
        kind=message.kind,
        sender=message.sender,
        recipient=message.recipient,
        iteration=message.iteration,
        phase=message.phase,
        seq=message.seq,
        array=np.asarray(message.payload),
    )


def _encode_names(frame: Frame) -> Tuple[bytes, bytes]:
    sender = frame.sender.encode("utf-8")
    recipient = frame.recipient.encode("utf-8")
    if not 0 < len(sender) <= 255 or not 0 < len(recipient) <= 255:
        raise FrameError(
            f"frame node names must encode to 1..255 bytes, got "
            f"sender={frame.sender!r} recipient={frame.recipient!r}"
        )
    return sender, recipient


def _encode_trace_ctx(frame: Frame) -> bytes:
    """The frame's trace section: u8 length + sorted-key JSON (or empty)."""
    if frame.trace_ctx is None:
        return b""
    encoded = json.dumps(dict(frame.trace_ctx), sort_keys=True).encode("utf-8")
    if len(encoded) > _MAX_TRACE_CTX_BYTES:
        raise FrameError(
            f"frame trace context is {len(encoded)} bytes, "
            f"exceeding the {_MAX_TRACE_CTX_BYTES}-byte limit"
        )
    return bytes((len(encoded),)) + encoded


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame (header, names, trace ctx, dims, payload, CRC32)."""
    sender, recipient = _encode_names(frame)
    trace_section = _encode_trace_ctx(frame)
    if frame.meta is not None:
        flags = _FLAG_JSON
        dims: Tuple[int, ...] = ()
        payload = json.dumps(dict(frame.meta), sort_keys=True).encode("utf-8")
        size = len(payload)
    else:
        flags = 0
        try:
            array = np.ascontiguousarray(frame.array, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise FrameError(f"frame payload is not numeric: {error}") from error
        if array.ndim > 255:
            raise FrameError(f"frame payload has too many dimensions ({array.ndim})")
        dims = tuple(int(d) for d in array.shape)
        if any(d >= 1 << 32 for d in dims):
            raise FrameError(f"frame payload dimension out of range: {dims}")
        size = array.nbytes
        payload = _encode_array(array)
    if len(payload) == 0:
        raise FrameError(f"zero-length {frame.kind.value} frame payload")
    if size > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"{frame.kind.value} frame payload is {size} bytes, "
            f"exceeding the {MAX_PAYLOAD_BYTES}-byte limit"
        )
    if trace_section:
        flags |= _FLAG_TRACE
    header = _HEADER.pack(
        _MAGIC,
        WIRE_VERSION,
        _KIND_CODES[frame.kind],
        flags,
        len(dims),
        frame.iteration,
        frame.phase,
        frame.seq,
        len(sender),
        len(recipient),
    )
    body = b"".join(
        [
            header,
            sender,
            recipient,
            trace_section,
            b"".join(_U32.pack(d) for d in dims),
            payload,
        ]
    )
    return body + _U32.pack(zlib.crc32(body))


def _encode_array(array: np.ndarray) -> bytes:
    """Array payload: nonzero bitmap, then the nonzero values in C order."""
    flat = array.reshape(-1)
    mask = flat.view(np.uint64) != 0
    return np.packbits(mask).tobytes() + flat[mask].tobytes()


def _decode_array(payload: bytes, dims: Tuple[int, ...]) -> np.ndarray:
    """Scatter an array payload back into a read-only C-order block."""
    size = math.prod(dims)
    if 8 * size > MAX_PAYLOAD_BYTES:
        # Checked before the bitmap: an all-zero bitmap would otherwise
        # let a small frame demand a 64x larger block.
        raise FrameError(
            f"frame shape {dims} needs {8 * size} bytes, "
            f"exceeding the {MAX_PAYLOAD_BYTES}-byte limit"
        )
    bitmap_len = (size + 7) // 8
    if len(payload) < bitmap_len:
        raise FrameError(
            f"frame payload is {len(payload)} bytes, shorter than the "
            f"{bitmap_len}-byte bitmap of shape {dims}"
        )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8, count=bitmap_len))
    if bits[size:].any():
        raise FrameError("frame bitmap has nonzero padding bits")
    mask = bits[:size].view(bool)
    count = int(np.count_nonzero(mask))
    if len(payload) != bitmap_len + 8 * count:
        raise FrameError(
            f"frame payload is {len(payload)} bytes but its bitmap needs "
            f"{bitmap_len + 8 * count}"
        )
    array = np.zeros(size)
    array[mask] = np.frombuffer(payload, dtype=np.float64, count=count, offset=bitmap_len)
    array = array.reshape(dims)
    array.setflags(write=False)
    return array


def _split(
    data: bytes,
) -> Tuple[tuple, bytes, bytes, Optional[bytes], Tuple[int, ...], bytes]:
    """Header fields, names, trace ctx, dims and payload (no CRC check)."""
    if len(data) < _HEADER.size + _U32.size:
        raise FrameError(f"frame too short ({len(data)} bytes)")
    fields = _HEADER.unpack_from(data, 0)
    magic, version = fields[0], fields[1]
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported wire version {version}")
    flags = fields[3]
    ndim, sender_len, recipient_len = fields[4], fields[8], fields[9]
    offset = _HEADER.size
    names_end = offset + sender_len + recipient_len
    payload_limit = len(data) - _U32.size
    cursor = names_end
    trace_raw: Optional[bytes] = None
    if flags & _FLAG_TRACE:
        if cursor + 1 > payload_limit:
            raise FrameError("frame truncated before its trace context")
        ctx_len = data[cursor]
        cursor += 1
        if cursor + ctx_len > payload_limit:
            raise FrameError("frame truncated inside its trace context")
        trace_raw = data[cursor : cursor + ctx_len]
        cursor += ctx_len
    dims_end = cursor + ndim * _U32.size
    if dims_end + _U32.size > len(data):
        raise FrameError("frame truncated before its payload")
    sender = data[offset : offset + sender_len]
    recipient = data[offset + sender_len : names_end]
    dims = tuple(
        _U32.unpack_from(data, cursor + i * _U32.size)[0] for i in range(ndim)
    )
    payload = data[dims_end : len(data) - _U32.size]
    return fields, sender, recipient, trace_raw, dims, payload


def _decode_trace_ctx(trace_raw: Optional[bytes]) -> Optional[Dict[str, Any]]:
    """Parse the trace section's JSON object (``None`` when absent)."""
    if trace_raw is None:
        return None
    try:
        ctx = json.loads(trace_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame trace context is malformed: {error}") from error
    if not isinstance(ctx, dict):
        raise FrameError("frame trace context must be a JSON object")
    return ctx


def decode_frame(data: bytes) -> Frame:
    """Parse and verify one encoded frame; raise :class:`FrameError` if bad."""
    fields, sender, recipient, trace_raw, dims, payload = _split(data)
    (expected_crc,) = _U32.unpack_from(data, len(data) - _U32.size)
    if zlib.crc32(data[: len(data) - _U32.size]) != expected_crc:
        raise FrameError("frame checksum mismatch")
    kind_code, flags = fields[2], fields[3]
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise FrameError(f"unknown frame kind code {kind_code}")
    iteration, phase, seq = fields[5], fields[6], fields[7]
    try:
        sender_name = sender.decode("utf-8")
        recipient_name = recipient.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError(f"frame node names are not UTF-8: {error}") from error
    trace_ctx = _decode_trace_ctx(trace_raw)
    if flags & _FLAG_JSON:
        try:
            meta = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FrameError(f"frame JSON payload is malformed: {error}") from error
        if not isinstance(meta, dict):
            raise FrameError("frame JSON payload must be an object")
        return Frame(
            kind=kind,
            sender=sender_name,
            recipient=recipient_name,
            iteration=iteration,
            phase=phase,
            seq=seq,
            meta=meta,
            trace_ctx=trace_ctx,
        )
    return Frame(
        kind=kind,
        sender=sender_name,
        recipient=recipient_name,
        iteration=iteration,
        phase=phase,
        seq=seq,
        array=_decode_array(payload, dims),
        trace_ctx=trace_ctx,
    )


def peek_header(data: bytes) -> FrameHeader:
    """Routing fields of an encoded frame, without payload decode or CRC.

    This is what the chaos proxy uses to decide a frame's fate: the
    message kind selects the fault profile, the iteration tag indexes the
    crash/partition schedule, and the sender identifies the link.
    """
    fields, sender, recipient, _, _, _ = _split(data)
    kind = _CODE_KINDS.get(fields[2])
    if kind is None:
        raise FrameError(f"unknown frame kind code {fields[2]}")
    return FrameHeader(
        kind=kind,
        iteration=fields[5],
        phase=fields[6],
        seq=fields[7],
        sender=sender.decode("utf-8", errors="replace"),
        recipient=recipient.decode("utf-8", errors="replace"),
    )


def peek_trace_ctx(data: bytes) -> Optional[Dict[str, Any]]:
    """The frame's trace-context, if any, without payload decode or CRC.

    Cheap pre-check: frames without the trace flag return ``None``
    before any parsing, so the chaos proxy pays nothing on spans-off
    runs.  Raises :class:`FrameError` on a truncated or malformed
    trace section, like :func:`decode_frame` would.
    """
    if len(data) <= _HEADER.size or not data[6] & _FLAG_TRACE:
        return None
    fields, _, _, trace_raw, _, _ = _split(data)
    del fields
    return _decode_trace_ctx(trace_raw)


async def read_frame_bytes(reader: asyncio.StreamReader) -> bytes:
    """Read one length-prefixed frame body (raises on EOF mid-frame)."""
    prefix = await reader.readexactly(_U32.size)
    (length,) = _U32.unpack(prefix)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length prefix {length} outside (0, {MAX_FRAME_BYTES}]")
    return await reader.readexactly(length)


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read and decode one frame from the stream."""
    return decode_frame(await read_frame_bytes(reader))


@taint.sink("wire")
def write_raw(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Queue one already-encoded frame body with its length prefix."""
    writer.write(_U32.pack(len(data)) + data)


@taint.sink("wire")
def write_frame(writer: asyncio.StreamWriter, frame: Frame) -> None:
    """Encode and queue one frame."""
    write_raw(writer, encode_frame(frame))


class FrameSource:
    """Background reader turning a stream into a waitable item queue.

    Timed waits on a raw stream are unsafe: cancelling a read between the
    length prefix and the body desynchronizes the framing.  This class
    keeps exactly one reader task consuming the stream and exposes a
    cancellation-safe :meth:`next` — a timeout only ever cancels an
    ``Event.wait``, never a partial read.

    Items are ``(kind, frame)`` pairs with kind one of:

    * ``"frame"``   — a decoded :class:`Frame`;
    * ``"corrupt"`` — a frame that failed to decode (bad CRC, truncated
      by the chaos proxy, ...); the payload is discarded;
    * ``"eof"``     — the peer closed the stream (sticky: every later
      :meth:`next` returns it again);
    * ``"timeout"`` — no item arrived within the given budget.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self.items: Deque[Tuple[str, Optional[Frame]]] = deque()
        self._wakeup = asyncio.Event()
        self._eof = False
        self._task = asyncio.ensure_future(self._run(reader))

    async def _run(self, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                raw = await read_frame_bytes(reader)
            except (asyncio.IncompleteReadError, ConnectionError, OSError, FrameError):
                # A bad length prefix leaves the stream unframeable, so it
                # ends the source just like a close does.
                self._eof = True
                self._wakeup.set()
                return
            try:
                frame = decode_frame(raw)
            except FrameError:
                self.items.append(("corrupt", None))
            else:
                self.items.append(("frame", frame))
            self._wakeup.set()

    async def next(self, timeout: Optional[float]) -> Tuple[str, Optional[Frame]]:
        """Next item, waiting up to ``timeout`` seconds (None = forever)."""
        loop = asyncio.get_running_loop()
        end = None if timeout is None else loop.time() + timeout
        while not self.items:
            if self._eof:
                return ("eof", None)
            remaining = None if end is None else end - loop.time()
            if remaining is not None and remaining <= 0:
                return ("timeout", None)
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                return ("timeout", None)
        return self.items.popleft()

    def close(self) -> None:
        """Stop the reader task (idempotent)."""
        if not self._task.done():
            self._task.cancel()
