"""Process-level distributed runtime for Algorithm 1 (socket transport).

Everything under :mod:`repro.core.distributed` executes the protocol as
an in-process simulation: one Python object per agent, messages moved by
function calls.  This package runs the *same* protocol over real local
TCP sockets — each SBS is an asyncio task or a separate OS process
speaking the seq/ack/retry ``POLICY_UPLOAD`` protocol in a length-prefixed,
CRC-protected wire format, and the BS is an aggregation server.

Guarantees (pinned by ``tests/test_runtime.py`` and the CI
``e2e-smoke`` job):

* a fault-free socket run produces a **bit-identical** trace and
  :class:`~repro.core.solution.Solution` to
  ``solve_distributed(problem, config, faults=FaultConfig())``;
* chaos runs (the :class:`ChaosProxy` socket MITM driven by the same
  :class:`~repro.network.faults.FaultConfig` vocabulary) are
  deterministic per seed and still satisfy every ``repro-trace
  validate`` invariant;
* stragglers and byzantine reports degrade phases, never the run — see
  ``docs/failure_model.md`` for the threat model.
"""

from .chaos import ChaosProxy, ProxyStats
from .client import client_main, run_client
from .config import ADVERSARY_MODES, ClientSession, RuntimeConfig, RuntimeReport
from .server import RuntimeServer, solve_over_sockets
from .wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    Frame,
    FrameHeader,
    FrameSource,
    decode_frame,
    encode_frame,
    frame_from_message,
    peek_header,
    read_frame,
    read_frame_bytes,
    write_frame,
    write_raw,
)

__all__ = [
    "ADVERSARY_MODES",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "ChaosProxy",
    "ClientSession",
    "Frame",
    "FrameHeader",
    "FrameSource",
    "ProxyStats",
    "RuntimeConfig",
    "RuntimeReport",
    "RuntimeServer",
    "client_main",
    "decode_frame",
    "encode_frame",
    "frame_from_message",
    "peek_header",
    "read_frame",
    "read_frame_bytes",
    "run_client",
    "solve_over_sockets",
    "write_frame",
    "write_raw",
]
