"""Trace recorders and the module-global emission hook.

The solver core calls :func:`emit` at well-defined protocol points
(phase completed, privacy release booked, retry issued, ...).  Emission
is *opt-in*: with no recorder active every :func:`emit` call is a single
attribute check and an immediate return, so the hot path stays within
measurement noise when tracing is off
(``benchmarks/test_trace_overhead.py`` pins this).

While a recorder is active, ``repro.perf.count`` adds to its
:class:`CounterTable`; each Algorithm 1 run reports its share as
``run_end.counters``.

Recorders:

* :class:`NullRecorder` — explicit no-op sink (the conceptual default;
  in practice "no recorder active" short-circuits even earlier);
* :class:`ListRecorder` — buffers events in memory.  Used by the
  parallel sweep engine to capture a worker cell's stream and replay it
  into the parent's writer deterministically;
* :class:`TraceWriter` — appends one JSON object per line to a file,
  assigning the monotone ``seq`` numbers ``repro-trace validate``
  checks;
* :class:`TeeRecorder` — fans each event out to several recorders (one
  emission, many consumers: a trace file *and* a live metrics deriver).

Events never carry wall-clock timestamps: ordering is by ``seq`` and by
the solver's own logical time (iteration / phase / simulated time), so
two runs with the same seed produce byte-identical traces *when
timings are off*.  The only wall-clock fields are explicit
``*_seconds`` durations, measured inline by the solvers whenever a
recorder is active with ``timings=True`` (the default for
:func:`recording`); pass ``timings=False`` for strictly deterministic,
byte-comparable traces.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from ..analysis.taint import decl as taint
from .events import TRACE_VERSION

__all__ = [
    "CounterTable",
    "TraceRecorder",
    "NullRecorder",
    "ListRecorder",
    "TraceWriter",
    "TeeRecorder",
    "activate",
    "deactivate",
    "active_recorder",
    "active_counters",
    "recording",
    "enabled",
    "timings_enabled",
    "spans_enabled",
    "emit",
]

#: One trace event: a flat JSON-serializable mapping with a ``type`` key.
Event = Dict[str, Any]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays to plain Python for JSON encoding."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class CounterTable:
    """Named event counters (``repro.perf.count`` names), lock-guarded."""

    __slots__ = ("counters", "_lock")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def fold(self, counts: Mapping[str, int]) -> None:
        """Add every ``name: amount`` of ``counts``."""
        with self._lock:
            for name, amount in counts.items():
                self.counters[name] = self.counters.get(name, 0) + int(amount)

    def since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """The counters that moved since ``before`` (an earlier copy), sorted by name."""
        now = dict(self.counters)
        delta = {name: now[name] - before.get(name, 0) for name in sorted(now)}
        return {name: amount for name, amount in delta.items() if amount}

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A JSON-ready copy: ``{"counters": {...}}``."""
        return {"counters": dict(self.counters)}

    def reset(self) -> None:
        """Drop every counter."""
        with self._lock:
            self.counters.clear()


class TraceRecorder:
    """Interface every recorder implements: accept one event at a time, and count."""

    def __init__(self) -> None:
        self.counters = CounterTable()

    def record(self, event: Event) -> None:
        """Consume one event (subclasses override)."""
        raise NotImplementedError


class NullRecorder(TraceRecorder):
    """Sink that drops every event — tracing structurally off."""

    def record(self, event: Event) -> None:
        """Discard the event."""


class ListRecorder(TraceRecorder):
    """Buffer events in memory, in emission order, without ``seq`` numbers.

    The parallel sweep engine runs one of these inside each worker
    process and replays the buffered stream into the parent's
    :class:`TraceWriter`, so the merged trace is identical no matter how
    cells were scheduled.
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []

    def record(self, event: Event) -> None:
        """Append a sanitized copy of the event to the buffer."""
        self.events.append({key: _jsonable(value) for key, value in event.items()})


class TraceWriter(TraceRecorder):
    """Append events as JSONL to a file, assigning monotone ``seq`` numbers.

    Usable as a context manager; the ``trace_start`` header (schema
    version) is written on construction.  Keys are serialized sorted so
    a trace's bytes are a pure function of the event stream.
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        super().__init__()
        self._owns_handle = isinstance(target, (str, Path))
        if isinstance(target, (str, Path)):
            self.path: Optional[Path] = Path(target)
            self._handle: IO[str] = open(self.path, "w", encoding="utf-8")
        else:
            self.path = None
            self._handle = target
        self._seq = 0
        self.events_written = 0
        self.record({"type": "trace_start", "version": TRACE_VERSION})

    def record(self, event: Event) -> None:
        """Assign the next ``seq`` and write the event as one JSON line."""
        payload = {key: _jsonable(value) for key, value in event.items()}
        payload["seq"] = self._seq
        self._seq += 1
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and, when this writer opened the file, close it."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        """Enter: the writer itself."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Exit: close the underlying file."""
        self.close()


class TeeRecorder(TraceRecorder):
    """Fan each event out to several recorders, in construction order.

    Lets one emission feed independent consumers — typically a
    :class:`TraceWriter` (the durable record) next to a live metrics
    deriver (:class:`repro.obs.derive.MetricsRecorder`) — guaranteeing
    both saw the identical stream.
    """

    def __init__(self, *recorders: TraceRecorder) -> None:
        super().__init__()
        self.recorders: List[TraceRecorder] = list(recorders)

    def record(self, event: Event) -> None:
        """Deliver the event to every downstream recorder."""
        for recorder in self.recorders:
            recorder.record(event)


_recorder: Optional[TraceRecorder] = None
_timings: bool = True
_spans: bool = False


def activate(
    recorder: TraceRecorder, *, timings: bool = True, spans: bool = False
) -> TraceRecorder:
    """Install ``recorder`` as the process-wide event sink.

    ``timings`` controls whether solvers measure wall-clock
    ``solve_seconds`` while this recorder is active (see
    :func:`timings_enabled`); ``spans`` opts in to the causal span
    layer (see :func:`spans_enabled` and :mod:`repro.obs.spans`).
    """
    global _recorder, _timings, _spans
    _recorder = recorder
    _timings = timings
    _spans = spans
    return recorder


def deactivate() -> None:
    """Stop recording; :func:`emit` reverts to a no-op."""
    global _recorder
    _recorder = None


def active_recorder() -> Optional[TraceRecorder]:
    """The currently active recorder, or ``None`` when tracing is off."""
    return _recorder


def active_counters() -> Optional[CounterTable]:
    """The active recorder's counter table, or ``None`` when tracing is off."""
    return None if _recorder is None else _recorder.counters


def enabled() -> bool:
    """Whether a recorder is active (hooks gate optional work on this)."""
    return _recorder is not None


def timings_enabled() -> bool:
    """Whether solvers should measure wall-clock phase timings.

    True only while a recorder is active *and* it was installed with
    ``timings=True`` — so a plain run pays nothing, and a
    ``timings=False`` recording stays byte-deterministic.
    """
    return _recorder is not None and _timings


def spans_enabled() -> bool:
    """Whether the causal span layer should emit ``span`` events.

    Spans are strictly opt-in: only while a recorder is active *and* it
    was installed with ``spans=True``.  With spans off, every span
    entry point returns a shared no-op object, so traces stay
    byte-identical to pre-span output.
    """
    return _recorder is not None and _spans


@contextmanager
def recording(
    target: Union[str, Path, IO[str], TraceRecorder],
    *,
    timings: bool = True,
    spans: bool = False,
) -> Iterator[TraceRecorder]:
    """Activate a recorder for the body, restoring the previous one after.

    ``target`` may be an existing recorder or a path/file, in which case
    a :class:`TraceWriter` is created (and closed on exit).  With
    ``timings=True`` (the default) traced solvers measure per-phase
    wall-clock ``solve_seconds`` inline; pass ``timings=False`` when
    the trace must be byte-identical across runs.  ``spans=True``
    additionally records causal ``span`` events (:mod:`repro.obs.spans`).
    """
    global _recorder, _timings, _spans
    owned: Optional[TraceWriter] = None
    if isinstance(target, TraceRecorder):
        recorder: TraceRecorder = target
    else:
        owned = TraceWriter(target)
        recorder = owned
    previous = _recorder
    previous_timings = _timings
    previous_spans = _spans
    _recorder = recorder
    _timings = timings
    _spans = spans
    try:
        yield recorder
    finally:
        _recorder = previous
        _timings = previous_timings
        _spans = previous_spans
        if owned is not None:
            owned.close()


@taint.sink("trace-emission")
def emit(type_: str, **fields: Any) -> None:
    """Record one event on the active recorder; no-op when tracing is off."""
    if _recorder is None:
        return
    event: Event = {"type": type_}
    event.update(fields)
    _recorder.record(event)
