"""Causal span layer: trace-contexts, hybrid logical clocks, no-op fast path.

Every unit of work in a traced run — run, epoch, iteration, phase,
per-SBS solve, upload attempt, aggregate, broadcast — can be bracketed
by a *span*.  A span carries:

* a deterministic span id ``node:counter`` drawn from a per-node
  :class:`SpanTracker` (per-node counters keep ids reproducible even
  when asyncio interleaves several clients in one process);
* a ``trace`` id (the originating tracker's node, adopted by remote
  parties from propagated trace-context so BS-side and SBS-side spans
  stitch into one tree);
* a ``parent`` span id, explicit (from a wire trace-context) or ambient
  (the tracker's stack of open spans);
* a hybrid logical clock interval ``ls``/``le``: the logical (Lamport)
  component always, merged across processes via
  :meth:`SpanTracker.observe_clock`; the physical component (``t0``/
  ``t1``/``seconds`` wall-clock fields) only when timings are enabled,
  so ``timings=False`` traces stay byte-identical per seed.

Spans are emitted as ``span`` events *at close*, through the module
recorder (:func:`repro.obs.recorder.emit`) or an explicit per-tracker
sink (the socket clients buffer into their ``ListRecorder`` and ship
events to the BS, which replays them into the authoritative trace).

The layer is strictly opt-in: unless the active recorder was installed
with ``spans=True`` (:func:`repro.obs.recorder.spans_enabled`),
:func:`span` returns a shared no-op object and trackers default to
:data:`NOOP_TRACKER`, keeping the disabled cost within the established
~ns emit budget (pinned by ``tests/test_spans.py``).

Wall-clock discipline: the *only* sanctioned wall-clock read in this
module is :func:`_wall_now`, which returns ``None`` unless its gate is
true — repro-lint rule REPRO104 enforces that span code never calls
``time.time``/``perf_counter`` anywhere else.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

from . import recorder as _recorder
from .recorder import spans_enabled

__all__ = [
    "SpanTracker",
    "NOOP_TRACKER",
    "span",
    "spans_enabled",
    "SPAN_CATEGORIES",
]

#: Critical-path attribution buckets a span may declare.
SPAN_CATEGORIES = (
    "run",
    "epoch",
    "iteration",
    "phase",
    "solve",
    "network",
    "retry",
    "straggler",
    "aggregate",
    "broadcast",
    "other",
)


def _wall_now(enabled: bool) -> Optional[float]:
    """Timings-gated wall-clock read — the only sanctioned call site.

    Returns ``time.perf_counter()`` when ``enabled`` is true, ``None``
    otherwise, so byte-determinism is a pure function of the gate.
    """
    return time.perf_counter() if enabled else None


class Span:
    """One unit of work; assigns ids on enter, emits one event on exit.

    Use as a context manager, or via explicit :meth:`start` /
    :meth:`finish` when the close point does not nest lexically (the
    run root must close *before* the ``run_end`` emit so its event
    stays inside the run bracket).
    """

    __slots__ = (
        "_tracker",
        "_name",
        "_category",
        "_parent",
        "_attrs",
        "_owns_ambient",
        "span_id",
        "ls",
        "t0",
    )

    def __init__(
        self,
        tracker: Optional["SpanTracker"],
        name: str,
        *,
        parent: Optional[str] = None,
        category: str = "other",
        **attrs: Any,
    ) -> None:
        self._tracker = tracker
        self._name = name
        self._category = category
        self._parent = parent
        self._attrs: Dict[str, Any] = dict(attrs)
        self._owns_ambient = False
        self.span_id: Optional[str] = None
        self.ls = 0
        self.t0: Optional[float] = None

    def annotate(self, *, category: Optional[str] = None, **attrs: Any) -> None:
        """Add/override attributes (and optionally the category) pre-close."""
        if category is not None:
            self._category = category
        self._attrs.update(attrs)

    def context(self) -> Optional[Dict[str, Any]]:
        """Wire trace-context of this (open) span, for propagation."""
        if self._tracker is None or self.span_id is None:
            return None
        return {
            "trace": self._tracker.trace_id(),
            "span": self.span_id,
            "clock": self._tracker.clock(),
        }

    def start(self) -> "Span":
        """Assign ids/clock and push onto the owning tracker's stack."""
        global _ambient
        tracker = self._tracker
        if tracker is None:
            if _ambient is None:
                _ambient = SpanTracker("local")
                self._owns_ambient = True
            tracker = _ambient
            self._tracker = tracker
        if self._parent is None and tracker._stack:
            self._parent = tracker._stack[-1].span_id
        self.span_id = tracker._next_id()
        self.ls = tracker._tick()
        self.t0 = _wall_now(tracker.timings_on())
        tracker._stack.append(self)
        return self

    def finish(self) -> None:
        """Pop from the tracker stack and emit the ``span`` event."""
        global _ambient
        tracker = self._tracker
        if tracker is None or self.span_id is None:
            return
        if tracker._stack and tracker._stack[-1] is self:
            tracker._stack.pop()
        else:  # out-of-order close: remove wherever it sits
            try:
                tracker._stack.remove(self)
            except ValueError:
                pass
        le = tracker._tick()
        event: Dict[str, Any] = {
            "name": self._name,
            "span": self.span_id,
            "node": tracker.node,
            "trace": tracker.trace_id(),
            "parent": self._parent,
            "category": self._category,
            "ls": self.ls,
            "le": le,
        }
        event.update(self._attrs)
        t1 = _wall_now(tracker.timings_on())
        if self.t0 is not None and t1 is not None:
            event["t0"] = self.t0
            event["t1"] = t1
            event["seconds"] = t1 - self.t0
        tracker._record(event)
        if self._owns_ambient:
            _ambient = None
            self._owns_ambient = False

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.finish()


class _NoopSpan:
    """Shared do-nothing span returned whenever spans are disabled."""

    __slots__ = ()
    span_id: Optional[str] = None

    def start(self) -> "_NoopSpan":
        return self

    def finish(self) -> None:
        return None

    def annotate(self, *, category: Optional[str] = None, **attrs: Any) -> None:
        return None

    def context(self) -> Optional[Dict[str, Any]]:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP = _NoopSpan()


class SpanTracker:
    """Per-node span factory: deterministic ids + a Lamport clock.

    ``node`` names the emitting party (``"bs"``, ``"sbs-2"``,
    ``"local"``); span ids are ``node:counter`` so concurrent parties
    never race a shared counter.  ``sink`` routes emitted events to an
    explicit recorder (socket clients buffer locally) instead of the
    module-global :func:`repro.obs.recorder.emit`.  ``timings`` may be
    ``True``/``False`` to pin wall-clock capture (clients inherit the
    session flag) or ``None`` to follow the active recorder's setting.
    """

    __slots__ = ("node", "trace", "_counter", "_clock", "_stack", "_sink", "_timings")

    def __init__(
        self,
        node: str,
        *,
        trace: Optional[str] = None,
        sink: Optional[_recorder.TraceRecorder] = None,
        timings: Optional[bool] = None,
    ) -> None:
        self.node = node
        self.trace = trace
        self._counter = 0
        self._clock = 0
        self._stack: List[Span] = []
        self._sink = sink
        self._timings = timings

    def trace_id(self) -> str:
        """The trace id spans of this tracker stamp (node until adopted)."""
        return self.trace if self.trace is not None else self.node

    def clock(self) -> int:
        """Current Lamport clock value."""
        return self._clock

    def timings_on(self) -> bool:
        """Whether spans of this tracker capture wall-clock fields."""
        if self._timings is None:
            return _recorder.timings_enabled()
        return self._timings

    def wall(self) -> Optional[float]:
        """Timings-gated wall-clock read in this tracker's regime."""
        return _wall_now(self.timings_on())

    def observe_clock(self, remote: int) -> None:
        """Merge a remote logical clock (Lamport receive rule)."""
        if remote > self._clock:
            self._clock = int(remote)

    def adopt(self, ctx: Optional[Mapping[str, Any]]) -> Optional[str]:
        """Join a propagated trace-context; returns the parent span id."""
        if not ctx:
            return None
        trace = ctx.get("trace")
        if self.trace is None and trace is not None:
            self.trace = str(trace)
        try:
            self.observe_clock(int(ctx.get("clock", 0)))
        except (TypeError, ValueError):
            pass
        parent = ctx.get("span")
        return None if parent is None else str(parent)

    def span(
        self,
        name: str,
        *,
        parent: Optional[str] = None,
        category: str = "other",
        **attrs: Any,
    ) -> Span:
        """A new (unstarted) span bound to this tracker."""
        return Span(self, name, parent=parent, category=category, **attrs)

    def current_context(self) -> Optional[Dict[str, Any]]:
        """Trace-context of the innermost open span, or ``None``."""
        if not self._stack:
            return None
        return self._stack[-1].context()

    def _next_id(self) -> str:
        span_id = f"{self.node}:{self._counter}"
        self._counter += 1
        return span_id

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _record(self, event: Dict[str, Any]) -> None:
        if self._sink is not None:
            payload = dict(event)
            payload["type"] = "span"
            self._sink.record(payload)
        else:
            _recorder.emit("span", **event)


class _NoopTracker:
    """Tracker stand-in when spans are disabled: every call is inert."""

    __slots__ = ()
    node = "noop"
    trace: Optional[str] = None

    def trace_id(self) -> str:
        return self.node

    def clock(self) -> int:
        return 0

    def timings_on(self) -> bool:
        return False

    def wall(self) -> Optional[float]:
        return None

    def observe_clock(self, remote: int) -> None:
        return None

    def adopt(self, ctx: Optional[Mapping[str, Any]]) -> Optional[str]:
        return None

    def span(self, name: str, **kwargs: Any) -> _NoopSpan:
        return _NOOP

    def current_context(self) -> Optional[Dict[str, Any]]:
        return None


#: Shared inert tracker; runtime parties hold this when spans are off.
NOOP_TRACKER = _NoopTracker()

# Ambient tracker for in-process solver nesting (online run -> slot ->
# inner distributed run).  Installed by the first ambient root span and
# released when that span finishes; never used across awaits.
_ambient: Optional[SpanTracker] = None


def span(
    name: str,
    *,
    parent: Optional[str] = None,
    category: str = "other",
    **attrs: Any,
) -> Any:
    """Open an ambient span, or the shared no-op when spans are off.

    In-process solvers call this without managing trackers: the first
    ambient span creates a ``local`` tracker, nested calls parent onto
    the innermost open span, and the tracker is torn down when the
    owning root finishes.
    """
    if not spans_enabled():
        return _NOOP
    return Span(None, name, parent=parent, category=category, **attrs)
