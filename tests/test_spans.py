"""Causal span layer tests: no-op path, span trees, stitching, critical path.

Covers the opt-in contract (spans off means byte-identical traces and a
~ns no-op), in-process span trees (dense, resilient, online nesting),
socket-runtime stitching in both fault-free and chaos runs, the
critical-path attribution gate, the timeline renderer, and the
``repro-trace diff`` wall-clock masking.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from repro import obs
from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.online import OnlineConfig, simulate_online
from repro.network.faults import FaultConfig, LinkFaultProfile
from repro.obs import spans as spans_mod
from repro.obs.cli import main as trace_cli
from repro.obs.recorder import ListRecorder
from repro.obs.span_analysis import (
    build_span_tree,
    check_spans,
    collect_spans,
    critical_path,
    proxy_fates_by_span,
    render_timeline,
)
from repro.obs.spans import SPAN_CATEGORIES, NOOP_TRACKER, SpanTracker
from repro.runtime import RuntimeConfig, solve_over_sockets
from repro.runtime.smoke import chaos_plan, smoke_problem


@pytest.fixture(scope="module")
def problem():
    return smoke_problem()


def _config(max_iterations=4):
    return DistributedConfig(max_iterations=max_iterations)


def _span_events(events):
    return [e for e in events if e.get("type") == "span"]


class TestDisabled:
    def test_span_is_shared_noop_without_recorder(self):
        first = obs.span("anything", category="solve", extra=1)
        second = obs.span("other")
        assert first is second
        assert first.start() is first
        assert first.context() is None
        first.annotate(category="retry", foo=2)
        first.finish()  # must not raise or emit

    def test_noop_tracker_is_inert(self):
        assert NOOP_TRACKER.adopt({"trace": "bs", "span": "bs:0", "clock": 9}) is None
        assert NOOP_TRACKER.clock() == 0
        assert NOOP_TRACKER.wall() is None
        assert NOOP_TRACKER.current_context() is None
        assert NOOP_TRACKER.span("x").context() is None

    def test_recording_without_spans_emits_no_span_events(self, problem):
        sink = ListRecorder()
        with obs.recording(sink, timings=False):
            solve_distributed(problem, _config(), faults=FaultConfig())
        assert _span_events(sink.events) == []
        assert [e for e in sink.events if e.get("type") == "proxy"] == []

    def test_disabled_span_cost_is_nanoseconds(self):
        # Generous ceiling (2 us/call) so busy CI runners never flake;
        # the no-op itself costs a few hundred ns.
        calls = 20_000
        t0 = time.perf_counter()
        for _ in range(calls):
            with obs.span("bench"):
                pass
        per_call = (time.perf_counter() - t0) / calls
        assert per_call < 2e-6


class TestInProcessTrees:
    @staticmethod
    def _transports():
        """The reliable in-process transport and the resilient one."""
        return (None, FaultConfig())

    def test_dense_run_tree_well_formed(self, problem):
        for faults in self._transports():
            sink = ListRecorder()
            with obs.recording(sink, timings=False, spans=True):
                solve_distributed(problem, _config(), faults=faults)
            spans = _span_events(sink.events)
            assert spans, "spans=True run emitted no span events"
            assert check_spans(sink.events) == []
            names = {e["name"] for e in spans}
            assert {"run", "iteration", "phase"} <= names
            assert {e["category"] for e in spans} <= set(SPAN_CATEGORIES)
            roots = [e for e in spans if e["parent"] is None]
            assert len(roots) == 1 and roots[0]["name"] == "run"
            # Timings off: no wall-clock fields anywhere.
            assert all("t0" not in e and "seconds" not in e for e in spans)

    def test_spans_do_not_perturb_existing_stream(self, problem):
        for faults in self._transports():
            plain, spanned = ListRecorder(), ListRecorder()
            with obs.recording(plain, timings=False):
                baseline = solve_distributed(problem, _config(), faults=faults)
            with obs.recording(spanned, timings=False, spans=True):
                result = solve_distributed(problem, _config(), faults=faults)
            non_span = [
                e for e in spanned.events if e.get("type") not in ("span", "proxy")
            ]
            assert non_span == plain.events
            assert result.cost == baseline.cost

    def test_span_runs_are_deterministic(self, problem):
        streams = []
        for _ in range(2):
            sink = ListRecorder()
            with obs.recording(sink, timings=False, spans=True):
                solve_distributed(problem, _config(), faults=FaultConfig())
            streams.append(sink.events)
        assert streams[0] == streams[1]

    def test_ambient_tracker_released_after_root(self, problem):
        sink = ListRecorder()
        with obs.recording(sink, timings=False, spans=True):
            solve_distributed(problem, _config(), faults=FaultConfig())
            assert spans_mod._ambient is None

    def test_resilient_run_marks_retries(self, problem):
        faults = FaultConfig(
            default=LinkFaultProfile(drop=0.4), seed=5
        )
        sink = ListRecorder()
        with obs.recording(sink, timings=False, spans=True):
            solve_distributed(problem, _config(8), faults=faults)
        spans = _span_events(sink.events)
        assert check_spans(sink.events) == []
        assert "upload" in {e["name"] for e in spans}
        uploads = [e for e in spans if e["name"] == "upload"]
        assert all("delivered" in e and "retries" in e for e in uploads)
        assert any(e["category"] == "retry" for e in uploads)

    def test_root_span_carries_resource_profile(self, problem):
        from repro import perf

        sink = ListRecorder()
        with perf.collecting(perf.PerfRegistry()):
            with obs.recording(sink, timings=True, spans=True):
                solve_distributed(problem, _config(), faults=FaultConfig())
        root = [e for e in _span_events(sink.events) if e["parent"] is None][0]
        # Counters moved to ``run_end``; the root keeps the volatile part.
        assert "perf_counters" not in root
        assert [e for e in sink.events if e["type"] == "run_end"][0]["counters"]
        assert root["rss_peak_kb"] > 0
        assert root["seconds"] > 0

    def test_online_runs_nest_under_slots(self, problem):
        rng = np.random.default_rng(11)
        slots = [
            problem.demand * float(s)
            for s in (1.0, 1.1, 0.9)
        ]
        sink = ListRecorder()
        with obs.recording(sink, timings=False, spans=True):
            simulate_online(
                problem,
                slots,
                OnlineConfig(distributed=_config(2)),
                rng=rng,
            )
        spans = _span_events(sink.events)
        assert check_spans(sink.events) == []
        roots = [e for e in spans if e["parent"] is None]
        assert len(roots) == 1
        slot_spans = [e for e in spans if e["name"] == "slot"]
        assert len(slot_spans) == 3
        assert all(e["parent"] == roots[0]["span"] for e in slot_spans)
        # The inner distributed runs' spans hang off the slot spans.
        slot_ids = {e["span"] for e in slot_spans}
        inner_runs = [e for e in spans if e["name"] == "run" and e["parent"]]
        assert inner_runs and all(e["parent"] in slot_ids for e in inner_runs)


class TestTrackerPrimitives:
    def test_ids_are_deterministic_per_node(self):
        tracker = SpanTracker("bs", timings=False)
        sink = ListRecorder()
        tracker._sink = sink
        with tracker.span("a"):
            with tracker.span("b"):
                pass
        assert [e["span"] for e in sink.events] == ["bs:1", "bs:0"]
        assert sink.events[0]["parent"] == "bs:0"

    def test_adopt_merges_clock_and_trace(self):
        tracker = SpanTracker("sbs-1", timings=False)
        parent = tracker.adopt({"trace": "bs", "span": "bs:3", "clock": 40})
        assert parent == "bs:3"
        assert tracker.trace_id() == "bs"
        assert tracker.clock() == 40
        # Lamport receive rule: never move backwards.
        tracker.observe_clock(10)
        assert tracker.clock() == 40

    def test_adopt_tolerates_garbage(self):
        tracker = SpanTracker("sbs-1")
        assert tracker.adopt(None) is None
        assert tracker.adopt({}) is None
        assert tracker.adopt({"clock": "not-a-number"}) is None
        assert tracker.clock() == 0


@pytest.fixture(scope="module")
def faultfree_traces(tmp_path_factory):
    """Two fault-free span-enabled socket runs recorded to disk."""
    workdir = tmp_path_factory.mktemp("spans-sockets")
    problem = smoke_problem()
    paths = [workdir / "a.jsonl", workdir / "b.jsonl"]
    for path in paths:
        with obs.recording(str(path), timings=False, spans=True):
            solve_over_sockets(problem, _config(8), runtime=RuntimeConfig())
    return paths


@pytest.fixture(scope="module")
def chaos_events():
    """One timed chaos socket run, spans on, as an in-memory stream."""
    problem = smoke_problem()
    runtime = RuntimeConfig(
        faults=chaos_plan(3), ack_timeout=0.1, phase_deadline=10.0
    )
    sink = ListRecorder()
    with obs.recording(sink, timings=True, spans=True):
        result, _report = solve_over_sockets(problem, _config(8), runtime=runtime)
    assert result.converged
    return sink.events


class TestSocketRuns:
    def test_faultfree_traces_byte_identical(self, faultfree_traces):
        first, second = faultfree_traces
        assert filecmp.cmp(first, second, shallow=False)

    def test_faultfree_tree_stitches_all_nodes(self, faultfree_traces):
        events = [
            json.loads(line)
            for line in faultfree_traces[0].read_text().splitlines()
        ]
        assert check_spans(events) == []
        spans = _span_events(events)
        assert {e["node"] for e in spans} == {"bs", "sbs-0", "sbs-1", "sbs-2"}
        # Client spans join the BS trace: one trace id for the whole tree.
        assert {e["trace"] for e in spans} == {"bs"}
        roots = [e for e in spans if e["parent"] is None]
        assert len(roots) == 1 and roots[0]["node"] == "bs"

    def test_logical_clock_orders_every_span(self, faultfree_traces):
        events = [
            json.loads(line)
            for line in faultfree_traces[0].read_text().splitlines()
        ]
        for event in _span_events(events):
            assert event["ls"] < event["le"]

    def test_chaos_tree_well_formed(self, chaos_events):
        assert check_spans(chaos_events) == []

    def test_chaos_proxy_fates_attach_to_spans(self, chaos_events):
        fates = [
            e
            for e in chaos_events
            if e.get("type") == "proxy" and e.get("fate") != "summary"
        ]
        assert fates, "chaos run recorded no proxy fate events"
        grouped = proxy_fates_by_span(chaos_events)
        assert grouped, "no fate carried a span annotation"
        span_ids = {e["span"] for e in _span_events(chaos_events)}
        assert set(grouped) <= span_ids
        summaries = [
            e for e in chaos_events
            if e.get("type") == "proxy" and e.get("fate") == "summary"
        ]
        assert len(summaries) == 1
        assert {"forwarded", "dropped", "duplicated"} <= set(summaries[0])

    def test_critical_path_covers_root_wall_clock(self, chaos_events):
        report = critical_path(chaos_events)
        assert report["basis"] == "wall"
        root = [
            e for e in _span_events(chaos_events) if e["parent"] is None
        ][0]
        assert report["root"] == root["span"]
        error = abs(report["total"] - root["seconds"]) / root["seconds"]
        assert error <= 0.05
        assert report["by_category"]
        assert set(report["by_category"]) <= set(SPAN_CATEGORIES)
        assert sum(report["by_category"].values()) == pytest.approx(
            report["total"]
        )
        # Chain segments tile the root interval in order without overlap.
        cursor = None
        for segment in report["chain"]:
            assert segment["duration"] > 0
            if cursor is not None:
                assert segment["start"] >= cursor - 1e-9
            cursor = segment["end"]

    def test_critical_path_covers_faultfree_root_wall_clock(self):
        sink = ListRecorder()
        with obs.recording(sink, timings=True, spans=True):
            solve_over_sockets(smoke_problem(), _config(8), runtime=RuntimeConfig())
        report = critical_path(sink.events)
        assert report["basis"] == "wall"
        root = [e for e in _span_events(sink.events) if e["parent"] is None][0]
        assert abs(report["total"] - root["seconds"]) <= 0.05 * root["seconds"]

    def test_critical_path_logical_basis_without_timings(self, faultfree_traces):
        events = [
            json.loads(line)
            for line in faultfree_traces[0].read_text().splitlines()
        ]
        report = critical_path(events)
        assert report["basis"] == "logical"
        assert report["total"] > 0

    def test_timeline_svg_renders_all_lanes(self, chaos_events):
        svg = render_timeline(chaos_events, title="chaos timeline")
        assert svg.startswith("<svg ")
        for lane in ("bs", "sbs-0", "sbs-1", "sbs-2"):
            assert f">{lane}</text>" in svg
        assert "basis: wall" in svg
        # Deterministic: same events, same bytes.
        assert render_timeline(chaos_events, title="chaos timeline") == svg


class TestAnalysisEdgeCases:
    def test_empty_trace_raises(self):
        with pytest.raises(ValueError, match="no span events"):
            critical_path([{"type": "iteration", "iteration": 0}])

    def test_orphan_and_duplicate_reported(self):
        spans = [
            {"type": "span", "name": "run", "span": "bs:0", "node": "bs",
             "parent": None, "category": "run", "ls": 1, "le": 8},
            {"type": "span", "name": "x", "span": "bs:1", "node": "bs",
             "parent": "bs:9", "category": "other", "ls": 2, "le": 3},
            {"type": "span", "name": "x", "span": "bs:1", "node": "bs",
             "parent": "bs:0", "category": "other", "ls": 4, "le": 5},
        ]
        issues = check_spans(spans)
        assert any("orphan" in issue for issue in issues)
        assert any("duplicate" in issue for issue in issues)

    def test_cycle_reported(self):
        spans = [
            {"type": "span", "name": "a", "span": "a", "node": "bs",
             "parent": "b", "category": "other", "ls": 1, "le": 2},
            {"type": "span", "name": "b", "span": "b", "node": "bs",
             "parent": "a", "category": "other", "ls": 3, "le": 4},
        ]
        issues = check_spans(spans)
        assert any("cycle" in issue for issue in issues)

    def test_collect_spans_falls_back_without_run_brackets(self):
        spans = [
            {"type": "span", "name": "a", "span": "a", "node": "bs",
             "parent": None, "category": "other", "ls": 1, "le": 2},
        ]
        assert collect_spans(spans) == spans

    def test_build_tree_orders_children_by_start(self):
        spans = [
            {"type": "span", "name": "run", "span": "r", "node": "bs",
             "parent": None, "category": "run", "ls": 1, "le": 10},
            {"type": "span", "name": "late", "span": "l", "node": "bs",
             "parent": "r", "category": "other", "ls": 6, "le": 7},
            {"type": "span", "name": "early", "span": "e", "node": "bs",
             "parent": "r", "category": "other", "ls": 2, "le": 3},
        ]
        roots, _, issues = build_span_tree(spans)
        assert issues == []
        assert [child.name for child in roots[0].children] == ["early", "late"]


class TestDiffMasking:
    def _record_timed(self, path, problem):
        with obs.recording(str(path), timings=True, spans=True):
            solve_distributed(problem, _config(), faults=FaultConfig())

    def test_diff_masks_wall_clock_by_default(self, tmp_path, problem, capsys):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._record_timed(first, problem)
        self._record_timed(second, problem)
        assert trace_cli(["diff", str(first), str(second)]) == 0
        capsys.readouterr()

    def test_strict_timings_sees_the_difference(self, tmp_path, problem, capsys):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._record_timed(first, problem)
        self._record_timed(second, problem)
        assert trace_cli(
            ["diff", str(first), str(second), "--strict-timings"]
        ) != 0
        out = capsys.readouterr().out
        assert "differ" in out or "mismatch" in out


class TestCriticalPathMatchesProbes:
    """``repro-trace critical-path`` against perfbench's per-layer probes.

    A shrunk ``socket-wide`` solve (3 SBSs x 20 groups x 200 files,
    densified, tasks mode, the workload's own configs) is traced with
    spans and timings while perfbench's probes time each layer's public
    functions.  The protocol is serial, so each bucket must hold the
    probed work that runs inside its spans:

    * ``solve``: the subproblem kernel (and LPPM) busy time, within
      -10% / +25% plus 2 ms (the span also covers the aggregate gather
      and the recovery bookkeeping);
    * ``aggregate``: ``BaseStationAgent.broadcast_aggregate`` and
      ``update_prices``, within -30% / +30% plus 0.5 ms (the run's
      initial broadcast is probed but sits outside any aggregate span);
    * ``network`` (with ``broadcast``, where the flushed frames are
      encoded): every frame's codec time plus the BS's upload ingest and
      cost evaluation, which must fit in it (+5%) and make at least a
      fifth of it (the rest is socket I/O and the event loop).

    These are wall times on a shared host: a preemption inside a short
    span can break one solve's figures, so the check passes when one of
    three solves meets every bound.
    """

    @staticmethod
    def _mismatches(tmp_path, capsys, layers, workload, instance):
        probes = layers.ProbeSet(layers.default_probes())
        trace = tmp_path / "socket-wide.jsonl"
        probes.install()
        try:
            with obs.recording(trace, timings=True, spans=True):
                solve_over_sockets(instance, workload.config, runtime=workload.runtime)
        finally:
            assert probes.uninstall() == []
        capsys.readouterr()
        assert trace_cli(["critical-path", str(trace), "--format", "json"]) == 0
        buckets = json.loads(capsys.readouterr().out)["by_category"]
        solve = probes.busy_s("subproblem.") + probes.busy_s("privacy.")
        aggregate = probes["bs.broadcast_aggregate"].busy_s + probes["bs.update_prices"].busy_s
        wire = buckets["network"] + buckets.get("broadcast", 0.0)
        probed = (
            probes.busy_s("wire.")
            + probes["bs.absorb_uploads"].busy_s
            + probes["bs.has_folded"].busy_s
            + probes["bs.system_cost"].busy_s
        )
        checks = {
            "solve": (solve, buckets["solve"], 0.9 * solve, 1.25 * solve + 0.002),
            "aggregate": (
                aggregate,
                buckets["aggregate"],
                0.7 * aggregate,
                1.3 * aggregate + 0.0005,
            ),
            "network": (probed, wire, probed / 1.05, 5.0 * probed),
        }
        return [
            f"{name}: probes {probe:.6f}s, critical path {bucket:.6f}s, "
            f"bounds [{low:.6f}, {high:.6f}]"
            for name, (probe, bucket, low, high) in checks.items()
            if not (probe > 0.0 and low <= bucket <= high)
        ]

    def test_socket_wide_buckets_match_probes(self, tmp_path, monkeypatch, capsys):
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench import layers
        from perfbench.workloads import WORKLOADS
        from repro.workload.cityscale import generate_city_instance

        workload = WORKLOADS["socket-wide"]
        instance = generate_city_instance(3, 20, 200, rng=7).to_dense()
        for _attempt in range(3):
            mismatches = self._mismatches(tmp_path, capsys, layers, workload, instance)
            if not mismatches:
                break
        assert mismatches == []
