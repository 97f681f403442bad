"""Socket-runtime tests: bit-identity, chaos determinism, BS hardening.

Everything here drives the runtime through its sync entry point
``solve_over_sockets`` (which owns its own ``asyncio.run``), so no async
test plugin is needed.
"""

import asyncio
import filecmp
import json

import numpy as np
import pytest
from conftest import random_problem

from repro import obs
from repro.core.distributed import DistributedConfig, DistributedResult, solve_distributed
from repro.core.sparse import SparseProblemInstance, SparseSolution
from repro.exceptions import ProtocolError, ProtocolTimeout, ValidationError
from repro.network.faults import FaultConfig, FaultSchedule, LinkFaultProfile
from repro.network.messaging import MessageKind
from repro.obs.cli import main as trace_cli
from repro.privacy.mechanism import LPPMConfig
from repro.runtime import client as runtime_client
from repro.runtime import (
    ClientSession,
    Frame,
    RuntimeConfig,
    RuntimeReport,
    RuntimeServer,
    run_client,
    solve_over_sockets,
    write_frame,
)


def _problem(seed: int = 12345):
    return random_problem(np.random.default_rng(seed))


def _config(**overrides) -> DistributedConfig:
    defaults = dict(max_iterations=5)
    defaults.update(overrides)
    return DistributedConfig(**defaults)


def _chaos(seed: int = 3) -> FaultConfig:
    return FaultConfig(
        default=LinkFaultProfile(
            drop=0.08, duplicate=0.05, delay=0.08, reorder=0.05, truncate=0.04
        ),
        schedule=FaultSchedule().crash_sbs(1, at=1, recover_at=2),
        seed=seed,
    )


def _trace(path, runner):
    with obs.recording(str(path), timings=False):
        return runner()


class TestBitIdentity:
    def test_faultfree_socket_run_matches_in_process(self, tmp_path):
        problem, config = _problem(), _config()
        socket_trace = tmp_path / "socket.jsonl"
        sim_trace = tmp_path / "sim.jsonl"
        result, report = _trace(
            socket_trace, lambda: solve_over_sockets(problem, config)
        )
        reference = _trace(
            sim_trace,
            lambda: solve_distributed(problem, config, faults=FaultConfig()),
        )
        assert result.cost == reference.cost
        assert result.iterations == reference.iterations
        assert result.converged == reference.converged
        np.testing.assert_array_equal(
            result.solution.caching, reference.solution.caching
        )
        np.testing.assert_array_equal(
            result.solution.routing, reference.solution.routing
        )
        assert filecmp.cmp(socket_trace, sim_trace, shallow=False)
        # The identical traces carry the clients' counts, folded in by the BS.
        events = [json.loads(line) for line in socket_trace.read_text().splitlines()]
        (end,) = [event for event in events if event["type"] == "run_end"]
        assert end["counters"]["algorithm1.iterations"] == result.iterations
        assert end["counters"]["subproblem.solves"] == end["phases"]
        assert isinstance(report, RuntimeReport)
        assert report.num_clients == problem.num_sbs
        assert report.proxy is None

    def test_privacy_run_matches_in_process(self, tmp_path):
        problem, config = _problem(), _config(max_iterations=3)
        privacy = LPPMConfig(epsilon=1.0)
        socket_trace = tmp_path / "socket.jsonl"
        sim_trace = tmp_path / "sim.jsonl"
        result, _ = _trace(
            socket_trace,
            lambda: solve_over_sockets(problem, config, privacy=privacy, rng=42),
        )
        reference = _trace(
            sim_trace,
            lambda: solve_distributed(
                problem, config, privacy=privacy, rng=42, faults=FaultConfig()
            ),
        )
        assert result.total_epsilon == reference.total_epsilon
        assert result.cost == reference.cost
        assert filecmp.cmp(socket_trace, sim_trace, shallow=False)

    def test_tasks_and_processes_modes_are_identical(self, tmp_path):
        problem, config = _problem(), _config(max_iterations=3)
        tasks_trace = tmp_path / "tasks.jsonl"
        proc_trace = tmp_path / "processes.jsonl"
        tasks_result, _ = _trace(
            tasks_trace,
            lambda: solve_over_sockets(
                problem, config, runtime=RuntimeConfig(mode="tasks")
            ),
        )
        proc_result, proc_report = _trace(
            proc_trace,
            lambda: solve_over_sockets(
                problem, config, runtime=RuntimeConfig(mode="processes")
            ),
        )
        assert proc_report.mode == "processes"
        assert tasks_result.cost == proc_result.cost
        np.testing.assert_array_equal(
            tasks_result.solution.caching, proc_result.solution.caching
        )
        assert filecmp.cmp(tasks_trace, proc_trace, shallow=False)


    def test_sparse_instance_runs_on_pairs_like_in_process(self, tmp_path):
        """A sparse instance runs on pair vectors over sockets exactly as
        in process: same cost, iterations, caching, routing, channel
        bytes and trace bytes, with every frame a pair vector."""
        sparse = SparseProblemInstance.from_dense(_problem())
        config = _config(max_iterations=3)
        socket_trace = tmp_path / "socket.jsonl"
        sim_trace = tmp_path / "sim.jsonl"
        result, _ = _trace(socket_trace, lambda: solve_over_sockets(sparse, config))
        reference = _trace(
            sim_trace,
            lambda: solve_distributed(sparse, config, faults=FaultConfig()),
        )
        assert isinstance(result.solution, SparseSolution)
        assert result.cost == reference.cost
        assert result.iterations == reference.iterations
        for field in ("caching", "routing"):
            ours, theirs = getattr(result.solution, field), getattr(reference.solution, field)
            assert len(ours) == len(theirs) == sparse.num_sbs
            for block, expected in zip(ours, theirs):
                np.testing.assert_array_equal(block, expected)
        for index, block in enumerate(result.solution.routing):
            assert block.shape == sparse.sbs_index(index).pair_ids.shape
        assert result.channel.stats.bytes_sent == reference.channel.stats.bytes_sent
        assert filecmp.cmp(socket_trace, sim_trace, shallow=False)


class TestClientCounters:
    def test_malformed_counters_are_not_folded(self):
        """Counters arrive from the network: only integer counts fold."""
        server = RuntimeServer(_problem(), _config(), RuntimeConfig())
        sink = obs.ListRecorder()
        with obs.recording(sink, timings=False):
            server._replay({"counters": {"ok": 2, "text": "x", "flag": True, "real": 1.5}})
            server._replay({"counters": ["not", "a", "mapping"]})
        assert sink.counters.counters == {"ok": 2}


class TestChaosDeterminism:
    def test_same_seed_gives_byte_identical_traces(self, tmp_path):
        problem, config = _problem(), _config()
        runtime = RuntimeConfig(faults=_chaos(), ack_timeout=0.1, phase_deadline=10.0)
        traces = []
        for attempt in range(2):
            trace = tmp_path / f"chaos{attempt}.jsonl"
            result, report = _trace(
                trace, lambda: solve_over_sockets(problem, config, runtime=runtime)
            )
            traces.append(trace)
            assert result.converged
        assert filecmp.cmp(traces[0], traces[1], shallow=False)

    def test_chaos_trace_passes_every_validate_invariant(self, tmp_path):
        problem, config = _problem(), _config()
        runtime = RuntimeConfig(faults=_chaos(), ack_timeout=0.1, phase_deadline=10.0)
        trace = tmp_path / "chaos.jsonl"
        result, report = _trace(
            trace, lambda: solve_over_sockets(problem, config, runtime=runtime)
        )
        assert trace_cli(["validate", str(trace)]) == 0
        assert report.proxy is not None
        assert report.proxy["forwarded"] > 0
        # The crash window drops that SBS's data-plane frames outright.
        assert report.proxy["schedule_dropped"] > 0


class TestStragglerPolicy:
    def test_deadline_closes_straggler_phase_and_run_recovers(self, tmp_path):
        # The stale first iteration delays certification, so give the
        # run enough iterations to converge after the straggler recovers.
        problem, config = _problem(), _config(max_iterations=10, accuracy=1e-3)
        runtime = RuntimeConfig(
            adversaries={1: "straggle"},
            phase_deadline=1.0,
            ack_timeout=0.1,
            control_timeout=20.0,
        )
        trace = tmp_path / "straggler.jsonl"
        result, report = _trace(
            trace, lambda: solve_over_sockets(problem, config, runtime=runtime)
        )
        assert report.deadline_expired >= 1
        assert result.stale_phases >= 1
        assert result.converged
        assert trace_cli(["validate", str(trace)]) == 0

    def test_quorum_below_one_keeps_faultfree_runs_bit_identical(self, tmp_path):
        # Quorum only gates termination when phases go stale; on a clean
        # run it must not perturb a single byte.
        problem, config = _problem(), _config(max_iterations=3)
        strict = tmp_path / "strict.jsonl"
        relaxed = tmp_path / "relaxed.jsonl"
        _trace(
            strict,
            lambda: solve_over_sockets(
                problem, config, runtime=RuntimeConfig(quorum=1.0)
            ),
        )
        _trace(
            relaxed,
            lambda: solve_over_sockets(
                problem, config, runtime=RuntimeConfig(quorum=0.5)
            ),
        )
        assert filecmp.cmp(strict, relaxed, shallow=False)


class TestByzantineFilter:
    def _run(self, runtime, tmp_path):
        problem, config = _problem(), _config()
        trace = tmp_path / "byzantine.jsonl"
        result, report = _trace(
            trace, lambda: solve_over_sockets(problem, config, runtime=runtime)
        )
        assert trace_cli(["validate", str(trace)]) == 0
        return result, report

    def test_nan_upload_rejected_and_phase_degrades(self, tmp_path):
        result, report = self._run(
            RuntimeConfig(
                adversaries={1: "nan"},
                byzantine_filter=True,
                ack_timeout=0.05,
                phase_deadline=5.0,
            ),
            tmp_path,
        )
        assert report.byzantine_rejected >= 1
        assert result.stale_phases >= 1
        assert result.converged

    def test_raise_aborts_before_degrading_like_in_process(self):
        """``on_timeout="raise"``: a rejected upload aborts the socket run
        exactly as a lost one aborts the in-process run, with the same
        ``ProtocolTimeout`` and no ``degrade`` event first."""
        problem, config = _problem(), _config(on_timeout="raise")
        runtime = RuntimeConfig(
            adversaries={0: "nan"},
            byzantine_filter=True,
            ack_timeout=0.05,
            phase_deadline=5.0,
            control_timeout=2.0,
        )
        lost = FaultConfig(
            by_kind={MessageKind.POLICY_UPLOAD: LinkFaultProfile(drop=1.0)}, seed=0
        )
        runs = {
            "socket": lambda: solve_over_sockets(problem, config, runtime=runtime),
            "in-process": lambda: solve_distributed(problem, config, faults=lost),
        }
        messages = {}
        for name, run in runs.items():
            recorder = obs.ListRecorder()
            with obs.recording(recorder, timings=False):
                with pytest.raises(ProtocolTimeout) as raised:
                    run()
            events = [e.get("event") for e in recorder.events if e["type"] == "protocol"]
            assert "degrade" not in events, name
            messages[name] = str(raised.value)
        assert messages["socket"] == messages["in-process"]
        assert "undelivered" in messages["socket"]

    def test_range_violation_clipped_into_the_fold(self, tmp_path):
        result, report = self._run(
            RuntimeConfig(
                adversaries={1: "range"},
                byzantine_filter=True,
                byzantine_policy="clip",
                ack_timeout=0.05,
                phase_deadline=5.0,
            ),
            tmp_path,
        )
        assert report.byzantine_rejected >= 1
        # Clipping folds a sanitized report, so nothing degrades.
        assert result.stale_phases == 0
        assert result.converged

    def test_wrong_shape_never_crashes_even_unfiltered(self, tmp_path):
        result, report = self._run(
            RuntimeConfig(
                adversaries={1: "shape"}, ack_timeout=0.05, phase_deadline=5.0
            ),
            tmp_path,
        )
        # Without the filter the malformed upload is counted as corrupt
        # and dropped; the sender's ARQ exhausts and the phase degrades.
        assert report.corrupted >= 1
        assert result.stale_phases >= 1
        assert result.converged


class TestDeadClient:
    def test_disconnected_client_skips_its_phases_as_crashed(self):
        """A client whose connection is gone skips its phases like a
        crashed SBS: a ``crash_skip`` event and a stale phase each
        iteration, and the crashed agent's all-zero final state."""
        problem, config = _problem(), _config(max_iterations=2)
        runtime = RuntimeConfig(control_timeout=5.0)
        dead = problem.num_sbs - 1

        async def scenario():
            server = RuntimeServer(problem, config, runtime)
            port = await server.start()
            live = [
                asyncio.create_task(
                    run_client(
                        ClientSession(
                            index=index,
                            host=runtime.host,
                            port=port,
                            problem=problem,
                            config=config,
                            ack_timeout=runtime.ack_timeout,
                            control_timeout=runtime.control_timeout,
                        )
                    )
                )
                for index in range(dead)
            ]
            _, writer = await asyncio.open_connection(runtime.host, port)
            hello = {"action": "hello", "index": dead}
            write_frame(
                writer,
                Frame(MessageKind.CONTROL, f"sbs-{dead}", "bs", -1, -1, meta=hello),
            )
            await writer.drain()
            writer.close()
            try:
                return await server.run()
            finally:
                await asyncio.gather(*live)
                await server.close()

        recorder = obs.ListRecorder()
        with obs.recording(recorder, timings=False):
            result = asyncio.run(scenario())
        skips = [e for e in recorder.events if e.get("event") == "crash_skip"]
        assert [e["sbs"] for e in skips] == [dead] * result.iterations
        assert result.stale_phases == result.iterations == 2
        assert not result.converged
        assert not result.solution.caching[dead].any()


class TestFinalState:
    def test_entries_round_trip_bit_for_bit_through_json(self):
        block = np.array([[0.0, -0.0, 0.25], [0.0, 5e-324, 0.1 + 0.2]])
        entries = runtime_client.nonzero_entries(block)
        assert entries["index"] == [1, 2, 4, 5]
        meta = json.loads(json.dumps({"true_routing": entries}))
        back = runtime_client.scatter_entries(meta, "true_routing", block.shape)
        np.testing.assert_array_equal(back.view(np.uint64), block.view(np.uint64))

    @pytest.mark.parametrize(
        "key, forged, reason",
        [
            ("true_routing", {"index": [0, 1], "value": [0.5]}, "equal-length"),
            ("true_routing", [0.5, 0.25], "equal-length"),
            ("true_routing", {"index": [3, 1], "value": [0.5, 0.5]}, "strictly increasing"),
            ("true_routing", {"index": [2, 2], "value": [0.5, 0.5]}, "strictly increasing"),
            ("true_routing", {"index": [-1], "value": [0.5]}, "strictly increasing"),
            ("true_routing", {"index": [10**6], "value": [0.5]}, "strictly increasing"),
            ("true_routing", {"index": [0.0], "value": [0.5]}, "not integers"),
            ("true_routing", {"index": [0], "value": [float("nan")]}, "finite"),
            ("true_routing", {"index": [0], "value": ["0.5"]}, "finite"),
            ("caching", {"index": [10**6], "value": [1.0]}, "strictly increasing"),
        ],
    )
    def test_forged_final_state_is_a_protocol_error(self, monkeypatch, key, forged, reason):
        """A client whose ``final_state`` is malformed gets a
        ``ProtocolError`` naming it, never a silently misshapen result."""
        problem = _problem()
        forger = problem.num_sbs - 1
        send_control = runtime_client._ClientLoop._send_control

        async def forge(self, iteration, phase, meta):
            if meta["action"] == "final_state" and self.session.index == forger:
                meta = {**meta, key: forged}
            await send_control(self, iteration, phase, meta)

        monkeypatch.setattr(runtime_client._ClientLoop, "_send_control", forge)
        with pytest.raises(ProtocolError, match=f"sbs-{forger}: malformed final_state {key}: .*{reason}"):
            solve_over_sockets(problem, _config(max_iterations=1))


class TestSmoke:
    def test_faultfree_smoke_passes_on_both_instances(self, tmp_path):
        from repro.runtime import smoke

        assert smoke.main(["faultfree", "--workdir", str(tmp_path)]) == 0
        for label in smoke.faultfree_problems():
            assert (tmp_path / f"socket-{label}.jsonl").exists()


class TestEventLoopHygiene:
    def test_result_is_never_formatted(self, monkeypatch):
        """``asyncio.run`` formats its main task on CPython 3.11; the
        solve's result must not be that task's result, or every call pays
        for a repr of every array in it."""
        calls = []

        def counting_repr(self):
            calls.append(1)
            return "DistributedResult(...)"

        monkeypatch.setattr(DistributedResult, "__repr__", counting_repr)
        solve_over_sockets(_problem(), _config(max_iterations=1))
        assert calls == []


class TestValidation:
    def test_jacobi_mode_rejected(self):
        with pytest.raises(ValidationError, match="gauss-seidel"):
            solve_over_sockets(_problem(), _config(mode="jacobi"))

    def test_restarts_rejected(self):
        with pytest.raises(ValidationError, match="single pass"):
            solve_over_sockets(_problem(), _config(restarts=2))

    def test_deadline_must_cover_arq_exhaustion(self):
        with pytest.raises(ValidationError, match="phase_deadline"):
            solve_over_sockets(
                _problem(),
                _config(),
                runtime=RuntimeConfig(phase_deadline=0.2, ack_timeout=0.1),
            )

    def test_adversary_index_must_exist(self):
        with pytest.raises(ValidationError):
            solve_over_sockets(
                _problem(),
                _config(),
                runtime=RuntimeConfig(adversaries={99: "nan"}),
            )

    def test_runtime_config_validation(self):
        with pytest.raises(ValidationError, match="mode"):
            RuntimeConfig(mode="threads")
        with pytest.raises(ValidationError, match="quorum"):
            RuntimeConfig(quorum=0.0)
        with pytest.raises(ValidationError, match="quorum"):
            RuntimeConfig(quorum=1.5)
        with pytest.raises(ValidationError, match="byzantine_policy"):
            RuntimeConfig(byzantine_policy="ban")
        with pytest.raises(ValidationError, match="adversary"):
            RuntimeConfig(adversaries={0: "teleport"})
        with pytest.raises(ValidationError, match="ack_timeout"):
            RuntimeConfig(ack_timeout=0.0)

    def test_report_round_trips_to_dict(self):
        report = RuntimeReport(mode="tasks", num_clients=3, retransmissions=2)
        as_dict = report.to_dict()
        assert as_dict["mode"] == "tasks"
        assert as_dict["num_clients"] == 3
        assert as_dict["retransmissions"] == 2
        assert as_dict["proxy"] is None
