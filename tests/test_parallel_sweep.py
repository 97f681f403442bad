"""Parallel sweep engine: bit-identical to serial, dedup-safe, fault-safe."""

import numpy as np
import pytest

from repro import obs
from repro.core.distributed import DistributedConfig
from repro.core.subproblem import SubproblemConfig
from repro.exceptions import ValidationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _CellTask, _evaluate_cells, run_sweep
from repro.network.faults import FaultConfig, FaultSchedule, LinkFaultProfile
from repro.obs import TraceReader, validate_events

TINY = ScenarioConfig(num_groups=8, num_links=10)
CONFIG = DistributedConfig(accuracy=1e-3, max_iterations=2)


def _sweep(**kwargs):
    defaults = dict(
        epsilon_of_x=lambda x: float(x),
        seeds=(7, 11),
        distributed_config=CONFIG,
    )
    defaults.update(kwargs)
    return run_sweep(
        "test", "epsilon", [0.1, 10.0], lambda _x: TINY, **defaults
    )


class TestBitIdentity:
    def test_parallel_matches_serial(self):
        """The headline guarantee: workers=N changes nothing, bit for bit."""
        serial = _sweep(workers=1)
        parallel = _sweep(workers=4)
        assert serial == parallel

    def test_dedup_matches_plain_serial(self):
        assert _sweep(workers=1, dedup=False) == _sweep(workers=1, dedup=True)

    def test_legacy_engine_matches_default_sweep(self):
        """The pre-optimization engine (validating legacy oracle, no
        dedup, serial) gives the default sweep's numbers bit for bit."""
        legacy = DistributedConfig(
            accuracy=1e-3, max_iterations=2, subproblem=SubproblemConfig(fast=False)
        )
        reference = _sweep(workers=1, dedup=False, seeds=(7,), distributed_config=legacy)
        assert _sweep(seeds=(7,)) == reference

    def test_parallel_without_dedup_matches_serial(self):
        assert _sweep(workers=1, dedup=False) == _sweep(workers=2, dedup=False)

    def test_parallel_with_scenario_variation(self):
        """Sweeps that vary the scenario (Fig. 4 style) also agree."""

        def sweep(workers):
            return run_sweep(
                "mus",
                "groups",
                [6.0, 8.0],
                lambda x: TINY.replace(num_groups=int(x)),
                epsilon_of_x=lambda _x: 0.1,
                seeds=(7,),
                distributed_config=CONFIG,
                workers=workers,
            )

        assert sweep(1) == sweep(2)

    def test_parallel_with_faults(self):
        """Fault-injected sweeps run the resilient protocol; still identical."""
        faults = FaultConfig(
            default=LinkFaultProfile(drop=0.1),
            schedule=FaultSchedule(),
            seed=3,
        )
        serial = _sweep(workers=1, faults=faults)
        parallel = _sweep(workers=2, faults=faults)
        assert serial == parallel

    def test_lppm_cells_depend_on_epsilon(self):
        """Sanity: the sweep actually exercises LPPM noise per coordinate."""
        result = _sweep(workers=2)
        lppm = result.series("lppm")
        optimum = result.series("optimum")
        assert not np.allclose(lppm, optimum)
        # Optimum and LRFU ignore epsilon, so their series are flat.
        assert result.series("optimum")[0] == result.series("optimum")[1]


class TestTraceDeterminism:
    """Sweep traces are a pure function of the task list, not the scheduling."""

    def _traced_sweep(self, path, *, timings=True, **kwargs):
        with obs.recording(path, timings=timings):
            result = _sweep(**kwargs)
        return result

    def test_parallel_trace_is_byte_identical_to_serial(self, tmp_path):
        # timings=False: wall-clock solve_seconds would differ per run.
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = self._traced_sweep(serial_path, workers=1, timings=False)
        parallel = self._traced_sweep(parallel_path, workers=4, timings=False)
        assert serial == parallel
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_sweep_trace_validates_and_groups_by_cell(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._traced_sweep(path, workers=2)
        reader = TraceReader(path)
        assert validate_events(reader.events) == []
        cells = reader.cells()
        # 2 x-values x 2 seeds x 3 schemes = 12 tasks; optimum and lrfu
        # dedup across the epsilon axis, lppm cells stay distinct.
        assert len(cells) == 8
        starts = [e for e in reader.events if e["type"] == "cell_start"]
        assert {e["scheme"] for e in starts} == {"optimum", "lppm", "lrfu"}

    def test_trace_carries_no_scheduling_fields(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._traced_sweep(path, workers=3)
        assert "workers" not in path.read_text()

    def test_dedup_off_traces_every_cell(self, tmp_path):
        path = tmp_path / "nodedup.jsonl"
        self._traced_sweep(path, workers=2, dedup=False)
        assert len(TraceReader(path).cells()) == 12


class TestDeduplication:
    def test_identical_cells_collapse(self):
        task = _CellTask(
            scheme="lrfu", scenario=TINY, rng=9, config=None, faults=None
        )
        costs = _evaluate_cells([task, task, task], workers=1, dedup=True)
        assert costs[0] == costs[1] == costs[2]

    def test_faulty_cells_are_never_deduplicated(self):
        faults = FaultConfig(seed=1)
        task = _CellTask(
            scheme="optimum", scenario=TINY, rng=9, config=CONFIG, faults=faults
        )
        assert task.key() is None

    def test_distinct_cells_have_distinct_keys(self):
        a = _CellTask(scheme="lrfu", scenario=TINY, rng=9, config=None, faults=None)
        b = _CellTask(scheme="lrfu", scenario=TINY, rng=10, config=None, faults=None)
        assert a.key() != b.key()


class TestValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValidationError):
            _sweep(workers=0)

    def test_rejects_empty_x_values(self):
        with pytest.raises(ValidationError):
            run_sweep(
                "empty",
                "x",
                [],
                lambda _x: TINY,
                epsilon_of_x=lambda x: float(x),
            )

    def test_unknown_scheme_cell_raises(self):
        from repro.experiments.runner import _evaluate_cell

        bad = _CellTask(
            scheme="nope", scenario=TINY, rng=1, config=None, faults=None
        )
        with pytest.raises(ValidationError):
            _evaluate_cell(bad)


class TestZeroCopyDispatch:
    """The initializer task publication: no per-task pickles, exact."""

    def test_effective_workers_clamps_on_single_cpu(self, monkeypatch):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
        assert runner._effective_workers(8, 12) == 1

    def test_effective_workers_passes_through_on_many_cpus(self, monkeypatch):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 8)
        assert runner._effective_workers(4, 12) == 4
        assert runner._effective_workers(4, 2) == 2
        assert runner._effective_workers(1, 12) == 1
        assert runner._effective_workers(4, 1) == 1

    def test_forced_pool_bit_identical(self, monkeypatch):
        """Bypass the single-CPU clamp: the real pool must agree exactly."""
        import repro.experiments.runner as runner

        serial = _sweep(workers=1)
        monkeypatch.setattr(
            runner, "_effective_workers", lambda w, c: min(w, c) if w > 1 else 1
        )
        pooled = _sweep(workers=2)
        assert serial == pooled

    def test_spawned_pool_bit_identical(self, monkeypatch):
        """Under ``spawn`` the initializer pickles the task list once per
        worker instead of inheriting it; the results are the same."""
        import functools
        import multiprocessing

        import repro.experiments.runner as runner

        serial = _sweep(workers=1)
        monkeypatch.setattr(
            runner, "_effective_workers", lambda w, c: min(w, c) if w > 1 else 1
        )
        monkeypatch.setattr(
            runner,
            "ProcessPoolExecutor",
            functools.partial(
                runner.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
            ),
        )
        pooled = _sweep(workers=2)
        assert serial == pooled

    def test_problem_memo_returns_identical_instance(self):
        from repro.experiments.runner import _problem_for

        assert _problem_for(TINY) is _problem_for(TINY)

    def test_worker_payload_cleared_after_map(self, monkeypatch):
        import repro.experiments.runner as runner

        monkeypatch.setattr(
            runner, "_effective_workers", lambda w, c: min(w, c) if w > 1 else 1
        )
        _sweep(workers=2)
        assert runner._WORKER_TASKS is None
