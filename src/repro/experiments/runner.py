"""Parameter-sweep runner producing the paper's figure series.

A sweep varies one scenario knob (epsilon, number of MUs, number of
links, bandwidth) and evaluates every scheme at each point, averaging
over seeds.  Results come back as :class:`SweepResult` — a small typed
table the reporting module renders and the benchmarks assert against.

Execution model
---------------

Every sweep cell — one ``(scheme, x, seed)`` triple — is a *pure
function* of its picklable :class:`_CellTask` description: the scenario
carries the construction seed, the schemes derive all their randomness
from the explicit ``rng`` integer, and nothing flows between cells.
That buys two orthogonal optimizations, both exact:

* **deduplication** — when ``scenario_of_x`` ignores ``x`` (Fig. 3's
  epsilon sweep, where only the LPPM cells actually depend on the
  coordinate) identical cells collapse to a single evaluation whose
  result is reused everywhere it appears;
* **parallelism** — ``workers=N`` fans the distinct cells out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker
  rebuilds its problem from the scenario config and returns one float;
  results are reassembled in submission order, so the output is
  **bit-identical** to the serial run (the tests assert this).

The default (``workers=1``) keeps the historical serial behaviour.

Zero-copy dispatch
------------------

Workers never receive pickled :class:`_CellTask` objects per map item.
The pool initializer hands each worker the deduplicated task list once
— inherited for free under ``fork``, pickled once per worker under
``spawn`` or ``forkserver`` — and the pool maps over plain integer
indices in chunks.  Each worker process also memoizes
:func:`~repro.experiments.config.build_problem` per scenario, so cells
that share a scenario (the usual case: one scenario times several
schemes) build their arrays once.  On a single-CPU host the fan-out
cannot win, so :func:`_effective_workers` clamps execution to the
inline path — results are identical either way, only the scheduling
changes.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.distributed import DistributedConfig
from ..exceptions import ValidationError
from ..network.faults import FaultConfig
from .config import ScenarioConfig, build_problem
from .schemes import run_lppm, run_lrfu, run_optimum

__all__ = ["SweepPoint", "SweepResult", "run_sweep", "average_gap"]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Mean scheme costs at one sweep coordinate."""

    x: float
    costs: Dict[str, float]
    stds: Dict[str, float]

    def gap(self, scheme: str, reference: str) -> float:
        """Relative gap ``(cost[scheme] - cost[reference]) / cost[reference]``."""
        return (self.costs[scheme] - self.costs[reference]) / self.costs[reference]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """A full sweep: one :class:`SweepPoint` per x value."""

    name: str
    x_label: str
    points: Tuple[SweepPoint, ...]
    schemes: Tuple[str, ...]

    def series(self, scheme: str) -> np.ndarray:
        """One scheme's mean cost at every sweep point."""
        return np.array([point.costs[scheme] for point in self.points])

    def x_values(self) -> np.ndarray:
        """The sweep coordinates as an array."""
        return np.array([point.x for point in self.points])


def average_gap(result: SweepResult, scheme: str, reference: str) -> float:
    """Mean relative gap of ``scheme`` vs ``reference`` across the sweep."""
    return float(np.mean([point.gap(scheme, reference) for point in result.points]))


@dataclasses.dataclass(frozen=True)
class _CellTask:
    """A self-contained, picklable description of one sweep cell.

    Carries everything :func:`_evaluate_cell` needs to rebuild the
    problem and run the scheme in a worker process.  ``epsilon`` /
    ``delta`` / ``sensitivity`` are only meaningful for the LPPM scheme.
    """

    scheme: str
    scenario: ScenarioConfig
    rng: int
    config: Optional[DistributedConfig]
    faults: Optional[FaultConfig]
    epsilon: float = 0.0
    delta: float = 0.5
    sensitivity: float = 1.0

    def key(self) -> Optional[Hashable]:
        """Hashable identity for deduplication, or ``None`` if unhashable.

        A :class:`~repro.network.faults.FaultConfig` holds a mapping and
        is not hashable, so faulty cells are never deduplicated — each
        one runs on its own.
        """
        if self.faults is not None:
            return None
        return (
            self.scheme,
            self.scenario,
            self.rng,
            self.config,
            self.epsilon,
            self.delta,
            self.sensitivity,
        )


@functools.lru_cache(maxsize=32)
def _problem_for(scenario: ScenarioConfig):
    """Per-process memoized :func:`build_problem`.

    Sweep cells never mutate their problem (every scheme copies what it
    perturbs), so cells sharing a scenario — one scenario times several
    schemes times several dedup hits — can share one instance instead of
    regenerating the arrays per cell.  The cache lives per process:
    pool workers each warm their own.
    """
    return build_problem(scenario)


def _evaluate_cell(task: _CellTask) -> float:
    """Run one sweep cell and return its scheme cost.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it; deterministic given ``task`` alone.
    """
    problem = _problem_for(task.scenario)
    if task.scheme == "optimum":
        return run_optimum(
            problem, config=task.config, rng=task.rng, faults=task.faults
        ).cost
    if task.scheme == "lppm":
        return run_lppm(
            problem,
            task.epsilon,
            delta=task.delta,
            sensitivity=task.sensitivity,
            config=task.config,
            rng=task.rng,
            faults=task.faults,
        ).cost
    if task.scheme == "lrfu":
        return run_lrfu(problem, rng=task.rng).cost
    raise ValidationError(f"unknown sweep scheme {task.scheme!r}")


def _evaluate_cell_traced(
    task: _CellTask, timings: bool = True
) -> Tuple[float, List[obs.Event]]:
    """Run one cell under a buffering recorder; return (cost, events).

    Runs in the worker process (or inline for ``workers=1``): the cell's
    event stream is captured locally and replayed by the parent in
    submission order, so the merged sweep trace is byte-identical no
    matter how cells were scheduled across processes.  ``timings``
    mirrors the parent recorder's timings flag into the worker (module
    globals do not travel to pool processes reliably).
    """
    recorder = obs.ListRecorder()
    with obs.recording(recorder, timings=timings):
        cost = _evaluate_cell(task)
    return cost, recorder.events


# -- zero-copy worker dispatch -----------------------------------------
#
# The distinct-task list reaches each pool worker exactly once, through
# the pool initializer.  Map items are then plain integers.

_WORKER_TASKS: Optional[List[_CellTask]] = None
_WORKER_TIMINGS: bool = True


def _init_worker(tasks: List[_CellTask], timings: bool) -> None:
    """Pool initializer: install the distinct-task list in this worker."""
    global _WORKER_TASKS, _WORKER_TIMINGS
    _WORKER_TASKS, _WORKER_TIMINGS = tasks, timings


def _evaluate_index(index: int) -> float:
    """Evaluate one distinct cell by its index into the published list."""
    assert _WORKER_TASKS is not None
    return _evaluate_cell(_WORKER_TASKS[index])


def _evaluate_index_traced(index: int) -> Tuple[float, List[obs.Event]]:
    """Traced variant of :func:`_evaluate_index` (timings from the payload)."""
    assert _WORKER_TASKS is not None
    return _evaluate_cell_traced(_WORKER_TASKS[index], timings=_WORKER_TIMINGS)


def _effective_workers(workers: int, cells: int) -> int:
    """Clamp the requested fan-out to what can actually help.

    A process pool on a single-CPU host (or for a single cell) pays
    fork/IPC overhead with zero parallel speedup, so those cases run
    inline.  Results are bit-identical either way; only scheduling
    changes.  Tests monkeypatch this to force the pool path.
    """
    if workers <= 1 or cells <= 1:
        return 1
    if (os.cpu_count() or 1) <= 1:
        return 1
    return min(workers, cells)


def _map_distinct(
    distinct: Sequence[_CellTask], workers: int, *, traced: bool, timings: bool
) -> List:
    """Map the distinct cells over a pool without per-task pickles.

    The pool initializer publishes the task list to each worker once;
    the map then runs over chunked integer indices.
    ``ProcessPoolExecutor.map`` preserves submission order, so results
    line up with ``distinct``.
    """
    fn = _evaluate_index_traced if traced else _evaluate_index
    chunksize = max(1, len(distinct) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(list(distinct), timings)
    ) as pool:
        return list(pool.map(fn, range(len(distinct)), chunksize=chunksize))


def _evaluate_cells(
    tasks: Sequence[_CellTask], *, workers: int, dedup: bool
) -> List[float]:
    """Evaluate every cell, deduplicated and optionally in parallel.

    Distinct cells are evaluated in first-occurrence order — inline for
    ``workers=1``, else via the zero-copy pool dispatch of
    :func:`_map_distinct` — and the per-task result list is reassembled
    from the distinct results.  Because each cell is a pure function of
    its task, the returned floats are bit-identical no matter how the
    evaluation was scheduled.
    """
    keys = [task.key() if dedup else None for task in tasks]
    distinct: List[_CellTask] = []
    slot_of_task: List[int] = []
    slot_of_key: Dict[Hashable, int] = {}
    for task, key in zip(tasks, keys):
        if key is not None and key in slot_of_key:
            slot_of_task.append(slot_of_key[key])
            continue
        slot = len(distinct)
        distinct.append(task)
        slot_of_task.append(slot)
        if key is not None:
            slot_of_key[key] = slot
    workers = _effective_workers(workers, len(distinct))
    if obs.enabled():
        if workers <= 1:
            timings = obs.timings_enabled()
            pairs = [_evaluate_cell_traced(task, timings=timings) for task in distinct]
        else:
            pairs = _map_distinct(
                distinct, workers, traced=True, timings=obs.timings_enabled()
            )
        results = [_replay_cell(slot, task, pair) for slot, (task, pair) in
                   enumerate(zip(distinct, pairs))]
    elif workers <= 1:
        results = [_evaluate_cell(task) for task in distinct]
    else:
        results = _map_distinct(distinct, workers, traced=False, timings=False)
    return [results[slot] for slot in slot_of_task]


def _replay_cell(slot: int, task: _CellTask, pair: Tuple[float, List[obs.Event]]) -> float:
    """Replay one captured cell stream into the parent's recorder.

    Events are tagged with a stable ``cell`` id (the distinct-cell slot,
    a pure function of the task list) so ``TraceReader.cells()`` can
    regroup them; the scheduling knobs (``workers``) never appear in the
    trace, keeping serial and parallel sweeps byte-identical.
    """
    cost, events = pair
    cell = f"cell-{slot}"
    obs.emit(
        "cell_start",
        cell=cell,
        scheme=task.scheme,
        seed=task.scenario.seed,
        rng=task.rng,
        epsilon=task.epsilon,
    )
    recorder = obs.active_recorder()
    if recorder is not None:
        for event in events:
            tagged = dict(event)
            tagged["cell"] = cell
            recorder.record(tagged)
    return cost


def run_sweep(
    name: str,
    x_label: str,
    x_values: Sequence[float],
    scenario_of_x: Callable[[float], ScenarioConfig],
    *,
    epsilon_of_x: Callable[[float], float],
    seeds: Sequence[int] = (7, 11, 13),
    delta: float = 0.5,
    sensitivity: float = 1.0,
    distributed_config: Optional[DistributedConfig] = None,
    include_lrfu: bool = True,
    faults: Optional[FaultConfig] = None,
    workers: int = 1,
    dedup: bool = True,
) -> SweepResult:
    """Evaluate optimum / LPPM (/ LRFU) across ``x_values``.

    ``scenario_of_x`` maps a sweep coordinate to a scenario config;
    ``epsilon_of_x`` supplies the privacy budget at each coordinate
    (constant for Figs. 4-6, the coordinate itself for Fig. 3).  Every
    (x, seed) pair builds an independent problem instance; costs are
    averaged over seeds.

    ``faults`` threads a fault model into the Algorithm 1 schemes (the
    LRFU baseline has no protocol to break and ignores it).  ``workers``
    evaluates sweep cells in parallel processes; ``dedup`` collapses
    identical cells to one evaluation.  Both knobs — and any combination
    of them — return results bit-identical to the plain serial sweep;
    the defaults (``workers=1``, dedup on) keep execution local and
    deterministic.
    """
    if not x_values:
        raise ValidationError("x_values must be nonempty")
    if workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers}")
    schemes = ["optimum", "lppm"] + (["lrfu"] if include_lrfu else [])
    tasks: List[_CellTask] = []
    for x in x_values:
        scenario = scenario_of_x(x)
        for seed in seeds:
            cell_scenario = scenario.replace(seed=int(seed))
            tasks.append(
                _CellTask(
                    scheme="optimum",
                    scenario=cell_scenario,
                    rng=int(seed),
                    config=distributed_config,
                    faults=faults,
                )
            )
            tasks.append(
                _CellTask(
                    scheme="lppm",
                    scenario=cell_scenario,
                    rng=int(seed) + 1,
                    config=distributed_config,
                    faults=faults,
                    epsilon=float(epsilon_of_x(x)),
                    delta=float(delta),
                    sensitivity=float(sensitivity),
                )
            )
            if include_lrfu:
                tasks.append(
                    _CellTask(
                        scheme="lrfu",
                        scenario=cell_scenario,
                        rng=int(seed) + 2,
                        config=None,
                        faults=None,
                    )
                )
    if obs.enabled():
        obs.emit(
            "sweep_start",
            name=name,
            x_label=x_label,
            x_values=[float(x) for x in x_values],
            schemes=list(schemes),
            seeds=[int(seed) for seed in seeds],
            dedup=dedup,
        )
    costs = _evaluate_cells(tasks, workers=workers, dedup=dedup)
    if obs.enabled():
        obs.emit("sweep_end", name=name, cells=len(tasks))
    cells_per_x = len(seeds) * len(schemes)
    points: List[SweepPoint] = []
    for i, x in enumerate(x_values):
        block = costs[i * cells_per_x : (i + 1) * cells_per_x]
        per_scheme: Dict[str, List[float]] = {scheme: [] for scheme in schemes}
        for j in range(len(seeds)):
            for k, scheme in enumerate(schemes):
                per_scheme[scheme].append(block[j * len(schemes) + k])
        points.append(
            SweepPoint(
                x=float(x),
                costs={s: float(np.mean(v)) for s, v in per_scheme.items()},
                stds={s: float(np.std(v)) for s, v in per_scheme.items()},
            )
        )
    return SweepResult(name=name, x_label=x_label, points=tuple(points), schemes=tuple(schemes))
