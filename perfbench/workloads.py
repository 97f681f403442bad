"""The benchmark's three workloads.

Each workload builds a pool of inputs from the workload seed, does its
set-up reference work, solves one pool item per timed call, checks the
solve with :mod:`perfbench.gate`, and reports the solve's quality
numbers.  The program only ever sees the generated instances.

* ``paper-lppm`` is the paper's own evaluation: the Section V scenario
  solved with LPPM over the Fig. 3 epsilon ladder.  Its time goes to
  small subproblem blocks, privacy noise and in-process messaging.
* ``city-sparse`` is the only workload on the sparse driver and the
  city-scale generator, with many local blocks and no privacy or
  transport.
* ``socket-wide`` runs the socket runtime on a densified small city
  instance with a wide ``U x F``, so each frame carries about 160 KB
  and the wire codec, server and client work under real byte load.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.distributed import DistributedConfig, solve_distributed
from repro.core.sparse import solve_distributed_sparse
from repro.core.subproblem import SubproblemConfig
from repro.experiments.config import build_problem
from repro.network.faults import FaultConfig
from repro.privacy.mechanism import LPPMConfig
from repro.runtime.config import RuntimeConfig
from repro.runtime.server import solve_over_sockets
from repro.workload.cityscale import generate_city_instance

from . import gate

#: The Fig. 3 privacy-budget ladder.
EPSILONS = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclasses.dataclass
class Item:
    """One input of a workload's pool."""

    key: int
    problem: Any
    epsilon: Optional[float] = None
    rng: Optional[int] = None
    reference: Any = None


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` instance seeds drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


def _dense_quality(problem: Any, result: Any) -> Dict[str, float]:
    stats = result.channel.stats
    return {
        "iterations": float(result.iterations),
        "cost_vs_bs_only": result.cost / result.history.initial_cost,
        "offload_frac": result.solution.offloaded_traffic(problem) / problem.total_demand(),
        "channel_bytes": float(stats.bytes_sent),
        "messages": float(stats.messages_sent),
        "stale_phases": float(result.stale_phases),
    }


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: Solves whose quality numbers are reported: the first ones of every
    #: run, so the figures depend on the seed only, never on speed.
    quality_solves = 1
    #: Set-ups per run, each warming up on another pool item; ``setup_s``
    #: is their median.  About 5-10 seconds of set-up work per run.
    setup_reps = 5
    #: The program's own counter of Algorithm 1 iterations, if it keeps one.
    iteration_counter: Optional[str] = None
    #: The module whose sweep loop drives the solve: it owns the self time.
    driver_layer = ""

    def build(self, seed: int) -> List[Item]:
        """The input pool for ``seed``."""
        raise NotImplementedError

    def prepare(self, items: List[Item]) -> None:
        """Reference solves, attached to the items they check."""

    def solve(self, item: Item) -> Any:
        """The timed call: one solve of ``item``."""
        raise NotImplementedError

    def check(self, item: Item, result: Any) -> List[str]:
        """Correctness problems of one solve (empty when it passes)."""
        raise NotImplementedError

    def quality(self, item: Item, result: Any) -> Dict[str, float]:
        """Per-solve quality numbers."""
        raise NotImplementedError


class PaperLPPM(Workload):
    """The Section V scenario (3 SBSs x 30 groups x 50 files) with LPPM.

    The instance is the paper's own, ``build_problem()``; the workload
    seed draws the noise seed of each solve.  Pool item ``k`` runs at the
    ``k``-th epsilon of the Fig. 3 ladder (cyclically).
    """

    name = "paper-lppm"
    noise_seeds = 24
    quality_solves = 8 * len(EPSILONS)
    # A set-up takes about 0.3 s here, so more of them fit.
    setup_reps = 3 * len(EPSILONS)
    iteration_counter = "algorithm1.iterations"
    driver_layer = "distributed"
    # Full-fidelity Fig. 3 configuration.
    config = DistributedConfig(accuracy=1e-4, max_iterations=20)

    def build(self, seed: int) -> List[Item]:
        problem = build_problem()
        return [
            Item(len(EPSILONS) * k + j, problem, epsilon, noise_seed)
            for k, noise_seed in enumerate(derived_seeds(seed, self.noise_seeds))
            for j, epsilon in enumerate(EPSILONS)
        ]

    def prepare(self, items: List[Item]) -> None:
        # Noiseless Algorithm 1 on the instance: the privacy-cost baseline.
        reference = solve_distributed(items[0].problem, self.config).cost
        for item in items:
            item.reference = reference

    def solve(self, item: Item) -> Any:
        privacy = LPPMConfig(epsilon=item.epsilon, delta=0.5, sensitivity=1.0)
        return solve_distributed(item.problem, self.config, privacy=privacy, rng=item.rng)

    def check(self, item: Item, result: Any) -> List[str]:
        return (
            gate.feasibility_problems(item.problem, result.solution)
            + gate.ledger_problems(result, item.epsilon)
            + gate.fault_free_problems(result)
        )

    def quality(self, item: Item, result: Any) -> Dict[str, float]:
        numbers = _dense_quality(item.problem, result)
        numbers["privacy_cost_ratio"] = result.cost / item.reference
        return numbers


class CitySparse(Workload):
    """City-scale sparse instances on the sparse Gauss-Seidel driver.

    20 SBSs x 200 groups x 2*10^4 files, three SBSs in reach of every
    group: each SBS's local block is about 30 groups by 2000 contents,
    the same block size as the 50 x 500 x 5*10^4 and
    200 x 2000 x 10^6 instances, at a cost per solve that lets a 30 s run
    hold about 19 distinct instances.
    """

    name = "city-sparse"
    shape = (20, 200, 20_000)
    instances = 24
    quality_solves = 16
    iteration_counter = "algorithm1.sparse_iterations"
    driver_layer = "sparse"
    config = DistributedConfig(subproblem=SubproblemConfig(polish=False))

    def build(self, seed: int) -> List[Item]:
        return [
            Item(key, generate_city_instance(*self.shape, rng=instance_seed))
            for key, instance_seed in enumerate(derived_seeds(seed, self.instances))
        ]

    def solve(self, item: Item) -> Any:
        return solve_distributed_sparse(item.problem, self.config)

    def check(self, item: Item, result: Any) -> List[str]:
        return gate.feasibility_problems(
            item.problem, result.solution
        ) + gate.sparse_cost_problems(item.problem, result)

    def quality(self, item: Item, result: Any) -> Dict[str, float]:
        instance = item.problem
        served = np.zeros(instance.demand_nnz)
        for sbs in range(instance.num_sbs):
            np.add.at(served, instance.sbs_index(sbs).pair_ids, result.solution.routing[sbs])
        offloaded = float(np.dot(np.minimum(served, 1.0), instance.demand_values))
        return {
            "iterations": float(result.iterations),
            "cost_vs_bs_only": result.cost / result.history.initial_cost,
            "offload_frac": offloaded / instance.total_demand(),
            "channel_bytes": 0.0,
            "messages": 0.0,
            "stale_phases": float(result.history.stale_phase_count()),
        }


class SocketWide(Workload):
    """Socket runtime, ``tasks`` mode, fault-free, on wide dense blocks.

    6 SBSs x 40 groups x 500 files, densified: every aggregate or
    upload frame carries a 40 x 500 float64 block (160 KB).  The
    subproblem runs with polish on, its third configuration.
    """

    name = "socket-wide"
    shape = (6, 40, 500)
    instances = 48
    quality_solves = 24
    driver_layer = "runtime"
    config = DistributedConfig()
    # Clients run as asyncio tasks in this process, never as OS processes.
    runtime = RuntimeConfig(mode="tasks")

    def build(self, seed: int) -> List[Item]:
        return [
            Item(key, generate_city_instance(*self.shape, rng=instance_seed).to_dense())
            for key, instance_seed in enumerate(derived_seeds(seed, self.instances))
        ]

    def prepare(self, items: List[Item]) -> None:
        # The in-process fault-tolerant protocol the socket run must equal.
        items[0].reference = solve_distributed(
            items[0].problem, self.config, faults=FaultConfig()
        )

    def solve(self, item: Item) -> Any:
        result, _ = solve_over_sockets(item.problem, self.config, runtime=self.runtime)
        return result

    def check(self, item: Item, result: Any) -> List[str]:
        problems = gate.feasibility_problems(item.problem, result.solution)
        problems += gate.fault_free_problems(result)
        if item.reference is not None:
            problems += gate.socket_match_problems(result, item.reference)
        return problems

    def quality(self, item: Item, result: Any) -> Dict[str, float]:
        return _dense_quality(item.problem, result)


WORKLOADS = {w.name: w for w in (PaperLPPM(), CitySparse(), SocketWide())}
