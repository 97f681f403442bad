"""Core model and algorithms: the paper's primary contribution."""

from .asynchronous import AsyncConfig, AsyncResult, solve_asynchronous
from .centralized import (
    CentralizedResult,
    solve_centralized,
    solve_exact,
    solve_lp_relaxation,
)
from .convergence import CostHistory, PhaseRecord
from .convex import CongestionCostModel, solve_convex_routing
from .cost import (
    LinearCostModel,
    bs_serving_cost,
    residual_fraction,
    sbs_serving_cost,
    served_fraction,
    total_cost,
)
from .distributed import (
    BaseStationAgent,
    Checkpoint,
    CheckpointStore,
    DistributedConfig,
    DistributedOptimizer,
    DistributedResult,
    SBSAgent,
    solve_distributed,
)
from .multibs import MultiBSResult, Region, solve_multibs, split_by_region
from .online import OnlineConfig, OnlineResult, SlotRecord, simulate_online
from .problem import ProblemInstance
from .routing import optimal_routing_for_cache, optimal_routing_for_sbs, residual_caps
from .solution import ConstraintViolation, FeasibilityReport, Solution
from .sparse import (
    SBSIndex,
    SparseProblemInstance,
    SparseSolution,
    solve_distributed_sparse,
    sparse_total_cost,
)
from .subproblem import (
    SubproblemConfig,
    SubproblemSolution,
    solve_subproblem,
    solve_subproblem_exhaustive,
)

__all__ = [
    "AsyncConfig",
    "AsyncResult",
    "solve_asynchronous",
    "CentralizedResult",
    "solve_centralized",
    "solve_exact",
    "solve_lp_relaxation",
    "CostHistory",
    "PhaseRecord",
    "CongestionCostModel",
    "solve_convex_routing",
    "LinearCostModel",
    "bs_serving_cost",
    "residual_fraction",
    "sbs_serving_cost",
    "served_fraction",
    "total_cost",
    "BaseStationAgent",
    "Checkpoint",
    "CheckpointStore",
    "DistributedConfig",
    "DistributedOptimizer",
    "DistributedResult",
    "SBSAgent",
    "solve_distributed",
    "MultiBSResult",
    "Region",
    "solve_multibs",
    "split_by_region",
    "OnlineConfig",
    "OnlineResult",
    "SlotRecord",
    "simulate_online",
    "ProblemInstance",
    "optimal_routing_for_cache",
    "optimal_routing_for_sbs",
    "residual_caps",
    "ConstraintViolation",
    "FeasibilityReport",
    "Solution",
    "SBSIndex",
    "SparseProblemInstance",
    "SparseSolution",
    "solve_distributed_sparse",
    "sparse_total_cost",
    "SubproblemConfig",
    "SubproblemSolution",
    "solve_subproblem",
    "solve_subproblem_exhaustive",
]
