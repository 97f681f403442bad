"""Sparse problem core for city-scale instances.

The dense :class:`~repro.core.problem.ProblemInstance` materializes
``(U, F)`` demand, ``(N, U)`` connectivity and — inside the solvers —
``(N, U, F)`` savings/routing arrays.  At the paper's evaluation scale
(tens of SBSs, tens of groups, tens of contents) that is free; at city
scale (hundreds of SBSs, thousands of MU groups, ``10^5``–``10^6``
contents) the cube alone is terabytes.  Real deployments are sparse in
two independent ways:

* **reachability** — an MU group hears only the handful of SBSs within
  radio range, so the connectivity matrix has a few entries per *row*
  (CSR over ``u -> {n}``), and
* **demand support** — a group requests a few hundred contents out of
  the full catalogue, so the demand matrix has a few entries per row
  too (CSR over ``u -> {f: lambda}``).

:class:`SparseProblemInstance` stores exactly those two CSR structures
plus the per-link transmission costs.  ``item_view(n)`` is SBS ``n``'s
subproblem as a flat :class:`~repro.core.subproblem.ItemView` over the
demand pairs it can serve; every solver takes the sparse instance and
runs Algorithm 1 over those views in ``O(nnz)`` per phase
(:class:`~repro.core.layout.PairLayout`).  ``to_dense()`` materializes
a :class:`ProblemInstance` (guarded by a cell budget) for callers who
want the dense run.

Each view's file axis holds the SBS's demand support *plus* the ``C_n``
lowest-indexed contents outside it, so the subproblem oracle's top-set
filler picks exactly the files the dense solver would,
and the view's ``constant_offset`` puts the local objective on the
dense absolute scale.  Cache sets therefore match the dense run
set-for-set and routing bit-for-bit; objectives are sums over the
compact support, equal to the dense ones up to the last float bits.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_float_array, require
from ..exceptions import ValidationError
from .problem import ProblemInstance
from .solution import ConstraintViolation, FeasibilityReport, Solution

# Bound here by name, though unused, so a per-layer probe wrapping
# `repro.core.sparse.solve_subproblem` finds it.
from .subproblem import ItemView, solve_subproblem  # noqa: F401

if TYPE_CHECKING:
    from .distributed import DistributedConfig, DistributedResult

__all__ = [
    "SparseProblemInstance",
    "SparseSolution",
    "SBSIndex",
    "solve_distributed_sparse",
    "sparse_total_cost",
]

#: Largest ``N * U * F`` :meth:`SparseProblemInstance.to_dense` accepts
#: by default — the dense solvers materialize arrays of that size, so the
#: budget is a memory guard (2e7 cells ~ 160 MB of float64), not a
#: correctness one.
_DENSE_CELL_BUDGET = 20_000_000

#: Sentinel distinguishing "key absent" from a memoized ``None``.
_MISSING = object()


def _as_index_array(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D integer array")
    return array


def _check_indptr(indptr: np.ndarray, name: str, nnz: int, rows: int) -> None:
    if indptr.size != rows + 1:
        raise ValidationError(f"{name} must have {rows + 1} entries, got {indptr.size}")
    if indptr[0] != 0 or indptr[-1] != nnz:
        raise ValidationError(f"{name} must start at 0 and end at {nnz}")
    if np.any(np.diff(indptr) < 0):
        raise ValidationError(f"{name} must be nondecreasing")


def _rows_sorted_unique(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every CSR row's index list is strictly increasing."""
    if indices.size == 0:
        return True
    increasing = np.diff(indices) > 0
    # Positions where a new row starts are allowed to "reset".
    row_starts = indptr[1:-1]
    boundary = np.zeros(indices.size - 1, dtype=bool)
    valid = (row_starts > 0) & (row_starts < indices.size)
    boundary[row_starts[valid] - 1] = True
    return bool(np.all(increasing | boundary))


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` vectorized."""
    counts = counts.astype(np.int64)
    keep = counts > 0
    starts, counts = starts[keep], counts[keep]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    if starts.size > 1:
        out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


@dataclasses.dataclass(frozen=True)
class SBSIndex:
    """Precomputed index structure of one SBS's local view.

    Everything here is integer bookkeeping (no ``(U, F)``-sized floats):
    the global ids of the SBS's connected groups and candidate contents,
    the demand-pair ids it can serve, and where those pairs land in the
    raveled local block.  ``files`` is the union of the groups' demand
    supports plus the ``C_n`` lowest-indexed contents outside it — the
    padding that makes the local cache filler reproduce the dense one.
    """

    sbs: int
    groups: np.ndarray  # (U_n,) global MU-group ids, ascending
    files: np.ndarray  # (F_n,) global content ids, ascending
    pair_ids: np.ndarray  # (P_n,) global demand-pair ids, ascending
    local_flat: np.ndarray  # (P_n,) positions in the raveled (U_n, F_n) block
    pair_weight: np.ndarray  # (P_n,) demand lambda of each pair
    pair_link_weight: np.ndarray  # (P_n,) d[n,u] * lambda — f1 per unit of y
    capacity: int  # floor(C_n)
    bs_offset: float  # BS cost of the demand outside this SBS's reach


class SparseProblemInstance:
    """CSR-backed problem instance for city-scale topologies.

    Parameters
    ----------
    num_files:
        Catalogue size ``F``.
    demand_indptr / demand_files / demand_values:
        CSR demand over groups: group ``u``'s requests are the pairs
        ``(demand_files[k], demand_values[k])`` for ``k`` in
        ``demand_indptr[u]..demand_indptr[u+1]``; file ids strictly
        increasing within a row, values nonnegative.
    reach_indptr / reach_sbs / link_cost:
        CSR reachability over groups: SBS ids within radio range of each
        group (strictly increasing within a row) and the transmission
        cost ``d[n, u]`` of each link, aligned entry-for-entry.
    cache_capacity / bandwidth:
        ``(N,)`` per-SBS capacities ``C_n`` / ``B_n``.
    bs_cost:
        ``(U,)`` base-station costs ``d_hat[u]``; must dominate every
        link cost of the group (same requirement as the dense model).
    """

    def __init__(
        self,
        *,
        num_files: int,
        demand_indptr,
        demand_files,
        demand_values,
        reach_indptr,
        reach_sbs,
        link_cost,
        cache_capacity,
        bandwidth,
        bs_cost,
    ) -> None:
        require(int(num_files) > 0, "num_files must be positive")
        self._num_files = int(num_files)
        demand_indptr = _as_index_array(demand_indptr, "demand_indptr")
        self.demand_files = _as_index_array(demand_files, "demand_files")
        self.demand_values = as_float_array(
            np.asarray(demand_values, dtype=np.float64),
            "demand_values",
            ndim=1,
            nonnegative=True,
        )
        num_groups = demand_indptr.size - 1
        require(num_groups > 0, "at least one MU group is required")
        _check_indptr(demand_indptr, "demand_indptr", self.demand_files.size, num_groups)
        if self.demand_values.size != self.demand_files.size:
            raise ValidationError("demand_values must align with demand_files")
        if self.demand_files.size and (
            self.demand_files.min() < 0 or self.demand_files.max() >= self._num_files
        ):
            raise ValidationError("demand_files contains an out-of-range content id")
        if not _rows_sorted_unique(demand_indptr, self.demand_files):
            raise ValidationError(
                "demand_files must be strictly increasing within each group row"
            )
        self.demand_indptr = demand_indptr

        reach_indptr = _as_index_array(reach_indptr, "reach_indptr")
        self.reach_sbs = _as_index_array(reach_sbs, "reach_sbs")
        self.link_cost = as_float_array(
            np.asarray(link_cost, dtype=np.float64), "link_cost", ndim=1, nonnegative=True
        )
        _check_indptr(reach_indptr, "reach_indptr", self.reach_sbs.size, num_groups)
        if self.link_cost.size != self.reach_sbs.size:
            raise ValidationError("link_cost must align with reach_sbs")
        if not _rows_sorted_unique(reach_indptr, self.reach_sbs):
            raise ValidationError(
                "reach_sbs must be strictly increasing within each group row"
            )
        self.reach_indptr = reach_indptr

        self.cache_capacity = as_float_array(
            np.asarray(cache_capacity, dtype=np.float64),
            "cache_capacity",
            ndim=1,
            nonnegative=True,
        )
        num_sbs = self.cache_capacity.size
        require(num_sbs > 0, "at least one SBS is required")
        self.bandwidth = as_float_array(
            np.asarray(bandwidth, dtype=np.float64),
            "bandwidth",
            shape=(num_sbs,),
            nonnegative=True,
        )
        self.bs_cost = as_float_array(
            np.asarray(bs_cost, dtype=np.float64),
            "bs_cost",
            shape=(num_groups,),
            nonnegative=True,
        )
        if self.reach_sbs.size and (
            self.reach_sbs.min() < 0 or self.reach_sbs.max() >= num_sbs
        ):
            raise ValidationError("reach_sbs contains an out-of-range SBS id")
        self._derived: Dict[str, object] = {}
        if np.any(self.link_cost > self.bs_cost[self.link_group()]):
            raise ValidationError(
                "bs_cost must dominate link_cost on every reachable (n, u) pair; "
                "otherwise offloading to the edge could increase cost"
            )
        for array in (
            self.demand_indptr,
            self.demand_files,
            self.demand_values,
            self.reach_indptr,
            self.reach_sbs,
            self.link_cost,
            self.cache_capacity,
            self.bandwidth,
            self.bs_cost,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_sbs(self) -> int:
        """Number of small base stations ``N``."""
        return self.cache_capacity.size

    @property
    def num_groups(self) -> int:
        """Number of MU groups ``U``."""
        return self.demand_indptr.size - 1

    @property
    def num_files(self) -> int:
        """Catalogue size ``F``."""
        return self._num_files

    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(N, U, F)`` logical problem dimensions."""
        return (self.num_sbs, self.num_groups, self.num_files)

    @property
    def demand_nnz(self) -> int:
        """Number of stored ``(u, f)`` demand pairs."""
        return self.demand_files.size

    @property
    def num_links(self) -> int:
        """Number of stored ``(n, u)`` reachability links."""
        return self.reach_sbs.size

    def _cached(self, key: str, factory):
        value = self._derived.get(key, _MISSING)
        if value is _MISSING:
            value = factory()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._derived[key] = value
        return value

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def row_of_pair(self) -> np.ndarray:
        """``(nnz,)`` MU-group id of every stored demand pair (cached)."""
        return self._cached(
            "row_of_pair",
            lambda: np.repeat(
                np.arange(self.num_groups), np.diff(self.demand_indptr)
            ),
        )

    def link_group(self) -> np.ndarray:
        """``(links,)`` MU-group id of every stored link (cached)."""
        return self._cached(
            "link_group", lambda: np.repeat(np.arange(self.num_groups), np.diff(self.reach_indptr))
        )

    def group_demand(self) -> np.ndarray:
        """``(U,)`` total demand of each MU group (cached)."""
        return self._cached(
            "group_demand",
            lambda: np.bincount(
                self.row_of_pair(), weights=self.demand_values, minlength=self.num_groups
            ),
        )

    def total_demand(self) -> float:
        """Total request volume ``sum(lambda)``."""
        return self._cached("total_demand", lambda: float(self.demand_values.sum()))

    def max_cost(self) -> float:
        """Worst-case serving cost ``W`` (the BS serves every request)."""
        return self._cached(
            "max_cost", lambda: float(np.sum(self.bs_cost * self.group_demand()))
        )

    def pair_bs_weight(self) -> np.ndarray:
        """``(nnz,)`` per-pair BS serving weight ``d_hat[u] * lambda`` (cached)."""
        return self._cached(
            "pair_bs_weight",
            lambda: self.bs_cost[self.row_of_pair()] * self.demand_values,
        )

    def _reach_csc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reachability transposed to per-SBS lists (cached).

        Returns ``(indptr, groups, cost)`` where SBS ``n``'s connected
        groups are ``groups[indptr[n]:indptr[n+1]]`` in ascending order
        and ``cost`` carries the aligned ``d[n, u]``.
        """

        def build() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            order = np.argsort(self.reach_sbs, kind="stable")
            counts = np.bincount(self.reach_sbs, minlength=self.num_sbs)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            return indptr, self.link_group()[order], self.link_cost[order]

        return self._cached("reach_csc", build)

    def groups_of_sbs(self, sbs: int) -> np.ndarray:
        """Ascending global ids of the MU groups reachable from ``sbs``."""
        self._check_sbs(sbs)
        indptr, groups, _ = self._reach_csc()
        return groups[indptr[sbs] : indptr[sbs + 1]]

    def sbs_of_group(self, group: int) -> np.ndarray:
        """Ascending global ids of the SBSs reaching MU group ``group``."""
        if not 0 <= group < self.num_groups:
            raise ValidationError(
                f"group index {group} out of range [0, {self.num_groups})"
            )
        return self.reach_sbs[self.reach_indptr[group] : self.reach_indptr[group + 1]]

    def group_support(self, group: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(files, values)`` of one group's demand row."""
        if not 0 <= group < self.num_groups:
            raise ValidationError(
                f"group index {group} out of range [0, {self.num_groups})"
            )
        lo, hi = self.demand_indptr[group], self.demand_indptr[group + 1]
        return self.demand_files[lo:hi], self.demand_values[lo:hi]

    def sbs_indices(self) -> Iterator[int]:
        """Iterate over SBS indices ``0..N-1`` (the Gauss-Seidel order)."""
        return iter(range(self.num_sbs))

    def _check_sbs(self, sbs: int) -> None:
        if not 0 <= sbs < self.num_sbs:
            raise ValidationError(f"SBS index {sbs} out of range [0, {self.num_sbs})")

    def sbs_index(self, sbs: int) -> SBSIndex:
        """The (cached) integer index structure of one SBS's local view."""
        self._check_sbs(sbs)
        indexes = self._cached("sbs_indexes", lambda: {})
        found = indexes.get(sbs)
        if found is not None:
            return found
        indptr, csc_groups, csc_cost = self._reach_csc()
        groups = csc_groups[indptr[sbs] : indptr[sbs + 1]]
        link_costs = csc_cost[indptr[sbs] : indptr[sbs + 1]]
        pair_counts = (
            self.demand_indptr[groups + 1] - self.demand_indptr[groups]
            if groups.size
            else np.empty(0, dtype=np.int64)
        )
        pair_ids = _expand_ranges(self.demand_indptr[groups], pair_counts)
        support = np.unique(self.demand_files[pair_ids])
        capacity = int(np.floor(self.cache_capacity[sbs] + 1e-9))
        # Cache filler padding: the dense `_select_cache_set` fills spare
        # slots with the lowest-indexed zero-value contents of the whole
        # catalogue; the C_n lowest ids outside the support are enough to
        # reproduce that choice inside the local view.
        candidates = np.arange(min(self.num_files, capacity + support.size))
        padding = np.setdiff1d(candidates, support, assume_unique=True)[:capacity]
        files = np.union1d(support, padding)
        local_file = np.searchsorted(files, self.demand_files[pair_ids])
        local_row = np.repeat(np.arange(groups.size), pair_counts)
        local_flat = local_row * files.size + local_file
        pair_weight = self.demand_values[pair_ids]
        pair_link_weight = (
            np.repeat(link_costs, pair_counts) * pair_weight
            if groups.size
            else np.empty(0)
        )
        reached_bs_cost = float(np.sum(self.bs_cost[groups] * self.group_demand()[groups]))
        index = SBSIndex(
            sbs=sbs,
            groups=groups,
            files=files,
            pair_ids=pair_ids,
            local_flat=local_flat,
            pair_weight=pair_weight,
            pair_link_weight=pair_link_weight,
            capacity=capacity,
            bs_offset=self.max_cost() - reached_bs_cost,
        )
        for array in (groups, files, pair_ids, local_flat, pair_weight, pair_link_weight):
            array.setflags(write=False)
        indexes[sbs] = index
        return index

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, problem: ProblemInstance) -> "SparseProblemInstance":
        """Extract the sparse structure of a dense instance.

        Zero demand entries and absent links are dropped; round-tripping
        through :meth:`to_dense` reproduces the dense instance except
        for ``sbs_cost`` entries on non-links, which the dense model
        never reads (every use is masked by connectivity).
        """
        rows, cols = np.nonzero(problem.demand)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        demand_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=problem.num_groups)))
        )
        links_n, links_u = np.nonzero(problem.connectivity)
        link_order = np.lexsort((links_n, links_u))  # group-major
        links_n, links_u = links_n[link_order], links_u[link_order]
        reach_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(links_u, minlength=problem.num_groups)))
        )
        return cls(
            num_files=problem.num_files,
            demand_indptr=demand_indptr,
            demand_files=cols,
            demand_values=problem.demand[rows, cols],
            reach_indptr=reach_indptr,
            reach_sbs=links_n,
            link_cost=problem.sbs_cost[links_n, links_u],
            cache_capacity=problem.cache_capacity.copy(),
            bandwidth=problem.bandwidth.copy(),
            bs_cost=problem.bs_cost.copy(),
        )

    def to_dense(self, *, max_cells: Optional[int] = _DENSE_CELL_BUDGET) -> ProblemInstance:
        """Materialize the dense :class:`ProblemInstance`.

        ``max_cells`` bounds ``N * U * F`` — the size of the arrays the
        dense solvers allocate — and raises when exceeded.  ``None``
        disables the guard.
        """
        cells = self.num_sbs * self.num_groups * self.num_files
        if max_cells is not None and cells > max_cells:
            raise ValidationError(
                f"densifying this instance would materialize {cells} cells "
                f"(> {max_cells}); solve the sparse instance itself (every solver "
                "takes it), or pass max_cells=None to force the conversion"
            )
        demand = np.zeros((self.num_groups, self.num_files))
        demand[self.row_of_pair(), self.demand_files] = self.demand_values
        link_group = self.link_group()
        connectivity = np.zeros((self.num_sbs, self.num_groups))
        connectivity[self.reach_sbs, link_group] = 1.0
        sbs_cost = np.zeros((self.num_sbs, self.num_groups))
        sbs_cost[self.reach_sbs, link_group] = self.link_cost
        return ProblemInstance(
            demand=demand,
            connectivity=connectivity,
            cache_capacity=self.cache_capacity.copy(),
            bandwidth=self.bandwidth.copy(),
            sbs_cost=sbs_cost,
            bs_cost=self.bs_cost.copy(),
        )

    def sub_instance(self, sbs: int) -> Tuple[ProblemInstance, SBSIndex]:
        """SBS ``n``'s local view densified: the ``N=1`` block of
        :meth:`item_view` over its connected groups and candidate contents.
        Raises when the SBS reaches no group — there is no subproblem.
        """
        index = self.sbs_index(sbs)
        if index.groups.size == 0 or index.files.size == 0:
            raise ValidationError(
                f"SBS {sbs} has no reachable groups or candidate contents; "
                "its local subproblem is empty"
            )
        return self.item_view(sbs).to_problem(), index

    def item_view(self, sbs: int) -> ItemView:
        """SBS ``n``'s local view as an :class:`~repro.core.subproblem.ItemView`.

        One item per reachable demand pair, aligned with
        ``sbs_index(n).pair_ids``; rows and files index the
        :meth:`sub_instance` block without materializing it.
        """
        index = self.sbs_index(sbs)
        num_files = max(index.files.size, 1)
        indptr, _, csc_cost = self._reach_csc()
        return ItemView(
            item_row=index.local_flat // num_files,
            item_file=index.local_flat % num_files,
            weight=index.pair_weight,
            link_cost=csc_cost[indptr[sbs] : indptr[sbs + 1]],
            reach=np.ones(index.groups.size),
            bs_cost=self.bs_cost[index.groups],
            num_files=index.files.size,
            cache_capacity=float(self.cache_capacity[sbs]),
            bandwidth=float(self.bandwidth[sbs]),
            constant_offset=index.bs_offset,
            shape=index.pair_ids.shape,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def nbytes(self) -> Dict[str, int]:
        """Memory footprint of the stored arrays, by component."""
        return {
            "demand": int(
                self.demand_indptr.nbytes
                + self.demand_files.nbytes
                + self.demand_values.nbytes
            ),
            "reach": int(
                self.reach_indptr.nbytes + self.reach_sbs.nbytes + self.link_cost.nbytes
            ),
            "per_sbs": int(self.cache_capacity.nbytes + self.bandwidth.nbytes),
            "per_group": int(self.bs_cost.nbytes),
        }

    def describe(self) -> Dict[str, float]:
        """Summary dictionary (logging, reports, benchmarks)."""
        dense_cells = self.num_sbs * self.num_groups * self.num_files
        return {
            "num_sbs": self.num_sbs,
            "num_groups": self.num_groups,
            "num_files": self.num_files,
            "num_links": self.num_links,
            "demand_nnz": self.demand_nnz,
            "demand_density": self.demand_nnz / max(self.num_groups * self.num_files, 1),
            "reach_density": self.num_links / max(self.num_sbs * self.num_groups, 1),
            "dense_cells": dense_cells,
            "nbytes": float(sum(self.nbytes().values())),
            "total_demand": self.total_demand(),
            "max_cost": self.max_cost(),
        }


# ----------------------------------------------------------------------
# Sparse solutions and costs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SparseSolution:
    """Compact (caching, routing) policy pair for a sparse instance.

    ``caching[n]`` holds the *global content ids* SBS ``n`` caches —
    each cache decision vector stores only its candidate contents.
    ``routing[n]`` is aligned entry-for-entry with
    ``instance.sbs_index(n).pair_ids``: the fraction of each reachable
    demand pair served by SBS ``n``.
    """

    num_sbs: int
    num_groups: int
    num_files: int
    caching: Tuple[np.ndarray, ...]
    routing: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.caching) != self.num_sbs or len(self.routing) != self.num_sbs:
            raise ValidationError(
                "caching and routing must hold one array per SBS"
            )

    def cost(self, instance: SparseProblemInstance) -> float:
        """Total serving cost on ``instance`` (see :func:`sparse_total_cost`)."""
        return sparse_total_cost(instance, self)

    def cache_occupancy(self) -> np.ndarray:
        """``(N,)`` number of contents cached at each SBS."""
        return np.array([ids.size for ids in self.caching], dtype=np.int64)

    def routing_nnz(self) -> int:
        """Number of strictly positive routing entries across all SBSs."""
        return int(sum(int(np.count_nonzero(values > 0)) for values in self.routing))

    def nbytes(self) -> int:
        """Memory footprint of the stored index and value arrays."""
        return int(
            sum(ids.nbytes for ids in self.caching)
            + sum(values.nbytes for values in self.routing)
        )

    def to_dense(self, instance: SparseProblemInstance) -> Solution:
        """Materialize the dense :class:`~repro.core.solution.Solution`."""
        shape = (self.num_sbs, self.num_groups, self.num_files)
        if instance.shape != shape:
            raise ValidationError(
                f"instance shape {instance.shape} does not match the solution {shape}"
            )
        caching = np.zeros((self.num_sbs, self.num_files))
        routing = np.zeros(shape)
        row = instance.row_of_pair()
        for sbs in range(self.num_sbs):
            caching[sbs, self.caching[sbs]] = 1.0
            index = instance.sbs_index(sbs)
            if index.pair_ids.size:
                routing[sbs, row[index.pair_ids], instance.demand_files[index.pair_ids]] = (
                    self.routing[sbs]
                )
        return Solution(caching=caching, routing=routing)

    def check_feasibility(
        self,
        instance: SparseProblemInstance,
        *,
        tol: float = 1e-6,
        max_records: int = 16,
    ) -> FeasibilityReport:
        """Check every model constraint directly on the compact arrays.

        Mirrors :meth:`repro.core.solution.Solution.check_feasibility`
        without materializing ``(N, U, F)``: capacity (1), cache
        coupling (2), bandwidth (3), unit demand (4) over the aggregate
        pair vector, and the box constraint (9).
        """
        violations: List[ConstraintViolation] = []
        served = np.zeros(instance.demand_nnz)
        slots = np.floor(instance.cache_capacity + 1e-9)
        for sbs in range(self.num_sbs):
            index = instance.sbs_index(sbs)
            values = self.routing[sbs]
            if values.shape != index.pair_ids.shape:
                raise ValidationError(
                    f"routing[{sbs}] must align with the SBS's pair list"
                )
            if self.caching[sbs].size > slots[sbs] + tol:
                violations.append(
                    ConstraintViolation(
                        "cache_capacity", (sbs,), float(self.caching[sbs].size - slots[sbs])
                    )
                )
            np.add.at(served, index.pair_ids, values)
            load = float(np.dot(values, index.pair_weight))
            if load > instance.bandwidth[sbs] + tol:
                violations.append(
                    ConstraintViolation(
                        "bandwidth", (sbs,), float(load - instance.bandwidth[sbs])
                    )
                )
            # Membership on global ids: a checker must tolerate solutions
            # caching contents outside the SBS's candidate set.
            pair_cached = np.isin(
                instance.demand_files[index.pair_ids], self.caching[sbs]
            )
            uncached = values[~pair_cached]
            if uncached.size and float(uncached.max()) > tol:
                worst = int(np.argmax(~pair_cached * values))
                violations.append(
                    ConstraintViolation(
                        "cache_coupling",
                        (sbs, int(index.pair_ids[worst])),
                        float(values[worst]),
                    )
                )
            bad_box = np.flatnonzero((values < -tol) | (values > 1.0 + tol))
            for position in bad_box[:max_records]:
                violations.append(
                    ConstraintViolation(
                        "box",
                        (sbs, int(index.pair_ids[position])),
                        float(max(-values[position], values[position] - 1.0)),
                    )
                )
        over = np.flatnonzero(served > 1.0 + tol)
        for pair in over[:max_records]:
            violations.append(
                ConstraintViolation("unit_demand", (int(pair),), float(served[pair] - 1.0))
            )
        return FeasibilityReport(violations=tuple(violations), tol=tol)


def sparse_total_cost(
    instance: SparseProblemInstance,
    solution: SparseSolution,
    *,
    clip_residual: bool = True,
) -> float:
    """Total serving cost ``f(y) = f1(y) + f2(y)`` over the compact arrays.

    ``f1`` sums ``d[n,u] * y * lambda`` over each SBS's pair list;
    ``f2`` sums ``d_hat[u] * residual * lambda`` over the demand
    nonzeros (contents nobody demands contribute exactly zero, as in
    the dense model).  ``clip_residual`` floors over-served pairs at
    zero residual, matching :func:`repro.core.cost.total_cost`.
    """
    if (instance.num_sbs, instance.num_groups, instance.num_files) != (
        solution.num_sbs,
        solution.num_groups,
        solution.num_files,
    ):
        raise ValidationError("solution dimensions do not match the instance")
    served = np.zeros(instance.demand_nnz)
    edge = 0.0
    for sbs in range(instance.num_sbs):
        index = instance.sbs_index(sbs)
        values = solution.routing[sbs]
        if values.shape != index.pair_ids.shape:
            raise ValidationError(f"routing[{sbs}] must align with the SBS's pair list")
        np.add.at(served, index.pair_ids, values)
        edge += float(np.dot(index.pair_link_weight, values))
    residual = 1.0 - served
    if clip_residual:
        residual = np.maximum(residual, 0.0)
    return edge + float(np.dot(instance.pair_bs_weight(), residual))


def solve_distributed_sparse(
    instance: SparseProblemInstance,
    config: Optional[DistributedConfig] = None,
    *,
    sweep_order: Optional[Sequence[int]] = None,
) -> DistributedResult:
    """Run Algorithm 1 on a sparse instance's pair vectors.

    The one optimizer (:class:`~repro.core.distributed.DistributedOptimizer`)
    runs it: each SBS solves ``P_n`` on its :meth:`~SparseProblemInstance.item_view`
    and the base station keeps its aggregate over the demand's nonzeros
    (:class:`~repro.core.layout.PairLayout`).  ``sweep_order`` fixes the
    Gauss-Seidel order; without it the run is
    :func:`~repro.core.distributed.solve_distributed`'s, restarts included.
    """
    # Local import: `core.distributed` builds on this module.
    from .distributed import DistributedOptimizer, solve_distributed

    if not isinstance(instance, SparseProblemInstance):
        raise ValidationError(
            f"solve_distributed_sparse needs a SparseProblemInstance, got {type(instance).__name__}"
        )
    if sweep_order is None:
        return solve_distributed(instance, config)
    return DistributedOptimizer(instance, config, sweep_order=sweep_order).run()
