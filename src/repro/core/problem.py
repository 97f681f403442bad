"""Problem model from Section II of the paper.

A :class:`ProblemInstance` bundles every quantity of Table I:

* the demand matrix ``Lambda`` (``lambda[u, f]``, mean request arrival
  rate of MU group ``u`` for content ``f``),
* the binary connectivity matrix ``L`` (``l[n, u]``),
* cache capacities ``C_n`` and bandwidth capacities ``B_n`` per SBS,
* weighted transmission parameters ``d[n, u]`` (SBS to MU) and
  ``d_hat[u]`` (BS to MU).

All contents have unit size as in the paper ("the content can be divided
into blocks with the same size").  The instance is immutable; derived
arrays (savings weights, per-SBS reach) are computed once and cached.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Iterator, Tuple

import numpy as np

from .._validation import (
    as_binary_array,
    as_float_array,
    require,
)
from ..analysis.taint import decl as taint
from ..exceptions import ValidationError

__all__ = ["ProblemInstance"]


taint.source_attribute("demand", "raw per-group demand matrix Lambda (Table I)")

#: Sentinel distinguishing "key absent" from a memoized ``None``.
_MISSING = object()


@dataclasses.dataclass(frozen=True)
class ProblemInstance:
    """Immutable joint caching-and-routing problem instance.

    Parameters
    ----------
    demand:
        ``(U, F)`` array of mean request rates ``lambda[u, f] >= 0``.
        Entries may exceed one: a group of users can request the same
        content many times.
    connectivity:
        ``(N, U)`` binary array; ``connectivity[n, u] == 1`` iff SBS ``n``
        can serve MU group ``u``.
    cache_capacity:
        ``(N,)`` array of cache sizes ``C_n`` (contents have unit size).
    bandwidth:
        ``(N,)`` array of bandwidth capacities ``B_n``.
    sbs_cost:
        ``(N, U)`` array of weighted transmission parameters ``d[n, u]``.
    bs_cost:
        ``(U,)`` array of weighted transmission parameters ``d_hat[u]``
        from the base station.  The paper assumes ``d_hat[u]`` is much
        larger than any ``d[n, u]``; we only require it to be at least as
        large wherever the SBS is connected, so every unit offloaded to an
        SBS weakly reduces cost.
    """

    demand: np.ndarray
    connectivity: np.ndarray
    cache_capacity: np.ndarray
    bandwidth: np.ndarray
    sbs_cost: np.ndarray
    bs_cost: np.ndarray

    def __post_init__(self) -> None:
        demand = as_float_array(self.demand, "demand", ndim=2, nonnegative=True)
        num_groups, num_files = demand.shape
        require(num_groups > 0 and num_files > 0, "demand must be a nonempty (U, F) matrix")
        connectivity = as_binary_array(self.connectivity, "connectivity")
        if connectivity.ndim != 2 or connectivity.shape[1] != num_groups:
            raise ValidationError(
                "connectivity must have shape (N, U) with U matching demand; "
                f"got {connectivity.shape} for U={num_groups}"
            )
        num_sbs = connectivity.shape[0]
        require(num_sbs > 0, "at least one SBS is required")
        cache_capacity = as_float_array(
            self.cache_capacity, "cache_capacity", shape=(num_sbs,), nonnegative=True
        )
        bandwidth = as_float_array(self.bandwidth, "bandwidth", shape=(num_sbs,), nonnegative=True)
        sbs_cost = as_float_array(
            self.sbs_cost, "sbs_cost", shape=(num_sbs, num_groups), nonnegative=True
        )
        bs_cost = as_float_array(self.bs_cost, "bs_cost", shape=(num_groups,), nonnegative=True)
        connected = connectivity > 0
        if np.any(sbs_cost[connected] > bs_cost[np.newaxis, :].repeat(num_sbs, axis=0)[connected]):
            raise ValidationError(
                "bs_cost must dominate sbs_cost on every connected (n, u) pair; "
                "otherwise offloading to the edge could increase cost"
            )
        for array in (demand, connectivity, cache_capacity, bandwidth, sbs_cost, bs_cost):
            array.setflags(write=False)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "connectivity", connectivity)
        object.__setattr__(self, "cache_capacity", cache_capacity)
        object.__setattr__(self, "bandwidth", bandwidth)
        object.__setattr__(self, "sbs_cost", sbs_cost)
        object.__setattr__(self, "bs_cost", bs_cost)
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "_derived_lock", threading.RLock())

    # ------------------------------------------------------------------
    # Derived-quantity cache
    # ------------------------------------------------------------------
    def _cached(self, key: str, factory):
        """Memoize ``factory()`` under ``key`` for this (immutable) instance.

        Derived arrays are marked read-only: they are shared across every
        caller, including the solver hot paths that rely on them never
        changing.  ``dataclasses.replace`` builds a new instance and
        therefore a fresh, empty cache.

        One instance may be shared by threads (for example, callers
        solving independent per-SBS subproblems on a thread pool), so
        first touch of any derived array can race: the lock makes the
        check-compute-store sequence atomic and guarantees every caller
        shares the one stored (read-only) value.  The fast path stays lock-free — a hit reads an
        already-published immutable entry.
        """
        cache = self._derived
        value = cache.get(key, _MISSING)
        if value is not _MISSING:
            return value
        with self._derived_lock:
            value = cache.get(key, _MISSING)
            if value is _MISSING:
                value = factory()
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
                cache[key] = value
        return value

    def __getstate__(self):
        """Pickle the field arrays only; the derived cache is rebuilt lazily."""
        return {
            k: v for k, v in self.__dict__.items() if k not in ("_derived", "_derived_lock")
        }

    def __setstate__(self, state):
        """Restore fields (re-frozen) and start with an empty derived cache."""
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "_derived_lock", threading.RLock())

    # ------------------------------------------------------------------
    # Dimensions
    # ------------------------------------------------------------------
    @property
    def num_sbs(self) -> int:
        """Number of small base stations ``N``."""
        return self.connectivity.shape[0]

    @property
    def num_groups(self) -> int:
        """Number of MU groups ``U``."""
        return self.demand.shape[0]

    @property
    def num_files(self) -> int:
        """Number of contents ``F``."""
        return self.demand.shape[1]

    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(N, U, F)`` tuple of problem dimensions."""
        return (self.num_sbs, self.num_groups, self.num_files)

    def sbs_indices(self) -> Iterator[int]:
        """Iterate over SBS indices ``0..N-1`` (the Gauss-Seidel order)."""
        return iter(range(self.num_sbs))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def savings_rate(self) -> np.ndarray:
        """Per-unit-of-``y`` cost saving, an ``(N, U, F)`` array (cached).

        Serving the fraction ``y[n, u, f]`` of demand ``lambda[u, f]``
        from SBS ``n`` instead of the BS saves
        ``(d_hat[u] - d[n, u]) * l[n, u] * lambda[u, f]`` cost units.
        The joint problem is equivalent to maximising
        ``sum(savings_rate * y)``.
        """
        return self._cached(
            "savings_rate",
            lambda: self.savings_margin()[:, :, np.newaxis] * self.demand[np.newaxis, :, :],
        )

    def savings_margin(self) -> np.ndarray:
        """``(N, U)`` per-unit saving ``(d_hat[u]-d[n,u]) * l[n,u]`` (cached).

        Because contents have unit size, the value of one unit of SBS
        bandwidth spent on MU group ``u`` depends only on ``u`` and ``n``;
        this is what makes the routing subproblem a fractional knapsack.
        """
        return self._cached(
            "savings_margin",
            lambda: (self.bs_cost[np.newaxis, :] - self.sbs_cost) * self.connectivity,
        )

    def max_cost(self) -> float:
        """Worst-case serving cost ``W`` (the BS serves every request).

        This is the constant ``W = sum_u d_hat[u] * sum_f lambda[u, f]``
        used in Theorem 5 of the paper.
        """
        return self._cached(
            "max_cost", lambda: float(np.sum(self.bs_cost * self.demand.sum(axis=1)))
        )

    def total_demand(self) -> float:
        """Total request volume ``sum(lambda)``."""
        return self._cached("total_demand", lambda: float(self.demand.sum()))

    def group_demand(self) -> np.ndarray:
        """``(U,)`` total demand of each MU group (cached)."""
        return self._cached("group_demand", lambda: self.demand.sum(axis=1))

    def file_popularity(self) -> np.ndarray:
        """``(F,)`` total demand of each content across all groups (cached)."""
        return self._cached("file_popularity", lambda: self.demand.sum(axis=0))

    def demand_flat(self) -> np.ndarray:
        """The demand matrix raveled to ``(U * F,)`` C-order (cached).

        The knapsack-based routing subproblems consume flat views; sharing
        one read-only copy avoids a ravel per dual iteration.
        """
        return self._cached("demand_flat", lambda: self.demand.ravel().copy())

    def cache_slots(self) -> np.ndarray:
        """``(N,)`` integer cache capacities ``floor(C_n)`` (cached).

        The caching subproblem picks whole files, so every solver uses the
        floored capacity; the ``1e-9`` guard absorbs float drift in
        capacities that are conceptually integral.
        """
        return self._cached(
            "cache_slots",
            lambda: np.floor(self.cache_capacity + 1e-9).astype(np.int64),
        )

    def profitable_file_mask(self) -> np.ndarray:
        """``(F,)`` boolean mask of contents with any demand at all (cached)."""
        return self._cached("profitable_file_mask", lambda: self.file_popularity() > 0)

    def potential_routing_mask(self) -> np.ndarray:
        """``(N, U, F)`` mask of triples where routing can reduce cost (cached).

        True where the SBS is connected, demand is positive and the
        savings margin is positive — the caching-independent part of the
        profitable-triple test used by the network-wide routing LP/flow
        solvers.
        """

        def build() -> np.ndarray:
            margin = self.savings_margin()
            return (
                (self.connectivity[:, :, np.newaxis] > 0)
                & (self.demand[np.newaxis, :, :] > 0)
                & (margin[:, :, np.newaxis] > 0)
            )

        return self._cached("potential_routing_mask", build)

    def connectivity_indices(self) -> Tuple[np.ndarray, ...]:
        """Per-SBS index arrays of connected MU groups (cached).

        ``connectivity_indices()[n]`` is ``flatnonzero(connectivity[n])``
        computed once per instance instead of per call.
        """
        return self._cached(
            "connectivity_indices",
            lambda: tuple(
                np.flatnonzero(self.connectivity[n] > 0) for n in range(self.num_sbs)
            ),
        )

    def neighbours_of_sbs(self, sbs: int) -> np.ndarray:
        """Indices of MU groups connected to ``sbs``."""
        self._check_sbs(sbs)
        return self.connectivity_indices()[sbs]

    def sbs_of_group(self, group: int) -> np.ndarray:
        """Indices of SBSs connected to MU group ``group``."""
        if not 0 <= group < self.num_groups:
            raise ValidationError(f"group index {group} out of range [0, {self.num_groups})")
        return np.flatnonzero(self.connectivity[:, group] > 0)

    def num_links(self) -> int:
        """Total number of SBS-MU links (ones in the connectivity matrix)."""
        return self._cached("num_links", lambda: int(self.connectivity.sum()))

    def _check_sbs(self, sbs: int) -> None:
        if not 0 <= sbs < self.num_sbs:
            raise ValidationError(f"SBS index {sbs} out of range [0, {self.num_sbs})")

    # ------------------------------------------------------------------
    # Convenience constructors / transforms
    # ------------------------------------------------------------------
    def with_bandwidth(self, bandwidth) -> "ProblemInstance":
        """Return a copy of this instance with a new bandwidth vector.

        A scalar is broadcast to every SBS.  Used by the Fig. 6 sweep.
        """
        vector = np.broadcast_to(np.asarray(bandwidth, dtype=np.float64), (self.num_sbs,)).copy()
        return dataclasses.replace(self, bandwidth=vector)

    def with_cache_capacity(self, cache_capacity) -> "ProblemInstance":
        """Return a copy of this instance with a new cache-capacity vector."""
        vector = np.broadcast_to(
            np.asarray(cache_capacity, dtype=np.float64), (self.num_sbs,)
        ).copy()
        return dataclasses.replace(self, cache_capacity=vector)

    def with_connectivity(self, connectivity) -> "ProblemInstance":
        """Return a copy of this instance with a new connectivity matrix."""
        return dataclasses.replace(self, connectivity=np.asarray(connectivity, dtype=np.float64))

    def restrict_groups(self, groups) -> "ProblemInstance":
        """Return the sub-instance induced by a subset of MU groups.

        Used by the Fig. 4 sweep (varying the number of MUs) so that the
        same trace and topology can be reused across points.
        """
        index = np.asarray(groups, dtype=np.int64)
        if index.ndim != 1 or index.size == 0:
            raise ValidationError("groups must be a nonempty 1-D index array")
        if np.any(index < 0) or np.any(index >= self.num_groups):
            raise ValidationError("groups contains an out-of-range MU index")
        return ProblemInstance(
            demand=self.demand[index],
            connectivity=self.connectivity[:, index],
            cache_capacity=self.cache_capacity,
            bandwidth=self.bandwidth,
            sbs_cost=self.sbs_cost[:, index],
            bs_cost=self.bs_cost[index],
        )

    def describe(self) -> Dict[str, float]:
        """Return a summary dictionary (useful for logging and reports)."""
        return {
            "num_sbs": self.num_sbs,
            "num_groups": self.num_groups,
            "num_files": self.num_files,
            "num_links": self.num_links(),
            "total_demand": self.total_demand(),
            "total_bandwidth": float(self.bandwidth.sum()),
            "total_cache": float(self.cache_capacity.sum()),
            "max_cost": self.max_cost(),
        }
