"""City-scale sparse instance synthesis.

The paper's evaluation runs on a handful of SBSs and MU groups; a city
deployment has hundreds of SBSs, thousands of MU groups and a content
catalogue in the ``10^5``–``10^6`` range.  At that scale the dense
``(U, F)`` demand and ``(N, U)`` connectivity matrices are pointless to
materialize — a group hears the few SBSs within radio range and
requests a few hundred contents — so this module builds a
:class:`~repro.core.sparse.SparseProblemInstance` directly in CSR form:

* SBSs and MU groups are placed uniformly on the unit square and each
  group reaches its ``reach`` nearest SBSs (proximity connectivity, the
  sparse twin of :func:`repro.network.topology.connectivity_by_proximity`);
* each group samples a personal content subset from a *global* Zipf
  popularity (heavy head shared across groups, long tail mostly
  disjoint), and its request volume is apportioned over that subset
  with another Zipf shape through
  :func:`repro.workload.zipf.zipf_counts` ``(total=...)`` — so every
  group's demand row sums exactly to its drawn volume;
* link costs grow with distance inside ``[1, 5]`` and BS costs are
  uniform in ``[100, 150]``, the paper's Section V ranges.

Nothing dense-shaped is ever allocated except the ``(U, N)`` distance
matrix used for the nearest-SBS query, which is linear in the topology,
not in the catalogue, and the transient ``(U, 2 * files_per_group)``
matrix of sampling keys (and its draws), the size of the CSR demand the
function returns: every group's support is drawn, and every demand row
apportioned, in whole-array passes.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .._validation import check_positive_int, rng_from
from ..core.sparse import SparseProblemInstance
from ..exceptions import ValidationError
from .zipf import zipf_counts, zipf_popularity

__all__ = ["generate_city_instance"]


def generate_city_instance(
    num_sbs: int,
    num_groups: int,
    num_files: int,
    *,
    reach: int = 3,
    files_per_group: int = 64,
    popularity_exponent: float = 0.8,
    demand_exponent: float = 0.8,
    volume_range: tuple = (20.0, 200.0),
    cache_slots: float = 8.0,
    bandwidth: Optional[float] = None,
    rng: Union[int, np.random.Generator, None] = None,
) -> SparseProblemInstance:
    """Generate a seeded city-scale sparse instance.

    Parameters
    ----------
    num_sbs / num_groups / num_files:
        Topology and catalogue sizes ``N`` / ``U`` / ``F``.
    reach:
        SBSs within radio range of each group (its CSR reachability row
        length); capped at ``N``.
    files_per_group:
        Target demand-support size per group.  Sampling from the global
        popularity is with replacement and deduplicated, so heavy-head
        collisions can leave a row slightly smaller — sparsity is a
        property of the workload, not a padded constant.
    popularity_exponent:
        Zipf exponent of the *global* content popularity the supports
        are sampled from (head-biased sampling makes popular contents
        shared across many groups, the regime where edge caching pays).
    demand_exponent:
        Zipf exponent of each group's per-content request volumes.
    volume_range:
        Per-group total request volume, uniform in ``[lo, hi]``; the
        group's integer row sum is exact (largest-remainder rounding).
    cache_slots:
        Cache capacity ``C_n`` for every SBS.
    bandwidth:
        Bandwidth ``B_n`` for every SBS; ``None`` sizes it so the edge
        can serve roughly a quarter of the total demand
        (``0.25 * total_volume / N``) — enough contention that routing
        decisions matter.
    rng:
        Seed or generator; the instance is a pure function of it.
    """
    check_positive_int(num_sbs, "num_sbs")
    check_positive_int(num_groups, "num_groups")
    check_positive_int(num_files, "num_files")
    check_positive_int(files_per_group, "files_per_group")
    if reach < 1:
        raise ValidationError(f"reach must be at least 1, got {reach}")
    lo, hi = float(volume_range[0]), float(volume_range[1])
    if not 0 < lo <= hi:
        raise ValidationError(f"volume_range must satisfy 0 < lo <= hi, got {volume_range}")
    generator = rng_from(rng)
    reach = min(int(reach), num_sbs)
    support_target = min(int(files_per_group), num_files)

    # --- topology: nearest-SBS reachability with distance-scaled costs
    sbs_xy = generator.uniform(0.0, 1.0, size=(num_sbs, 2))
    group_xy = generator.uniform(0.0, 1.0, size=(num_groups, 2))
    distances = np.linalg.norm(group_xy[:, np.newaxis, :] - sbs_xy[np.newaxis, :, :], axis=2)
    if reach < num_sbs:
        nearest = np.argpartition(distances, reach - 1, axis=1)[:, :reach]
    else:
        nearest = np.broadcast_to(np.arange(num_sbs), (num_groups, num_sbs)).copy()
    nearest = np.sort(nearest, axis=1)  # CSR rows must be ascending
    reach_indptr = np.arange(num_groups + 1, dtype=np.int64) * reach
    reach_sbs = nearest.ravel()
    link_distance = np.take_along_axis(distances, nearest, axis=1).ravel()
    # d[n, u] in [1, 5], growing with distance (sqrt(2) is the square's diameter).
    link_cost = 1.0 + 4.0 * link_distance / np.sqrt(2.0)

    # --- demand: head-biased supports, exact per-group volumes
    popularity = zipf_popularity(num_files, popularity_exponent)
    cdf = np.cumsum(popularity)
    cdf[-1] = 1.0
    volumes = generator.uniform(lo, hi, size=num_groups)
    # One draw for every group's keys: the generator fills the matrix
    # row after row, the same stream as one call per group.  Sorting a
    # row first makes its draws ascending (``searchsorted`` is
    # monotone), so the row's distinct files are where a draw differs
    # from its left neighbour, and its first ``support_target`` of them
    # are ``np.unique(draws)[:support_target]``.
    keys = generator.random((num_groups, 2 * support_target))
    keys.sort(axis=1)
    draws = np.searchsorted(cdf, keys)
    distinct = np.ones(draws.shape, dtype=bool)
    np.not_equal(draws[:, 1:], draws[:, :-1], out=distinct[:, 1:])
    keep = distinct & (np.cumsum(distinct, axis=1) <= support_target)
    demand_files = draws[keep]
    sizes = keep.sum(axis=1)
    demand_indptr = np.concatenate(([0], np.cumsum(sizes)))
    totals = np.maximum(np.rint(volumes).astype(np.int64), sizes)
    # Most-popular-first volumes land on the lowest file ids — the
    # global head — because each support is ascending and the global
    # popularity is rank-ordered.  Rows of one support size share one
    # Zipf shape, so each size is apportioned in one call.
    demand_values = np.empty(demand_files.size, dtype=np.float64)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        slots = demand_indptr[rows][:, np.newaxis] + np.arange(size)
        demand_values[slots] = zipf_counts(
            int(size), exponent=demand_exponent, total=totals[rows]
        )

    total_volume = float(demand_values.sum())
    if bandwidth is None:
        bandwidth = 0.25 * total_volume / num_sbs
    return SparseProblemInstance(
        num_files=num_files,
        demand_indptr=demand_indptr,
        demand_files=demand_files,
        demand_values=demand_values,
        reach_indptr=reach_indptr,
        reach_sbs=reach_sbs,
        link_cost=link_cost,
        cache_capacity=np.full(num_sbs, float(cache_slots)),
        bandwidth=np.full(num_sbs, float(bandwidth)),
        bs_cost=generator.uniform(100.0, 150.0, size=num_groups),
    )
