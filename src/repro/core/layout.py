"""Block layouts: the one seam between Algorithm 1 and the shape of its blocks.

SBS ``n`` only ever reads the aggregate ``y_{-n}`` over the ``(u, f)``
pairs it can serve (Eq. 25) and the BS only sums and broadcasts, so no
part of the protocol needs a dense ``(U, F)`` block.  The agents, the
optimizer, the socket server and its clients ask a layout — picked by
:func:`layout_for` from the instance type alone — for everything that
depends on the block's shape: the SBS's view, report shape and slice
of a broadcast, the BS's report store (every write to it is a
``fold``), the price scale, the system cost and the final solution.

:class:`GridLayout` (a dense :class:`~repro.core.problem.ProblemInstance`)
keeps ``(U, F)`` blocks, the ``reports.sum(axis=0)`` aggregate and
:func:`~repro.core.cost.total_cost`.  :class:`PairLayout` (a
:class:`~repro.core.sparse.SparseProblemInstance`) keeps one entry per
reachable demand pair and the aggregate as a vector over the demand's
nonzeros, so per-phase work is ``O(nnz)``.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Sequence, Tuple, Union

import numpy as np

from ..obs.events import ITERATION_COUNTERS
from .cost import total_cost
from .problem import ProblemInstance
from .solution import Solution
from .sparse import SBSIndex, SparseProblemInstance, SparseSolution, _expand_ranges
from .subproblem import ItemView

__all__ = ["GridLayout", "PairLayout", "layout_for"]

#: Per-SBS arrays, in SBS order.
Blocks = Sequence[np.ndarray]


class GridLayout:
    """``(U, F)`` blocks of a dense instance: SBS ``n`` solves its full grid."""

    #: The :mod:`repro.perf` counter of Algorithm 1 iterations.
    counter = ITERATION_COUNTERS[False]

    def __init__(self, problem: ProblemInstance) -> None:
        self.problem = problem
        self.broadcast_shape: Tuple[int, ...] = (problem.num_groups, problem.num_files)
        #: Extra ``run_start`` fields and root-span attributes.
        self.run_fields: Dict[str, Any] = {}

    def view(self, sbs: int) -> ItemView:
        """SBS ``sbs``'s subproblem: every cell of the grid."""
        return ItemView.grid(self.problem, sbs)

    def report_shape(self, sbs: int) -> Tuple[int, ...]:
        """Shape of SBS ``sbs``'s routing report."""
        return self.broadcast_shape

    def cache_size(self, sbs: int) -> int:
        """Length of SBS ``sbs``'s caching vector."""
        return self.problem.num_files

    def idle(self) -> FrozenSet[int]:
        """SBSs with nothing to solve or upload: none, a grid has cells."""
        return frozenset()

    def gather(self, values: np.ndarray, sbs: int) -> np.ndarray:
        """SBS ``sbs``'s entries of a broadcast array: all of them."""
        return values

    def price_scale(self) -> np.ndarray:
        """Price step scale: each pair's best margin times its demand."""
        best_margin = self.problem.savings_margin().max(axis=0)  # (U,)
        return best_margin[:, np.newaxis] * self.problem.demand

    def new_reports(self) -> np.ndarray:
        """The BS's report store: an all-zero ``(N, U, F)`` cube."""
        return np.zeros(self.problem.shape)

    def fold(self, reports: np.ndarray, sbs: int, block: np.ndarray) -> None:
        """Write SBS ``sbs``'s report into the store."""
        reports[sbs] = block

    def report(self, reports: np.ndarray, sbs: int) -> np.ndarray:
        """SBS ``sbs``'s stored report."""
        return reports[sbs]

    def aggregate(self, reports: np.ndarray) -> np.ndarray:
        """``sum_n y[n]``, the broadcast aggregate."""
        return reports.sum(axis=0)

    def system_cost(self, reports: np.ndarray) -> float:
        """Network cost at the stored reports."""
        return total_cost(self.problem, reports)

    def solution(self, caching: Blocks, routing: Blocks) -> Solution:
        """The per-SBS caching vectors and routing blocks as a :class:`Solution`."""
        return Solution(caching=np.stack(caching), routing=np.stack(routing))


class _PairAggregate:
    """The BS's reports and aggregate as vectors over demand pairs.

    ``reports`` concatenates every SBS's report (SBS ``n``'s at
    ``slice_of(n)``); ``values[p]`` sums the reports of every SBS
    reaching pair ``p``, the compact twin of ``reports.sum(axis=0)``;
    ``f1[n]`` is SBS ``n``'s edge cost.  A fold refreshes exactly the
    folding SBS's pairs, from scratch (no incremental drift), through a
    pair -> report-position incidence CSR.
    """

    def __init__(self, instance: SparseProblemInstance, indexes: Sequence[SBSIndex]):
        self.indexes = indexes
        sizes = np.array([index.pair_ids.size for index in indexes], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.reports = np.zeros(int(self.offsets[-1]))
        self.values = np.zeros(instance.demand_nnz)
        self.f1 = np.zeros(len(indexes))
        all_pairs = np.concatenate([index.pair_ids for index in indexes])
        self._inc_pos = np.argsort(all_pairs, kind="stable")
        counts = np.bincount(all_pairs, minlength=instance.demand_nnz)
        self._inc_indptr = np.concatenate(([0], np.cumsum(counts)))

    def slice_of(self, sbs: int) -> slice:
        return slice(int(self.offsets[sbs]), int(self.offsets[sbs + 1]))

    def fold(self, sbs: int, block: np.ndarray) -> None:
        """Store SBS ``sbs``'s report, then refresh its pairs and edge cost."""
        index = self.indexes[sbs]
        self.reports[self.slice_of(sbs)] = block
        self.f1[sbs] = float(np.dot(index.pair_link_weight, block))
        pairs = index.pair_ids
        if pairs.size == 0:
            return
        starts = self._inc_indptr[pairs]
        counts = self._inc_indptr[pairs + 1] - starts
        contributions = self.reports[self._inc_pos[_expand_ranges(starts, counts)]]
        segment = np.repeat(np.arange(pairs.size), counts)
        self.values[pairs] = np.bincount(segment, weights=contributions, minlength=pairs.size)


class PairLayout:
    """Pair vectors of a sparse instance: SBS ``n`` solves ``item_view(n)``.

    Reports are ``(P_n,)`` vectors aligned with ``sbs_index(n).pair_ids``,
    broadcasts ``(nnz,)`` vectors over the demand's nonzeros, caching
    vectors run over ``sbs_index(n).files``.  An SBS reaching no demand
    pair is idle: its cache holds the filler the dense solver picks.
    """

    counter = ITERATION_COUNTERS[True]

    def __init__(self, instance: SparseProblemInstance) -> None:
        self.problem = instance
        self.broadcast_shape: Tuple[int, ...] = (instance.demand_nnz,)
        nnz, links = instance.demand_nnz, instance.num_links
        self.run_fields: Dict[str, Any] = {"sparse": True, "demand_nnz": nnz, "num_links": links}

    def view(self, sbs: int) -> ItemView:
        """SBS ``sbs``'s subproblem: one item per reachable demand pair."""
        return self.problem.item_view(sbs)

    def report_shape(self, sbs: int) -> Tuple[int, ...]:
        """Shape of SBS ``sbs``'s routing report, ``(P_n,)``."""
        return self.problem.sbs_index(sbs).pair_ids.shape

    def cache_size(self, sbs: int) -> int:
        """Length of SBS ``sbs``'s caching vector, its candidate contents."""
        return self.problem.sbs_index(sbs).files.size

    def idle(self) -> FrozenSet[int]:
        """SBSs that reach no demand pair: nothing to solve or upload."""
        return frozenset(n for n in self.problem.sbs_indices() if not self.report_shape(n)[0])

    def gather(self, values: np.ndarray, sbs: int) -> np.ndarray:
        """SBS ``sbs``'s entries of a broadcast array: its demand pairs."""
        return values[self.problem.sbs_index(sbs).pair_ids]

    def price_scale(self) -> np.ndarray:
        """Price step scale: each pair's best margin times its demand."""
        instance = self.problem
        link_group = instance.link_group()
        best_margin = np.zeros(instance.num_groups)
        np.maximum.at(best_margin, link_group, instance.bs_cost[link_group] - instance.link_cost)
        return best_margin[instance.row_of_pair()] * instance.demand_values

    def new_reports(self) -> _PairAggregate:
        """The BS's report store: all-zero pair vectors."""
        instance = self.problem
        return _PairAggregate(instance, [instance.sbs_index(n) for n in instance.sbs_indices()])

    def fold(self, reports: _PairAggregate, sbs: int, block: np.ndarray) -> None:
        """Write SBS ``sbs``'s report into the store."""
        reports.fold(sbs, block)

    def report(self, reports: _PairAggregate, sbs: int) -> np.ndarray:
        """SBS ``sbs``'s stored report."""
        return reports.reports[reports.slice_of(sbs)]

    def aggregate(self, reports: _PairAggregate) -> np.ndarray:
        """``sum_n y[n]`` over the demand pairs, the broadcast aggregate."""
        return reports.values

    def system_cost(self, reports: _PairAggregate) -> float:
        """``f1 + dot(pair_bs_weight, residual)`` at the stored reports."""
        residual = np.maximum(1.0 - reports.values, 0.0)
        return float(np.sum(reports.f1)) + float(np.dot(self.problem.pair_bs_weight(), residual))

    def solution(self, caching: Blocks, routing: Blocks) -> SparseSolution:
        """A :class:`SparseSolution` with global content ids."""
        instance, idle = self.problem, self.idle()
        files = [instance.sbs_index(n).files for n in instance.sbs_indices()]
        return SparseSolution(
            num_sbs=instance.num_sbs,
            num_groups=instance.num_groups,
            num_files=instance.num_files,
            # An idle SBS never solves: its candidates are the filler.
            caching=tuple(
                ids if n in idle else ids[np.flatnonzero(vector > 0.0)]
                for n, (ids, vector) in enumerate(zip(files, caching))
            ),
            routing=tuple(np.array(block, copy=True) for block in routing),
        )


#: A problem instance in either representation.
Instance = Union[ProblemInstance, SparseProblemInstance]
Layout = Union[GridLayout, PairLayout]


def layout_for(problem: Instance) -> Layout:
    """The block layout of ``problem``'s type: pairs if sparse, else the grid."""
    if isinstance(problem, SparseProblemInstance):
        return PairLayout(problem)
    return GridLayout(problem)
