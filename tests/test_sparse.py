"""Sparse problem core: structure, parity with the dense solver, scale.

The parity contract has two tiers (see ``core/sparse.py``'s module
docstring):

* the **densify bridge** (``solve_distributed(sparse.to_dense())``) is
  bit-for-bit the dense run — cost, caching, routing *and* trace
  events;
* a **sparse instance** runs the one optimizer on pair vectors
  (``core/layout.py``), reusing the stock subproblem oracle on local
  views, so cache sets match the dense run set-for-set and routing
  matches bit-for-bit on the seeded suite, in every mode (Jacobi,
  prices, restarts, faults, sweep orders); recorded costs are compact
  sums and may differ from the dense einsum in the last float bits, so
  they are pinned to a 1e-12 relative tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_problem
from repro import obs, perf
from repro.core import (
    DistributedConfig,
    ProblemInstance,
    Solution,
    SparseProblemInstance,
    SparseSolution,
    SubproblemConfig,
    solve_distributed,
    solve_distributed_sparse,
    sparse_total_cost,
    total_cost,
    total_cost_sparse,
)
from repro.core.distributed import DistributedOptimizer
from repro.core.sparse import _expand_ranges
from repro.core.subproblem import ItemView
from repro.exceptions import ValidationError
from repro.network.faults import FaultConfig
from repro.privacy.mechanism import LPPMConfig
from repro.obs.trace import TraceReader, validate_events
from repro.workload import generate_city_instance


def sparse_random_problem(rng, **kwargs):
    """A random dense instance with genuinely sparse demand."""
    kwargs.setdefault("num_groups", 8)
    kwargs.setdefault("num_files", 12)
    problem = random_problem(rng, **kwargs)
    mask = rng.random(problem.demand.shape) < 0.4
    return ProblemInstance(
        demand=problem.demand * mask,
        connectivity=problem.connectivity,
        cache_capacity=problem.cache_capacity,
        bandwidth=problem.bandwidth,
        sbs_cost=problem.sbs_cost,
        bs_cost=problem.bs_cost,
    )


class TestStructure:
    def test_round_trip_from_dense(self, rng):
        problem = sparse_random_problem(rng)
        sparse = SparseProblemInstance.from_dense(problem)
        dense = sparse.to_dense()
        assert np.array_equal(dense.demand, problem.demand)
        assert np.array_equal(dense.connectivity, problem.connectivity)
        assert np.array_equal(dense.cache_capacity, problem.cache_capacity)
        assert np.array_equal(dense.bandwidth, problem.bandwidth)
        assert np.array_equal(dense.bs_cost, problem.bs_cost)
        # sbs_cost is only defined on links; off-link entries are never read.
        assert np.array_equal(
            dense.sbs_cost * dense.connectivity, problem.sbs_cost * problem.connectivity
        )
        assert sparse.shape == problem.shape
        assert sparse.demand_nnz == int(np.count_nonzero(problem.demand))
        assert sparse.num_links == int(problem.connectivity.sum())

    def test_derived_quantities_match_dense(self, rng):
        problem = sparse_random_problem(rng)
        sparse = SparseProblemInstance.from_dense(problem)
        assert sparse.max_cost() == pytest.approx(problem.max_cost(), rel=1e-12)
        assert sparse.total_demand() == pytest.approx(problem.total_demand(), rel=1e-12)
        np.testing.assert_allclose(sparse.group_demand(), problem.group_demand())
        for group in range(problem.num_groups):
            np.testing.assert_array_equal(
                sparse.sbs_of_group(group), problem.sbs_of_group(group)
            )
            files, values = sparse.group_support(group)
            np.testing.assert_array_equal(files, np.flatnonzero(problem.demand[group]))
            np.testing.assert_array_equal(values, problem.demand[group, files])
        for sbs in range(problem.num_sbs):
            np.testing.assert_array_equal(
                sparse.groups_of_sbs(sbs), problem.neighbours_of_sbs(sbs)
            )

    def test_validation_rejects_malformed_csr(self):
        base = dict(
            num_files=4,
            demand_indptr=[0, 2, 3],
            demand_files=[0, 2, 1],
            demand_values=[1.0, 2.0, 3.0],
            reach_indptr=[0, 1, 2],
            reach_sbs=[0, 1],
            link_cost=[1.0, 1.0],
            cache_capacity=[2.0, 2.0],
            bandwidth=[4.0, 4.0],
            bs_cost=[100.0, 100.0],
        )
        SparseProblemInstance(**base)  # the valid baseline builds
        for corrupt in (
            {"demand_indptr": [0, 3, 3, 3]},  # wrong row count
            {"demand_indptr": [1, 2, 3]},  # does not start at zero
            {"demand_files": [2, 0, 1]},  # row not strictly increasing
            {"demand_files": [0, 9, 1]},  # content id out of range
            {"demand_values": [1.0, 2.0]},  # misaligned values
            {"demand_values": [1.0, -2.0, 3.0]},  # negative demand
            {"reach_sbs": [0, 7]},  # SBS id out of range
            {"link_cost": [1.0, 500.0]},  # BS cost fails to dominate
        ):
            with pytest.raises(ValidationError):
                SparseProblemInstance(**{**base, **corrupt})

    def test_sub_instance_is_the_local_view(self, rng):
        problem = sparse_random_problem(rng)
        sparse = SparseProblemInstance.from_dense(problem)
        for sbs in range(problem.num_sbs):
            groups = problem.neighbours_of_sbs(sbs)
            if groups.size == 0:
                continue
            sub, index = sparse.sub_instance(sbs)
            assert sub.num_sbs == 1
            np.testing.assert_array_equal(index.groups, groups)
            # The block's demand is exactly the dense restriction.
            np.testing.assert_array_equal(
                sub.demand, problem.demand[np.ix_(groups, index.files)]
            )
            np.testing.assert_array_equal(
                sub.sbs_cost[0], problem.sbs_cost[sbs, groups]
            )
            np.testing.assert_array_equal(sub.bs_cost, problem.bs_cost[groups])
            # Candidate files: every demanded content, plus filler padding.
            support = np.unique(np.flatnonzero(problem.demand[groups].sum(axis=0)))
            assert set(support) <= set(index.files.tolist())
            assert index.files.size <= support.size + index.capacity

    def test_expand_ranges(self):
        starts = np.array([3, 10, 4], dtype=np.int64)
        counts = np.array([2, 0, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            _expand_ranges(starts, counts), np.array([3, 4, 4, 5, 6])
        )
        assert _expand_ranges(np.array([5]), np.array([0])).size == 0

    def test_describe_and_nbytes(self, rng):
        sparse = SparseProblemInstance.from_dense(sparse_random_problem(rng))
        info = sparse.describe()
        assert info["demand_nnz"] == sparse.demand_nnz
        assert 0 < info["demand_density"] < 1
        assert info["nbytes"] == float(sum(sparse.nbytes().values()))


class TestDensifyBridge:
    def test_bridge_solve_is_bit_identical(self, rng):
        for _ in range(4):
            problem = sparse_random_problem(rng)
            sparse = SparseProblemInstance.from_dense(problem)
            config = DistributedConfig(max_iterations=5)
            dense = solve_distributed(problem, config)
            bridged = solve_distributed(sparse.to_dense(), config)
            assert bridged.cost == dense.cost
            assert bridged.iterations == dense.iterations
            np.testing.assert_array_equal(
                bridged.solution.caching, dense.solution.caching
            )
            np.testing.assert_array_equal(
                bridged.solution.routing, dense.solution.routing
            )

    def test_bridge_trace_is_bit_identical(self, rng, tmp_path):
        problem = sparse_random_problem(rng)
        sparse = SparseProblemInstance.from_dense(problem)
        config = DistributedConfig(max_iterations=4)
        paths = [tmp_path / "dense.jsonl", tmp_path / "bridge.jsonl"]
        with obs.recording(paths[0], timings=False):
            solve_distributed(problem, config)
        with obs.recording(paths[1], timings=False):
            solve_distributed(sparse.to_dense(), config)
        dense_events = TraceReader(paths[0]).events
        bridge_events = TraceReader(paths[1]).events
        assert dense_events == bridge_events

    def test_cell_budget_guards_densification(self):
        sparse = SparseProblemInstance(
            num_files=10_000_000,
            demand_indptr=[0, 1],
            demand_files=[0],
            demand_values=[1.0],
            reach_indptr=[0, 1],
            reach_sbs=[0],
            link_cost=[1.0],
            cache_capacity=[1.0, 1.0, 1.0],
            bandwidth=[1.0, 1.0, 1.0],
            bs_cost=[100.0],
        )
        with pytest.raises(ValidationError, match="solve the sparse instance itself"):
            sparse.to_dense()
        # The solvers never densify: the instance runs on its pair vectors.
        result = solve_distributed(sparse, DistributedConfig(max_iterations=1))
        assert isinstance(result.solution, SparseSolution)
        assert sparse.to_dense(max_cells=None).num_files == 10_000_000


class TestCompactParity:
    """solve_distributed_sparse against the dense Gauss-Seidel run."""

    def assert_parity(
        self, problem, config=None, *, exact_routing=True, sweep_order=None, **options
    ):
        """The sparse run of ``problem`` against its dense run, both under
        ``config``, ``sweep_order`` and the solver ``options``."""
        config = config or DistributedConfig(max_iterations=6)
        sparse = SparseProblemInstance.from_dense(problem)
        if sweep_order is not None:
            dense = DistributedOptimizer(problem, config, sweep_order=sweep_order).run()
            compact = solve_distributed_sparse(sparse, config, sweep_order=sweep_order)
        elif options:
            dense = solve_distributed(problem, config, **options)
            compact = solve_distributed(sparse, config, **options)
        else:
            dense = solve_distributed(problem, config)
            compact = solve_distributed_sparse(sparse, config)
        assert compact.iterations == dense.iterations
        assert compact.converged == dense.converged
        assert compact.cost == pytest.approx(dense.cost, rel=1e-12)
        densified = compact.solution.to_dense(sparse)
        np.testing.assert_array_equal(densified.caching, dense.solution.caching)
        if exact_routing:
            np.testing.assert_array_equal(densified.routing, dense.solution.routing)
        else:
            np.testing.assert_allclose(
                densified.routing, dense.solution.routing, atol=1e-9
            )
        # The per-phase trajectories agree too, not just the endpoint.
        np.testing.assert_allclose(
            compact.history.phase_costs(), dense.history.phase_costs(), rtol=1e-12
        )
        return sparse, compact, dense

    def test_seeded_suite(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            self.assert_parity(sparse_random_problem(rng))

    def test_tiny_problem(self, tiny_problem):
        self.assert_parity(tiny_problem)

    def test_warm_start_parity(self, rng):
        problem = sparse_random_problem(rng)
        self.assert_parity(
            problem, DistributedConfig(max_iterations=6, warm_start=True)
        )

    def test_legacy_oracle_parity(self, rng):
        problem = sparse_random_problem(rng)
        self.assert_parity(
            problem,
            DistributedConfig(
                max_iterations=4, subproblem=SubproblemConfig(oracle="legacy")
            ),
        )

    def test_fully_dense_adjacency(self, rng):
        """Degenerate sparsity: every SBS reaches every group, every
        content demanded — the local views coincide with the global one."""
        num_sbs, num_groups, num_files = 3, 5, 7
        problem = ProblemInstance(
            demand=rng.uniform(0.5, 3.0, size=(num_groups, num_files)),
            connectivity=np.ones((num_sbs, num_groups)),
            cache_capacity=np.full(num_sbs, 3.0),
            bandwidth=np.full(num_sbs, 6.0),
            sbs_cost=rng.uniform(0.5, 2.0, size=(num_sbs, num_groups)),
            bs_cost=rng.uniform(50.0, 100.0, size=num_groups),
        )
        self.assert_parity(problem)

    def test_single_sbs_groups(self, rng):
        """Degenerate sparsity: each group hears exactly one SBS, so no
        aggregate coupling exists between subproblems at all."""
        num_sbs, num_groups, num_files = 3, 9, 10
        connectivity = np.zeros((num_sbs, num_groups))
        connectivity[np.arange(num_groups) % num_sbs, np.arange(num_groups)] = 1.0
        problem = ProblemInstance(
            demand=rng.uniform(0.0, 4.0, size=(num_groups, num_files))
            * (rng.random((num_groups, num_files)) < 0.5),
            connectivity=connectivity,
            cache_capacity=np.full(num_sbs, 2.0),
            bandwidth=np.full(num_sbs, 5.0),
            sbs_cost=rng.uniform(0.5, 2.0, size=(num_sbs, num_groups)),
            bs_cost=rng.uniform(50.0, 100.0, size=num_groups),
        )
        self.assert_parity(problem)

    def test_zero_demand_contents_and_filler(self, rng):
        """Contents nobody demands exist only as cache filler; spare
        capacity must fill with the same (lowest-indexed) files as the
        dense solver."""
        num_sbs, num_groups, num_files = 2, 4, 12
        demand = np.zeros((num_groups, num_files))
        demand[:, [5, 9]] = rng.uniform(1.0, 3.0, size=(num_groups, 2))
        problem = ProblemInstance(
            demand=demand,
            connectivity=(rng.random((num_sbs, num_groups)) < 0.7).astype(float),
            cache_capacity=np.full(num_sbs, 6.0),  # far beyond the 2 demanded files
            bandwidth=np.full(num_sbs, 5.0),
            sbs_cost=np.ones((num_sbs, num_groups)),
            bs_cost=np.full(num_groups, 80.0),
        )
        sparse, compact, dense = self.assert_parity(problem)
        for sbs in range(num_sbs):
            assert compact.solution.caching[sbs].size == 6

    def test_unreachable_sbs_and_orphan_group(self, rng):
        """An SBS with no groups caches pure filler; a group with no SBS
        is served entirely by the BS — both match the dense run."""
        demand = rng.uniform(0.0, 3.0, size=(4, 8)) * (rng.random((4, 8)) < 0.6)
        demand[demand.sum(axis=1) == 0, 0] = 1.0  # keep every group demanding
        connectivity = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],  # SBS 1 reaches nobody
                [0.0, 1.0, 0.0, 1.0],
            ]
        )  # group 2 is heard by nobody
        problem = ProblemInstance(
            demand=demand,
            connectivity=connectivity,
            cache_capacity=np.full(3, 2.0),
            bandwidth=np.full(3, 4.0),
            sbs_cost=np.ones((3, 4)),
            bs_cost=np.full(4, 90.0),
        )
        sparse, compact, dense = self.assert_parity(problem)
        np.testing.assert_array_equal(compact.solution.caching[1], np.array([0, 1]))
        assert compact.solution.routing[1].size == 0

    def test_sparse_trace_validates(self, rng, tmp_path):
        problem = sparse_random_problem(rng)
        sparse = SparseProblemInstance.from_dense(problem)
        path = tmp_path / "sparse.jsonl"
        with obs.recording(path, timings=False):
            solve_distributed_sparse(sparse, DistributedConfig(max_iterations=4))
        events = TraceReader(path).events
        assert validate_events(events) == []
        starts = [e for e in events if e.get("type") == "run_start"]
        assert starts[0]["sparse"] is True
        assert starts[0]["demand_nnz"] == sparse.demand_nnz

    def test_sparse_events_match_dense(self):
        """Both layouts emit one event stream: the same types in the same
        order and the same keys — apart from the sparse tags on
        ``run_start`` — with equal integers and floats to 1e-12.  The
        channel carries the same messages; only their bytes differ (pair
        vectors against ``(U, F)`` blocks).  The ``run_end`` counters are
        equal once the iteration counter's layout-specific name is
        mapped.  With timings on, both runs' phase events carry
        ``solve_seconds``."""
        sparse = generate_city_instance(5, 40, 300, files_per_group=16, rng=21)
        config = DistributedConfig(max_iterations=6)
        only = {"run_start": ({"sparse", "demand_nnz", "num_links"}, set())}
        for timings in (False, True):
            compact, dense = obs.ListRecorder(), obs.ListRecorder()
            with obs.recording(compact, timings=timings):
                solve_distributed_sparse(sparse, config)
            with obs.recording(dense, timings=timings):
                solve_distributed(sparse.to_dense(), config)
            assert [e["type"] for e in compact.events] == [e["type"] for e in dense.events]
            phases = [e for e in compact.events if e["type"] == "phase"]
            assert all(("solve_seconds" in e) == timings for e in phases)
            for ours, theirs in zip(compact.events, dense.events):
                ours_only, theirs_only = only.get(ours["type"], (set(), set()))
                assert set(ours) - set(theirs) == ours_only
                assert set(theirs) - set(ours) == theirs_only
                for key in set(ours) & set(theirs) - {"solve_seconds"}:
                    if key == "channel":
                        assert ours[key]["by_kind"] == theirs[key]["by_kind"]
                        assert ours[key]["bytes_sent"] < theirs[key]["bytes_sent"]
                    elif key == "counters":
                        # Each layout counts iterations under its own name.
                        ours_counts = dict(ours[key])
                        ours_counts["algorithm1.iterations"] = ours_counts.pop(
                            "algorithm1.sparse_iterations"
                        )
                        assert ours_counts == theirs[key]
                    elif isinstance(ours[key], float) or isinstance(theirs[key], float):
                        assert ours[key] == pytest.approx(theirs[key], rel=1e-12), key
                    else:
                        assert ours[key] == theirs[key], key

    def test_unsupported_modes_raise(self, rng):
        sparse = SparseProblemInstance.from_dense(sparse_random_problem(rng))
        with pytest.raises(ValidationError, match="permutation"):
            solve_distributed_sparse(sparse, sweep_order=[0, 0, 1])

    PARITY_SEEDS = range(8)

    @pytest.mark.parametrize(
        "config, options",
        [
            (DistributedConfig(max_iterations=6, mode="jacobi", damping=0.5), {}),
            (DistributedConfig(max_iterations=6, coordination="prices"), {}),
            (DistributedConfig(max_iterations=6, restarts=3), {"rng": 0}),
            (DistributedConfig(max_iterations=6), {"faults": FaultConfig()}),
            (DistributedConfig(max_iterations=6), {"sweep_order": [2, 0, 1]}),
        ],
        ids=["jacobi", "prices", "restarts", "faults", "sweep_order"],
    )
    def test_modes_the_sparse_driver_refused(self, config, options):
        """Jacobi, prices, restarts, faults and sweep orders run on pair
        vectors exactly as on the dense grid: same iterations, caching
        and scattered routing, cost to 1e-12."""
        for seed in self.PARITY_SEEDS:
            problem = sparse_random_problem(np.random.default_rng(seed))
            self.assert_parity(problem, config, **options)

    def test_lppm_on_pairs(self):
        """LPPM on pair vectors: a complete ledger (one release per fresh
        phase per SBS, releases x epsilon = booked), a feasible solution,
        and every release perturbs exactly the SBS's ``P_n`` pairs."""
        epsilon = 0.5
        for seed in self.PARITY_SEEDS:
            sparse = SparseProblemInstance.from_dense(
                sparse_random_problem(np.random.default_rng(seed))
            )
            optimizer = DistributedOptimizer(
                sparse,
                DistributedConfig(max_iterations=4),
                privacy=LPPMConfig(epsilon=epsilon),
                rng=seed,
            )
            result = optimizer.run()
            assert result.solution.check_feasibility(sparse).feasible
            for agent in optimizer.sbss:
                party = agent.name
                releases = [r for r in result.accountant.releases if r.party == party]
                phases = [
                    record
                    for record in result.history.phases
                    if record.sbs == agent.index and not record.stale
                ]
                assert len(releases) == len(phases) > 0
                assert result.accountant.total_epsilon_basic(party) == pytest.approx(
                    len(releases) * epsilon, rel=1e-12
                )
                coordinates = {record.coordinates for record in agent._mechanism.records}
                assert coordinates == {sparse.sbs_index(agent.index).pair_ids.size}


class TestSparseSolution:
    def solved(self, rng):
        problem = sparse_random_problem(rng)
        sparse = SparseProblemInstance.from_dense(problem)
        result = solve_distributed_sparse(sparse, DistributedConfig(max_iterations=5))
        return problem, sparse, result

    def test_costs_agree_across_representations(self, rng):
        problem, sparse, result = self.solved(rng)
        densified = result.solution.to_dense(sparse)
        dense_cost = total_cost(problem, densified.routing)
        assert sparse_total_cost(sparse, result.solution) == pytest.approx(
            dense_cost, rel=1e-12
        )
        assert total_cost_sparse(sparse, result.solution) == pytest.approx(
            dense_cost, rel=1e-12
        )
        assert result.cost == pytest.approx(dense_cost, rel=1e-12)
        assert result.total_epsilon is None

    def test_from_sparse_round_trip(self, rng):
        problem, sparse, result = self.solved(rng)
        densified = Solution.from_sparse(sparse, result.solution)
        assert densified.check_feasibility(problem).feasible
        stats = densified.sparsity()
        assert stats["routing_nnz"] == result.solution.routing_nnz()
        assert result.solution.nbytes() < stats["dense_nbytes"]

    def test_compact_feasibility_catches_violations(self, rng):
        problem, sparse, result = self.solved(rng)
        good = result.solution
        assert good.check_feasibility(sparse).feasible
        # Overstuffed cache.
        bad_cache = SparseSolution(
            num_sbs=good.num_sbs,
            num_groups=good.num_groups,
            num_files=good.num_files,
            caching=(np.arange(good.num_files),) + good.caching[1:],
            routing=good.routing,
        )
        report = bad_cache.check_feasibility(sparse)
        assert "cache_capacity" in report.by_constraint()
        # Routing a content the SBS does not cache, beyond the box.
        index = sparse.sbs_index(0)
        if index.pair_ids.size:
            values = good.routing[0].copy()
            values[:] = 2.0
            bad_routing = SparseSolution(
                num_sbs=good.num_sbs,
                num_groups=good.num_groups,
                num_files=good.num_files,
                caching=(np.empty(0, dtype=np.int64),) + good.caching[1:],
                routing=(values,) + good.routing[1:],
            )
            families = bad_routing.check_feasibility(sparse).by_constraint()
            assert "box" in families
            assert "cache_coupling" in families

    def test_dimension_mismatch_rejected(self, rng):
        problem, sparse, result = self.solved(rng)
        other = SparseProblemInstance.from_dense(
            sparse_random_problem(np.random.default_rng(99), num_groups=9)
        )
        with pytest.raises(ValidationError):
            sparse_total_cost(other, result.solution)
        with pytest.raises(ValidationError):
            result.solution.to_dense(other)


class TestCityScale:
    def test_generator_is_deterministic_and_volume_exact(self):
        a = generate_city_instance(6, 40, 500, reach=2, files_per_group=16, rng=7)
        b = generate_city_instance(6, 40, 500, reach=2, files_per_group=16, rng=7)
        np.testing.assert_array_equal(a.demand_files, b.demand_files)
        np.testing.assert_array_equal(a.demand_values, b.demand_values)
        np.testing.assert_array_equal(a.link_cost, b.link_cost)
        # Every group's row sum is an exact integer volume (the
        # largest-remainder apportionment of zipf_counts(total=...)).
        for group in range(a.num_groups):
            _, values = a.group_support(group)
            assert values.sum() == pytest.approx(round(float(values.sum())), abs=1e-9)
            assert np.all(values >= 1.0)
        # Reachability rows are ascending and within range.
        for group in range(a.num_groups):
            row = a.sbs_of_group(group)
            assert row.size == 2
            assert np.all(np.diff(row) > 0)

    def test_small_city_instance_solves_and_matches_dense(self):
        sparse = generate_city_instance(5, 30, 200, reach=2, files_per_group=12, rng=3)
        config = DistributedConfig(max_iterations=4, accuracy=1e-3)
        TestCompactParity().assert_parity(sparse.to_dense(), config)

    def test_realistic_fill_city_parity(self):
        """A city block at realistic fill (a few percent of its cells carry
        demand), polish on and warm-started: the pair-view sweep still
        matches the dense run iteration for iteration, bit for bit on
        routing."""
        sparse = generate_city_instance(6, 40, 500, rng=11)
        config = DistributedConfig(max_iterations=6, warm_start=True)
        TestCompactParity().assert_parity(sparse.to_dense(), config)

    def test_batched_sweep_never_materializes_blocks(self, monkeypatch):
        """The batched kernel runs on item views; no phase builds the
        zero-padded local block (only the legacy reference does)."""
        sparse = generate_city_instance(5, 30, 200, reach=2, files_per_group=12, rng=3)

        def refuse(self, sbs):
            raise AssertionError("the batched sparse sweep built a local block")

        monkeypatch.setattr(SparseProblemInstance, "sub_instance", refuse)
        monkeypatch.setattr(ItemView, "to_problem", lambda self: refuse(self, None))
        result = solve_distributed_sparse(sparse, DistributedConfig(max_iterations=3))
        assert result.solution.check_feasibility(sparse).feasible
        legacy = DistributedConfig(
            max_iterations=3, subproblem=SubproblemConfig(oracle="legacy")
        )
        with pytest.raises(AssertionError, match="local block"):
            solve_distributed_sparse(sparse, legacy)

    def test_kernel_scratch_allocated_at_most_once_per_sbs(self):
        """One workspace serves every SBS view of a sparse solve, polish
        trial buffers included — blocks of different sizes never force a
        per-phase re-allocation."""
        sparse = generate_city_instance(6, 40, 500, rng=11)
        with perf.collecting() as registry:
            result = solve_distributed_sparse(sparse, DistributedConfig(max_iterations=3))
        counters = registry.snapshot()["counters"]
        assert counters["subproblem.solves"] >= 2 * sparse.num_sbs
        assert counters["subproblem.workspace_allocs"] <= sparse.num_sbs
        assert result.iterations >= 2

    def test_city_scale_acceptance(self):
        """The ISSUE's acceptance instance: >= 100 SBSs, >= 1000 MU
        groups, >= 1e5 contents, built and solved through the sparse
        path inside CI memory."""
        sparse = generate_city_instance(
            100, 1000, 100_000, reach=3, files_per_group=128, rng=42
        )
        assert sparse.num_sbs >= 100
        assert sparse.num_groups >= 1000
        assert sparse.num_files >= 100_000
        # The instance itself is a few MB; its dense shadow would be
        # N*U*F = 1e10 cells (~80 GB per array).
        assert sum(sparse.nbytes().values()) < 50_000_000
        assert sparse.describe()["dense_cells"] == 10_000_000_000
        config = DistributedConfig(
            max_iterations=2,
            accuracy=1e-3,
            subproblem=SubproblemConfig(polish=False, max_iter=30),
        )
        result = solve_distributed_sparse(sparse, config)
        assert result.iterations >= 1
        assert result.cost < sparse.max_cost()
        assert result.solution.check_feasibility(sparse).feasible
        # The compact solution stays small too.
        assert result.solution.nbytes() < 50_000_000


#: The multi-axis scaling grid ``(N, U, F)``, growing SBSs, MU groups and
#: contents together, with the deterministic final cost the compact
#: solver reaches at each point under ``GRID_CONFIG``.
GRID_COSTS = {
    (4, 24, 2_000): 210684.47588731177,
    (8, 48, 8_000): 524333.0748678491,
    (16, 96, 32_000): 1025924.0765409091,
}
GRID_CONFIG = DistributedConfig(
    accuracy=1e-3,
    max_iterations=2,
    subproblem=SubproblemConfig(polish=False, max_iter=40),
)


def grid_instance(num_sbs, num_groups, num_files):
    """The seeded city instance at one scaling-grid point."""
    return generate_city_instance(
        num_sbs,
        num_groups,
        num_files,
        reach=3,
        files_per_group=min(64, max(8, num_files // 50)),
        rng=42,
    )


class TestScalingGrid:
    @pytest.mark.parametrize("point", list(GRID_COSTS), ids=str)
    def test_cost_pinned(self, point):
        result = solve_distributed_sparse(grid_instance(*point), GRID_CONFIG)
        assert result.cost == pytest.approx(GRID_COSTS[point], rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("point", [(4, 24, 2_000), (8, 48, 8_000)], ids=str)
    def test_sparse_matches_dense(self, point):
        """Every grid point small enough to densify: the compact solver
        picks the dense solver's cache sets, at its cost to 1e-9."""
        instance = grid_instance(*point)
        sparse = solve_distributed_sparse(instance, GRID_CONFIG)
        dense = solve_distributed(instance.to_dense(), GRID_CONFIG, rng=0)
        assert abs(sparse.cost - dense.cost) <= 1e-9 * max(abs(dense.cost), 1.0)
        np.testing.assert_array_equal(
            sparse.solution.to_dense(instance).caching, dense.solution.caching
        )
