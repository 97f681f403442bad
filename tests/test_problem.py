"""Tests for the problem model (Section II / Table I)."""

import numpy as np
import pytest

from repro.core.problem import ProblemInstance
from repro.exceptions import ValidationError

from conftest import random_problem


def make_args(**overrides):
    args = dict(
        demand=np.array([[2.0, 1.0], [1.0, 3.0]]),
        connectivity=np.array([[1.0, 0.0], [1.0, 1.0]]),
        cache_capacity=np.array([1.0, 2.0]),
        bandwidth=np.array([5.0, 5.0]),
        sbs_cost=np.ones((2, 2)),
        bs_cost=np.array([10.0, 12.0]),
    )
    args.update(overrides)
    return args


class TestConstruction:
    def test_valid(self):
        problem = ProblemInstance(**make_args())
        assert problem.shape == (2, 2, 2)

    def test_dimensions(self):
        problem = ProblemInstance(**make_args())
        assert problem.num_sbs == 2
        assert problem.num_groups == 2
        assert problem.num_files == 2

    def test_arrays_read_only(self):
        problem = ProblemInstance(**make_args())
        with pytest.raises(ValueError):
            problem.demand[0, 0] = 99.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance(**make_args(demand=np.array([[-1.0, 1.0], [1.0, 1.0]])))

    def test_nonbinary_connectivity_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance(**make_args(connectivity=np.array([[0.5, 0.0], [1.0, 1.0]])))

    def test_connectivity_shape_mismatch(self):
        with pytest.raises(ValidationError, match="connectivity"):
            ProblemInstance(**make_args(connectivity=np.array([[1.0, 0.0, 1.0]])))

    def test_bs_cost_must_dominate(self):
        with pytest.raises(ValidationError, match="dominate"):
            ProblemInstance(**make_args(bs_cost=np.array([0.5, 12.0])))

    def test_bs_cost_dominance_only_on_connected(self):
        # SBS 0 does not reach group 1, so a cheap bs_cost there is fine
        # as long as sbs_cost on the connected pairs stays below it.
        args = make_args(
            connectivity=np.array([[1.0, 0.0], [1.0, 0.0]]),
            sbs_cost=np.array([[1.0, 99.0], [1.0, 99.0]]),
            bs_cost=np.array([10.0, 1.0]),
        )
        ProblemInstance(**args)

    def test_empty_demand_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance(**make_args(demand=np.zeros((0, 2)), bs_cost=np.zeros(0),
                                        sbs_cost=np.zeros((2, 0)),
                                        connectivity=np.zeros((2, 0))))


class TestDerived:
    def test_savings_margin_zero_when_disconnected(self):
        problem = ProblemInstance(**make_args())
        margin = problem.savings_margin()
        assert margin[0, 1] == 0.0
        assert margin[0, 0] == pytest.approx(9.0)

    def test_savings_rate_shape_and_value(self):
        problem = ProblemInstance(**make_args())
        rate = problem.savings_rate()
        assert rate.shape == (2, 2, 2)
        # SBS 1, group 1, file 1: (12 - 1) * 1 * 3.0
        assert rate[1, 1, 1] == pytest.approx(33.0)

    def test_max_cost(self):
        problem = ProblemInstance(**make_args())
        # W = 10 * (2+1) + 12 * (1+3)
        assert problem.max_cost() == pytest.approx(78.0)

    def test_total_demand(self):
        problem = ProblemInstance(**make_args())
        assert problem.total_demand() == pytest.approx(7.0)

    def test_file_popularity(self):
        problem = ProblemInstance(**make_args())
        np.testing.assert_allclose(problem.file_popularity(), [3.0, 4.0])

    def test_group_demand(self):
        problem = ProblemInstance(**make_args())
        np.testing.assert_allclose(problem.group_demand(), [3.0, 4.0])

    def test_neighbours(self):
        problem = ProblemInstance(**make_args())
        np.testing.assert_array_equal(problem.neighbours_of_sbs(0), [0])
        np.testing.assert_array_equal(problem.sbs_of_group(1), [1])

    def test_neighbours_bad_index(self):
        problem = ProblemInstance(**make_args())
        with pytest.raises(ValidationError):
            problem.neighbours_of_sbs(5)
        with pytest.raises(ValidationError):
            problem.sbs_of_group(-1)

    def test_num_links(self):
        problem = ProblemInstance(**make_args())
        assert problem.num_links() == 3

    def test_describe_keys(self):
        problem = ProblemInstance(**make_args())
        description = problem.describe()
        assert description["num_links"] == 3
        assert description["max_cost"] == pytest.approx(78.0)


class TestTransforms:
    def test_with_bandwidth_scalar(self):
        problem = ProblemInstance(**make_args())
        other = problem.with_bandwidth(7.5)
        np.testing.assert_allclose(other.bandwidth, [7.5, 7.5])
        # original untouched
        np.testing.assert_allclose(problem.bandwidth, [5.0, 5.0])

    def test_with_cache_capacity(self):
        problem = ProblemInstance(**make_args())
        other = problem.with_cache_capacity([1.0, 1.0])
        np.testing.assert_allclose(other.cache_capacity, [1.0, 1.0])

    def test_with_connectivity(self):
        problem = ProblemInstance(**make_args())
        other = problem.with_connectivity(np.ones((2, 2)))
        assert other.num_links() == 4

    def test_restrict_groups(self):
        problem = ProblemInstance(**make_args())
        sub = problem.restrict_groups([1])
        assert sub.num_groups == 1
        np.testing.assert_allclose(sub.demand, [[1.0, 3.0]])
        np.testing.assert_allclose(sub.bs_cost, [12.0])

    def test_restrict_groups_bad_index(self):
        problem = ProblemInstance(**make_args())
        with pytest.raises(ValidationError):
            problem.restrict_groups([5])

    def test_restrict_groups_empty(self):
        problem = ProblemInstance(**make_args())
        with pytest.raises(ValidationError):
            problem.restrict_groups([])


class TestRandomInstances:
    def test_random_instances_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            problem = random_problem(rng)
            assert problem.max_cost() >= 0
            assert problem.savings_rate().min() >= 0


class TestDerivedCaching:
    """Memoized derived quantities: same object back, correct, picklable."""

    def test_repeated_calls_return_cached_object(self):
        problem = ProblemInstance(**make_args())
        assert problem.savings_rate() is problem.savings_rate()
        assert problem.savings_margin() is problem.savings_margin()
        assert problem.demand_flat() is problem.demand_flat()
        assert problem.cache_slots() is problem.cache_slots()
        assert problem.potential_routing_mask() is problem.potential_routing_mask()
        assert problem.connectivity_indices() is problem.connectivity_indices()

    def test_cached_arrays_are_read_only(self):
        problem = ProblemInstance(**make_args())
        with pytest.raises(ValueError):
            problem.savings_margin()[0] = 99.0
        with pytest.raises(ValueError):
            problem.demand_flat()[0] = 99.0

    def test_demand_flat_matches_demand(self):
        problem = ProblemInstance(**make_args())
        np.testing.assert_array_equal(
            problem.demand_flat(), problem.demand.ravel()
        )

    def test_cache_slots_floor(self):
        problem = ProblemInstance(**make_args())
        np.testing.assert_array_equal(
            problem.cache_slots(),
            np.floor(problem.cache_capacity + 1e-9).astype(np.int64),
        )

    def test_potential_routing_mask_semantics(self):
        problem = ProblemInstance(**make_args())
        mask = problem.potential_routing_mask()
        expected = (
            (problem.connectivity[:, :, np.newaxis] > 0)
            & (problem.demand[np.newaxis, :, :] > 0)
            & (problem.savings_margin()[:, :, np.newaxis] > 0)
        )
        np.testing.assert_array_equal(mask, expected)

    def test_connectivity_indices_match_neighbours(self):
        problem = ProblemInstance(**make_args())
        for sbs in range(problem.num_sbs):
            np.testing.assert_array_equal(
                problem.connectivity_indices()[sbs],
                np.flatnonzero(problem.connectivity[sbs] > 0),
            )
            np.testing.assert_array_equal(
                problem.neighbours_of_sbs(sbs),
                np.flatnonzero(problem.connectivity[sbs] > 0),
            )

    def test_pickle_roundtrip_preserves_values_and_cache(self):
        import pickle

        problem = ProblemInstance(**make_args())
        problem.savings_margin()  # populate the cache before pickling
        clone = pickle.loads(pickle.dumps(problem))
        np.testing.assert_array_equal(clone.demand, problem.demand)
        np.testing.assert_array_equal(clone.connectivity, problem.connectivity)
        np.testing.assert_array_equal(
            clone.savings_margin(), problem.savings_margin()
        )
        # The clone gets a fresh, working cache of its own.
        assert clone.savings_margin() is clone.savings_margin()
        assert clone.max_cost() == problem.max_cost()


class TestDerivedCacheThreadSafety:
    """First touch of the memoized arrays must be race-free.

    Threads sharing one instance (say, per-SBS subproblem solves on a
    thread pool) all read the derived arrays through ``_cached``.
    Without the lock, concurrent first touches could each run the
    factory and publish different objects; every caller must instead
    observe the one shared instance.
    """

    ACCESSORS = (
        "savings_rate",
        "savings_margin",
        "potential_routing_mask",
        "demand_flat",
        "cache_slots",
        "connectivity_indices",
        "profitable_file_mask",
    )

    def test_first_touch_from_threads_returns_one_object(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(601)
        for round_ in range(20):
            problem = random_problem(rng)
            barrier = threading.Barrier(8)

            def touch(index, problem=problem, barrier=barrier):
                name = self.ACCESSORS[index % len(self.ACCESSORS)]
                barrier.wait()  # line every worker up on the cold cache
                return name, getattr(problem, name)()

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(touch, range(8)))
            for name, value in results:
                assert value is getattr(problem, name)(), (round_, name)

    def test_concurrent_same_key_single_object(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        problem = ProblemInstance(**make_args())
        barrier = threading.Barrier(16)

        def touch(_):
            barrier.wait()
            return problem.savings_rate()

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(touch, range(16)))
        first = results[0]
        assert all(value is first for value in results)

    def test_nested_factories_do_not_deadlock(self):
        # savings_rate() -> savings_margin() re-enters _cached while the
        # outer factory holds the (reentrant) lock.
        problem = ProblemInstance(**make_args())
        assert problem.savings_rate() is problem.savings_rate()
        assert problem.potential_routing_mask() is problem.potential_routing_mask()
