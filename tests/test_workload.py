"""Tests for the workload substrate: Zipf, trace, assignment, streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ValidationError
from repro.workload.assignment import assign_requests, assign_requests_weighted
from repro.workload.cityscale import generate_city_instance
from repro.workload.streams import Request, deterministic_stream, poisson_stream
from repro.workload.trace import TraceConfig, VideoTrace, trending_video_trace
from repro.workload.zipf import (
    fit_zipf_exponent,
    largest_remainder_round,
    zipf_counts,
    zipf_popularity,
)


class TestZipf:
    def test_popularity_normalised(self):
        p = zipf_popularity(50, 1.0)
        assert p.sum() == pytest.approx(1.0)

    def test_popularity_sorted(self):
        p = zipf_popularity(20, 1.2)
        assert np.all(np.diff(p) <= 0)

    def test_exponent_zero_uniform(self):
        p = zipf_popularity(10, 0.0)
        np.testing.assert_allclose(p, 0.1)

    def test_counts_head_pinned(self):
        counts = zipf_counts(50, head_count=140_000.0)
        assert counts[0] == pytest.approx(140_000.0)

    def test_counts_with_jitter_still_sorted(self):
        counts = zipf_counts(50, jitter=0.3, rng=0)
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] == pytest.approx(140_000.0)

    def test_counts_minimum_one(self):
        counts = zipf_counts(100, exponent=3.0, head_count=10.0)
        assert counts.min() >= 1.0

    def test_counts_total_sum_invariant(self):
        from repro.workload.zipf import largest_remainder_round, zipf_counts

        for seed in range(8):
            for total in (50, 513, 140_000):
                counts = zipf_counts(
                    50, exponent=1.1, jitter=0.25, total=total, rng=seed
                )
                assert counts.sum() == total
                assert counts.min() >= 1
                assert np.all(np.diff(counts) <= 0)  # still sorted
                assert np.all(counts == np.round(counts))  # integral

    def test_counts_total_no_jitter(self):
        from repro.workload.zipf import zipf_counts

        counts = zipf_counts(10, exponent=1.0, total=1000)
        assert counts.sum() == 1000
        assert counts[0] == counts.max()

    def test_counts_total_too_small_rejected(self):
        from repro.workload.zipf import zipf_counts

        with pytest.raises(ValidationError):
            zipf_counts(10, total=9)

    def test_largest_remainder_round_edges(self):
        from repro.workload.zipf import largest_remainder_round

        # Zero-mass weights split the budget evenly.
        out = largest_remainder_round(np.zeros(4), 10)
        assert out.sum() == 10
        # Exact minimum: everyone gets exactly the floor.
        out = largest_remainder_round(np.array([3.0, 1.0]), 2)
        np.testing.assert_array_equal(out, [1.0, 1.0])
        with pytest.raises(ValidationError):
            largest_remainder_round(np.array([1.0]), 0)
        with pytest.raises(ValidationError):
            largest_remainder_round(np.array([-1.0, 2.0]), 5)

    def test_largest_remainder_round_rejects_a_matrix_of_totals(self):
        with pytest.raises(ValidationError):
            largest_remainder_round(np.ones(3), np.array([[10]]))

    def test_counts_accept_a_vector_of_totals(self):
        totals = np.array([64, 65, 200, 1_000])
        rows = zipf_counts(64, exponent=0.8, total=totals)
        assert rows.shape == (4, 64)
        for row, total in zip(rows, totals):
            assert row.tobytes() == zipf_counts(64, exponent=0.8, total=int(total)).tobytes()
        with pytest.raises(ValidationError):
            zipf_counts(10, total=np.array([10, 9]))

    def test_fit_exponent_recovers(self):
        counts = zipf_popularity(100, 1.3) * 1e6
        assert fit_zipf_exponent(counts) == pytest.approx(1.3, abs=0.01)

    def test_fit_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            fit_zipf_exponent(np.array([1.0, 0.0]))

    def test_invalid_exponent(self):
        with pytest.raises(ValidationError):
            zipf_popularity(10, -1.0)


# Small integer weights make tied remainders common; all-zero weight
# vectors take the even-split branch.
apportion_weights = arrays(
    np.float64, st.integers(1, 9), elements=st.integers(0, 4).map(float)
)


def scalar_apportionment(weights, total, minimum):
    """Textbook one-total Hamilton apportionment, the row-wise core's reference."""
    spare = total - minimum * weights.size
    mass = float(weights.sum())
    if mass <= 0:
        raw = np.full(weights.size, spare / weights.size)
    else:
        raw = weights / mass * spare
    floors = np.floor(raw)
    counts = floors.astype(np.int64) + minimum
    leftover = int(round(spare - floors.sum()))
    if leftover > 0:
        counts[np.argsort(-(raw - floors), kind="stable")[:leftover]] += 1
    return counts.astype(np.float64)


class TestRowwiseApportionment:
    @given(
        apportion_weights,
        st.lists(st.integers(0, 60), min_size=1, max_size=6),
        st.integers(0, 2),
    )
    @settings(max_examples=300, deadline=None)
    @example(np.zeros(4), [4, 5, 11], 1)
    @example(np.array([1.0, 1.0, 1.0]), [4, 5, 7], 1)
    @example(np.array([2.0, 1.0, 1.0, 0.0]), [0, 1, 9], 0)
    def test_rows_equal_scalar_calls(self, weights, extra, minimum):
        totals = np.array(extra, dtype=np.int64) + minimum * weights.size
        rows = largest_remainder_round(weights, totals, minimum=minimum)
        assert rows.shape == (totals.size, weights.size)
        for row, total in zip(rows, totals):
            scalar = largest_remainder_round(weights, int(total), minimum=minimum)
            assert row.tobytes() == scalar.tobytes()
            assert row.tobytes() == scalar_apportionment(weights, int(total), minimum).tobytes()
            assert row.sum() == total

    @given(apportion_weights, st.integers(1, 3), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_short_total_rejected(self, weights, minimum, shortfall):
        short = minimum * weights.size - shortfall
        with pytest.raises(ValidationError):
            largest_remainder_round(weights, short, minimum=minimum)
        totals = np.array([minimum * weights.size, short])
        with pytest.raises(ValidationError):
            largest_remainder_round(weights, totals, minimum=minimum)

    def test_ties_go_to_the_lower_index(self):
        rows = largest_remainder_round(np.ones(4), np.array([5, 6, 7]), minimum=0)
        np.testing.assert_array_equal(
            rows, [[2.0, 1.0, 1.0, 1.0], [2.0, 2.0, 1.0, 1.0], [2.0, 2.0, 2.0, 1.0]]
        )


class TestTrace:
    def test_default_matches_paper_shape(self):
        """Fig. 2: 50 videos, head ~140k, tail a few thousand."""
        trace = trending_video_trace()
        assert trace.num_videos == 50
        assert trace.views[0] == pytest.approx(140_000.0, rel=0.01)
        assert trace.views[-1] >= 2_000.0
        assert trace.views[-1] < 10_000.0

    def test_sorted_descending(self):
        trace = trending_video_trace()
        assert np.all(np.diff(trace.views) <= 0)

    def test_deterministic_default(self):
        a = trending_video_trace()
        b = trending_video_trace()
        np.testing.assert_array_equal(a.views, b.views)

    def test_top_k(self):
        trace = trending_video_trace()
        assert trace.top(20).shape == (20,)
        with pytest.raises(ValidationError):
            trace.top(0)
        with pytest.raises(ValidationError):
            trace.top(51)

    def test_request_rates(self):
        trace = trending_video_trace()
        np.testing.assert_allclose(trace.request_rates(), trace.views / 30.0)

    def test_scaled_demand(self):
        trace = trending_video_trace()
        scaled = trace.scaled_demand(6000.0)
        assert scaled.sum() == pytest.approx(6000.0)
        # shape preserved
        np.testing.assert_allclose(scaled / scaled[0], trace.views / trace.views[0])

    def test_scaled_demand_invalid(self):
        trace = trending_video_trace()
        with pytest.raises(ValidationError):
            trace.scaled_demand(0.0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TraceConfig(tail_views=200_000.0)
        with pytest.raises(ValidationError):
            TraceConfig(head_views=-1.0)

    def test_trace_validation(self):
        with pytest.raises(ValidationError):
            VideoTrace(views=np.array([-1.0]), window_minutes=30.0)


class TestAssignment:
    def test_column_sums_preserved(self):
        volumes = np.array([10.0, 5.0, 0.0])
        demand = assign_requests(volumes, 4, rng=0)
        np.testing.assert_allclose(demand.sum(axis=0), volumes)

    def test_shape(self):
        demand = assign_requests(np.ones(5), 3, rng=0)
        assert demand.shape == (3, 5)

    def test_nonnegative(self):
        demand = assign_requests(np.ones(5) * 7.0, 3, rng=1)
        assert demand.min() >= 0.0

    def test_weighted_expectation(self):
        """Heavier groups receive more demand on average."""
        rng = np.random.default_rng(0)
        weights = np.array([1.0, 9.0])
        totals = np.zeros(2)
        for _ in range(200):
            demand = assign_requests_weighted(np.array([10.0]), weights, rng=rng)
            totals += demand[:, 0]
        assert totals[1] > 5 * totals[0]

    def test_zero_weight_gets_nothing(self):
        demand = assign_requests_weighted(
            np.array([10.0]), np.array([1.0, 0.0]), rng=0
        )
        assert demand[1, 0] == 0.0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            assign_requests_weighted(np.array([1.0]), np.zeros(3))

    def test_empty_weights_rejected(self):
        with pytest.raises(ValidationError):
            assign_requests_weighted(np.array([1.0]), np.array([]))


class TestStreams:
    def test_deterministic_counts(self):
        demand = np.array([[3.0, 0.0], [0.0, 2.0]])
        requests = deterministic_stream(demand, horizon=30.0)
        count_00 = sum(1 for r in requests if (r.group, r.file) == (0, 0))
        count_11 = sum(1 for r in requests if (r.group, r.file) == (1, 1))
        assert count_00 == 3 and count_11 == 2

    def test_deterministic_sorted(self):
        demand = np.ones((3, 3)) * 4.0
        requests = deterministic_stream(demand, horizon=10.0)
        times = [r.time for r in requests]
        assert times == sorted(times)

    def test_deterministic_within_horizon(self):
        requests = deterministic_stream(np.array([[5.0]]), horizon=30.0)
        assert all(0.0 <= r.time < 30.0 for r in requests)

    def test_poisson_mean_count(self):
        demand = np.full((2, 2), 50.0)
        rng = np.random.default_rng(0)
        requests = poisson_stream(demand, horizon=30.0, rng=rng)
        assert len(requests) == pytest.approx(200, rel=0.25)

    def test_poisson_sorted(self):
        requests = poisson_stream(np.full((2, 2), 10.0), horizon=5.0, rng=0)
        times = [r.time for r in requests]
        assert times == sorted(times)

    def test_rate_scale(self):
        demand = np.full((1, 1), 100.0)
        thinned = poisson_stream(demand, horizon=1.0, rng=0, rate_scale=0.1)
        assert len(thinned) < 40

    def test_invalid_horizon(self):
        with pytest.raises(ValidationError):
            deterministic_stream(np.ones((1, 1)), horizon=0.0)
        with pytest.raises(ValidationError):
            poisson_stream(np.ones((1, 1)), horizon=-1.0)

    def test_request_ordering_dataclass(self):
        a = Request(time=1.0, group=0, file=0)
        b = Request(time=2.0, group=0, file=0)
        assert a < b


#: ``generate_city_instance`` cases (positional shape, keywords) whose
#: outputs are pinned below: the two benchmark shapes plus every edge of
#: the support draw and the apportionment.
CITY_CASES = {
    "city-sparse": ((20, 200, 20_000), {}),
    "socket-wide": ((6, 40, 500), {}),
    "reach-exceeds-sbs": ((3, 20, 100), {"reach": 5}),
    "support-exceeds-catalogue": ((4, 7, 10), {}),
    "heavy-head": ((5, 30, 1_000), {"popularity_exponent": 3.0}),
    "volume-below-support": ((5, 30, 1_000), {"volume_range": (1.0, 3.0)}),
    "single-group": ((1, 1, 5), {}),
    "acceptance": ((100, 1_000, 100_000), {"files_per_group": 128}),
}
CITY_SEEDS = (0, 1, 7, 42)
CITY_FIELDS = (
    "demand_indptr",
    "demand_files",
    "demand_values",
    "reach_indptr",
    "reach_sbs",
    "link_cost",
    "cache_capacity",
    "bandwidth",
    "bs_cost",
)
#: SHA-256 over each field's dtype and bytes, one digest per seed in
#: ``CITY_SEEDS`` order.  Every solve pin on a city instance rests on
#: these, so they were recorded with a plain one-group-at-a-time
#: sampler and must not move.
CITY_DIGESTS = {
    "city-sparse": (
        "32b066c5f1c3f7d256aab4b99299023210ab71bc5b4d1311e69d78680860f944",
        "23d87592be20b31f9174cb4715feafbeb6fb53332c18601d1119df88bdc2bebb",
        "e1ea22c10aaf63d7c7ad3d123a3a4e2c3a6b758858bb8cb6f9f49c4b039c905b",
        "a91d76316044e6eed9d9077a5bfcca1e4595adddc60c715e7693e166bad7d6d9",
    ),
    "socket-wide": (
        "b8f5218aa583ed004e5934ea2675b3e4592e51e5eb20fca3ba1829daf590c933",
        "93290423aba47ed0895e404cf058d23799edc490cbdb0faf10477755a7b76921",
        "d9f98fa82e5becc9c0e0bdab55be753b87d16de42e565aafc7982d341e138eac",
        "5da877874bfe300fd1ace8fa11cdab2eadd85a1cc67a49e14445298c0e9be201",
    ),
    "reach-exceeds-sbs": (
        "cb9615593241d0745ae6783bb02f4982fa4302aa5a03bc78ef371a5d812df9ce",
        "d0d3c2c848085c607f4e5126863d1d6c8de2049b9b73528c7a9a708606815256",
        "598954e31aadbada2f96b21d6dde042a9b1db7c9f41e0963f70723b747bac531",
        "9006c40c5d76c82d6c46f93fe683cf5d05a71e73ebf1e1df2f9c0f0c4d21e377",
    ),
    "support-exceeds-catalogue": (
        "caeea32ac5e9617d66724f3edbe9d7e6e5ea753786ae1e3aaee822c38b636a36",
        "94e1777648baef59e8aa71ffe723d2eb05e265928d1a393498eba42c55795344",
        "8af9cfb33e020b1993312340a21d7a3d54ccb243a0f465bbe411637082f5a8e1",
        "97b300190eddf9149a46d59d20fbc19e3d5e93cc560c3f3cdaae5e42d802bec1",
    ),
    "heavy-head": (
        "67484b22403bac415f6dbea94e026bf73b8547ffd0f462c7ebcbcca03f6cf22e",
        "0ab524a642f18eac334da0fb2d79ccac5170d90f570f81556d97b6a27d5e786a",
        "5ebef93a6ddf5b684f27e4646ed7c335397696e2f44ffe55edf7d06cbae33c46",
        "fa269fe03c05cee1c04e7d7b5507728e6fe6484efdada72407fbe88761b67863",
    ),
    "volume-below-support": (
        "476c48ca24434e58a6c66e69130b7d4e69478b16f8b91f6d450ad790ecec9775",
        "08f41e82deb89b02fe6f1bd6d994f3dcdcc29406d4abb09e9416dffc8bf415dc",
        "260ccc7c4975a7d28dd8a80dab0f1bfd35d84dc8f743752af9a44bd9c10762d6",
        "fe6ee69097e210addfc6da0f711c9b81066b72b80397cc693809a8a339b1e633",
    ),
    "single-group": (
        "24ebfb0cf55f2f76371e1a98210c716846b687d92f3427a99dde070c4116b03c",
        "aaa0235c8405b3edc059777e1925b8fc0bf96d6f7c3ac8e61f8201306b52ebcc",
        "c3fa55cbb04114396b108ff9f85422774a20fc671775d1ccbeb27beb044f6dcd",
        "e84fa429ea0ade62463722da98004699adeb251d292255ddbae6e6eacd528882",
    ),
    "acceptance": (
        "e09c68e276d04f876976cd918ff3db4be3c3acda2afc438650ec75d9c73f1d14",
        "353be96cd3c47671a426f46ffee2f31a95da9eb7357f4631b52397cf06d2ebf5",
        "1a06e50ff7ca5632d8bc69a7d1a5cc5ad6b4909312cf85e3dcc7e21a218237b2",
        "d3832573c6c3fd4d5ea1f90103e7eb43a43e094043fa8c5b17541fd8c1d15008",
    ),
}


def loop_city_demand(num_sbs, num_groups, num_files, files_per_group, popularity_exponent,
                     demand_exponent, volume_range, seed):
    """One group at a time: the reference the whole-array sampler must equal."""
    generator = np.random.default_rng(seed)
    generator.uniform(0.0, 1.0, size=(num_sbs, 2))
    generator.uniform(0.0, 1.0, size=(num_groups, 2))
    cdf = np.cumsum(zipf_popularity(num_files, popularity_exponent))
    cdf[-1] = 1.0
    volumes = generator.uniform(*volume_range, size=num_groups)
    target = min(files_per_group, num_files)
    files, values, sizes = [], [], []
    for group in range(num_groups):
        support = np.unique(np.searchsorted(cdf, generator.random(2 * target)))[:target]
        total = max(int(round(volumes[group])), support.size)
        files.append(support)
        values.append(zipf_counts(support.size, exponent=demand_exponent, total=total))
        sizes.append(support.size)
    return np.concatenate(files), np.concatenate(values), np.concatenate(([0], np.cumsum(sizes)))


def city_digest(instance) -> str:
    digest = hashlib.sha256()
    for field in CITY_FIELDS:
        array = getattr(instance, field)
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestCityInstance:
    @pytest.mark.parametrize("case", sorted(CITY_CASES))
    def test_instances_pinned(self, case):
        args, kwargs = CITY_CASES[case]
        got = tuple(
            city_digest(generate_city_instance(*args, rng=seed, **kwargs))
            for seed in CITY_SEEDS
        )
        assert got == CITY_DIGESTS[case]

    @given(
        st.integers(1, 4),
        st.integers(1, 25),
        st.integers(1, 400),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.8, 3.0]),
        st.sampled_from([0.0, 0.8, 2.0]),
        st.sampled_from([(1.0, 3.0), (20.0, 200.0)]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_demand_equals_the_one_group_loop(
        self, num_sbs, num_groups, num_files, per_group, pop_exp, demand_exp, volumes, seed
    ):
        instance = generate_city_instance(
            num_sbs,
            num_groups,
            num_files,
            files_per_group=per_group,
            popularity_exponent=pop_exp,
            demand_exponent=demand_exp,
            volume_range=volumes,
            rng=seed,
        )
        files, values, indptr = loop_city_demand(
            num_sbs, num_groups, num_files, per_group, pop_exp, demand_exp, volumes, seed
        )
        assert instance.demand_indptr.tobytes() == indptr.tobytes()
        assert instance.demand_files.tobytes() == files.tobytes()
        assert instance.demand_values.tobytes() == values.tobytes()
