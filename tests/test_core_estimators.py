import math
import re

import numpy as np
import pytest

from subgauss import (
    ConfidenceInterval,
    median_of_means,
    median_of_means_raw,
    mom_variance,
    multiple_delta_estimate,
    pairwise_block_variance,
    parse_distribution,
    partition_blocks,
    quantile_interval,
    quantile_interval_raw,
    quantile_select,
    sample,
)
from subgauss.core_estimators import _block_layout


X4000 = sample(parse_distribution("gaussian:0,1"), 4000, 31).values
# Each entry point of a block count or regularity index, with its name.
COUNT_CALLS = {
    "median_of_means_raw": ("b", lambda c: median_of_means_raw(X4000, c)),
    "mom_variance": ("b", lambda c: mom_variance(X4000, c)),
    "quantile_interval_raw": ("b", lambda c: quantile_interval_raw(X4000, c)),
    "partition_blocks": ("b", lambda c: partition_blocks(X4000.size, c)),
    "quantile_interval": ("k", lambda c: quantile_interval(X4000, 0.05, c)),
}


class TestIntegerCounts:
    """An int, a numpy integer or a float of integral value is its int; any
    other count is a ValueError that names the parameter."""

    @pytest.mark.parametrize("bad", [2.5, 1.5, math.nan, math.inf, "3", None], ids=repr)
    @pytest.mark.parametrize("call", COUNT_CALLS)
    def test_rejects_non_integers(self, call, bad):
        name, fn = COUNT_CALLS[call]
        message = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            fn(bad)

    @pytest.mark.parametrize("three", [3.0, np.float64(3), np.int64(3)], ids=repr)
    @pytest.mark.parametrize("call", COUNT_CALLS)
    def test_integral_values_give_the_bits_of_three(self, call, three):
        fn = COUNT_CALLS[call][1]
        assert repr(fn(three)) == repr(fn(3))  # float repr round-trips every bit


class TestPartitionBlocks:
    def test_ten_into_three(self):
        p = partition_blocks(10, 3)
        assert p.sizes == (4, 3, 3)
        assert p.blocks == (range(0, 4), range(4, 7), range(7, 10))

    def test_singletons(self):
        assert partition_blocks(6, 6).sizes == (1,) * 6

    def test_uneven_pair(self):
        assert partition_blocks(7, 2).blocks == (range(0, 4), range(4, 7))

    def test_covers_everything_in_order(self):
        for n in (1, 2, 5, 17, 100):
            for b in range(1, n + 1):
                p = partition_blocks(n, b)
                flat = [i for blk in p.blocks for i in blk]
                assert flat == list(range(n))
                assert max(p.sizes) - min(p.sizes) <= 1
                assert min(p.sizes) == n // b

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            partition_blocks(5, 0)
        with pytest.raises(ValueError):
            partition_blocks(5, 6)

    @pytest.mark.parametrize("ten", [10.0, np.float64(10), np.int64(10)], ids=repr)
    def test_integral_n_is_its_int(self, ten):
        # n follows the integer rule of b: an integral float or numpy integer
        # gives the partition of the int, a fraction is a ValueError naming n.
        assert partition_blocks(ten, 3) == partition_blocks(10, 3)
        assert type(partition_blocks(ten, 3).n) is int
        with pytest.raises(ValueError, match=r"^n must be an integer, got 10\.5$"):
            partition_blocks(10.5, 3)
        with pytest.raises(ValueError, match=r"^need 1 <= b <= n, got b=11, n=10$"):
            partition_blocks(ten, 11)


class TestBlockLayout:
    def test_equals_fresh_layout_for_every_remainder(self):
        for b in range(1, 10):
            for n in range(b, 3 * b + 1):  # every n mod b, at q = 1, 2, 3
                q, r = divmod(n, b)
                want_sizes = np.array([q + 1] * r + [q] * (b - r), dtype=np.intp)
                want_starts = np.concatenate([[0], np.cumsum(want_sizes)[:-1]])
                starts, sizes = _block_layout(n, b)
                assert starts.dtype == sizes.dtype == np.intp
                assert np.array_equal(starts, want_starts)
                assert np.array_equal(sizes, want_sizes)


class TestQuantileSelect:
    def test_median_of_three(self):
        assert quantile_select([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_singleton(self):
        assert quantile_select([5.0], 0.3) == 5.0

    def test_quartiles_of_four(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert quantile_select(vals, 0.25) == 1.0
        assert quantile_select(vals, 0.75) == 3.0

    def test_returns_an_input_element(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            vals = rng.normal(size=rng.integers(1, 12))
            alpha = rng.uniform(0.01, 0.99)
            assert quantile_select(vals, alpha) in vals

    def test_counting_conditions(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            m = int(rng.integers(1, 15))
            vals = rng.integers(0, 4, size=m).astype(float)  # force ties
            alpha = float(rng.uniform(0.01, 0.99))
            y = quantile_select(vals, alpha)
            assert np.count_nonzero(vals <= y) >= alpha * m
            assert np.count_nonzero(vals >= y) >= (1.0 - alpha) * m

    def test_no_dust_at_exact_rank_boundary(self):
        # 0.95 * 100 floats to 95.00000000000001; the rank must stay 95
        vals = np.arange(100, dtype=float)
        assert quantile_select(vals, 0.95) == 94.0

    def test_rejects_bad_alpha_and_empty(self):
        with pytest.raises(ValueError):
            quantile_select([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile_select([1.0], 1.0)
        with pytest.raises(ValueError):
            quantile_select([], 0.5)


class TestMedianOfMeansRaw:
    def test_three_blocks(self):
        # blocks [1,2], [3,4], [5,6] -> means 1.5, 3.5, 5.5
        assert median_of_means_raw([1, 2, 3, 4, 5, 6], 3) == 3.5

    def test_single_block_is_empirical_mean(self):
        vals = [1.0, 2.0, 4.0]
        assert median_of_means_raw(vals, 1) == pytest.approx(np.mean(vals), rel=1e-15)

    def test_even_block_count_takes_lower_middle(self):
        # two block means 1.5 and 3.5: rank ceil(2/2) = 1 picks the lower
        assert median_of_means_raw([1, 2, 3, 4], 2) == 1.5

    def test_invariant_under_within_block_shuffle(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=23)
        for b in (1, 2, 5, 7):
            p = partition_blocks(23, b)
            shuffled = vals.copy()
            for blk in p.blocks:
                idx = np.array(blk)
                shuffled[idx] = shuffled[rng.permutation(idx)]
            assert median_of_means_raw(shuffled, b) == pytest.approx(
                median_of_means_raw(vals, b), rel=1e-12
            )

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            median_of_means_raw([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            median_of_means_raw([1.0, 2.0], 0)


class TestMedianOfMeans:
    def test_two_block_example(self):
        # delta = e^-2 gives b = 2; block means 2 and 5, lower median
        assert median_of_means([1, 2, 3, 4, 5, 6], math.exp(-2.0)) == 2.0

    def test_float_dust_does_not_add_a_block(self):
        # float(e^-2) makes -log(delta) = 2.0000000000000004; b must be 2,
        # and with b = 3 the blocks of [1..6] would give 3.5 instead
        assert median_of_means([1, 2, 3, 4, 5, 6], float(np.exp(-2.0))) == 2.0

    def test_large_delta_is_empirical_mean(self):
        vals = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert median_of_means(vals, 0.9) == pytest.approx(np.mean(vals), rel=1e-15)

    def test_constant_sample(self):
        assert median_of_means([2.5] * 8, 0.05) == 2.5

    def test_delta_range(self):
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0, 3.0, 4.0], 1.0)
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0, 3.0, 4.0], 0.0)
        # n = 4: lower limit is e^(1-2) = e^-1
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0, 3.0, 4.0], 0.5 * math.exp(-1.0))
        # at the limit b = ceil(1) = 1, the empirical mean
        assert median_of_means([1.0, 2.0, 3.0, 4.0], math.exp(-1.0)) == 2.5


    def test_equals_raw_at_its_block_count(self):
        # bit for bit, from delta near 1 down to the e^(1 - n/2) floor
        rng = np.random.default_rng(31)
        for n in (4, 5, 9, 16, 33, 100):
            x = rng.standard_t(3, n) * 1e3
            lower = math.exp(1.0 - 0.5 * n)
            for delta in (0.9, 0.3, 0.05, 1e-3, 2.0 * lower, lower):
                if not lower <= delta < 1.0:
                    continue
                b = max(1, math.ceil(-math.log(delta) - 1e-9))
                assert median_of_means(x, delta) == median_of_means_raw(x, b)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            median_of_means([1.0, 2.0, 3.0], 0.5)

    def test_gaussian_concentration(self):
        # crude sanity run; the calibrated tail bound is exercised in the
        # acceptance suite
        d = parse_distribution("gaussian:0,1")
        errs = [
            abs(median_of_means(sample(d, 256, 1000 + t), 0.01)) for t in range(200)
        ]
        assert np.median(errs) < 0.2
        bound = 2.0 * math.sqrt(2.0) * math.e * math.sqrt((1.0 + math.log(100)) / 256)
        assert np.mean(np.asarray(errs) > bound) <= 0.01 + 3 * math.sqrt(0.0099 / 200)


class TestUnderflowingRangeFloor:
    """At n = 2,000 the floor e^(1 - n/2) is below the smallest float, and
    at n = 100,000 so is quantile_interval's e^(3 - n/124)."""

    X = np.random.default_rng(7).normal(size=2000)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
    def test_median_of_means_rejects_zero_and_nan(self, delta):
        want = rf"delta={delta!r} outside the valid range \[exp\(-999\.0\), 1\)"
        with pytest.raises(ValueError, match=want):
            median_of_means(self.X, delta)

    @pytest.mark.parametrize("builder", ["fixed_sigma", "adaptive"])
    @pytest.mark.parametrize("delta_min", [0.0, math.nan])
    def test_families_reject_zero_and_nan(self, builder, delta_min):
        want = rf"delta_min={delta_min!r} outside the valid range \[exp\(-999\.0\), 1\)"
        with pytest.raises(ValueError, match=want):
            multiple_delta_estimate(self.X, builder, sigma2_hi=1.0, delta_min=delta_min)

    def test_quantile_interval_rejects_zero(self):
        x = np.random.default_rng(8).normal(size=100_000)
        with pytest.raises(ValueError, match=r"\[exp\(-803\.45\d*\), 1\)"):
            quantile_interval(x, 0.0, 1)

    def test_positive_levels_stay_valid(self):
        tiny = math.ulp(0.0)
        assert math.isfinite(median_of_means(self.X, tiny))
        assert math.isfinite(multiple_delta_estimate(self.X, "adaptive", delta_min=tiny))

    def test_representable_floor_prints_as_before(self):
        x = self.X[:600]
        want = f"delta=0.0 outside the valid range [{math.exp(-299.0)!r}, 1)"
        with pytest.raises(ValueError) as info:
            median_of_means(x, 0.0)
        assert str(info.value) == want


class TestPairwiseBlockVariance:
    def test_two_points(self):
        assert pairwise_block_variance([0.0, 2.0]) == 2.0

    def test_three_points(self):
        assert pairwise_block_variance([0.0, 1.0, 2.0]) == pytest.approx(1.0, rel=1e-12)

    def test_constant_block_is_zero(self):
        assert pairwise_block_variance([3.3] * 5) == 0.0

    def test_equals_unbiased_sample_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            vals = rng.normal(size=rng.integers(2, 9))
            assert pairwise_block_variance(vals) == pytest.approx(
                np.var(vals, ddof=1), rel=1e-10
            )

    def test_never_negative(self):
        vals = np.full(6, 1e8) + np.random.default_rng(4).normal(size=6) * 1e-8
        assert pairwise_block_variance(vals) >= 0.0

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            pairwise_block_variance([1.0])


class TestMomVariance:
    def test_three_block_example(self):
        # blocks [0,2], [1,1], [0,10] -> variances 2, 0, 50 -> median 2
        assert mom_variance([0, 2, 1, 1, 0, 10], 3) == 2.0

    def test_constant_sample(self):
        assert mom_variance([4.0] * 10, 5) == 0.0

    def test_single_block_is_sample_variance(self):
        vals = [1.0, 4.0, 2.0, 8.0]
        assert mom_variance(vals, 1) == pytest.approx(np.var(vals, ddof=1), rel=1e-12)

    def test_every_block_needs_two_points(self):
        with pytest.raises(ValueError):
            mom_variance([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError):
            mom_variance([1.0, 2.0], 0)

    def test_gaussian_concentration(self):
        d = parse_distribution("gaussian:0,1")
        ests = [mom_variance(sample(d, 100_000, 5000 + t), 10) for t in range(1000)]
        assert abs(np.mean(ests) - 1.0) < 0.02


class TestQuantileIntervalRaw:
    def test_four_block_example(self):
        # blocks [0,2],[1,3],[2,4],[3,5] -> means 1,2,3,4 -> [1, 3]
        iv = quantile_interval_raw([0, 2, 1, 3, 2, 4, 3, 5], 4)
        assert (iv.lo, iv.hi) == (1.0, 3.0)
        assert iv.midpoint == 2.0
        assert iv.length == 2.0

    def test_constant_sample_degenerates(self):
        iv = quantile_interval_raw([2.0] * 6, 3)
        assert (iv.lo, iv.hi) == (2.0, 2.0)

    def test_contains_median_of_means(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            vals = rng.standard_t(5, size=60)
            b = int(rng.integers(1, 20))
            iv = quantile_interval_raw(vals, b)
            assert iv.lo <= median_of_means_raw(vals, b) <= iv.hi

    def test_reflection_symmetry(self):
        # negating the data swaps and negates the quartile endpoints when
        # the block count is not a multiple of 4 (so neither rank sits at
        # an exact quarter boundary)
        rng = np.random.default_rng(12)
        for b in (3, 5, 6, 7):
            vals = rng.normal(size=35)
            iv = quantile_interval_raw(vals, b)
            neg = quantile_interval_raw(-vals, b)
            assert neg.lo == pytest.approx(-iv.hi, rel=1e-12, abs=1e-12)
            assert neg.hi == pytest.approx(-iv.lo, rel=1e-12, abs=1e-12)


class TestQuantileInterval:
    def test_block_count_delta_005(self):
        # b = ceil(62 ln 60) = 254; check against the explicit raw call
        d = parse_distribution("laplace:0")
        s = sample(d, 1000, 21)
        iv = quantile_interval(s, 0.05, 1)
        assert iv == quantile_interval_raw(s, 254)

    def test_block_count_delta_099(self):
        d = parse_distribution("laplace:0")
        s = sample(d, 1000, 22)
        assert quantile_interval(s, 0.99, 1) == quantile_interval_raw(s, 69)

    def test_rejects_delta_at_least_one(self):
        s = sample(parse_distribution("gaussian:0,1"), 1000, 23)
        with pytest.raises(ValueError):
            quantile_interval(s, 3.0 * math.exp(-1.0), 1)  # ~1.104

    def test_rejects_small_n(self):
        # needs n >= (3 + ln 4) * 124 * k, about 543.9 per unit of k
        s = sample(parse_distribution("gaussian:0,1"), 543, 24)
        with pytest.raises(ValueError):
            quantile_interval(s, 0.1, 1)
        s2 = sample(parse_distribution("gaussian:0,1"), 1000, 24)
        with pytest.raises(ValueError):
            quantile_interval(s2, 0.1, 2)
        quantile_interval(sample(parse_distribution("gaussian:0,1"), 700, 24), 0.1, 1)

    def test_rejects_delta_below_floor(self):
        s = sample(parse_distribution("gaussian:0,1"), 1000, 25)
        floor = math.exp(3.0 - 1000.0 / 124.0)
        with pytest.raises(ValueError):
            quantile_interval(s, floor * 0.5, 1)
        quantile_interval(s, floor * 1.01, 1)  # just above: fine

    def test_rejects_bad_k(self):
        s = sample(parse_distribution("gaussian:0,1"), 1000, 26)
        with pytest.raises(ValueError):
            quantile_interval(s, 0.1, 0)

    def test_constant_sample(self):
        iv = quantile_interval([5.0] * 1000, 0.1, 1)
        assert (iv.lo, iv.hi) == (5.0, 5.0)


class TestConfidenceInterval:
    def test_rejects_inverted_and_nan(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(2.0, 1.0)
        with pytest.raises(ValueError):
            ConfidenceInterval(math.nan, 1.0)

    def test_contains_endpoints(self):
        iv = ConfidenceInterval(-1.0, 1.0)
        assert iv.contains(-1.0) and iv.contains(1.0) and iv.contains(0.0)
        assert not iv.contains(1.0001)
