import math
import sys

import numpy as np
import pytest

import subgauss._batch as batch_module
import subgauss.interval_combiner as combiner_module
from subgauss import (
    ConfidenceInterval,
    IntervalFamily,
    adaptive_family,
    combine,
    fixed_sigma_family,
    median_of_means,
    mix_seed,
    mom_variance,
    multiple_delta_estimate,
    parse_distribution,
    quantile_interval,
    quantile_kreg_family,
    sample,
)
from subgauss._batch import _variance_block_count

LN2 = math.log(2.0)


def fam(*pairs):
    return IntervalFamily(tuple(ConfidenceInterval(a, b) for a, b in pairs))


class TestCombine:
    def test_full_intersection(self):
        res = combine(fam((0, 10), (2, 12), (4, 6)))
        assert res.k_hat == 1
        assert res.estimate == 5.0
        assert (res.final_interval.lo, res.final_interval.hi) == (4.0, 6.0)

    def test_first_interval_dropped(self):
        res = combine(fam((0, 1), (5, 6), (5.5, 7)))
        assert res.k_hat == 2
        assert res.estimate == 5.75
        assert (res.final_interval.lo, res.final_interval.hi) == (5.5, 6.0)

    def test_single_interval(self):
        res = combine(fam((2, 8)))
        assert res.k_hat == 1
        assert res.estimate == 5.0

    def test_touching_endpoints_count_as_nonempty(self):
        res = combine(fam((0, 3), (3, 9)))
        assert res.k_hat == 1
        assert res.estimate == 3.0
        assert res.final_interval.length == 0.0

    def test_never_fails_and_estimate_in_suffix(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            pairs = []
            for _ in range(m):
                a = rng.normal()
                pairs.append((a, a + rng.exponential()))
            res = combine(fam(*pairs))
            assert 1 <= res.k_hat <= m
            for j in range(res.k_hat, m + 1):
                iv = pairs[j - 1]
                assert iv[0] <= res.estimate <= iv[1]

    def test_k_hat_is_minimal(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            pairs = [(a, a + rng.exponential()) for a in rng.normal(size=m)]
            res = combine(fam(*pairs))
            if res.k_hat > 1:
                # suffix one step earlier must be empty
                lo = max(p[0] for p in pairs[res.k_hat - 2 :])
                hi = min(p[1] for p in pairs[res.k_hat - 2 :])
                assert lo > hi

    def test_widening_one_interval_cannot_increase_k_hat(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            pairs = [(a, a + rng.exponential()) for a in rng.normal(size=m)]
            base = combine(fam(*pairs)).k_hat
            i = int(rng.integers(0, m))
            eps = float(rng.exponential())
            widened = list(pairs)
            widened[i] = (pairs[i][0] - eps, pairs[i][1] + eps)
            assert combine(fam(*widened)).k_hat <= base

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            IntervalFamily(())


class TestFixedSigmaFamily:
    def test_depth_from_delta_min(self):
        s = sample(parse_distribution("gaussian:0,1"), 64, 1)
        f = fixed_sigma_family(s, 1.0, 1.0 / 16.0)
        assert f.m == 3

    def test_centers_are_median_of_means(self):
        s = sample(parse_distribution("gaussian:0,1"), 64, 2)
        f = fixed_sigma_family(s, 1.0, 1.0 / 16.0)
        for k, iv in enumerate(f.intervals, start=1):
            assert iv.midpoint == pytest.approx(
                median_of_means(s, 2.0**-k), rel=1e-12, abs=1e-12
            )

    def test_radius_formula_n_1024(self):
        s = sample(parse_distribution("gaussian:0,1"), 1024, 3)
        f = fixed_sigma_family(s, 1.0, 0.25)
        want = 2.0 * math.sqrt(2.0) * math.e * math.sqrt((1.0 + LN2) / 1024.0)
        assert f.intervals[0].length / 2.0 == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.3126, abs=5e-5)

    def test_radii_strictly_increasing(self):
        s = sample(parse_distribution("gaussian:0,1"), 4096, 4)
        f = fixed_sigma_family(s, 2.0, 2.0**-12)
        lengths = [iv.length for iv in f.intervals]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_constant_sample_centers(self):
        f = fixed_sigma_family([3.0] * 32, 1.0, 1.0 / 16.0)
        for iv in f.intervals:
            assert iv.midpoint == pytest.approx(3.0, rel=1e-15)

    def test_rejects_bad_inputs(self):
        s = sample(parse_distribution("gaussian:0,1"), 64, 5)
        with pytest.raises(ValueError):
            fixed_sigma_family(s, 0.0, 1.0 / 16.0)
        with pytest.raises(ValueError):
            fixed_sigma_family(s, 1.0, 1.0)
        with pytest.raises(ValueError):
            fixed_sigma_family(s, 1.0, 0.3)  # would give m = 0

    @pytest.mark.parametrize("sigma2_hi", [math.inf, math.nan])
    def test_rejects_non_finite_sigma2_hi(self, sigma2_hi):
        s = sample(parse_distribution("gaussian:0,1"), 64, 5)
        with pytest.raises(ValueError, match="sigma2_hi must be finite and > 0"):
            fixed_sigma_family(s, sigma2_hi, 1.0 / 16.0)
        with pytest.raises(ValueError, match="sigma2_hi must be finite and > 0"):
            multiple_delta_estimate(s, "fixed_sigma", sigma2_hi=sigma2_hi, delta_min=0.01)


class TestAdaptiveFamily:
    def test_constant_sample_collapses(self):
        f = adaptive_family([2.0] * 64, 2.0**-6)
        for iv in f.intervals:
            assert (iv.lo, iv.hi) == (2.0, 2.0)
        assert combine(f).estimate == 2.0

    def test_scale_equivariance_a2(self):
        s = sample(parse_distribution("laplace:0"), 512, 6)
        f1 = adaptive_family(s, 2.0**-8)
        f2 = adaptive_family(2.0 * s.values, 2.0**-8)
        for a, b in zip(f1.intervals, f2.intervals):
            assert b.lo == pytest.approx(2.0 * a.lo, rel=1e-12, abs=1e-12)
            assert b.hi == pytest.approx(2.0 * a.hi, rel=1e-12, abs=1e-12)

    def test_rejects_sample_too_small_for_deepest_block(self):
        # delta_min = 2^-10 lies below the depth range floor e^(1 - 13/2)
        with pytest.raises(ValueError):
            adaptive_family(list(range(13)), 2.0**-10)

    def test_depth_range_keeps_two_points_per_variance_block(self):
        # Every delta_min that _family_depth accepts leaves the deepest level's
        # b_m = max(2, ceil(m ln 2)) variance blocks at least 2 points each,
        # so adaptive_family needs no check of its own.
        for n in range(5, 3001):
            lower = math.exp(1.0 - 0.5 * n)
            if lower >= sys.float_info.min:
                with pytest.raises(ValueError, match="outside the valid range"):
                    combiner_module._family_depth(lower * (1.0 - 1e-9), n)
            lower = max(lower, math.ulp(0.0))
            for delta_min in [lower * (1.0 - 1e-12), *np.geomspace(lower, 0.25, 8).tolist()]:
                m = combiner_module._family_depth(delta_min, n)
                b_m = _variance_block_count(m)
                assert n // b_m >= 2, (n, delta_min, m, b_m)

    def test_coverage_at_every_level(self):
        # the k-th radius misses mu with probability at most 2^(1-k)
        d = parse_distribution("gaussian:0,1")
        trials = 500
        n = 4096
        delta_min = 2.0**-10
        covered = np.zeros(10, dtype=int)
        m_seen = None
        for t in range(trials):
            s = sample(d, n, mix_seed(606, t))
            f = adaptive_family(s, delta_min)
            m_seen = f.m
            est = combine(f).estimate
            for k, iv in enumerate(f.intervals, start=1):
                if abs(est - 0.0) <= iv.length / 2.0:
                    covered[k - 1] += 1
        assert m_seen == 9
        for k in range(1, 10):
            miss = 2.0 ** (1 - k)
            slack = 3.0 * math.sqrt(miss * (1.0 - miss) / trials) if miss < 1 else 0.0
            assert covered[k - 1] / trials >= 1.0 - miss - slack, f"k={k}"


class TestSharedCenters:
    """Levels with the same block count share one median-of-means centre."""

    @staticmethod
    def per_level(values, m, half_width):
        n = len(values)
        out = []
        for k in range(1, m + 1):
            center = median_of_means(values, 2.0**-k)
            radius = half_width(k) * math.sqrt((1.0 + k * LN2) / n)
            out.append((center - radius, center + radius))
        return out

    def test_families_equal_per_level_construction(self):
        values = sample(parse_distribution("pareto:3,1"), 777, 11).values
        m = 9
        fixed = fixed_sigma_family(values, 2.0, 2.0**-10)
        scale = 2.0 * math.sqrt(2.0) * math.e * math.sqrt(2.0)
        assert [(iv.lo, iv.hi) for iv in fixed.intervals] == self.per_level(
            values, m, lambda k: scale
        )
        adaptive = adaptive_family(values, 2.0**-10)
        a = 2.0 * math.sqrt(2.0) * math.e * 2.0
        want = self.per_level(
            values,
            m,
            lambda k: a * math.sqrt(mom_variance(values, max(2, math.ceil(k * LN2)))),
        )
        assert [(iv.lo, iv.hi) for iv in adaptive.intervals] == want

    @pytest.mark.parametrize("builder", ["fixed_sigma", "adaptive"])
    def test_one_center_per_distinct_block_count(self, monkeypatch, builder):
        blocks = []
        real = batch_module.mom_rows

        def counting(values, b):
            blocks.append(b)
            return real(values, b)

        # The one-sample levels take their centres from _batch._levels.
        monkeypatch.setattr(batch_module, "mom_rows", counting)
        values = sample(parse_distribution("gaussian:0,1"), 256, 12).values
        multiple_delta_estimate(values, builder, sigma2_hi=1.0, delta_min=2.0**-10)
        assert sorted(blocks) == [1, 2, 3, 4, 5, 6, 7]

    def test_one_block_variance_per_distinct_variance_block_count(self, monkeypatch):
        # At m = 9 the variance block counts max(2, ceil(k ln 2)) are
        # 2, 2, 3, 3, 4, 5, 5, 6, 7: six distinct counts, six passes.
        blocks = []
        real = combiner_module._block_variance

        def counting(values, b):
            blocks.append(b)
            return real(values, b)

        monkeypatch.setattr(combiner_module, "_block_variance", counting)
        values = sample(parse_distribution("gaussian:0,1"), 256, 12).values
        multiple_delta_estimate(values, "adaptive", delta_min=2.0**-10)
        assert sorted(blocks) == [2, 3, 4, 5, 6, 7]


class TestQuantileKregFamily:
    def test_default_depth(self):
        s = sample(parse_distribution("laplace:0"), 2000, 7)
        f = quantile_kreg_family(s, 1)
        assert f.m == 15

    @pytest.mark.parametrize("n", [93_000, 100_000])
    def test_default_depth_where_the_default_underflows(self, n):
        assert 4.0 * math.exp(3.0 - n / 124.0) == 0.0
        values = sample(parse_distribution("laplace:0"), n, 12).values
        family = quantile_kreg_family(values, 1)
        # n = 93,000: floor((750 - 3 - ln 4)/ln 2) - 1 = 1074 levels.  Past
        # n = 93,026 the level 2^-1075 would be 0.0, so the depth stays there.
        assert family.m == 1074
        deepest = quantile_interval(values, 2.0**-1074, 1)
        assert (family.intervals[-1].lo, family.intervals[-1].hi) == (deepest.lo, deepest.hi)
        estimate = multiple_delta_estimate(values, "quantile_kreg")
        assert estimate == combine(family).estimate and math.isfinite(estimate)

    def test_explicit_delta_min(self):
        s = sample(parse_distribution("laplace:0"), 2000, 8)
        f = quantile_kreg_family(s, 1, delta_min=2.0**-5)
        assert f.m == 4

    def test_rejects_n_too_small_for_default(self):
        s = sample(parse_distribution("laplace:0"), 700, 9)
        with pytest.raises(ValueError):
            quantile_kreg_family(s, 1)

    @pytest.mark.parametrize(
        "n, k_reg", [(1000, 1), (2053, 1), (4099, 2), (10_000, 1), (10_000, 3)]
    )
    def test_levels_equal_quantile_interval(self, n, k_reg):
        values = sample(parse_distribution("lognormal:0,1"), n, n + k_reg).values
        family = quantile_kreg_family(values, k_reg)
        want = [quantile_interval(values, 2.0**-k, k_reg) for k in range(1, family.m + 1)]
        assert [(iv.lo.hex(), iv.hi.hex()) for iv in family.intervals] == [
            (iv.lo.hex(), iv.hi.hex()) for iv in want
        ]

    @pytest.mark.parametrize("k_reg", [0, -1])
    def test_rejects_k_below_one_like_quantile_interval(self, k_reg):
        values = sample(parse_distribution("laplace:0"), 2000, 11).values
        with pytest.raises(ValueError) as level_error:
            quantile_interval(values, 0.5, k_reg)
        with pytest.raises(ValueError) as family_error:
            quantile_kreg_family(values, k_reg)
        with pytest.raises(ValueError) as estimate_error:
            multiple_delta_estimate(values, "quantile_kreg", k_reg=k_reg)
        assert str(family_error.value) == str(estimate_error.value) == str(level_error.value)

    def test_invalid_level_fails_like_quantile_interval(self):
        values = sample(parse_distribution("laplace:0"), 1000, 10).values
        # Level 8 (delta = 2^-8) lies below quantile_interval's range at n=1000.
        with pytest.raises(ValueError) as family_error:
            quantile_kreg_family(values, 1, delta_min=2.0**-12)
        with pytest.raises(ValueError) as level_error:
            quantile_interval(values, 2.0**-8, 1)
        assert str(family_error.value) == str(level_error.value)


class TestMultipleDeltaEstimate:
    def test_constant_sample_every_builder(self):
        vals = [4.5] * 2000
        assert multiple_delta_estimate(vals, "fixed_sigma", sigma2_hi=1.0, delta_min=1 / 16) == 4.5
        assert multiple_delta_estimate(vals, "adaptive", delta_min=1 / 16) == 4.5
        assert multiple_delta_estimate(vals, "quantile_kreg", k_reg=1) == 4.5

    def test_builder_parameter_validation(self):
        vals = list(range(64))
        with pytest.raises(ValueError):
            multiple_delta_estimate(vals, "fixed_sigma", delta_min=1 / 16)
        with pytest.raises(ValueError):
            multiple_delta_estimate(vals, "fixed_sigma", sigma2_hi=1.0)
        with pytest.raises(ValueError):
            multiple_delta_estimate(vals, "adaptive")
        with pytest.raises(ValueError):
            multiple_delta_estimate(vals, "nope", delta_min=1 / 16)

    def test_fixed_sigma_with_true_variance_lands_in_first_interval(self):
        s = sample(parse_distribution("gaussian:0,1"), 1024, 10)
        f = fixed_sigma_family(s, 1.0, 2.0**-8)
        res = combine(f)
        assert res.k_hat == 1
        est = multiple_delta_estimate(s, "fixed_sigma", sigma2_hi=1.0, delta_min=2.0**-8)
        assert est == res.estimate
        assert f.intervals[0].contains(est)

    def test_quantile_kreg_tail_on_laplace(self):
        # single estimate, no confidence level supplied, yet the deviation
        # stays under the widest advertised radius essentially always
        d = parse_distribution("laplace:0")
        n = 10_000
        trials = 2000
        l_star = (
            4.0
            * math.sqrt(2.0 * (1.0 + 2.0 * LN2) * (1.0 + 62.0 * math.log(3.0)))
            * math.exp(2.5)
        )
        radius = l_star * math.sqrt(d.sigma2) * math.sqrt((1.0 + math.log(100.0)) / n)
        bad = 0
        for t in range(trials):
            s = sample(d, n, mix_seed(717, t))
            est = multiple_delta_estimate(s, "quantile_kreg", k_reg=1)
            if abs(est - 0.0) > radius:
                bad += 1
        assert bad / trials <= 0.01
