import math
import warnings

import numpy as np
import pytest

from subgauss import (
    KurtosisConfig,
    XiTerms,
    kurtosis_estimate,
    parse_distribution,
    psi,
    sample,
    truncated_mean,
    xi_terms,
)


class TestPsi:
    def test_identity_inside_window(self):
        assert psi(0.0, 1.0, 0.5) == 0.5

    def test_clips_to_window_edge(self):
        assert psi(0.0, 1.0, 3.0) == 1.0
        assert psi(2.0, 1.0, 0.0) == 1.0

    def test_degenerate_window(self):
        for x in (-5.0, 0.0, 17.3):
            assert psi(4.0, 0.0, x) == 4.0

    def test_array_input(self):
        out = psi(0.0, 1.0, np.array([-3.0, 0.2, 3.0]))
        assert out.tolist() == [-1.0, 0.2, 1.0]

    def test_scalar_returns_float(self):
        assert isinstance(psi(0.0, 1.0, 2), float)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            psi(0.0, -0.1, 1.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="R must be >= 0"):
            psi(0.0, math.nan, 1.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_center(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            psi(mu, math.inf, 3.0)

    def test_infinite_radius_clips_nothing(self):
        assert psi(0.0, math.inf, -1e300) == -1e300

    def test_lipschitz_and_window_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            mu, r = rng.normal(), rng.exponential()
            x, y = rng.normal(scale=5, size=2)
            assert abs(psi(mu, r, x) - psi(mu, r, y)) <= abs(x - y) + 1e-12
            assert abs(psi(mu, r, x) - mu) <= r + 1e-12

    def test_parameter_insensitivity_grid(self):
        # |psi(mu,R,x) - psi(mu',R',x)| <= |mu-mu'| + |R-R'|
        rng = np.random.default_rng(9)
        for _ in range(300):
            mu, mu2 = rng.normal(size=2)
            r, r2 = rng.exponential(size=2)
            x = rng.normal(scale=4)
            gap = abs(psi(mu, r, x) - psi(mu2, r2, x))
            assert gap <= abs(mu - mu2) + abs(r - r2) + 1e-12


class TestTruncatedMean:
    def test_hand_example(self):
        assert truncated_mean([-10.0, 0.0, 1.0], 0.0, 2.0) == pytest.approx(
            -1.0 / 3.0, rel=1e-15
        )

    def test_wide_window_is_empirical_mean(self):
        vals = np.array([3.0, -1.0, 4.0, 1.5])
        assert truncated_mean(vals, 0.0, 100.0) == pytest.approx(vals.mean(), rel=1e-15)

    def test_zero_window_returns_center(self):
        assert truncated_mean([5.0, 6.0, 7.0], 1.25, 0.0) == 1.25

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            truncated_mean([1.0, 2.0], 0.0, -1.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="R must be >= 0"):
            truncated_mean([1.0, 2.0], 0.0, math.nan)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_center(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            truncated_mean([1.0, 2.0], mu, 1.0)

    def test_infinite_radius_is_the_plain_mean(self):
        vals = np.random.default_rng(3).standard_normal(1001) * 1e6
        assert truncated_mean(vals, 0.0, math.inf) == float(vals.mean())


class TestXiTerms:
    def test_large_n_example(self):
        t = xi_terms(6.0, 10**6, 8)
        assert t.xi1 == pytest.approx(36.0 * math.sqrt(48.0 / 1e6), rel=1e-12)
        assert t.xi2 == pytest.approx(
            2.0 * math.sqrt(2.0) * 6.0 * 8**1.5 / 1e6
            + 1120.0 * math.sqrt(6.0) * 8.0 / 1e6,
            rel=1e-12,
        )
        assert t.xi == pytest.approx(t.xi1 + t.xi2, rel=1e-15)
        # rounded digits: 0.000384 + 0.24942 + 0.021947
        assert t.xi == pytest.approx(0.2718, abs=2e-4)

    def test_unit_arguments(self):
        t = xi_terms(1.0, 1, 1)
        assert t.xi == pytest.approx(2.0 * math.sqrt(2.0) + 36.0 + 1120.0, rel=1e-15)

    def test_vanishes_as_n_grows(self):
        xs = [xi_terms(4.0, n, 8).xi for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(xs, xs[1:]))
        assert xs[-1] < 0.3

    def test_monotone_in_b(self):
        assert xi_terms(4.0, 10**4, 16).xi > xi_terms(4.0, 10**4, 8).xi

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            xi_terms(0.0, 10, 2)
        with pytest.raises(ValueError):
            xi_terms(1.0, 0, 2)
        with pytest.raises(ValueError):
            xi_terms(1.0, 10, 0)

    def test_terms_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            XiTerms(xi=-0.1, xi1=0.0, xi2=0.0)


class TestKurtosisConfig:
    def test_validation(self):
        KurtosisConfig(b_max=1, kappa_bound=1.0)
        with pytest.raises(ValueError):
            KurtosisConfig(b_max=0, kappa_bound=3.0)
        with pytest.raises(ValueError):
            KurtosisConfig(b_max=2, kappa_bound=0.5)
        with pytest.raises(ValueError):
            KurtosisConfig(b_max=2, kappa_bound=math.inf)
        with pytest.raises(ValueError):
            KurtosisConfig(b_max=2, kappa_bound=math.nan)


class TestKurtosisEstimate:
    def test_constant_sample(self):
        assert kurtosis_estimate([3.0] * 6, KurtosisConfig(2, 1.0)) == 3.0

    def test_translation_equivariance(self):
        s = sample(parse_distribution("gaussian:0,1"), 4096, 14)
        cfg = KurtosisConfig(8, 3.0)
        a = kurtosis_estimate(s, cfg)
        b = kurtosis_estimate(s.values + 5.0, cfg)
        assert b == pytest.approx(a + 5.0, rel=1e-9)

    def test_scale_equivariance(self):
        s = sample(parse_distribution("student:6"), 4096, 15)
        cfg = KurtosisConfig(8, 6.0)
        a = kurtosis_estimate(s, cfg)
        b = kurtosis_estimate(3.0 * s.values, cfg)
        assert b == pytest.approx(3.0 * a, rel=1e-9)

    def test_truncation_actually_bites(self):
        vals = np.concatenate([np.zeros(99), [1e9]])
        vals[:99] = np.random.default_rng(16).normal(size=99)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = kurtosis_estimate(vals, KurtosisConfig(5, 9.0))
        assert abs(est) < 10.0  # plain mean would be ~1e7

    def test_size_validation(self):
        cfg = KurtosisConfig(2, 3.0)
        with pytest.raises(ValueError):
            kurtosis_estimate([1.0, 2.0, 3.0], cfg)
        with pytest.raises(ValueError):
            kurtosis_estimate([1.0, 2.0, 3.0, 4.0], KurtosisConfig(3, 3.0))

    def test_no_warnings_in_comfortable_regime(self):
        s = sample(parse_distribution("student:6"), 10**6, 17)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            kurtosis_estimate(s, KurtosisConfig(8, 6.0))
        assert rec == []

    def test_two_warnings_in_thin_regime(self):
        # n=2000, b_max=1, kappa=6: the variance-concentration and window
        # conditions fail but the center-accuracy one holds
        s = sample(parse_distribution("gaussian:0,1"), 2000, 18)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            kurtosis_estimate(s, KurtosisConfig(1, 6.0))
        msgs = sorted(str(w.message) for w in rec)
        assert len(msgs) == 2
        assert "concentration condition" in msgs[0] + msgs[1]
        assert "truncation window" in msgs[0] + msgs[1]

    def test_all_three_warnings_at_tiny_n(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            kurtosis_estimate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], KurtosisConfig(2, 1.0))
        assert len(rec) == 3
        assert all(w.category is RuntimeWarning for w in rec)

    def test_warning_is_not_an_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = kurtosis_estimate([1.0, 2.0, 3.0, 4.0], KurtosisConfig(2, 1.0))
        assert math.isfinite(est)


class TestSharpTruncationLocality:
    def test_window_identity_grid(self):
        # with n=128, b=4: half = sqrt(n/2b) = 4 and the data window is
        # sqrt(n/8b) = 2 standard deviations; whenever eps_mu + eps_r <= 2
        # every point within the data window passes through untouched
        n, b = 128, 4
        half = math.sqrt(n / (2.0 * b))
        data_half = math.sqrt(n / (8.0 * b))
        for sigma in (0.5, 3.0):
            for mu_p in (-2.0, 0.0, 10.0):
                for eps_mu in (0.0, 0.3, 0.7, 1.0):
                    for eps_r in (0.0, 0.5, 1.0):
                        if 2.0 * (eps_mu + eps_r) > half:
                            continue
                        for sm in (-1.0, 1.0):
                            for sr in (-1.0, 1.0):
                                mu = mu_p + sm * eps_mu * sigma
                                big_r = sigma * half + sr * eps_r * sigma
                                for frac in (-1.0, -0.5, 0.0, 0.5, 1.0):
                                    x = mu_p + frac * data_half * sigma
                                    assert psi(mu, big_r, x) == x


class TestSecondMomentContraction:
    def test_clipping_contracts_toward_center(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            x = rng.standard_t(5, size=50) * rng.exponential()
            mu_p = float(rng.normal())
            r = float(rng.exponential() * 2)
            clipped = psi(mu_p, r, x)
            assert np.all((clipped - mu_p) ** 2 <= (x - mu_p) ** 2 + 1e-12)
            assert np.mean((clipped - mu_p) ** 2) <= np.mean((x - mu_p) ** 2) + 1e-12
