import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from subgauss import (
    CoupledSample,
    Sample,
    coupled_scaled_bernoulli,
    infvar_stress,
    laplace_ratio_floor,
    median_of_means,
    median_of_means_raw,
    parse_distribution,
    poisson_point_mass_check,
    sample,
    scaled_bernoulli_moment,
)


class TestCoupledScaledBernoulli:
    def test_p_zero_is_all_zeros(self):
        cs = coupled_scaled_bernoulli(2.0, 0.0, 50, 1)
        assert not cs.x.values.any()
        assert not cs.y.values.any()

    def test_p_one_is_all_fired(self):
        cs = coupled_scaled_bernoulli(2.0, 1.0, 50, 2)
        assert np.all(cs.x.values == 2.0)
        assert np.all(cs.y.values == -2.0)

    def test_match_frequency(self):
        # vectors coincide exactly when no pair fires: (1-p)^n
        n, p = 100, 0.01
        matches = 0
        trials = 100_000
        for t in range(trials):
            cs = coupled_scaled_bernoulli(1.0, p, n, t)
            if np.array_equal(cs.x.values, cs.y.values):
                matches += 1
        assert abs(matches / trials - (1.0 - p) ** n) < 0.01

    def test_marginal_means(self):
        c, p, n = 3.0, 0.01, 1_000_000
        cs = coupled_scaled_bernoulli(c, p, n, 7)
        se = math.sqrt(c * c * p * (1 - p) / n)
        assert abs(cs.x.values.mean() - p * c) <= 5 * se
        assert abs(cs.y.values.mean() + p * c) <= 5 * se

    def test_determinism(self):
        a = coupled_scaled_bernoulli(1.5, 0.3, 64, 99)
        b = coupled_scaled_bernoulli(1.5, 0.3, 64, 99)
        assert np.array_equal(a.x.values, b.x.values)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            coupled_scaled_bernoulli(0.0, 0.5, 10, 1)
        with pytest.raises(ValueError):
            coupled_scaled_bernoulli(1.0, -0.1, 10, 1)
        with pytest.raises(ValueError):
            coupled_scaled_bernoulli(1.0, 1.1, 10, 1)
        with pytest.raises(ValueError):
            coupled_scaled_bernoulli(1.0, 0.5, 0, 1)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_rejects_non_finite_c(self, c, p):
        # p = 0 draws no hit, so a NaN c would otherwise give an all-zero pair.
        with pytest.raises(ValueError, match="must be finite and > 0"):
            coupled_scaled_bernoulli(c, p, 10, 1)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("seed", [0, 2**64 + 9])
    def test_is_the_bern2_plus_sample(self, p, seed):
        c, n = 2.5, 257
        cs = coupled_scaled_bernoulli(c, p, n, seed)
        want = sample(parse_distribution(f"bern2+:{c!r},{p!r}"), n, seed).values
        assert cs.x.values.tobytes() == want.tobytes()
        # 0 - x, not -x: an unfired pair is (0.0, 0.0), never (0.0, -0.0)
        assert cs.y.values.tobytes() == np.subtract(0.0, want).tobytes()


class TestCoupledSampleInvariants:
    def test_rejects_non_mirrored(self):
        with pytest.raises(ValueError):
            CoupledSample(Sample([1.0, 0.0]), Sample([-1.0, 0.5]))

    def test_rejects_mixed_scales(self):
        with pytest.raises(ValueError):
            CoupledSample(Sample([1.0, 2.0]), Sample([-1.0, -2.0]))

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            CoupledSample(Sample([-1.0, 0.0]), Sample([1.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CoupledSample(Sample([1.0]), Sample([-1.0, 0.0]))

    def test_accepts_valid_pair(self):
        CoupledSample(Sample([2.0, 0.0, 2.0]), Sample([-2.0, 0.0, -2.0]))


class TestScaledBernoulliMoment:
    def test_matches_bernoulli_variance(self):
        assert scaled_bernoulli_moment(1.0, 0.5, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_point_masses_are_zero(self):
        assert scaled_bernoulli_moment(2.0, 0.0, 0.7) == 0.0
        assert scaled_bernoulli_moment(2.0, 1.0, 0.7) == 0.0

    def test_brute_force_two_point_sum(self):
        for c, p, alpha in [(2.0, 0.3, 0.5), (1.0, 0.5, 1.0), (5.0, 0.9, 0.25), (0.7, 0.01, 0.99)]:
            mu = p * c
            brute = p * abs(c - mu) ** (1 + alpha) + (1 - p) * abs(0.0 - mu) ** (1 + alpha)
            assert scaled_bernoulli_moment(c, p, alpha) == pytest.approx(brute, rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scaled_bernoulli_moment(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            scaled_bernoulli_moment(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            scaled_bernoulli_moment(1.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            scaled_bernoulli_moment(1.0, 2.0, 1.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            scaled_bernoulli_moment(c, 0.5, 1.0)


class TestInfvarStress:
    def test_constant_oracle_fails_both_sides(self):
        # at these settings the coupled means sit outside the radius, so an
        # estimator that always answers 0 fails every trial on both marginals
        n, delta, alpha, M = 100, 0.05, 1.0, 1.0
        p = (2.0 / n) * math.log(2.0 / delta)
        c = (M / (p * (1 - p) * (p**alpha + (1 - p) ** alpha))) ** (1 / (1 + alpha))
        radius = (M ** (1 / alpha) * math.log(2 / delta) / n) ** (alpha / (1 + alpha))
        assert p * c > radius
        fp, fm, _ = infvar_stress(lambda v: 0.0, n, delta, alpha, M, 20, 3)
        assert fp == 1.0
        assert fm == 1.0

    def test_empirical_mean_mechanism(self):
        fp, fm, match = infvar_stress(
            lambda v: float(np.mean(v)), 100, 0.05, 1.0, 1.0, 2000, 11
        )
        p = 0.02 * math.log(40.0)
        assert abs(match - (1.0 - p) ** 100) < 0.01
        se = math.sqrt(match * (1.0 - match) / 2000) if match else 0.0
        assert max(fp, fm) >= match / 2.0 - 3.0 * se
        assert 0.0 < fp < 0.5 and 0.0 < fm < 0.5

    def test_p_override_changes_coupling(self):
        _, _, tight = infvar_stress(lambda v: 0.0, 100, 0.05, 1.0, 1.0, 500, 5)
        _, _, loose = infvar_stress(lambda v: 0.0, 100, 0.05, 1.0, 1.0, 500, 5, p=0.001)
        assert loose > tight

    def test_spec_variance_overflow_still_draws(self):
        # c ~ 1e203 at p = 1e-305: a parsed bern2+ spec's variance c^2 p
        # overflows, but the coupling is drawn by family token, and a
        # pair fires with probability 1e-303, so every trial matches.
        got = infvar_stress(lambda v: 0.0, 100, 0.05, 0.5, 1.0, 10, 1, p=1e-305)
        assert got == (0.0, 0.0, 1.0)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            infvar_stress(lambda v: 0.0, 100, 0.05, 1.0, 1.0, 0, 1)

    def test_delta_too_small_for_n(self):
        with pytest.raises(ValueError, match="delta too small"):
            infvar_stress(lambda v: 0.0, 10, 1e-6, 1.0, 1.0, 10, 1)

    def test_argument_validation(self):
        f = lambda v: 0.0
        with pytest.raises(ValueError):
            infvar_stress(f, 0, 0.05, 1.0, 1.0, 10, 1)
        with pytest.raises(ValueError):
            infvar_stress(f, 100, 1.5, 1.0, 1.0, 10, 1)
        with pytest.raises(ValueError):
            infvar_stress(f, 100, 0.05, 2.0, 1.0, 10, 1)
        with pytest.raises(ValueError):
            infvar_stress(f, 100, 0.05, 1.0, -1.0, 10, 1)

    @pytest.mark.parametrize(
        "alpha, M, p, message",
        [
            (1.0, math.nan, None, "M=nan must be finite"),
            (1.0, math.inf, None, "M=inf must be finite"),
            (0.5, 1e308, None, "overflow a float"),  # M ** (1/alpha) overflows
            (1.0, 1.0, 1e-320, "not finite"),  # c = inf
        ],
    )
    def test_non_finite_coupling_rejected(self, alpha, M, p, message):
        with pytest.raises(ValueError, match=message):
            infvar_stress(lambda v: 0.0, 100, 0.05, alpha, M, 10, 1, p=p)


def _coupling_scale(n, delta, alpha, M, p):
    if p is None:
        p = (2.0 / n) * math.log(2.0 / delta)
    return (M / (p * (1.0 - p) * (p**alpha + (1.0 - p) ** alpha))) ** (1.0 / (1.0 + alpha))


class _Recorder:
    """Estimator that checks every argument it gets and records its bytes.

    Calls must alternate x (values in {0, c}) and y (values in {0, -c}),
    each a read-only 1-d float64 array of length n.
    """

    def __init__(self, n, c):
        self.n = n
        self.c = c
        self.calls = []

    def __call__(self, v):
        assert isinstance(v, np.ndarray)
        assert v.ndim == 1 and v.dtype == np.float64 and v.size == self.n
        assert not v.flags.writeable
        sign = 1.0 if len(self.calls) % 2 == 0 else -1.0
        assert np.all((v == 0.0) | (v == sign * self.c))
        self.calls.append(hashlib.blake2b(v, digest_size=16).digest())
        return float(v[-1])


def _estimator(kind, n, c):
    if kind == "mean":
        return lambda v: float(np.mean(v))
    if kind == "mom":
        if n >= 10:
            return lambda v: median_of_means(v, 0.02)  # b = 4: the lower median
        return lambda v: median_of_means_raw(v, min(n, 2))
    if kind == "constant":
        return lambda v: 0.125
    return _Recorder(n, c)


def _check_against_reference(kind, n, delta, alpha, M, trials, seed, p=None):
    c = _coupling_scale(n, delta, alpha, M, p)
    want_fn = _estimator(kind, n, c)
    got_fn = _estimator(kind, n, c)
    try:
        want = ref.infvar_stress(want_fn, n, delta, alpha, M, trials, seed, p=p)
    except ValueError:
        with pytest.raises(ValueError):
            infvar_stress(got_fn, n, delta, alpha, M, trials, seed, p=p)
        return
    got = infvar_stress(got_fn, n, delta, alpha, M, trials, seed, p=p)
    assert got == want
    if kind == "record":
        assert len(got_fn.calls) == 2 * trials
        assert got_fn.calls == want_fn.calls


class TestInfvarStressMatchesLoop:
    """The chunked stress test equals the one-trial-at-a-time loop exactly."""

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(["mean", "mom", "constant", "record"]),
        n=st.integers(1, 300),
        delta=st.floats(1e-3, 0.9),
        alpha=st.floats(0.05, 1.0),
        M=st.floats(1e-3, 1e3),
        p=st.none() | st.floats(1e-4, 0.999),
        trials=st.integers(1, 40),
        seed=st.integers(-(2**70), -1) | st.integers(0, 2**32) | st.integers(2**64, 2**70),
    )
    def test_random_settings(self, kind, n, delta, alpha, M, p, trials, seed):
        _check_against_reference(kind, n, delta, alpha, M, trials, seed, p=p)

    @pytest.mark.parametrize("kind", ["mom", "record"])
    def test_crosses_a_full_chunk(self, kind):
        # 4096 rows per chunk at n = 100: trial 4096 starts the second chunk
        _check_against_reference(kind, 100, 0.05, 1.0, 1.0, 4097, -(2**64) - 5)

    @pytest.mark.parametrize("kind", ["mean", "record"])
    def test_large_n_chunks_of_four(self, kind):
        # 2^22 values per chunk: 4 rows at n = 2^20, so 6 trials make 2 chunks
        _check_against_reference(kind, 2**20, 0.05, 0.5, 2.0, 6, 2**64 + 3, p=3e-6)


class TestLaplaceRatioFloor:
    def test_zero_shift_trivial(self):
        assert laplace_ratio_floor(0.0, 3, [5.0, -2.0, 0.0])

    def test_single_point_at_origin(self):
        # log f_0(0) - log f_1(0) = |0-1| - |0| = 1, well above -1
        assert laplace_ratio_floor(1.0, 1, [0.0])

    def test_boundary_is_exact(self):
        # points far to the right make every term contribute exactly -lam
        lam = 0.7
        assert laplace_ratio_floor(lam, 4, [lam + 1.0] * 4)

    def test_random_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pts = rng.laplace(size=50)
            assert laplace_ratio_floor(0.3, 50, pts)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            laplace_ratio_floor(-0.1, 1, [0.0])
        with pytest.raises(ValueError):
            laplace_ratio_floor(0.5, 3, [0.0])


class TestPoissonPointMass:
    def test_unit_rate(self):
        # pmf at 1 is 1/e, above the 1/4 floor
        assert poisson_point_mass_check(1)

    def test_m_100_with_stirling_cross_check(self):
        assert poisson_point_mass_check(100)
        log_pmf = -100 + 100 * math.log(100) - math.lgamma(101)
        assert math.exp(log_pmf) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 100), abs=1e-4)

    def test_first_thousand(self):
        assert all(poisson_point_mass_check(m) for m in range(1, 1001))

    @pytest.mark.parametrize("m", [3 * 10**14, 7 * 10**14, 10**15, 3 * 10**15, 10**18])
    def test_large_m(self, m):
        # -m + m ln m - lgamma(m + 1) cancels to several nats of error here
        assert poisson_point_mass_check(m)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            poisson_point_mass_check(0)
