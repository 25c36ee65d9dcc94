import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

import reference as ref

from subgauss import (
    DistributionSpec,
    MomentOverflowError,
    Sample,
    as_values,
    format_distribution,
    parse_distribution,
    regularity_probe,
    sample,
)
from subgauss import distributions, seeding


def test_parse_laplace_moments():
    d = parse_distribution("laplace:3.0")
    assert d.mu == 3.0
    assert d.sigma2 == 2.0
    assert d.kappa == 6.0


def test_parse_constant_moments():
    d = parse_distribution("constant:7")
    assert (d.mu, d.sigma2, d.kappa) == (7.0, 0.0, 1.0)


def test_parse_poisson_moments():
    d = parse_distribution("poisson:1.0")
    assert (d.mu, d.sigma2, d.kappa) == (1.0, 1.0, 4.0)


def test_parse_gaussian_moments():
    d = parse_distribution("gaussian:-1.5,2.0")
    assert d.mu == -1.5
    assert d.sigma2 == 4.0
    assert d.kappa == 3.0


def test_parse_student_moments():
    d = parse_distribution("student:6")
    assert d.mu == 0.0
    assert d.sigma2 == pytest.approx(1.5, rel=1e-15)
    assert d.kappa == pytest.approx(6.0, rel=1e-15)


def test_parse_pareto_is_centered():
    d = parse_distribution("pareto:2.5,1.0")
    assert d.mu == 0.0
    assert d.sigma2 == pytest.approx(2.5 / (1.5**2 * 0.5), rel=1e-12)
    assert math.isinf(d.kappa)


def test_parse_bern2_moments():
    d = parse_distribution("bern2+:2,0.3")
    assert d.mu == pytest.approx(0.6)
    assert d.sigma2 == pytest.approx(4 * 0.3 * 0.7)
    m = parse_distribution("bern2-:2,0.3")
    assert m.mu == pytest.approx(-0.6)
    assert m.sigma2 == d.sigma2
    assert m.kappa == d.kappa


def test_bern2_degenerate_p():
    for s in ("bern2+:1,0", "bern2+:1,1", "bern2-:3,0"):
        d = parse_distribution(s)
        assert d.sigma2 == 0.0
        assert d.kappa == 1.0


@pytest.mark.parametrize(
    "spec, mu",
    [
        ("bern2+:1e300,0", 0.0),
        ("bern2-:1e300,0", -0.0),
        ("bern2+:1e300,-0.0", -0.0),
        ("bern2-:1e300,-0.0", 0.0),
        ("bern2+:1e300,1", 1e300),
        ("bern2-:1e300,1", -1e300),
        ("bern2+:1.7e308,1", 1.7e308),
        # Small C keeps the bits it had: mu = sign*P*C, sigma2 = +0.0.
        ("bern2+:1,-0.0", -0.0),
        ("bern2-:1,0", -0.0),
        ("bern2+:1e-200,0.5", 5e-201),
    ],
)
def test_bern2_degenerate_moments_at_any_c(spec, mu):
    # At P in {0, 1} c * c is not formed, so C = 1e300 (where it overflows
    # and inf * 0 would be NaN) gives the degenerate moments; the variance
    # is +0.0 also at P = -0.0.
    d = parse_distribution(spec)
    assert (d.mu.hex(), d.sigma2.hex(), d.kappa) == (mu.hex(), "0x0.0p+0", 1.0)


def test_bern2_overflowing_variance_still_rejected():
    with pytest.raises(MomentOverflowError, match="bern2"):
        parse_distribution("bern2+:1e300,0.5")


@pytest.mark.parametrize(
    "bad",
    [
        "cauchy:1",
        "gaussian",
        "gaussian:1",
        "gaussian:1,2,3",
        "gaussian:0,0",
        "gaussian:0,-1",
        "poisson:0",
        "poisson:-2",
        "pareto:2,1",
        "pareto:3,0",
        "student:4",
        "student:3.5",
        "lognormal:0,0",
        "bern2+:0,0.5",
        "bern2+:1,1.5",
        "bern2-:1,-0.1",
        "gaussian:1,abc",
        "gaussian:nan,1",
        "laplace:inf",
        "",
        ":3",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


@pytest.mark.parametrize(
    "s",
    [
        "gaussian:0.0,1.0",
        "laplace:3.0",
        "poisson:2.5",
        "pareto:2.5,1.0",
        "student:6.0",
        "lognormal:0.0,0.5",
        "bern2+:2.0,0.3",
        "bern2-:2.0,0.3",
        "constant:7.0",
    ],
)
def test_format_round_trip(s):
    d = parse_distribution(s)
    assert format_distribution(d) == s
    assert parse_distribution(format_distribution(d)) == d


def test_poisson_kappa_against_pmf_sum():
    # brute-force fourth central moment over the pmf, truncated far into
    # the tail
    for lam in (0.5, 1.0, 3.0, 10.0):
        d = parse_distribution(f"poisson:{lam}")
        k = np.arange(0, int(lam + 60 * math.sqrt(lam) + 60))
        logpmf = k * math.log(lam) - lam - scipy.special.gammaln(k + 1)
        pmf = np.exp(logpmf)
        mu4 = float(np.sum(pmf * (k - lam) ** 4))
        assert d.kappa == pytest.approx(mu4 / lam**2, rel=1e-10)


def test_bern2_kappa_against_two_point_sum():
    for c, p in ((2.0, 0.3), (1.0, 0.5), (5.0, 0.9)):
        d = parse_distribution(f"bern2+:{c},{p}")
        mu4 = p * (c - d.mu) ** 4 + (1 - p) * (0.0 - d.mu) ** 4
        assert d.kappa == pytest.approx(mu4 / d.sigma2**2, rel=1e-12)


def test_kappa_against_scipy():
    cases = [
        ("student:6", scipy.stats.t(df=6)),
        ("student:5.5", scipy.stats.t(df=5.5)),
        ("pareto:5,2", scipy.stats.pareto(b=5, scale=2)),
        ("pareto:4.5,1", scipy.stats.pareto(b=4.5)),
        ("lognormal:0,0.5", scipy.stats.lognorm(s=0.5)),
        ("laplace:0", scipy.stats.laplace()),
    ]
    for s, frozen in cases:
        d = parse_distribution(s)
        excess = float(frozen.stats(moments="k"))
        assert d.kappa == pytest.approx(excess + 3.0, rel=1e-9), s


def test_variance_against_scipy():
    cases = [
        ("student:6", scipy.stats.t(df=6)),
        ("pareto:2.5,1", scipy.stats.pareto(b=2.5)),
        ("lognormal:0.3,0.7", scipy.stats.lognorm(s=0.7, scale=math.exp(0.3))),
    ]
    for s, frozen in cases:
        d = parse_distribution(s)
        assert d.sigma2 == pytest.approx(float(frozen.var()), rel=1e-9), s


def test_sample_is_deterministic():
    d = parse_distribution("gaussian:0,1")
    a = sample(d, 1000, 42)
    b = sample(d, 1000, 42)
    assert np.array_equal(a.values, b.values)
    c = sample(d, 1000, 43)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "s",
    [
        "gaussian:1.5,2",
        "laplace:0.5",
        "poisson:3",
        "pareto:2.5,1",
        "pareto:4.5,1e-3",
        "student:6",
        "lognormal:0,1",
        "bern2+:2,0.3",
        "bern2-:2,0.3",
        "constant:1.5",
    ],
)
def test_sample_matches_reference_formula_bit_for_bit(s):
    d = parse_distribution(s)
    for n in (1, 7, 256, 1001):
        for seed in (0, 5, 2**63 + 11):
            got = sample(d, n, seed).values
            want = ref.draw(d, n, np.random.default_rng(seed))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_constant():
    d = parse_distribution("constant:7")
    s = sample(d, 3, 0)
    assert s.values.tolist() == [7.0, 7.0, 7.0]
    assert len(s) == s.n == 3


def test_sample_rejects_bad_n():
    d = parse_distribution("constant:7")
    with pytest.raises(ValueError):
        sample(d, 0, 1)


def test_sample_values_read_only():
    s = sample(parse_distribution("gaussian:0,1"), 10, 5)
    with pytest.raises(ValueError):
        s.values[0] = 99.0


def test_sample_wrapper_validation():
    with pytest.raises(ValueError):
        Sample(np.array([]))
    with pytest.raises(ValueError):
        Sample(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Sample(np.array([[1.0, 2.0]]))
    src = [1.0, 2.0]
    s = Sample(src)
    src[0] = 99.0
    assert s.values[0] == 1.0


def test_as_values_passthrough():
    s = Sample([1.0, 2.0, 3.0])
    assert as_values(s) is s.values
    arr = as_values([4, 5])
    assert arr.dtype == np.float64
    with pytest.raises(ValueError):
        as_values([1.0, math.inf])


MC_N = 1_000_000


@pytest.mark.parametrize(
    "s",
    [
        "gaussian:0,1",
        "gaussian:-2,3",
        "laplace:3.0",
        "poisson:2.5",
        "pareto:2.5,1.0",
        "pareto:5,2",
        "student:6",
        "lognormal:0,0.5",
        "bern2+:2,0.3",
        "bern2-:2,0.3",
        "constant:7",
    ],
)
def test_sampler_matches_stated_mean(s):
    d = parse_distribution(s)
    x = sample(d, MC_N, 2024).values
    se = math.sqrt(d.sigma2 / MC_N)
    assert abs(x.mean() - d.mu) <= 5.0 * se + 1e-12


@pytest.mark.parametrize(
    "s",
    [
        "gaussian:0,1",
        "laplace:3.0",
        "poisson:2.5",
        "pareto:5,2",
        "student:6",
        "lognormal:0,0.5",
        "bern2+:2,0.3",
        "constant:7",
    ],
)
def test_sampler_matches_stated_variance(s):
    # needs a finite fourth moment so the variance estimator has a usable
    # standard error; pareto:2.5 is excluded for that reason
    d = parse_distribution(s)
    x = sample(d, MC_N, 77).values
    dev2 = (x - d.mu) ** 2
    se = dev2.std() / math.sqrt(MC_N)
    assert abs(dev2.mean() - d.sigma2) <= 5.0 * se + 1e-12


@pytest.mark.parametrize("s", ["gaussian:0,1", "laplace:0", "bern2+:2,0.3", "poisson:4"])
def test_sampler_matches_stated_kurtosis(s):
    # families with a finite eighth moment only
    d = parse_distribution(s)
    x = sample(d, MC_N, 3141).values
    dev4 = (x - d.mu) ** 4
    se = dev4.std() / math.sqrt(MC_N)
    assert abs(dev4.mean() - d.kappa * d.sigma2**2) <= 5.0 * se


def test_probe_constant_is_exact():
    d = parse_distribution("constant:7")
    assert regularity_probe(d, 5, 100, 1) == (1.0, 1.0)


def test_probe_laplace_is_symmetric():
    d = parse_distribution("laplace:0")
    lo, hi = regularity_probe(d, 1, 200_000, 9)
    assert abs(lo - 0.5) < 0.006
    assert abs(hi - 0.5) < 0.006


def test_probe_poisson_unit_rate():
    # P(X <= 1) = 2/e and P(X >= 1) = 1 - 1/e; the point mass at the mean
    # counts toward both sides
    d = parse_distribution("poisson:1.0")
    lo, hi = regularity_probe(d, 1, 1_000_000, 11)
    assert abs(lo - 2.0 / math.e) < 0.005
    assert abs(hi - (1.0 - 1.0 / math.e)) < 0.005
    assert lo + hi >= 1.0


def test_probe_sides_cover_everything():
    for s in ("gaussian:1,2", "poisson:3", "bern2-:1,0.2", "pareto:3,1"):
        d = parse_distribution(s)
        for j in (1, 4):
            lo, hi = regularity_probe(d, j, 500, 3)
            assert lo + hi >= 1.0


def test_probe_is_deterministic():
    d = parse_distribution("pareto:2.5,1")
    assert regularity_probe(d, 3, 10_000, 5) == regularity_probe(d, 3, 10_000, 5)


@pytest.mark.parametrize(
    "spec",
    ["gaussian:1.5,2", "laplace:0.5", "poisson:3", "pareto:2.5,1", "student:6",
     "lognormal:0,1", "bern2+:2,0.3", "bern2-:2,0.3", "constant:1.5"],
)
@pytest.mark.parametrize("j", [1, 7, 300])
def test_probe_batches_change_no_output(monkeypatch, spec, j):
    # Batches of _CHUNK_TARGET values continue one stream; 2^23 values
    # draw these trials in one batch.
    d = parse_distribution(spec)
    trials = 300_000 // j + 1
    sizes = []
    real = distributions._draw
    monkeypatch.setattr(
        distributions, "_draw", lambda dist, size, rng: sizes.append(size) or real(dist, size, rng)
    )
    got = regularity_probe(d, j, trials, 17)
    assert len(sizes) > 1 and max(sizes) <= max(j, seeding._CHUNK_TARGET)
    sizes.clear()
    monkeypatch.setattr(seeding, "_CHUNK_TARGET", 1 << 23)
    assert regularity_probe(d, j, trials, 17) == got
    assert sizes == [trials * j]


def test_probe_rejects_bad_args():
    d = parse_distribution("gaussian:0,1")
    with pytest.raises(ValueError):
        regularity_probe(d, 0, 10, 1)
    with pytest.raises(ValueError):
        regularity_probe(d, 1, 0, 1)


def test_spec_rejects_inconsistent_moments():
    with pytest.raises(ValueError):
        DistributionSpec("constant", (1.0,), 1.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        DistributionSpec("gaussian", (0.0, 1.0), 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        DistributionSpec("gaussian", (0.0, 1.0), 0.0, -1.0, 3.0)


@pytest.mark.parametrize(
    "spec",
    [
        "lognormal:0,14",
        "lognormal:800,1",
        "gaussian:1e300,1e300",
        "pareto:3,1e200",
    ],
)
def test_parse_rejects_overflowing_moments(spec):
    with pytest.raises(MomentOverflowError, match=spec):
        parse_distribution(spec)


def test_pareto_kurtosis_is_scale_free():
    # sigma2 of pareto:5,1e100 is about 2e199; the kurtosis must not
    # overflow through powers of the scale.
    big = parse_distribution("pareto:5,1e100")
    assert math.isfinite(big.sigma2)
    assert big.kappa == parse_distribution("pareto:5,1").kappa
    # Unit-scale values, frozen bit for bit.
    assert parse_distribution("pareto:5,1").kappa == 73.8
    assert parse_distribution("pareto:6,1").kappa == 38.66666666666611
    assert parse_distribution("pareto:10.5,1").kappa == 17.099633699630424


def test_spec_rejects_non_finite_mean_or_variance():
    bad = [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan)]
    for mu, sigma2 in bad:
        with pytest.raises(ValueError, match="must be finite"):
            DistributionSpec("gaussian", (0.0, 1.0), mu, sigma2, 3.0)
    with pytest.raises(ValueError):
        DistributionSpec("gaussian", (0.0, 1.0), 0.0, 1.0, math.nan)
    # an infinite kurtosis stays legal (pareto with alpha <= 4)
    assert DistributionSpec("pareto", (3.0, 1.0), 0.0, 0.75, math.inf).kappa == math.inf
