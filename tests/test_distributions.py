import inspect
import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats

import reference as ref

from subgauss import (
    DistributionSpec,
    ExperimentConfig,
    KurtosisConfig,
    MomentOverflowError,
    Sample,
    as_values,
    coupled_scaled_bernoulli,
    format_distribution,
    infvar_stress,
    normalized_quantile_curve,
    parse_distribution,
    poisson_point_mass_check,
    quantile_interval,
    regularity_probe,
    run_tail_experiment,
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
    monkeypatch.setattr(seeding, "_MAX_CHUNK_TRIALS", 1 << 23)
    assert regularity_probe(d, j, trials, 17) == got
    assert sizes == [trials * j]


def test_probe_rejects_bad_args():
    d = parse_distribution("gaussian:0,1")
    with pytest.raises(ValueError):
        regularity_probe(d, 0, 10, 1)
    with pytest.raises(ValueError):
        regularity_probe(d, 1, 0, 1)


@pytest.mark.parametrize("spec", ["gaussian:9e307,1", "gaussian:1e308,1", "laplace:1e308"])
def test_probe_rejects_overflowing_j_mu(spec):
    # j * mu is inf, and inf <= inf would count every sum on both sides.
    with pytest.raises(ValueError, match=r"^j\*mu overflows float64"):
        regularity_probe(parse_distribution(spec), 2, 1000, 1)


def test_probe_rejects_overflowing_sums():
    # A hand-built spec whose mu is finite but whose 100-fold sums are not.
    wide = DistributionSpec("gaussian", (0.0, 1e307), 0.0, 1.0, 3.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^a 100-fold sum overflows"):
        regularity_probe(wide, 100, 10, 1)


# The draw entry points, by their integer arguments and those arguments' defaults.
DRAW_ENTRY_POINTS = {
    "sample": lambda n=5, seed=1: sample(parse_distribution("gaussian:0,1"), n, seed).values.tolist(),
    "coupled": lambda n=10, seed=1: coupled_scaled_bernoulli(1.0, 0.1, n, seed).x.values.tolist(),
    "stress": lambda n=100, trials=5, seed=1: infvar_stress(np.mean, n, 0.05, 1.0, 1.0, trials, seed),
    "probe": lambda j=3, trials=10, seed=1: regularity_probe(
        parse_distribution("gaussian:0,1"), j, trials, seed),
}


@pytest.mark.parametrize(
    "entry, name, value",
    [("sample", "n", 5.5), ("sample", "seed", 1.5), ("coupled", "n", 10.5),
     ("coupled", "seed", 1.5), ("stress", "n", 100.5), ("stress", "trials", 5.5),
     ("stress", "seed", 1.5), ("stress", "seed", "7"), ("probe", "j", 2.5),
     ("probe", "trials", 10.5), ("probe", "seed", 1.5)],
)
def test_draw_counts_must_be_integers(entry, name, value):
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        DRAW_ENTRY_POINTS[entry](**{name: value})


@pytest.mark.parametrize("entry", ["sample", "coupled", "probe"])
def test_stream_seeds_must_be_nonnegative(entry):
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        DRAW_ENTRY_POINTS[entry](seed=-1)


def test_seeds_of_2_to_the_64_keep_their_stream():
    big = 2**64 + 5
    want = np.random.default_rng(big).standard_normal(5).tolist()
    assert DRAW_ENTRY_POINTS["sample"](seed=big) == want


def _experiment(estimator="mom", params=None, **counts):
    args = {"n": 64, "trials": 10, "deltas": (0.5,), "seed": 1, **counts}
    return run_tail_experiment(
        ExperimentConfig(parse_distribution("gaussian:0,1"), estimator, params=params or {},
                         **args))


def test_master_seeds_may_be_negative():
    # mix_seed reduces a master seed mod 2^64, so -1 and 2^64 - 1 run the same trials.
    assert _experiment(seed=-1).rows == _experiment(seed=2**64 - 1).rows


# Every count of the library, by one call that takes it; the label ends in its name.
COUNTS = {
    "experiment n": lambda v: _experiment(n=v),
    "experiment trials": lambda v: _experiment(trials=v),
    "experiment threads": lambda v: _experiment(threads=v),
    "experiment error_cap": lambda v: _experiment(error_cap=v),
    "experiment kurtosis b_max": lambda v: _experiment("kurtosis", {"b_max": v}, n=600),
    "curve n": lambda v: normalized_quantile_curve([1.0, 2.0], 1.0, v, [0.1]),
    "sample n": lambda v: DRAW_ENTRY_POINTS["sample"](n=v),
    "probe j": lambda v: DRAW_ENTRY_POINTS["probe"](j=v),
    "probe trials": lambda v: DRAW_ENTRY_POINTS["probe"](trials=v),
    "coupled n": lambda v: DRAW_ENTRY_POINTS["coupled"](n=v),
    "stress n": lambda v: DRAW_ENTRY_POINTS["stress"](n=v),
    "stress trials": lambda v: DRAW_ENTRY_POINTS["stress"](trials=v),
    "poisson m": poisson_point_mass_check,
    "KurtosisConfig b_max": lambda v: KurtosisConfig(v, 9.0),
    "quantile_interval k": lambda v: quantile_interval(np.zeros(600), 0.5, v),
}


@pytest.mark.parametrize("label", COUNTS)
@pytest.mark.parametrize("value", [0, -1, 2.5])
def test_every_count_follows_one_rule(label, value):
    name = label.split()[-1]
    message = f"^{name} must be >= 1$" if value < 1 else f"^{name} must be an integer, got 2\\.5$"
    with pytest.raises(ValueError, match=message):
        COUNTS[label](value)


@pytest.mark.parametrize("entry", DRAW_ENTRY_POINTS)
@pytest.mark.parametrize("cast", [float, np.float64, np.int64], ids=lambda c: c.__name__)
def test_integral_draw_counts_are_ints(entry, cast):
    call = DRAW_ENTRY_POINTS[entry]
    defaults = {k: p.default for k, p in inspect.signature(call).parameters.items()}
    assert call(**{k: cast(v) for k, v in defaults.items()}) == call()


def test_unknown_family_is_a_value_error():
    # A hand-built spec of no family fails before any draw, whether or not
    # a delta of the experiment is valid.
    nope = DistributionSpec("nope", (1.0,), 0.0, 1.0, 3.0)
    calls = [
        lambda: sample(nope, 3, 1),
        lambda: format_distribution(nope),
        lambda: run_tail_experiment(ExperimentConfig(nope, "empirical", 3, 5, (0.5,), seed=1)),
        lambda: run_tail_experiment(ExperimentConfig(nope, "mom", 8, 5, (1e-3,), seed=1)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^unknown family 'nope'$"):
            call()


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
