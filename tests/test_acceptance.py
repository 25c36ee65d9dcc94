"""End-to-end acceptance battery.

Ten criteria, one test each, ordered from cheap determinism checks to the
long Monte Carlo verifications.  Every test asserts both the statistical
content and a wall-clock budget, so a pass line means the criterion holds
at the stated tolerance and cost.
"""

import math
import os
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from subgauss import (
    KurtosisConfig,
    ExperimentConfig,
    adaptive_family,
    combine,
    exceedance_rate,
    infvar_stress,
    kurtosis_estimate,
    laplace_ratio_floor,
    median_of_means,
    median_of_means_raw,
    mix_seed,
    multiple_delta_estimate,
    normalized_quantile_curve,
    pairwise_block_variance,
    parse_distribution,
    poisson_point_mass_check,
    psi,
    quantile_interval,
    quantile_interval_raw,
    quantile_select,
    run_tail_experiment,
    sample,
    scaled_bernoulli_moment,
    truncated_mean,
    xi_terms,
)
from subgauss.cli import run_cli

MOM_L = 2.0 * math.sqrt(2.0) * math.e


@contextmanager
def budget(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {label}: PASS in {elapsed:.2f} s (budget {seconds:.0f} s)")
    assert elapsed < seconds, f"{label}: {elapsed:.1f} s exceeds {seconds} s budget"


def test_criterion_01_deterministic_unit_examples(tmp_path, capsys):
    with budget("1 unit examples", 1.0):
        # median of means, integer and float-dust confidence levels
        data6 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert median_of_means(data6, math.exp(-2.0)) == 2.0
        assert median_of_means(data6, float(np.exp(-2))) == 2.0
        assert median_of_means([1.0, 2.0, 3.0, 4.0], 0.9) == 2.5
        assert median_of_means([1.0, 2.0, 3.0, 4.0], math.exp(-1.0)) == 2.5
        assert median_of_means_raw(data6, 2) == 2.0

        # order-statistic selection, including the product-dust boundary
        assert quantile_select(list(range(1, 101)), 0.95) == 95
        assert quantile_select([3.0, 1.0, 2.0], 0.5) == 2.0

        # pairwise variance equals the unbiased sample variance
        assert pairwise_block_variance([1.0, 2.0]) == pytest.approx(0.5, rel=1e-9)
        assert pairwise_block_variance([0.0, 0.0, 1.0]) == pytest.approx(
            1.0 / 3.0, rel=1e-9
        )

        # delta-indexed block counts reduce to the raw interval
        x = np.random.default_rng(15).normal(size=800)
        assert quantile_interval(x, 0.05, 1) == quantile_interval_raw(x, 254)
        assert quantile_interval(x, 0.99, 1) == quantile_interval_raw(x, 69)

        # truncation map and truncated mean
        assert psi(0.0, 1.0, 2.0) == 1.0
        assert psi(0.0, 1.0, -5.0) == -1.0
        assert psi(0.0, 1.0, 0.5) == 0.5
        assert truncated_mean([-5.0, 0.25, 3.0], 0.0, 1.0) == pytest.approx(
            0.25 / 3.0, rel=1e-12
        )

        # correction term: closed form, large-n value
        terms = xi_terms(6.0, 10**6, 8)
        xi1 = 36.0 * math.sqrt(6.0 * 8 / 10**6)
        xi2 = 2.0 * math.sqrt(2.0) * 6.0 * 8**1.5 / 10**6 + 1120.0 * math.sqrt(
            6.0
        ) * 8 / 10**6
        assert terms.xi == pytest.approx(xi1 + xi2, rel=1e-12)
        assert terms.xi == pytest.approx(0.271747, abs=1e-5)

        # harness arithmetic
        assert exceedance_rate([1.0, 2.0, 3.0], 2.5) == pytest.approx(1.0 / 3.0)
        assert exceedance_rate([1.0, 2.0, 3.0], 0.0) == 1.0
        assert exceedance_rate([1.0, 2.0, 3.0], 3.0) == 0.0
        ((_, l_hat),) = normalized_quantile_curve(
            [0.1 * i for i in range(1, 101)], 1.0, 100, [0.05]
        )
        assert l_hat == pytest.approx(
            9.5 / math.sqrt((1.0 + math.log(20.0)) / 100.0), rel=1e-12
        )

        # adversarial closed forms
        assert scaled_bernoulli_moment(2.0, 0.25, 1.0) == 0.75
        assert poisson_point_mass_check(1)
        assert laplace_ratio_floor(0.5, 2, [1.0, 2.0])  # exact boundary

        # seed mixing is frozen
        assert mix_seed(0, 0) == 16294208416658607535

        # CLI end to end
        f = tmp_path / "three.txt"
        f.write_text("1\n2\n3\n")
        assert run_cli(["estimate", "--input", str(f), "--estimator", "empirical"]) == 0
        assert capsys.readouterr().out == "2\n"
        g = tmp_path / "six.txt"
        g.write_text("".join(f"{v}\n" for v in range(1, 7)))
        code = run_cli(
            ["estimate", "--input", str(g), "--estimator", "mom", "--delta", "0.1353353"]
        )
        assert code == 0
        assert capsys.readouterr().out == "2\n"


def test_criterion_02_oracle_equivalence():
    with budget("2 oracle equivalence", 5.0):
        rng = np.random.default_rng(202)
        for _ in range(10_000):
            m = int(rng.integers(2, 9))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            block = rng.normal(0.0, scale, size=m)
            brute = sum(
                (block[i] - block[j]) ** 2
                for i in range(m)
                for j in range(i + 1, m)
            ) / (m * (m - 1))
            fast = pairwise_block_variance(block)
            assert abs(fast - brute) <= 1e-12 * brute

        for _ in range(10_000):
            m = int(rng.integers(1, 51))
            values = rng.normal(size=m)
            alpha = float(rng.uniform(0.01, 0.99))
            chosen = quantile_select(values, alpha)
            assert np.count_nonzero(values <= chosen) + 1e-7 >= alpha * m
            assert np.count_nonzero(values >= chosen) + 1e-7 >= (1.0 - alpha) * m


def test_criterion_03_mom_tail_bound():
    with budget("3 median-of-means tail bound", 30.0):
        cfg = ExperimentConfig(
            parse_distribution("gaussian:0,1"), "mom", 1024, 10_000, (0.1, 0.01), seed=303
        )
        report = run_tail_experiment(cfg)
        assert report.metadata["l_target"] == pytest.approx(MOM_L, rel=1e-12)
        for row in report.rows:
            want_radius = MOM_L * math.sqrt((1.0 - math.log(row.delta)) / 1024.0)
            assert row.radius == pytest.approx(want_radius, rel=1e-12)
            slack = 3.0 * math.sqrt(row.delta * (1.0 - row.delta) / 10_000.0)
            assert row.exceedance <= row.delta + slack


def test_criterion_04_block_mean_median_bound():
    with budget("4 median deviation bound", 30.0):
        rng = np.random.default_rng(mix_seed(404, 0))
        means = rng.normal(size=(1_000_000, 10))
        medians = np.partition(means, 4, axis=1)[:, 4]  # rank ceil(10/2), 1-based 5
        for i in range(5):
            assert quantile_select(means[i], 0.5) == medians[i]
        assert np.count_nonzero(np.abs(medians) > 2.0 * math.e) == 0


def test_criterion_05_quantile_interval_coverage_and_length():
    with budget("5 quartile interval coverage", 120.0):
        dist = parse_distribution("laplace:0")
        n, trials, delta = 10_000, 2000, 0.01
        l_star = 4.0 * math.sqrt(
            2.0 * (1.0 + 2.0 * math.log(2.0)) * (1.0 + 62.0 * math.log(3.0))
        ) * math.exp(2.5)
        length_bound = l_star * math.sqrt(dist.sigma2) * math.sqrt((1.0 + math.log(100.0)) / n)
        covered = 0
        short_enough = 0
        for t in range(trials):
            interval = quantile_interval(sample(dist, n, mix_seed(505, t)), delta, 1)
            covered += interval.lo <= dist.mu <= interval.hi
            short_enough += (interval.hi - interval.lo) <= length_bound
        assert covered / trials >= 0.99 - 3.0 * math.sqrt(0.01 * 0.99 / trials)
        assert short_enough >= math.ceil(0.99 * trials)


def test_criterion_06_combined_estimator_every_level():
    with budget("6 combined estimator per-level bounds", 120.0):
        dist = parse_distribution("gaussian:0,1")
        n, trials, delta_min = 4096, 2000, 2.0**-10
        exceed = None
        for t in range(trials):
            s = sample(dist, n, mix_seed(606, t))
            family = adaptive_family(s, delta_min)
            if exceed is None:
                assert family.m == 9  # floor(log2 1024) - 1 levels
                exceed = np.zeros(family.m, dtype=np.int64)
            estimate = combine(family).estimate
            for k, interval in enumerate(family.intervals, start=1):
                radius = 0.5 * (interval.hi - interval.lo)
                exceed[k - 1] += abs(estimate - dist.mu) > radius
        for k in range(1, len(exceed) + 1):
            q = min(2.0 ** (1 - k), 1.0)
            slack = 3.0 * math.sqrt(q * (1.0 - q) / trials)
            assert exceed[k - 1] / trials <= q + slack


def test_criterion_07_kurtosis_pipeline_constant():
    with budget("7 truncated-mean pipeline constant", 600.0):
        student = parse_distribution("student:6")

        cfg_a = ExperimentConfig(
            student,
            "kurtosis",
            65536,
            10_000,
            (0.01,),
            seed=707,
            params={"kappa_bound": 6.0},
            threads=os.cpu_count() or 1,
        )
        report_a = run_tail_experiment(cfg_a)
        (row_a,) = report_a.rows
        want_l = math.sqrt(2.0) * (1.0 + xi_terms(6.0, 65536, 8).xi)
        assert report_a.metadata["l_target"] == pytest.approx(want_l, rel=1e-12)
        want_radius = want_l * math.sqrt(student.sigma2) * math.sqrt((1.0 + math.log(100.0)) / 65536)
        assert row_a.radius == pytest.approx(want_radius, rel=1e-12)
        assert row_a.exceedance <= 0.01

        cfg_b = ExperimentConfig(
            student,
            "kurtosis",
            10**6,
            2000,
            (0.01,),
            seed=708,
            params={"kappa_bound": 6.0},
            threads=os.cpu_count() or 1,
        )
        report_b = run_tail_experiment(cfg_b)
        (row_b,) = report_b.rows
        assert row_b.exceedance <= 0.01
        assert report_b.metadata["l_target"] < MOM_L  # ~1.80 vs ~7.69

        pareto = parse_distribution("pareto:2.5,1")
        shared = dict(n=200, trials=100_000, deltas=(0.01, 0.001), seed=709)
        trunc = run_tail_experiment(ExperimentConfig(pareto, "kurtosis", **shared))
        plain = run_tail_experiment(ExperimentConfig(pareto, "empirical", **shared))
        for trunc_row, plain_row in zip(trunc.rows, plain.rows):
            assert trunc_row.l_hat <= plain_row.l_hat


def test_criterion_08_lower_bound_mechanisms():
    with budget("8 adversarial mechanisms", 60.0):
        trials = 100_000
        fail_plus, fail_minus, match = infvar_stress(
            lambda arr: float(arr.mean()), 100, 0.05, 1.0, 1.0, trials, seed=808
        )
        slack = 3.0 * math.sqrt(match * (1.0 - match) / trials)
        assert max(fail_plus, fail_minus) >= match / 2.0 - slack

        assert all(poisson_point_mass_check(m) for m in range(1, 10_001))

        rng = np.random.default_rng(809)
        for _ in range(100_000):
            n = int(rng.integers(1, 9))
            lam = float(rng.uniform(0.0, 3.0))
            assert laplace_ratio_floor(lam, n, rng.normal(0.0, 2.0, size=n))


def test_criterion_09_affine_equivariance():
    rng = np.random.default_rng(909)

    def check(f, n, count=1000):
        for _ in range(count):
            x = rng.normal(1.0, 2.0, size=n)
            a = 10.0 ** rng.uniform(-2.0, 2.0)
            c = float(rng.uniform(-50.0, 50.0))
            base = f(x, 1.0)
            shifted = f(a * x + c, a)
            tol = 1e-9 * (a * np.abs(x).max() + abs(c) + 1.0)
            assert abs(shifted - (a * base + c)) <= tol

    with budget("9 affine equivariance", 10.0):
        check(lambda x, a: float(x.mean()), 64)
        check(lambda x, a: median_of_means_raw(x, 5), 40)
        check(lambda x, a: median_of_means(x, 0.05), 64)
        check(lambda x, a: quantile_interval_raw(x, 7).lo, 56, count=500)
        check(lambda x, a: quantile_interval_raw(x, 7).hi, 56, count=500)
        check(lambda x, a: quantile_interval(x, 0.3, 1).midpoint, 800)
        check(
            lambda x, a: multiple_delta_estimate(x, "adaptive", delta_min=1.0 / 64), 64
        )
        check(
            lambda x, a: multiple_delta_estimate(
                x, "fixed_sigma", sigma2_hi=4.0 * a * a, delta_min=1.0 / 64
            ),
            64,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check(lambda x, a: kurtosis_estimate(x, KurtosisConfig(5, 6.0)), 40)


def test_criterion_10_thread_count_reproducibility(tmp_path, capsys):
    base = [
        "bench",
        "--dist",
        "gaussian:0,1",
        "--estimator",
        "mom",
        "--n",
        "256",
        "--trials",
        "400",
        "--deltas",
        "0.2,0.05",
        "--seed",
        "11",
    ]
    for fmt in ("csv", "json"):
        blobs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"r{threads}.{fmt}"
            args = base + [
                "--out",
                str(out),
                "--format",
                fmt,
                "--threads",
                str(threads),
            ]
            assert run_cli(args) == 0
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1] == blobs[2]
    print("[acceptance] 10 thread reproducibility: PASS")
