import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import subgauss.harness as harness_module
from subgauss import _batch, seeding
from subgauss import (
    ExperimentConfig,
    KurtosisConfig,
    TailReport,
    TailRow,
    exceedance_rate,
    kurtosis_estimate,
    median_of_means,
    mix_seed,
    multiple_delta_estimate,
    normalized_quantile_curve,
    parse_distribution,
    quantile_interval,
    read_report,
    run_tail_experiment,
    sample,
    write_report,
    xi_terms,
)

GAUSS = parse_distribution("gaussian:0.5,2")


def drop_volatile(meta):
    return {k: v for k, v in meta.items() if k not in ("threads",)}


def rank_quantile(errors, delta):
    t = len(errors)
    r = min(max(math.ceil((1.0 - delta) * t - 1e-9), 1), t)
    return float(np.partition(np.asarray(errors, dtype=float), r - 1)[r - 1])


def reference_rows(report, errors_per_delta):
    """Recompute exceedance and quantile_error from per-trial errors."""
    meta = report.metadata
    sigma = meta["sigma"]
    n = meta["n"]
    out = []
    for row, errs in zip(report.rows, errors_per_delta):
        denom = sigma * math.sqrt((1.0 - math.log(row.delta)) / n)
        radius = meta["l_target"] * denom
        exceed = float(np.mean(np.asarray(errs) > radius))
        q = rank_quantile(errs, row.delta)
        out.append((exceed, q, q / denom if sigma > 0 else 0.0))
    return out


class TestAgainstReferenceEstimators:
    """The vectorized engine must reproduce the one-sample-at-a-time ops."""

    def check(self, config, per_trial):
        report = run_tail_experiment(config)
        mu = config.dist.mu
        errors = []
        for t in range(config.trials):
            s = sample(config.dist, config.n, mix_seed(config.seed, t))
            errors.append(abs(per_trial(s) - mu))
        refs = reference_rows(report, [errors] * len(config.deltas))
        for row, (exceed, q, l_hat) in zip(report.rows, refs):
            assert row.exceedance == exceed
            assert row.quantile_error == pytest.approx(q, rel=1e-9)
            assert row.l_hat == pytest.approx(l_hat, rel=1e-9)

    def check_per_delta(self, config, per_trial_delta):
        report = run_tail_experiment(config)
        mu = config.dist.mu
        per_delta = []
        for d in config.deltas:
            errs = []
            for t in range(config.trials):
                s = sample(config.dist, config.n, mix_seed(config.seed, t))
                errs.append(abs(per_trial_delta(s, d) - mu))
            per_delta.append(errs)
        refs = reference_rows(report, per_delta)
        for row, (exceed, q, l_hat) in zip(report.rows, refs):
            assert row.exceedance == exceed
            assert row.quantile_error == pytest.approx(q, rel=1e-9)
            assert row.l_hat == pytest.approx(l_hat, rel=1e-9)

    def test_empirical(self):
        cfg = ExperimentConfig(GAUSS, "empirical", 96, 64, (0.2, 0.05), seed=101)
        self.check(cfg, lambda s: float(s.values.mean()))

    def test_mom(self):
        cfg = ExperimentConfig(GAUSS, "mom", 96, 64, (0.3, 0.05, 0.004), seed=102)
        self.check_per_delta(cfg, median_of_means)

    def test_quantile_kreg(self):
        cfg = ExperimentConfig(GAUSS, "quantile_kreg", 800, 40, (0.3, 0.1), seed=103)
        self.check_per_delta(cfg, lambda s, d: quantile_interval(s, d, 1).midpoint)

    def test_combined_fixed_sigma(self):
        cfg = ExperimentConfig(
            GAUSS,
            "combined_fixed_sigma",
            96,
            64,
            (0.3, 0.05),
            seed=104,
            params={"sigma2_hi": 4.0, "delta_min": 2.0**-6},
        )
        self.check(
            cfg,
            lambda s: multiple_delta_estimate(
                s, "fixed_sigma", sigma2_hi=4.0, delta_min=2.0**-6
            ),
        )

    def test_combined_adaptive(self):
        cfg = ExperimentConfig(
            GAUSS,
            "combined_adaptive",
            96,
            64,
            (0.3, 0.05),
            seed=105,
            params={"delta_min": 2.0**-6},
        )
        self.check(
            cfg, lambda s: multiple_delta_estimate(s, "adaptive", delta_min=2.0**-6)
        )

    def test_kurtosis(self):
        cfg = ExperimentConfig(
            GAUSS,
            "kurtosis",
            96,
            64,
            (0.3, 0.05),
            seed=106,
            params={"b_max": 6, "kappa_bound": 3.0},
        )

        def ref(s):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return kurtosis_estimate(s, KurtosisConfig(6, 3.0))

        self.check(cfg, ref)


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        cfg = ExperimentConfig(GAUSS, "mom", 128, 200, (0.1, 0.01), seed=7)
        a = run_tail_experiment(cfg)
        b = run_tail_experiment(cfg)
        assert a.rows == b.rows
        assert drop_volatile(a.metadata) == drop_volatile(b.metadata)

    def test_thread_count_never_changes_rows(self):
        # trials span several chunks so the merge order is exercised
        for threads in (2, 4, 7):
            base = ExperimentConfig(GAUSS, "empirical", 4096, 2100, (0.1, 0.02), seed=8)
            multi = ExperimentConfig(
                GAUSS, "empirical", 4096, 2100, (0.1, 0.02), seed=8, threads=threads
            )
            a = run_tail_experiment(base)
            b = run_tail_experiment(multi)
            assert a.rows == b.rows
            assert drop_volatile(a.metadata) == drop_volatile(b.metadata)

    def test_thread_count_never_changes_files(self, tmp_path):
        cfg1 = ExperimentConfig(GAUSS, "mom", 512, 900, (0.1, 0.02), seed=9)
        cfg8 = ExperimentConfig(GAUSS, "mom", 512, 900, (0.1, 0.02), seed=9, threads=8)
        p1, p8 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(run_tail_experiment(cfg1), "csv", p1)
        write_report(run_tail_experiment(cfg8), "csv", p8)
        assert p1.read_bytes() == p8.read_bytes()


class TestTrivialAndFlaggedRows:
    def test_constant_distribution_all_zero(self):
        cfg = ExperimentConfig(
            parse_distribution("constant:7"), "empirical", 32, 300, (0.2, 0.05), seed=1
        )
        for row in run_tail_experiment(cfg).rows:
            assert row.exceedance == 0.0
            assert row.quantile_error == 0.0
            assert row.l_hat == 0.0
            assert row.flag == "degenerate"

    @pytest.mark.parametrize("estimator", ["mom", "empirical", "kurtosis"])
    def test_sigma_zero_rows_are_flagged(self, estimator):
        # 0.1 is not a sum of powers of two, so block sums round: with a
        # radius of 0 the rounding alone makes exceedances.
        cfg = ExperimentConfig(
            parse_distribution("constant:0.1"), estimator, 1000, 2000, (0.1, 0.01), seed=1
        )
        rows = run_tail_experiment(cfg).rows
        assert any(row.exceedance > 0.0 for row in rows)
        assert [row.flag for row in rows] == ["degenerate", "degenerate"]

    def test_invalid_delta_rows_are_nan(self):
        # n=10 caps mom at delta >= e^-4; 0.001 is far below
        cfg = ExperimentConfig(GAUSS, "mom", 10, 50, (0.5, 0.001), seed=2)
        rows = run_tail_experiment(cfg).rows
        assert rows[0].flag == ""
        assert rows[1].flag == "invalid_delta"
        assert math.isnan(rows[1].radius)
        assert math.isnan(rows[1].exceedance)
        assert math.isnan(rows[1].quantile_error)
        assert math.isnan(rows[1].l_hat)

    def test_undersampled_flag(self):
        cfg = ExperimentConfig(GAUSS, "empirical", 16, 50, (0.5, 0.1), seed=3)
        rows = run_tail_experiment(cfg).rows
        assert rows[0].flag == ""
        assert rows[1].flag == "undersampled"  # 0.1 * 50 = 5 < 10

    def test_below_delta_min_still_computed(self):
        cfg = ExperimentConfig(
            GAUSS,
            "combined_adaptive",
            256,
            60,
            (0.25, 0.0005),
            seed=4,
            params={"delta_min": 2.0**-10},
        )
        rows = run_tail_experiment(cfg).rows
        assert rows[0].flag == ""
        assert "below_delta_min" in rows[1].flag
        assert "undersampled" in rows[1].flag
        assert math.isfinite(rows[1].exceedance)

    def test_kurtosis_guarantee_floor_flag(self):
        # (4e/(e-2)) e^-8 is about 0.00508
        cfg = ExperimentConfig(
            parse_distribution("student:6"),
            "kurtosis",
            64,
            2600,
            (0.06, 0.004),
            seed=5,
        )
        rows = run_tail_experiment(cfg).rows
        assert rows[0].flag == ""
        assert rows[1].flag == "below_delta_min"


class TestNonFiniteErrors:
    def test_overflowing_row_sums_are_flagged(self):
        # Every row sum of 256 values near 1e308 overflows to inf.
        dist = parse_distribution("gaussian:1e308,1")
        for cap in (10_000_000, 7):
            cfg = ExperimentConfig(dist, "empirical", 256, 50, (0.5, 0.3), seed=12, error_cap=cap)
            with np.errstate(over="ignore"):
                rows = run_tail_experiment(cfg).rows
            for row in rows:
                assert row.flag.split("+")[-1] == "nonfinite"
                assert row.exceedance == 1.0

    def test_nan_in_a_trial_left_out_of_the_subsample_still_flags(self, monkeypatch):
        real = _batch.truncated_pipeline_rows
        calls = []
        trials, cap = 2100, 37
        shapes = [t1 - t0 for t0, t1 in seeding.chunk_bounds(trials, 2048)]
        assert len(shapes) > 1

        def poisoned(chunk, b_max):
            vals = real(chunk, b_max)
            calls.append(chunk.shape[0])
            if len(calls) == len(shapes):
                vals[-1] = math.nan  # trial 2099, last row of the last chunk
            return vals

        monkeypatch.setattr(_batch, "truncated_pipeline_rows", poisoned)
        assert 2099 not in (np.arange(cap) * trials) // cap
        for error_cap, flag in ((cap, "subsampled_quantile+nonfinite"), (trials, "nonfinite")):
            calls.clear()
            cfg = ExperimentConfig(
                GAUSS, "kurtosis", 2048, trials, (0.3, 0.05), seed=13, error_cap=error_cap
            )
            rows = run_tail_experiment(cfg).rows
            assert calls == shapes
            assert [row.flag for row in rows] == [flag, flag]


class TestChunkDraws:
    SPECS = (
        "gaussian:1.5,2",
        "laplace:0.5",
        "poisson:3",
        "pareto:2.5,1",
        "student:6",
        "lognormal:0,1",
        "bern2+:2,0.3",
        "bern2-:2,0.3",
        "constant:1.5",
    )

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("n", [1, 5])
    def test_chunk_rows_equal_one_trial_samples(self, monkeypatch, spec, n):
        # 4097 trials: a full 4096-row chunk at n=1 and one more row.
        blocks = []
        real = harness_module._draw_chunk

        def recording(*args):
            block = real(*args)
            blocks.append(block.copy())
            return block

        monkeypatch.setattr(harness_module, "_draw_chunk", recording)
        dist = parse_distribution(spec)
        trials, seed = 4097, 2**40 + 3
        run_tail_experiment(ExperimentConfig(dist, "empirical", n, trials, (0.5,), seed=seed))
        rows = np.concatenate(blocks)
        assert rows.shape == (trials, n)
        for t in range(trials):
            want = sample(dist, n, mix_seed(seed, t)).values
            assert np.array_equal(rows[t].view(np.uint64), want.view(np.uint64))  # every bit

    def test_deltas_of_one_block_count_share_a_kernel_call(self, monkeypatch):
        # mom plans b = 2 at both deltas; 2100 trials of 256 are three chunks.
        calls = []
        real = _batch.mom_rows

        def counting(chunk, b):
            calls.append(b)
            return real(chunk, b)

        monkeypatch.setattr(_batch, "mom_rows", counting)

        def rows(deltas):
            cfg = ExperimentConfig(GAUSS, "mom", 256, 2100, deltas, seed=14, error_cap=700)
            return [repr(row) for row in run_tail_experiment(cfg).rows]

        shared = rows((0.25, 0.3))
        assert calls == [2, 2, 2]
        assert shared == rows((0.25,)) + rows((0.3,))

    def test_no_valid_delta_draws_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(harness_module, "_draw_chunk", no_draw)
        cfg = ExperimentConfig(GAUSS, "mom", 8, 50, (1e-3, 1e-2), seed=1)
        rows = run_tail_experiment(cfg).rows
        assert [(row.delta, row.flag) for row in rows] == [
            (1e-3, "invalid_delta"), (1e-2, "invalid_delta")
        ]
        for row in rows:
            assert all(math.isnan(getattr(row, c)) for c in ("radius", "exceedance", "l_hat"))


class TestChunkLayout:
    """The chunk size sets memory, never report bytes: exceedances are
    integer sums, kept errors are stored by trial index and every kernel
    works per row."""

    LOGNORMAL = parse_distribution("lognormal:0,1")

    @pytest.mark.parametrize(
        "estimator, params, error_cap",
        [("mom", {}, ExperimentConfig.error_cap), ("kurtosis", {}, ExperimentConfig.error_cap),
         ("combined_adaptive", {"delta_min": 2.0**-8}, 97)],
    )
    def test_chunk_target_changes_no_report_byte(
        self, monkeypatch, tmp_path, estimator, params, error_cap
    ):
        # n * trials = 600 * 2^10 values: 150 chunks at 2^12, 3 at 2^18, 1 at 2^22.
        def report_bytes(target, threads):
            monkeypatch.setattr(seeding, "_CHUNK_TARGET", target)
            cfg = ExperimentConfig(
                self.LOGNORMAL, estimator, 1024, 600, (0.3, 0.05, 0.01), seed=21,
                threads=threads, params=params, error_cap=error_cap,
            )
            report = run_tail_experiment(cfg)
            out = []
            for fmt in ("csv", "json"):
                path = tmp_path / f"r.{fmt}"
                write_report(report, fmt, path)
                out.append(path.read_bytes())
            return out

        want = report_bytes(1 << 22, 1)
        for target in (1 << 12, 1 << 18, 1 << 22):
            for threads in (1, 2):
                assert report_bytes(target, threads) == want, (target, threads)

    @pytest.mark.parametrize(
        "estimator, params", [("combined_adaptive", {}), ("kurtosis", {"kappa_bound": 1e6})]
    )
    def test_traced_peak_is_about_one_chunk_and_one_scratch(self, estimator, params):
        # 64 rows of 16384: four 2 MB chunks, each scored through one 2 MB scratch.
        cfg = ExperimentConfig(
            parse_distribution("student:6"), estimator, 16384, 64, (0.1, 0.01), seed=3,
            params=params,
        )
        run_tail_experiment(cfg)  # fill the layout caches
        tracemalloc.start()
        try:
            run_tail_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20


class TestSubsampling:
    def test_exceedance_exact_beyond_cap(self):
        full = ExperimentConfig(GAUSS, "empirical", 16, 500, (0.3, 0.05), seed=6)
        capped = ExperimentConfig(
            GAUSS, "empirical", 16, 500, (0.3, 0.05), seed=6, error_cap=100
        )
        a = run_tail_experiment(full)
        b = run_tail_experiment(capped)
        for ra, rb in zip(a.rows, b.rows):
            assert rb.exceedance == ra.exceedance
            assert rb.flag.endswith("subsampled_quantile")
            assert ra.flag == ""

    def test_quantile_comes_from_stratified_subsample(self):
        trials, cap = 500, 100
        cfg = ExperimentConfig(
            GAUSS, "empirical", 16, trials, (0.3,), seed=6, error_cap=cap
        )
        report = run_tail_experiment(cfg)
        errors = np.array(
            [
                abs(float(sample(GAUSS, 16, mix_seed(6, t)).values.mean()) - GAUSS.mu)
                for t in range(trials)
            ]
        )
        keep = (np.arange(cap) * trials) // cap
        want = rank_quantile(errors[keep], 0.3)
        assert report.rows[0].quantile_error == pytest.approx(want, rel=1e-12)

    def test_multi_chunk_subsample_counts(self):
        full = ExperimentConfig(GAUSS, "empirical", 4096, 2100, (0.1,), seed=10)
        capped = ExperimentConfig(
            GAUSS, "empirical", 4096, 2100, (0.1,), seed=10, error_cap=37
        )
        assert (
            run_tail_experiment(capped).rows[0].exceedance
            == run_tail_experiment(full).rows[0].exceedance
        )


class TestConfigValidation:
    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            run_tail_experiment(ExperimentConfig(GAUSS, "mean", 16, 10, (0.1,), seed=1))

    def test_unknown_param_key(self):
        cfg = ExperimentConfig(GAUSS, "mom", 16, 10, (0.1,), seed=1, params={"b": 3})
        with pytest.raises(ValueError):
            run_tail_experiment(cfg)

    def test_missing_sigma2_hi(self):
        cfg = ExperimentConfig(GAUSS, "combined_fixed_sigma", 64, 10, (0.1,), seed=1)
        with pytest.raises(ValueError):
            run_tail_experiment(cfg)

    @pytest.mark.parametrize("sigma2_hi", [math.inf, math.nan])
    def test_non_finite_sigma2_hi(self, sigma2_hi):
        cfg = ExperimentConfig(
            GAUSS, "combined_fixed_sigma", 64, 10, (0.1,), seed=1,
            params={"sigma2_hi": sigma2_hi},
        )
        with pytest.raises(ValueError, match="sigma2_hi must be finite and > 0"):
            run_tail_experiment(cfg)

    @pytest.mark.parametrize(
        "estimator,params",
        [
            ("combined_fixed_sigma", {"sigma2_hi": 4.0, "delta_min": 0.0}),
            ("combined_adaptive", {"delta_min": 0.0}),
        ],
    )
    def test_zero_delta_min_with_underflowing_floor(self, estimator, params):
        cfg = ExperimentConfig(GAUSS, estimator, 2000, 10, (0.1,), seed=1, params=params)
        with pytest.raises(ValueError, match=r"valid range \[exp\(-999\.0\), 1\)"):
            run_tail_experiment(cfg)

    def test_bad_deltas(self):
        for deltas in ((0.0,), (1.0,), (0.1, 0.1), (0.1, 0.5, 0.2)):
            cfg = ExperimentConfig(GAUSS, "empirical", 16, 10, deltas, seed=1)
            with pytest.raises(ValueError):
                run_tail_experiment(cfg)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            run_tail_experiment(ExperimentConfig(GAUSS, "empirical", 0, 10, (0.1,), seed=1))
        with pytest.raises(ValueError):
            run_tail_experiment(ExperimentConfig(GAUSS, "empirical", 16, 0, (0.1,), seed=1))
        with pytest.raises(ValueError):
            run_tail_experiment(
                ExperimentConfig(GAUSS, "empirical", 16, 10, (0.1,), seed=1, threads=0)
            )
        with pytest.raises(ValueError):
            run_tail_experiment(
                ExperimentConfig(GAUSS, "empirical", 16, 10, (0.1,), seed=1, error_cap=0)
            )

    def test_l_target_override(self):
        cfg = ExperimentConfig(
            GAUSS, "empirical", 16, 20, (0.1,), seed=1, params={"l_target": 9.0}
        )
        assert run_tail_experiment(cfg).metadata["l_target"] == 9.0
        bad = ExperimentConfig(
            GAUSS, "empirical", 16, 20, (0.1,), seed=1, params={"l_target": -1.0}
        )
        with pytest.raises(ValueError):
            run_tail_experiment(bad)

    @pytest.mark.parametrize(
        "estimator,name,value",
        [("kurtosis", "b_max", 2.5), ("quantile_kreg", "k_reg", 1.5), ("empirical", "n", 256.9),
         ("empirical", "trials", 20.7), ("empirical", "threads", 1.5), ("empirical", "seed", 1.5),
         ("empirical", "error_cap", 10.5)],
    )
    def test_counts_must_be_integers(self, estimator, name, value):
        cfg = ExperimentConfig(GAUSS, estimator, 256, 20, (0.1,), seed=1)
        if name in ("n", "trials", "threads", "seed", "error_cap"):
            cfg = dataclasses.replace(cfg, **{name: value})
        else:
            cfg = dataclasses.replace(cfg, params={name: value})
        message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            run_tail_experiment(cfg)

    @pytest.mark.parametrize("three", [3.0, np.float64(3), np.int64(3)], ids=repr)
    def test_integral_counts_are_ints(self, three):
        def report(**counts):
            cfg = ExperimentConfig(GAUSS, "kurtosis", 256, 20, (0.1,), seed=1)
            out = run_tail_experiment(dataclasses.replace(cfg, **counts))
            return out.rows, json.dumps(out.metadata)

        assert report(params={"b_max": three}) == report(params={"b_max": 3})
        assert report(n=256 * three // 3, trials=20 * three // 3) == report()
        assert report(seed=three, threads=three, error_cap=10 * three // 3) == report(
            seed=3, threads=3, error_cap=10
        )

    def test_mom_needs_four_points(self):
        with pytest.raises(ValueError):
            run_tail_experiment(ExperimentConfig(GAUSS, "mom", 3, 10, (0.5,), seed=1))


class TestLTargetDefaults:
    def run_meta(self, estimator, dist=GAUSS, n=4096, **params):
        cfg = ExperimentConfig(dist, estimator, n, 1, (0.5,), seed=1, params=params)
        return run_tail_experiment(cfg).metadata

    def test_empirical(self):
        assert self.run_meta("empirical")["l_target"] == pytest.approx(math.sqrt(2.0))

    def test_mom(self):
        assert self.run_meta("mom")["l_target"] == pytest.approx(
            2.0 * math.sqrt(2.0) * math.e
        )

    def test_quantile_kreg(self):
        d = 0.25 * math.log(0.75) + 0.75 * math.log(1.125)
        want = 2.0 * math.exp(2.0 * d + 0.5) * math.sqrt(2.0 * (1.0 + 62.0 * math.log(3.0)))
        assert self.run_meta("quantile_kreg")["l_target"] == pytest.approx(want, rel=1e-12)

    def test_combined_fixed_sigma(self):
        meta = self.run_meta("combined_fixed_sigma", sigma2_hi=16.0)
        want = (
            4.0
            * math.sqrt(2.0)
            * math.e
            * math.sqrt(1.0 + 2.0 * math.log(2.0))
            * math.sqrt(16.0 / 4.0)
        )
        assert meta["l_target"] == pytest.approx(want, rel=1e-12)

    def test_combined_adaptive(self):
        want = 8.0 * math.sqrt(3.0) * math.e * math.sqrt(1.0 + 2.0 * math.log(2.0))
        assert self.run_meta("combined_adaptive")["l_target"] == pytest.approx(want, rel=1e-12)

    def test_kurtosis_uses_xi(self):
        meta = self.run_meta("kurtosis", dist=parse_distribution("student:6"), n=65536)
        want = math.sqrt(2.0) * (1.0 + xi_terms(6.0, 65536, 8).xi)
        assert meta["l_target"] == pytest.approx(want, rel=1e-12)

    def test_kurtosis_infinite_kappa(self):
        meta = self.run_meta("kurtosis", dist=parse_distribution("pareto:2.5,1"), n=64)
        assert meta["l_target"] == math.inf
        # infinite radius can never be exceeded



def _readme_menu() -> dict:
    """README's estimator menu: row name -> its constant L cell."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## The estimator menu", 1)[1]
    lines = table.strip().split("\n\n", 1)[0].splitlines()[2:]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
    return {row[0]: row[3] for row in cells}


def test_readme_menu_states_the_planned_constants():
    dist, n = parse_distribution("gaussian:0,1"), 65536

    def planned(estimator, **raw):
        p = harness_module._resolve_params(estimator, dist, raw)
        return harness_module._SPECS[estimator][1](dist, n, p)[3]

    menu = _readme_menu()
    assert set(menu) == {
        "empirical mean", "median of means", "quartile interval",
        "combined, known variance bound", "combined, adaptive", "truncated mean",
    }
    assert planned("empirical") == math.sqrt(2.0)
    assert menu["empirical mean"].startswith("sqrt(2) ")
    assert menu["median of means"] == f"2 sqrt(2) e = {planned('mom'):.2f}"
    kreg = planned("quantile_kreg", k_reg=1)
    assert planned("quantile_kreg", k_reg=4) == pytest.approx(2.0 * kreg, rel=1e-12)
    assert menu["quartile interval"].startswith(f"{kreg:.2f} sqrt(k) ")
    fixed = planned("combined_fixed_sigma", sigma2_hi=1.0)
    assert planned("combined_fixed_sigma", sigma2_hi=9.0) == pytest.approx(3.0 * fixed, rel=1e-12)
    assert menu["combined, known variance bound"].startswith(
        f"{fixed:.2f} sqrt(sigma2_hi / sigma2),"
    )
    assert menu["combined, adaptive"].startswith(f"{planned('combined_adaptive'):.2f},")
    xi = xi_terms(3.0, n, 8).xi
    assert planned("kurtosis") == pytest.approx(math.sqrt(2.0) * (1.0 + xi), rel=1e-12)
    assert menu["truncated mean"].startswith("sqrt(2)(1 + xi),")


class TestExceedanceRate:
    def test_examples(self):
        assert exceedance_rate([1.0, 2.0, 3.0], 2.5) == pytest.approx(1.0 / 3.0)
        assert exceedance_rate([1.0, 2.0, 3.0], 0.0) == 1.0
        assert exceedance_rate([1.0, 2.0, 3.0], 3.0) == 0.0  # strict

    def test_monotone_in_radius(self):
        errs = np.random.default_rng(20).exponential(size=100)
        rates = [exceedance_rate(errs, r) for r in np.linspace(0, 5, 40)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exceedance_rate([], 1.0)


class TestNormalizedQuantileCurve:
    def test_arithmetic_example(self):
        errors = [0.1 * i for i in range(1, 101)]
        ((d, l_hat),) = normalized_quantile_curve(errors, 1.0, 100, [0.05])
        assert d == 0.05
        denom = math.sqrt((1.0 + math.log(20.0)) / 100.0)
        assert l_hat == pytest.approx(9.5 / denom, rel=1e-12)
        assert l_hat == pytest.approx(47.52, abs=0.02)

    def test_all_zero_errors(self):
        curve = normalized_quantile_curve([0.0] * 50, 1.0, 100, [0.5, 0.1])
        assert all(l_hat == 0.0 for _, l_hat in curve)

    def test_scaling_linearity(self):
        errs = np.random.default_rng(21).exponential(size=200)
        base = normalized_quantile_curve(errs, 1.0, 64, [0.3, 0.1])
        scaled = normalized_quantile_curve(7.0 * errs, 1.0, 64, [0.3, 0.1])
        for (_, a), (_, b) in zip(base, scaled):
            assert b == pytest.approx(7.0 * a, rel=1e-12)

    def test_rejects_zero_sigma_and_bad_delta(self):
        with pytest.raises(ValueError):
            normalized_quantile_curve([1.0], 0.0, 10, [0.1])
        with pytest.raises(ValueError):
            normalized_quantile_curve([1.0], 1.0, 10, [1.5])

    def test_quantile_error_non_increasing_in_delta(self):
        cfg = ExperimentConfig(GAUSS, "empirical", 64, 400, (0.02, 0.1, 0.3, 0.6), seed=22)
        rows = run_tail_experiment(cfg).rows
        qs = [r.quantile_error for r in rows]
        assert all(a >= b for a, b in zip(qs, qs[1:]))


class TestSerialization:
    def test_csv_row_format_contract(self):
        report = TailReport(
            rows=(TailRow(0.01, 0.5, 0.002, 0.31, 1.41),),
            metadata={"tool": "subgauss"},
            wall_time_s=None,
        )
        import io

        from subgauss.harness import _render_csv

        text = _render_csv(report)
        lines = text.splitlines()
        assert lines[0] == "# tool = subgauss"
        assert lines[1] == "delta,radius,exceedance,quantile_error,l_hat"
        assert lines[2] == "0.01,0.5,0.002,0.31,1.41"

    def test_header_only_when_no_rows(self, tmp_path):
        cfg = ExperimentConfig(GAUSS, "empirical", 16, 5, (), seed=1)
        path = tmp_path / "empty.csv"
        write_report(run_tail_experiment(cfg), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "delta,radius,exceedance,quantile_error,l_hat"
        assert all(line.startswith("# ") for line in lines[:-1])

    def test_csv_flag_comments(self, tmp_path):
        cfg = ExperimentConfig(GAUSS, "mom", 10, 50, (0.5, 0.001), seed=2)
        path = tmp_path / "flags.csv"
        write_report(run_tail_experiment(cfg), "csv", path)
        text = path.read_text()
        assert "# flag delta=0.001 : invalid_delta" in text
        assert "nan,nan,nan,nan" in text

    def test_csv_float_values_round_trip_exactly(self, tmp_path):
        cfg = ExperimentConfig(GAUSS, "mom", 128, 100, (0.1, 0.01), seed=23)
        report = run_tail_experiment(cfg)
        path = tmp_path / "r.csv"
        write_report(report, "csv", path)
        data_lines = [
            line
            for line in path.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("delta,")
        ]
        for line, row in zip(data_lines, report.rows):
            parts = [float(tok) for tok in line.split(",")]
            assert parts == [row.delta, row.radius, row.exceedance, row.quantile_error, row.l_hat]

    def test_json_round_trip_exact(self, tmp_path):
        cfg = ExperimentConfig(
            GAUSS, "mom", 10, 50, (0.5, 0.001), seed=2
        )  # includes a NaN row
        report = run_tail_experiment(cfg)
        path = tmp_path / "r.json"
        write_report(report, "json", path)
        back = read_report(path)
        assert back.wall_time_s is None
        assert back.metadata == drop_volatile(report.metadata)
        assert len(back.rows) == len(report.rows)
        for a, b in zip(report.rows, back.rows):
            assert a.flag == b.flag
            for field in ("delta", "radius", "exceedance", "quantile_error", "l_hat"):
                va, vb = getattr(a, field), getattr(b, field)
                assert (math.isnan(va) and math.isnan(vb)) or va == vb

    def test_json_handles_infinite_l_target(self, tmp_path):
        cfg = ExperimentConfig(
            parse_distribution("pareto:2.5,1"), "kurtosis", 64, 20, (0.3,), seed=3
        )
        path = tmp_path / "inf.json"
        write_report(run_tail_experiment(cfg), "json", path)
        raw = json.loads(path.read_text())
        assert raw["metadata"]["l_target"] == "inf"
        assert read_report(path).metadata["l_target"] == math.inf

    def test_write_rejects_unknown_format(self, tmp_path):
        report = run_tail_experiment(
            ExperimentConfig(GAUSS, "empirical", 16, 5, (0.5,), seed=1)
        )
        with pytest.raises(ValueError):
            write_report(report, "yaml", tmp_path / "x.yaml")

    def test_read_rejects_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(
            run_tail_experiment(ExperimentConfig(GAUSS, "empirical", 16, 5, (0.5,), seed=1)),
            "csv",
            path,
        )
        with pytest.raises(ValueError):
            read_report(path)

    def test_metadata_echo(self):
        cfg = ExperimentConfig(
            GAUSS, "mom", 64, 30, (0.2, 0.05), seed=77, threads=2
        )
        report = run_tail_experiment(cfg)
        meta = report.metadata
        assert meta["tool"] == "subgauss"
        assert meta["dist"] == "gaussian:0.5,2.0"
        assert meta["estimator"] == "mom"
        assert meta["n"] == 64
        assert meta["trials"] == 30
        assert meta["seed"] == 77
        assert meta["deltas"] == [0.2, 0.05]
        assert meta["mu"] == 0.5
        assert meta["sigma"] == 2.0
        assert meta["threads"] == 2
        assert report.wall_time_s is not None and report.wall_time_s > 0.0


class TestMomTailBound:
    def test_gaussian_l_hat_converges_as_trials_grow(self):
        base = ExperimentConfig(GAUSS, "mom", 1024, 2000, (0.1,), seed=31)
        double = ExperimentConfig(GAUSS, "mom", 1024, 4000, (0.1,), seed=31)
        a = run_tail_experiment(base).rows[0].l_hat
        b = run_tail_experiment(double).rows[0].l_hat
        assert abs(b - a) < 0.10 * a


def test_delta_dependent_estimators_are_the_ones_planned_per_delta():
    dist = parse_distribution("gaussian:0,1")
    planned = set()
    for estimator, (_defaults, plan) in harness_module._SPECS.items():
        raw = {"sigma2_hi": 1.0} if estimator == "combined_fixed_sigma" else {}
        p = harness_module._resolve_params(estimator, dist, raw)
        if plan(dist, 600, p)[1] is not None:
            planned.add(estimator)
    assert planned == harness_module.DELTA_DEPENDENT
