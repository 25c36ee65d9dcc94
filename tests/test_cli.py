import importlib
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import subgauss
from subgauss import (
    KurtosisConfig,
    kurtosis_estimate,
    median_of_means,
    multiple_delta_estimate,
    quantile_interval,
    read_report,
    xi_terms,
)
from subgauss.cli import run_cli
from subgauss.harness import _SPECS


def write_numbers(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v!r}\n" for v in values))
    return str(path)


class TestEstimate:
    def test_empirical_prints_2(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [1.0, 2.0, 3.0])
        assert run_cli(["estimate", "--input", path, "--estimator", "empirical"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_mom_prints_2(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        code = run_cli(
            ["estimate", "--input", path, "--estimator", "mom", "--delta", "0.1353353"]
        )
        assert code == 0
        assert capsys.readouterr().out == "2\n"

    def test_blank_lines_ignored(self, tmp_path, capsys):
        path = tmp_path / "gaps.txt"
        path.write_text("1\n\n2\n   \n3\n")
        assert run_cli(["estimate", "--input", path.as_posix(), "--estimator", "empirical"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_quantile_kreg_matches_library(self, tmp_path, capsys):
        values = np.random.default_rng(40).normal(1.0, 2.0, size=600)
        path = write_numbers(tmp_path, values.tolist())
        code = run_cli(
            ["estimate", "--input", path, "--estimator", "quantile_kreg", "--delta", "0.3"]
        )
        assert code == 0
        printed = float(capsys.readouterr().out)
        assert printed == quantile_interval(values, 0.3, 1).midpoint

    def test_combined_adaptive_matches_library(self, tmp_path, capsys):
        values = np.random.default_rng(41).normal(size=64)
        path = write_numbers(tmp_path, values.tolist())
        code = run_cli(
            [
                "estimate",
                "--input",
                path,
                "--estimator",
                "combined_adaptive",
                "--delta-min",
                "0.015625",
            ]
        )
        assert code == 0
        printed = float(capsys.readouterr().out)
        assert printed == multiple_delta_estimate(values, "adaptive", delta_min=0.015625)

    def test_combined_fixed_sigma_matches_library(self, tmp_path, capsys):
        values = np.random.default_rng(42).normal(size=64)
        path = write_numbers(tmp_path, values.tolist())
        code = run_cli(
            [
                "estimate",
                "--input",
                path,
                "--estimator",
                "combined_fixed_sigma",
                "--sigma2-hi",
                "2.0",
                "--delta-min",
                "0.015625",
            ]
        )
        assert code == 0
        printed = float(capsys.readouterr().out)
        want = multiple_delta_estimate(
            values, "fixed_sigma", sigma2_hi=2.0, delta_min=0.015625
        )
        assert printed == want

    def test_kurtosis_without_kappa_bound(self, tmp_path, capsys):
        values = np.random.default_rng(43).normal(size=32).tolist()
        path = write_numbers(tmp_path, values)
        assert run_cli(["estimate", "--input", path, "--estimator", "kurtosis"]) == 0
        printed = float(capsys.readouterr().out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = kurtosis_estimate(np.asarray(values), KurtosisConfig(8, 3.0))
        assert printed == want

    def test_kurtosis_diagnostics(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [float(i) for i in range(1, 9)])
        code = run_cli(
            [
                "estimate",
                "--input",
                path,
                "--estimator",
                "kurtosis",
                "--b-max",
                "2",
                "--kappa-bound",
                "1",
                "--diagnostics",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        terms = xi_terms(1.0, 8, 2)
        assert lines[1] == f"xi = {terms.xi:.17g}"
        assert lines[2] == f"xi1 = {terms.xi1:.17g}"
        assert lines[3] == f"xi2 = {terms.xi2:.17g}"
        assert lines[4] == f"l_effective = {math.sqrt(2.0) * (1.0 + terms.xi):.17g}"
        assert sum(1 for ln in lines if ln.startswith("warning: ")) == 3


class TestEstimateErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = run_cli(
            ["estimate", "--input", str(tmp_path / "nope.txt"), "--estimator", "empirical"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\ntwo\n3\n")
        code = run_cli(["estimate", "--input", str(path), "--estimator", "empirical"])
        assert code == 1
        err = capsys.readouterr().err
        assert "not a number" in err and ":2:" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("estimator", ["empirical", "kurtosis"])
    def test_non_finite_number(self, tmp_path, capsys, bad, estimator):
        # kurtosis without --kappa-bound runs the pipeline kernels directly.
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\n3\n4\n" + bad + "\n5\n6\n7\n8\n")
        code = run_cli(
            ["estimate", "--input", str(path), "--estimator", estimator, "--b-max", "2"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:5: not a finite number: '{bad}'" in captured.err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        code = run_cli(["estimate", "--input", str(path), "--estimator", "empirical"])
        assert code == 1
        assert "no numbers found" in capsys.readouterr().err

    def test_unknown_estimator_is_usage_error(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [1.0])
        code = run_cli(["estimate", "--input", path, "--estimator", "mean"])
        assert code == 2
        capsys.readouterr()

    def test_mom_requires_delta(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [1.0, 2.0, 3.0, 4.0])
        code = run_cli(["estimate", "--input", path, "--estimator", "mom"])
        assert code == 2
        assert "requires --delta" in capsys.readouterr().err

    def test_fixed_sigma_requires_both_flags(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [float(i) for i in range(64)])
        base = ["estimate", "--input", path, "--estimator", "combined_fixed_sigma"]
        assert run_cli(base + ["--delta-min", "0.01"]) == 2
        assert "requires --sigma2-hi" in capsys.readouterr().err
        assert run_cli(base + ["--sigma2-hi", "1.0"]) == 2
        assert "requires --delta-min" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma2_hi", ["inf", "nan"])
    def test_fixed_sigma_rejects_non_finite_sigma2_hi(self, tmp_path, capsys, sigma2_hi):
        path = write_numbers(tmp_path, np.random.default_rng(42).normal(size=64).tolist())
        code = run_cli(
            ["estimate", "--input", path, "--estimator", "combined_fixed_sigma",
             "--sigma2-hi", sigma2_hi, "--delta-min", "0.01"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma2_hi must be finite and > 0" in captured.err

    def test_diagnostics_requires_kappa_bound(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [float(i) for i in range(32)])
        code = run_cli(
            ["estimate", "--input", path, "--estimator", "kurtosis", "--diagnostics"]
        )
        assert code == 2
        assert "requires --kappa-bound" in capsys.readouterr().err

    def test_kurtosis_needs_enough_points(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [1.0, 2.0, 3.0])
        code = run_cli(["estimate", "--input", path, "--estimator", "kurtosis"])
        assert code == 1
        capsys.readouterr()
        path = write_numbers(tmp_path, [float(i) for i in range(8)], name="eight.txt")
        code = run_cli(
            ["estimate", "--input", path, "--estimator", "kurtosis", "--b-max", "8"]
        )
        assert code == 1
        assert "at least 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize("b_max", ["0", "-1"])
    @pytest.mark.parametrize("kappa", [[], ["--kappa-bound", "3"]])
    def test_kurtosis_b_max_below_one(self, tmp_path, capsys, b_max, kappa):
        path = write_numbers(tmp_path, [float(i) for i in range(5)])
        code = run_cli(
            ["estimate", "--input", path, "--estimator", "kurtosis", "--b-max", b_max] + kappa
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b_max must be >= 1" in captured.err

    @pytest.mark.parametrize(
        "estimator, extra, shown",
        [("empirical", [], "inf"), ("mom", ["--delta", "0.1"], "inf"),
         ("kurtosis", ["--b-max", "2"], "nan"),
         ("kurtosis", ["--b-max", "2", "--kappa-bound", "3"], "nan")],
    )
    def test_non_finite_estimate_is_runtime_error(self, tmp_path, capsys, estimator, extra, shown):
        # Every value is finite; the block sums overflow.
        path = write_numbers(tmp_path, [1e308] * 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(["estimate", "--input", path, "--estimator", estimator] + extra)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: the {estimator} estimate is {shown}: " in captured.err

    def test_adaptive_overflow_names_the_overflow(self, tmp_path, capsys):
        # The level radii are not finite: the message names the level and
        # the overflow, not an interval with NaN endpoints.
        path = write_numbers(tmp_path, [1e308] * 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(["estimate", "--input", path, "--estimator", "combined_adaptive",
                            "--delta-min", "0.1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: adaptive level 1 (delta=2^-1) has centre inf and radius inf: "
            "the sample's block sums overflow float64\n"
        )

    def test_mom_overflow_stderr(self, tmp_path):
        # In a fresh interpreter, with the default warning filters: one
        # overflow warning from the block sums, then the error; nothing else.
        path = write_numbers(tmp_path, [1e308] * 8)
        script = "import sys, subgauss\nsys.exit(subgauss.run_cli(sys.argv[1:]))\n"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, "estimate", "--input", path, "--estimator", "mom",
             "--delta", "0.1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        # A warning is its location and text, then the source line.
        assert len(lines) == 3 and lines[1].startswith("  ")
        assert lines[0].endswith(": RuntimeWarning: overflow encountered in reduceat")
        assert lines[2] == "error: the mom estimate is inf: the input's sums overflow float64"

    def test_mom_runtime_error_small_sample(self, tmp_path, capsys):
        path = write_numbers(tmp_path, [1.0, 2.0, 3.0])
        code = run_cli(["estimate", "--input", path, "--estimator", "mom", "--delta", "0.1"])
        assert code == 1
        capsys.readouterr()


class TestBench:
    BASE = [
        "bench",
        "--dist",
        "gaussian:0,1",
        "--estimator",
        "mom",
        "--n",
        "64",
        "--trials",
        "200",
        "--deltas",
        "0.2,0.05",
        "--seed",
        "3",
    ]

    def run_to(self, tmp_path, name, fmt="csv", extra=(), capsys=None):
        out = tmp_path / name
        args = self.BASE + ["--out", str(out), "--format", fmt] + list(extra)
        assert run_cli(args) == 0
        return out

    def test_writes_report_and_summary(self, tmp_path, capsys):
        out = self.run_to(tmp_path, "r.csv")
        err = capsys.readouterr().err
        assert err.startswith(f"wrote {out} (2 rows, ")
        text = out.read_text()
        assert text.startswith("# tool = subgauss")
        assert "delta,radius,exceedance,quantile_error,l_hat" in text

    def test_identical_flags_identical_bytes(self, tmp_path, capsys):
        a = self.run_to(tmp_path, "a.csv")
        b = self.run_to(tmp_path, "b.csv")
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path, capsys):
        a = self.run_to(tmp_path, "t1.json", fmt="json")
        b = self.run_to(tmp_path, "t4.json", fmt="json", extra=["--threads", "4"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_output_readable(self, tmp_path, capsys):
        out = self.run_to(tmp_path, "r.json", fmt="json")
        capsys.readouterr()
        report = read_report(out)
        assert len(report.rows) == 2
        assert report.metadata["estimator"] == "mom"

    def test_estimator_params_forwarded(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        args = [
            "bench",
            "--dist",
            "student:6",
            "--estimator",
            "kurtosis",
            "--n",
            "64",
            "--trials",
            "100",
            "--deltas",
            "0.2",
            "--seed",
            "5",
            "--b-max",
            "4",
            "--kappa-bound",
            "6",
            "--out",
            str(out),
            "--format",
            "json",
        ]
        assert run_cli(args) == 0
        capsys.readouterr()
        assert read_report(out).metadata["params"] == {"b_max": 4, "kappa_bound": 6.0}

    # flag value and the value metadata["params"] must echo, type included
    PARAM_VALUES = {
        "k_reg": ("1", 1),
        "sigma2_hi": ("2", 2.0),
        "delta_min": ("0.0625", 0.0625),
        "b_max": ("4", 4),
        "kappa_bound": ("6", 6.0),
        "l_target": ("3.5", 3.5),
    }

    @pytest.mark.parametrize(
        "estimator,key",
        [(e, k) for e, (defaults, _plan) in _SPECS.items() for k in (*defaults, "l_target")],
    )
    def test_every_table_param_round_trips(self, tmp_path, capsys, estimator, key):
        defaults = _SPECS[estimator][0]
        keys = {key} | {k for k, default in defaults.items() if default is None}
        args = [
            "bench", "--dist", "gaussian:0,1", "--estimator", estimator, "--n", "700",
            "--trials", "40", "--deltas", "0.2", "--seed", "5",
            "--out", str(tmp_path / "p.json"), "--format", "json",
        ]
        for k in sorted(keys):
            args += ["--" + k.replace("_", "-"), self.PARAM_VALUES[k][0]]
        assert run_cli(args) == 0, capsys.readouterr().err
        capsys.readouterr()
        got = read_report(tmp_path / "p.json").metadata["params"][key]
        want = self.PARAM_VALUES[key][1]
        assert got == want and type(got) is type(want)

    def test_bad_dist_is_usage_error(self, tmp_path, capsys):
        args = list(self.BASE) + ["--out", str(tmp_path / "x.csv"), "--format", "csv"]
        args[2] = "gaussian:0"  # missing sigma
        assert run_cli(args) == 2
        capsys.readouterr()

    def test_bad_deltas_is_usage_error(self, tmp_path, capsys):
        args = list(self.BASE) + ["--out", str(tmp_path / "x.csv"), "--format", "csv"]
        args[10] = "0.2,zzz"
        assert run_cli(args) == 2
        capsys.readouterr()

    def test_bad_format_is_usage_error(self, tmp_path, capsys):
        args = list(self.BASE) + ["--out", str(tmp_path / "x.yaml"), "--format", "yaml"]
        assert run_cli(args) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("dist", ["lognormal:0,14", "gaussian:1e300,1e300", "bern2+:1e300,0.5"])
    def test_overflowing_moments_is_runtime_error(self, tmp_path, capsys, dist):
        out = tmp_path / "x.csv"
        args = list(self.BASE) + ["--out", str(out), "--format", "csv"]
        args[2] = dist
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and dist in err
        assert not out.exists()

    @pytest.mark.parametrize("dist", ["bern2+:1e300,0", "bern2-:1e300,1"])
    def test_degenerate_two_point_law_at_huge_scale_runs(self, tmp_path, capsys, dist):
        # c * c overflows at C = 1e300, but P in {0, 1} is degenerate: the
        # run completes and every computed row is flagged degenerate.
        out = tmp_path / "x.json"
        args = list(self.BASE) + ["--out", str(out), "--format", "json"]
        args[2] = dist
        assert run_cli(args) == 0, capsys.readouterr().err
        capsys.readouterr()
        rows = read_report(out).rows
        assert rows and all("degenerate" in row.flag for row in rows)

    def test_unsatisfiable_config_is_runtime_error(self, tmp_path, capsys):
        args = list(self.BASE) + ["--out", str(tmp_path / "x.csv"), "--format", "csv"]
        args[6] = "3"  # mom needs n >= 4
        assert run_cli(args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_path_is_runtime_error(self, tmp_path, capsys):
        args = list(self.BASE) + [
            "--out",
            str(tmp_path / "no" / "such" / "dir" / "x.csv"),
            "--format",
            "csv",
        ]
        assert run_cli(args) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestAdversary:
    BASE = [
        "adversary",
        "--mode",
        "infvar",
        "--alpha",
        "1",
        "--moment",
        "1",
        "--n",
        "100",
        "--delta",
        "0.05",
        "--trials",
        "500",
        "--seed",
        "1",
    ]

    def test_prints_three_rates(self, capsys):
        assert run_cli(self.BASE) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("failure_rate_plus = ")
        assert lines[1].startswith("failure_rate_minus = ")
        assert lines[2].startswith("match_rate = ")
        values = [float(ln.split(" = ")[1]) for ln in lines]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_mom_estimator_accepted(self, capsys):
        assert run_cli(self.BASE + ["--estimator", "mom"]) == 0
        capsys.readouterr()

    def test_p_override(self, capsys):
        assert run_cli(self.BASE + ["--p", "0.5"]) == 0
        capsys.readouterr()

    def test_delta_too_small_is_runtime_error(self, capsys):
        args = list(self.BASE)
        args[10] = "1e-300"
        assert run_cli(args) == 1
        assert "delta too small" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, moment, extra, message",
        [
            ("0.5", "1e308", [], "overflow a float"),
            ("1", "1", ["--p", "1e-320"], "not finite"),
            ("1", "nan", [], "M=nan must be finite"),
        ],
    )
    def test_non_finite_coupling_is_runtime_error(self, alpha, moment, extra, message, capsys):
        args = list(self.BASE)
        args[4] = alpha
        args[6] = moment
        assert run_cli(args + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


class TestProbe:
    def test_constant_distribution(self, capsys):
        code = run_cli(
            ["probe", "--dist", "constant:5", "--j", "1", "--trials", "100", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == "p_minus_hat = 1\np_plus_hat = 1\n"

    def test_symmetric_distribution(self, capsys):
        code = run_cli(
            ["probe", "--dist", "laplace:0", "--j", "1", "--trials", "4000", "--seed", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        p_minus = float(lines[0].split(" = ")[1])
        p_plus = float(lines[1].split(" = ")[1])
        assert p_minus + p_plus >= 1.0
        assert min(p_minus, p_plus) > 0.45


    def test_overflowing_moments_is_runtime_error(self, capsys):
        code = run_cli(
            ["probe", "--dist", "lognormal:0,14", "--j", "1", "--trials", "10", "--seed", "0"]
        )
        assert code == 1
        assert "lognormal:0,14" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dist, j, seed, message",
        [("gaussian:0,1", "2", "-1", "seed must be >= 0"),
         ("gaussian:9e307,1", "2", "1", "j*mu overflows float64"),
         ("laplace:1e308", "2", "1", "j*mu overflows float64")],
    )
    def test_bad_input_exits_one(self, capsys, dist, j, seed, message):
        code = run_cli(["probe", "--dist", dist, "--j", j, "--trials", "1000", "--seed", seed])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "estimate" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("subgauss")
        assert exe is not None
        data = tmp_path / "nums.txt"
        data.write_text("1\n2\n3\n")
        proc = subprocess.run(
            [exe, "estimate", "--input", str(data), "--estimator", "empirical"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2\n"

    def test_public_surface(self):
        # The package's top-level names, by defining module.
        surface = {
            "_version": ["__version__"],
            "adversarial": [
                "CoupledSample", "coupled_scaled_bernoulli", "infvar_stress",
                "laplace_ratio_floor", "poisson_point_mass_check", "scaled_bernoulli_moment",
            ],
            "cli": ["main", "run_cli"],
            "core_estimators": [
                "BlockPartition", "ConfidenceInterval", "median_of_means", "median_of_means_raw",
                "mom_variance", "pairwise_block_variance", "partition_blocks",
                "quantile_interval", "quantile_interval_raw", "quantile_select",
            ],
            "distributions": [
                "DistributionSpec", "MomentOverflowError", "Sample", "as_values",
                "format_distribution", "parse_distribution", "regularity_probe", "sample",
            ],
            "harness": [
                "DELTA_DEPENDENT", "ESTIMATORS", "ExperimentConfig", "TailReport", "TailRow",
                "exceedance_rate", "normalized_quantile_curve", "read_report",
                "run_tail_experiment", "write_report",
            ],
            "interval_combiner": [
                "BUILDERS", "CombineResult", "IntervalFamily", "adaptive_family", "combine",
                "fixed_sigma_family", "multiple_delta_estimate", "quantile_kreg_family",
            ],
            "kurtosis_pipeline": [
                "KurtosisConfig", "XiTerms", "kurtosis_estimate", "psi", "truncated_mean",
                "xi_terms",
            ],
            "seeding": ["mix_seed"],
        }
        names = [name for module_names in surface.values() for name in module_names]
        assert len(names) == 52
        assert sorted(subgauss.__all__) == sorted(names)
        assert len(set(subgauss.__all__)) == len(subgauss.__all__)
        for module_name, module_names in surface.items():
            module = importlib.import_module(f"subgauss.{module_name}")
            for name in module_names:
                assert getattr(subgauss, name) is getattr(module, name), name
        assert "trial_rngs" not in subgauss.__all__
        assert not hasattr(subgauss, "trial_rngs")

    def test_cold_start_imports_no_scipy(self, tmp_path):
        # A one-shot CLI call pays for every module the package imports.
        values = np.random.default_rng(43).normal(size=64)
        path = write_numbers(tmp_path, values.tolist())
        script = (
            "import sys\n"
            "import subgauss\n"
            "code = subgauss.run_cli(['estimate', '--input', sys.argv[1],"
            " '--estimator', 'mom', '--delta', '0.05'])\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),"
            " file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == median_of_means(values, 0.05)
        assert proc.stderr.splitlines()[-1] == "[]"
