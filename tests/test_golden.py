"""Pinned output bytes: report digests, one-sample values and error messages.

Every harness report in a fixed grid (9 families x 6 estimators, two sample
sizes, exact and subsampled quantiles, single- and multi-chunk runs at one
and two threads) is hashed as written to disk, in CSV and JSON.  A handful
of one-sample estimates are kept as ``float.hex`` strings and a handful of
invalid configurations as their error messages.  The expected values live in
``golden.json`` next to this file.

A refactor that promises the same output shows any change here as a diff of
``golden.json``.  Generator streams are not promised across numpy versions,
so the file records the numpy version it was made with, and a different
version fails every check with a message naming both versions.

Regenerate (a reviewed change, to be recorded in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from subgauss import (
    ExperimentConfig,
    KurtosisConfig,
    kurtosis_estimate,
    median_of_means,
    median_of_means_raw,
    mom_variance,
    multiple_delta_estimate,
    parse_distribution,
    quantile_interval,
    run_tail_experiment,
    write_report,
)

GOLDEN = Path(__file__).with_name("golden.json")

FAMILIES = (
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
ESTIMATORS = (
    "empirical",
    "mom",
    "quantile_kreg",
    "combined_fixed_sigma",
    "combined_adaptive",
    "kurtosis",
)
# 2053 = 8 * 256 + 5, so blocks of unequal size at b = 2, 3, 4, 8, ...
SIZES = (600, 2053)
TRIALS = 200
# Ascending, with rows that are invalid (mom, quantile_kreg), below the
# guarantee floor (combined, kurtosis) and undersampled.
DELTAS = (1e-200, 1e-4, 0.01, 0.1, 0.5)
CAPS = (None, 97)
SEED = 20151

# (spec, estimator, n, trials, error_cap, params): runs of more than one
# chunk, each also run at two threads.
MULTI_CHUNK = (
    ("pareto:2.5,1", "empirical", 64, 9000, None, {}),
    ("bern2+:2,0.3", "mom", 64, 9000, 97, {}),
    ("laplace:0.5", "kurtosis", 64, 9000, 97, {"b_max": 4}),
    ("gaussian:1.5,2", "combined_adaptive", 16384, 260, None, {}),
)

# (label, spec, estimator, n, deltas, params): configurations that raise.
INVALID = (
    ("mom n=3", "gaussian:0,1", "mom", 3, (0.5,), {}),
    ("quantile_kreg n=500", "gaussian:0,1", "quantile_kreg", 500, (0.5,), {}),
    ("quantile_kreg k_reg=0", "gaussian:0,1", "quantile_kreg", 600, (0.5,), {"k_reg": 0}),
    ("combined_fixed_sigma n=3", "gaussian:0,1", "combined_fixed_sigma", 3, (0.5,),
     {"sigma2_hi": 1.0}),
    ("combined_fixed_sigma no sigma2_hi", "gaussian:0,1", "combined_fixed_sigma", 600,
     (0.5,), {}),
    ("combined_adaptive n=12", "gaussian:0,1", "combined_adaptive", 12, (0.5,), {}),
    ("combined_adaptive delta_min=0.3", "gaussian:0,1", "combined_adaptive", 600, (0.5,),
     {"delta_min": 0.3}),
    ("kurtosis n=3", "gaussian:0,1", "kurtosis", 3, (0.5,), {}),
    ("kurtosis n=15", "gaussian:0,1", "kurtosis", 15, (0.5,), {}),
    ("kurtosis b_max=0", "gaussian:0,1", "kurtosis", 600, (0.5,), {"b_max": 0}),
    ("unknown param", "gaussian:0,1", "mom", 600, (0.5,), {"k_reg": 2}),
    ("unsorted deltas", "gaussian:0,1", "empirical", 600, (0.1, 0.5, 0.2), {}),
)


def _params(dist, estimator: str) -> dict:
    if estimator == "combined_fixed_sigma":
        return {"sigma2_hi": 2.0 * dist.sigma2 if dist.sigma2 > 0.0 else 1.0}
    return {}


def _report_digests(tmp: Path, config: ExperimentConfig) -> dict:
    report = run_tail_experiment(config)
    out = {}
    for fmt in ("csv", "json"):
        path = tmp / f"report.{fmt}"
        write_report(report, fmt, path)
        out[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _grid_key(spec, estimator, n, trials, cap, threads) -> str:
    return f"{spec} {estimator} n={n} trials={trials} cap={cap} threads={threads}"


def compute_reports(tmp: Path) -> dict:
    out = {}
    for spec in FAMILIES:
        dist = parse_distribution(spec)
        for estimator in ESTIMATORS:
            for n in SIZES:
                for cap in CAPS:
                    extra = {} if cap is None else {"error_cap": cap}
                    config = ExperimentConfig(
                        dist, estimator, n, TRIALS, DELTAS, SEED,
                        params=_params(dist, estimator), **extra,
                    )
                    key = _grid_key(spec, estimator, n, TRIALS, cap, 1)
                    out[key] = _report_digests(tmp, config)
    return out


def compute_multi_chunk(tmp: Path) -> dict:
    out = {}
    for spec, estimator, n, trials, cap, params in MULTI_CHUNK:
        dist = parse_distribution(spec)
        extra = {} if cap is None else {"error_cap": cap}
        for threads in (1, 2):
            config = ExperimentConfig(
                dist, estimator, n, trials, DELTAS, SEED, threads=threads,
                params=params, **extra,
            )
            out[_grid_key(spec, estimator, n, trials, cap, threads)] = _report_digests(
                tmp, config
            )
    return out


def compute_one_sample() -> dict:
    out = {}
    kcfg = KurtosisConfig(b_max=8, kappa_bound=9.0)
    for kind, n in (("lognormal", 1000), ("normal*1e120+3e120", 2053), ("two-point", 4099)):
        x = np.random.default_rng(SEED + n).standard_normal(n)
        if kind == "lognormal":
            x = np.exp(x)
        elif kind == "two-point":
            x = np.where(x > 0.5, -2.0, 0.0)
        else:
            x = x * 1e120 + 3e120
        values = {
            "median_of_means(0.01)": median_of_means(x, 0.01),
            "median_of_means_raw(7)": median_of_means_raw(x, 7),
            "mom_variance(5)": mom_variance(x, 5),
            "quantile_interval(0.2, 1).lo": quantile_interval(x, 0.2, 1).lo,
            "quantile_interval(0.2, 1).hi": quantile_interval(x, 0.2, 1).hi,
            "fixed_sigma": multiple_delta_estimate(
                x, "fixed_sigma", sigma2_hi=2.0, delta_min=2.0**-10
            ),
            "adaptive": multiple_delta_estimate(x, "adaptive", delta_min=2.0**-10),
            "quantile_kreg": multiple_delta_estimate(x, "quantile_kreg", k_reg=1),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # small-n precondition notes
            values["kurtosis_estimate"] = kurtosis_estimate(x, kcfg)
        for name, value in values.items():
            out[f"{kind} n={n} {name}"] = float(value).hex()
    return out


def compute_messages() -> dict:
    out = {}
    for label, spec, estimator, n, deltas, params in INVALID:
        config = ExperimentConfig(
            parse_distribution(spec), estimator, n, 10, deltas, SEED, params=params
        )
        try:
            run_tail_experiment(config)
        except ValueError as exc:
            out[label] = f"{type(exc).__name__}: {exc}"
        else:
            out[label] = "no error"
    return out


def _expected(section: str) -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["numpy"] == np.__version__, (
        f"golden.json was recorded with numpy {golden['numpy']}, this run uses numpy "
        f"{np.__version__}; Generator streams may differ, so regenerate it "
        "(see this module's docstring) and review the diff"
    )
    return golden[section]


def _assert_same(section: str, got: dict) -> None:
    want = _expected(section)
    changed = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert changed == [], f"{len(changed)} {section} entries differ, e.g. {changed[:5]}"


def test_report_digests(tmp_path):
    _assert_same("reports", compute_reports(tmp_path))


def test_multi_chunk_digests(tmp_path):
    _assert_same("multi_chunk", compute_multi_chunk(tmp_path))


def test_one_sample_values():
    _assert_same("one_sample", compute_one_sample())


def test_error_messages():
    _assert_same("messages", compute_messages())


def main(argv) -> int:
    if argv != ["--regenerate"]:
        print(f"usage: PYTHONPATH=src python {Path(__file__).name} --regenerate",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            "numpy": np.__version__,
            "reports": compute_reports(Path(tmp)),
            "multi_chunk": compute_multi_chunk(Path(tmp)),
            "one_sample": compute_one_sample(),
            "messages": compute_messages(),
        }
    # Name every entry that moved, so that a regeneration can be checked
    # against the change that caused it.
    before = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    if before.get("numpy") != golden["numpy"]:
        print(f"changed numpy: {before.get('numpy')} -> {golden['numpy']}")
    for section in ("reports", "multi_chunk", "one_sample", "messages"):
        was, now = before.get(section, {}), golden[section]
        for key in sorted(k for k in was.keys() | now.keys() if was.get(k) != now.get(k)):
            print(f"changed {section}: {key}: {was.get(key)} -> {now.get(key)}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
