"""Command-line frontend: estimate, bench, adversary, probe.

Exit codes: 0 success, 2 usage error (bad flags, malformed numeric
arguments), 1 runtime error (bad data, unsatisfiable preconditions, I/O).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from .adversarial import infvar_stress
from .core_estimators import median_of_means, quantile_interval
from .distributions import MomentOverflowError, parse_distribution, regularity_probe
from .harness import _SPECS, ESTIMATORS, ExperimentConfig, run_tail_experiment, write_report
from .interval_combiner import multiple_delta_estimate
from .kurtosis_pipeline import KurtosisConfig, _check, _pipeline, kurtosis_estimate, xi_terms

__all__ = ["run_cli", "main"]


def _deltas_arg(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgauss",
        description="Robust mean estimation: estimators, Monte Carlo tail "
        "benchmarks, adversarial stress tests, regularity probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a mean from a file of numbers")
    est.add_argument("--input", required=True, help="file with one number per line")
    est.add_argument("--estimator", required=True, choices=ESTIMATORS)
    est.add_argument("--delta", type=float, help="confidence level for delta-dependent estimators")
    est.add_argument("--b-max", dest="b_max", type=int, default=8)
    est.add_argument("--sigma2-hi", dest="sigma2_hi", type=float)
    est.add_argument("--k-reg", dest="k_reg", type=int, default=1)
    est.add_argument("--delta-min", dest="delta_min", type=float)
    est.add_argument("--kappa-bound", dest="kappa_bound", type=float)
    est.add_argument("--diagnostics", action="store_true")

    bench = sub.add_parser("bench", help="run a Monte Carlo tail experiment")
    bench.add_argument("--dist", required=True)
    bench.add_argument("--estimator", required=True, choices=ESTIMATORS)
    bench.add_argument("--n", required=True, type=int)
    bench.add_argument("--trials", required=True, type=int)
    bench.add_argument("--deltas", required=True, type=_deltas_arg)
    bench.add_argument("--seed", required=True, type=int)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--out", required=True)
    bench.add_argument("--format", required=True, choices=("csv", "json"))
    bench.add_argument("--k-reg", dest="k_reg", type=int)
    bench.add_argument("--sigma2-hi", dest="sigma2_hi", type=float)
    bench.add_argument("--delta-min", dest="delta_min", type=float)
    bench.add_argument("--b-max", dest="b_max", type=int)
    bench.add_argument("--kappa-bound", dest="kappa_bound", type=float)
    bench.add_argument("--l-target", dest="l_target", type=float)
    bench.add_argument(
        "--error-cap", dest="error_cap", type=int, default=ExperimentConfig.error_cap
    )

    adv = sub.add_parser("adversary", help="stress an estimator with a coupled pair")
    adv.add_argument("--mode", required=True, choices=("infvar",))
    adv.add_argument("--alpha", required=True, type=float)
    adv.add_argument("--moment", required=True, type=float)
    adv.add_argument("--n", required=True, type=int)
    adv.add_argument("--delta", required=True, type=float)
    adv.add_argument("--trials", required=True, type=int)
    adv.add_argument("--seed", required=True, type=int)
    adv.add_argument("--p", type=float, help="override the coupling probability")
    adv.add_argument("--estimator", choices=("empirical", "mom"), default="empirical")

    probe = sub.add_parser("probe", help="estimate j-sum sign frequencies")
    probe.add_argument("--dist", required=True)
    probe.add_argument("--j", required=True, type=int)
    probe.add_argument("--trials", required=True, type=int)
    probe.add_argument("--seed", required=True, type=int)
    return parser


def _parse_dist(parser: argparse.ArgumentParser, text: str):
    # A malformed spec is a usage error (exit 2); a well-formed one whose
    # moments overflow is a runtime error (exit 1), like any bad data.
    try:
        return parse_distribution(text)
    except MomentOverflowError:
        raise
    except ValueError as exc:
        parser.error(f"argument --dist: {exc}")


def _read_values(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
    if not values:
        raise ValueError(f"{path}: no numbers found")
    return np.asarray(values, dtype=np.float64)


def _kurtosis(values: np.ndarray, args) -> float:
    if args.kappa_bound is None:
        _check(values.size, args.b_max)
        return _pipeline(values, args.b_max)[3]
    config = KurtosisConfig(b_max=args.b_max, kappa_bound=args.kappa_bound)
    return kurtosis_estimate(values, config)


# estimator -> (flags it requires, its one-sample estimate from the values and flags)
_ESTIMATES = {
    "empirical": ((), lambda x, a: float(x.mean())),
    "mom": (("delta",), lambda x, a: median_of_means(x, a.delta)),
    "quantile_kreg": (("delta",), lambda x, a: quantile_interval(x, a.delta, a.k_reg).midpoint),
    "combined_fixed_sigma": (("sigma2_hi", "delta_min"), lambda x, a: multiple_delta_estimate(
        x, "fixed_sigma", sigma2_hi=a.sigma2_hi, delta_min=a.delta_min
    )),
    "combined_adaptive": (("delta_min",), lambda x, a: multiple_delta_estimate(
        x, "adaptive", delta_min=a.delta_min
    )),
    "kurtosis": ((), _kurtosis),
}


def _cmd_estimate(parser: argparse.ArgumentParser, args) -> int:
    values = _read_values(args.input)
    name = args.estimator
    flags, estimate_of = _ESTIMATES[name]
    for flag in flags:
        if getattr(args, flag) is None:
            parser.error(f"estimator {name!r} requires --{flag.replace('_', '-')}")
    diagnostics = name == "kurtosis" and args.diagnostics
    if diagnostics and args.kappa_bound is None:
        parser.error("--diagnostics with 'kurtosis' requires --kappa-bound")
    # kurtosis records its precondition warnings for --diagnostics; the
    # other estimators' warnings reach stderr.
    with warnings.catch_warnings(record=name == "kurtosis") as caught:
        if caught is not None:
            warnings.simplefilter("always")
        estimate = estimate_of(values, args)
    # Every input value is finite, so only an overflowing sum gets here.
    if not math.isfinite(estimate):
        raise ValueError(f"the {name} estimate is {estimate!r}: the input's sums overflow float64")
    print(format(estimate, ".17g"))
    if diagnostics:
        terms = xi_terms(args.kappa_bound, values.size, args.b_max)
        print(f"xi = {terms.xi:.17g}")
        print(f"xi1 = {terms.xi1:.17g}")
        print(f"xi2 = {terms.xi2:.17g}")
        print(f"l_effective = {math.sqrt(2.0) * (1.0 + terms.xi):.17g}")
        for record in caught:
            print(f"warning: {record.message}")
    return 0


def _cmd_bench(args) -> int:
    keys = {"l_target"}.union(*(defaults for defaults, _plan in _SPECS.values()))
    params = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    config = ExperimentConfig(
        dist=args.dist,
        estimator=args.estimator,
        n=args.n,
        trials=args.trials,
        deltas=args.deltas,
        seed=args.seed,
        threads=args.threads,
        params=params,
        error_cap=args.error_cap,
    )
    report = run_tail_experiment(config)
    write_report(report, args.format, args.out)
    print(
        f"wrote {args.out} ({len(report.rows)} rows, {report.wall_time_s:.3f} s)",
        file=sys.stderr,
    )
    return 0


def _cmd_adversary(args) -> int:
    estimate_of = _ESTIMATES[args.estimator][1]
    fail_plus, fail_minus, match = infvar_stress(
        lambda arr: estimate_of(arr, args),
        args.n, args.delta, args.alpha, args.moment, args.trials, args.seed, p=args.p,
    )
    print(f"failure_rate_plus = {fail_plus:.17g}")
    print(f"failure_rate_minus = {fail_minus:.17g}")
    print(f"match_rate = {match:.17g}")
    return 0


def _cmd_probe(args) -> int:
    p_minus, p_plus = regularity_probe(args.dist, args.j, args.trials, args.seed)
    print(f"p_minus_hat = {p_minus:.17g}")
    print(f"p_plus_hat = {p_plus:.17g}")
    return 0


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command in ("bench", "probe"):
            args.dist = _parse_dist(parser, args.dist)
        if args.command == "estimate":
            return _cmd_estimate(parser, args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "adversary":
            return _cmd_adversary(args)
        return _cmd_probe(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run_cli(sys.argv[1:] if argv is None else argv))
