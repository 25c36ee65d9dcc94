"""Monte Carlo tail-verification engine.

Runs an estimator on many independent samples, measures |estimate - mu| per
trial, and scores the error distribution on a delta grid against the target
radius L * sigma * sqrt((1 + ln(1/delta)) / n).

Reports are pure functions of the configuration: per-trial seeds derive from
(seed, trial index) alone, trials are processed in fixed-size chunks whose
layout never depends on the thread count, and aggregation order is fixed.
Repeating a run with any number of threads yields byte-identical files.

Each chunk is drawn in bulk by `distributions._draw_chunk`, the one chunk
draw, which `adversarial.infvar_stress` shares: row t holds exactly
sample(dist, n, mix_seed(seed, t)), the stream of
``np.random.default_rng(mix_seed(seed, t))``.  Deltas that plan the same
kernel arguments share one kernel call and one error column a chunk.
"""

from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import _batch
from ._version import __version__
from .core_estimators import _LN2, _MOM_WIDTH, _REL_SLACK, _kreg_blocks, _kreg_check
from .core_estimators import _mom_blocks, _order_stat
from .distributions import DistributionSpec, _as_int, _count, _draw_chunk, _token
from .distributions import format_distribution
from .interval_combiner import _check_sigma2_hi, _family_depth
from .kurtosis_pipeline import _check as _kurtosis_check
from .kurtosis_pipeline import delta_floor, xi_terms
from .seeding import chunk_bounds

# Not called here, but perfbench/spans.py wraps the one-trial draw and
# seeding layers under these names in this module, and reads the chunk
# layout constants from it.
from .distributions import _draw  # noqa: F401
from .seeding import _CHUNK_TARGET, _MAX_CHUNK_TRIALS, mix_seed  # noqa: F401

__all__ = [
    "ESTIMATORS",
    "DELTA_DEPENDENT",
    "ExperimentConfig",
    "TailRow",
    "TailReport",
    "run_tail_experiment",
    "exceedance_rate",
    "normalized_quantile_curve",
    "write_report",
    "read_report",
]

# Estimators that take delta as an input and are recomputed per delta; the
# rest are computed once per trial and scored at every delta.
DELTA_DEPENDENT = frozenset({"mom", "quantile_kreg"})

# The price of combining levels on an estimator's constant.
_COMBINED = math.sqrt(1.0 + 2.0 * _LN2)
# Config echo keys that may differ between equivalent runs; kept in the
# in-memory report, excluded from serialized files.
_VOLATILE_KEYS = ("threads",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a tail experiment depends on.

    params carries the estimator's settings, keyed as in _SPECS, plus an
    optional l_target override for the radius constant.  error_cap bounds
    how many per-trial errors are kept for quantiles; exceedance counts stay
    exact beyond it.
    """

    dist: DistributionSpec
    estimator: str
    n: int
    trials: int
    deltas: tuple[float, ...]
    seed: int
    threads: int = 1
    params: dict = field(default_factory=dict)
    error_cap: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class TailRow:
    """Per-delta scoring of one experiment.

    flag is "" for a clean row, otherwise "+"-joined markers:
    invalid_delta (delta outside the estimator's range, row not computed),
    below_delta_min (computed, but outside the stated guarantee range),
    undersampled (delta < 10/trials, quantile unreliable),
    subsampled_quantile (quantile from a stratified subsample; exceedance
    still exact),
    nonfinite (at least one trial error is NaN or infinite: a NaN never
    counts as an exceedance, so the row's numbers are not meaningful),
    degenerate (sigma = 0: the radius is 0, so any rounding error in an
    estimate is an exceedance, and l_hat is 0 by convention).
    """

    delta: float
    radius: float
    exceedance: float
    quantile_error: float
    l_hat: float
    flag: str = ""


# The numeric fields of a row: the CSV columns, in order.
_COLUMNS = tuple(f.name for f in fields(TailRow) if f.name != "flag")


@dataclass(frozen=True)
class TailReport:
    rows: tuple[TailRow, ...]
    metadata: dict
    wall_time_s: float | None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))


def _validate_deltas(deltas) -> None:
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError(f"delta {d!r} outside (0, 1)")
    pairs = list(zip(deltas, deltas[1:]))
    if not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
        raise ValueError("deltas must be strictly increasing or decreasing")


def _kernel(name: str, *args):
    """Chunk (and block count) -> estimates by _batch.<name>, looked up at
    call time so that a wrapped kernel is the one called."""
    return lambda mat, *b: getattr(_batch, name)(mat, *b, *args)


def _plan_empirical(dist, n, p):
    # Gaussian-limit constant: sqrt(2) makes the CLT tail exactly delta/e.
    return (lambda mat: mat.mean(axis=1)), None, 0.0, math.sqrt(2.0)


def _plan_mom(dist, n, p):
    _mom_blocks(n, 0.5)  # n < 4 fails at every delta: raise it once
    return _kernel("mom_rows"), functools.partial(_mom_blocks, n), 0.0, _MOM_WIDTH


def _plan_kreg(dist, n, p):
    k = p["k_reg"]
    _kreg_check(n, k)
    d = 0.25 * math.log(0.75) + 0.75 * math.log(1.125)
    l0 = 2.0 * math.exp(2.0 * d + 0.5)
    # From midpoint error <= L0*sigma*sqrt(2b/n) and
    # b <= (1 + 62 ln 3)(1 + ln(1/delta)), with a sqrt(k) allowance for
    # the block-size floor at regularity index k.
    l_target = l0 * math.sqrt(2.0 * k * (1.0 + 62.0 * math.log(3.0)))
    return _kernel("kreg_midpoint_rows"), lambda delta: _kreg_blocks(n, delta, k), 0.0, l_target


def _plan_fixed(dist, n, p):
    _check_sigma2_hi(p["sigma2_hi"])
    m = _family_depth(p["delta_min"], n)
    l_target = 0.0
    if dist.sigma2 > 0.0:
        l_target = 2.0 * _MOM_WIDTH * _COMBINED * math.sqrt(p["sigma2_hi"] / dist.sigma2)
    return _kernel("combined_fixed_rows", m, p["sigma2_hi"]), None, p["delta_min"], l_target


def _plan_adaptive(dist, n, p):
    m = _family_depth(p["delta_min"], n)
    # On the good event the variance estimate stays below 1.5 sigma^2,
    # so the data-driven radius is at most 8 sqrt(3) e sigma sqrt(...).
    l_target = 8.0 * math.sqrt(3.0) * math.e * _COMBINED
    return _kernel("combined_adaptive_rows", m), None, p["delta_min"], l_target


def _plan_kurtosis(dist, n, p):
    b_max, kappa = p["b_max"], p["kappa_bound"]
    if not kappa >= 1.0:  # also rejects NaN
        raise ValueError("kappa_bound must be >= 1")
    _kurtosis_check(n, b_max)
    l_target = math.inf
    if math.isfinite(kappa):
        l_target = math.sqrt(2.0) * (1.0 + xi_terms(kappa, n, b_max).xi)
    return _kernel("truncated_pipeline_rows", b_max), None, delta_floor(b_max), l_target


# estimator -> (parameter defaults, plan).  A parameter is an int if its
# default is one and a float otherwise; a default of None makes it required,
# a callable reads it from the distribution.  Every estimator also takes an
# optional l_target, which overrides the constant its plan returns.
#
# plan(dist, n, params) returns (kernel, blocks, floor, l_target) and raises
# on preconditions that no delta can satisfy.  kernel maps a (trials, n)
# chunk to one estimate per row.  The delta-dependent estimators also pass it
# the block count blocks(delta) returns, and a ValueError from blocks marks
# that delta invalid.  Rows with delta below floor lie outside the stated
# guarantee.  l_target is the theoretical constant the experiment scores.
# Every validity rule is the one-sample estimator's own, except that kurtosis
# also takes an infinite kappa_bound, which it scores against l_target = inf.
_SPECS = {
    "empirical": ({}, _plan_empirical),
    "mom": ({}, _plan_mom),
    "quantile_kreg": ({"k_reg": 1}, _plan_kreg),
    "combined_fixed_sigma": ({"sigma2_hi": None, "delta_min": 2.0**-10}, _plan_fixed),
    "combined_adaptive": ({"delta_min": 2.0**-10}, _plan_adaptive),
    "kurtosis": ({"b_max": 8, "kappa_bound": lambda dist: dist.kappa}, _plan_kurtosis),
}
ESTIMATORS = tuple(_SPECS)


def _resolve_params(estimator: str, dist: DistributionSpec, raw: dict) -> dict:
    if estimator not in _SPECS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    defaults = _SPECS[estimator][0]
    unknown = set(raw) - set(defaults) - {"l_target"}
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for estimator {estimator!r}"
        )
    out: dict = {}
    for key, default in defaults.items():
        value = raw.get(key, default(dist) if callable(default) else default)
        if value is None:
            raise ValueError(f"{estimator} requires params[{key!r}]")
        out[key] = _as_int(key, value) if isinstance(default, int) else float(value)
    if "l_target" in raw:
        l_target = float(raw["l_target"])
        if not l_target > 0.0:
            raise ValueError("l_target must be > 0")
        out["l_target"] = l_target
    return dict(sorted(out.items()))


def run_tail_experiment(config: ExperimentConfig) -> TailReport:
    """Score an estimator's deviations over config.trials seeded samples.

    Trial t uses the sample sample(dist, n, mix_seed(seed, t)).  For each
    delta: radius = l_target * sigma * sqrt((1 + ln(1/delta))/n), exceedance
    is the exact fraction of trials with |estimate - mu| > radius,
    quantile_error is the rank-ceil((1-delta)*T) order statistic of the
    errors, and l_hat = quantile_error / (sigma*sqrt((1+ln(1/delta))/n)), or
    0 when sigma = 0, where every computed row is flagged degenerate.
    """
    start = time.perf_counter()
    dist = config.dist
    estimator = config.estimator
    n, trials, threads, error_cap = (_count(name, getattr(config, name)) for name in
                                     ("n", "trials", "threads", "error_cap"))
    seed = _as_int("seed", config.seed)
    deltas = config.deltas
    _validate_deltas(deltas)
    p = _resolve_params(estimator, dist, config.params)
    kernel, blocks, floor, l_target = _SPECS[estimator][1](dist, n, p)
    l_target = p.get("l_target", l_target)
    token = _token(dist)
    # Valid delta index -> its kernel arguments: (), or (b,) for a delta-dependent block count b.
    valid = {}
    for j, d in enumerate(deltas):
        try:
            valid[j] = () if blocks is None else (blocks(d),)
        except ValueError:
            pass
    sigma = math.sqrt(dist.sigma2)
    mu = dist.mu
    nd = len(deltas)

    denom = np.array([sigma * math.sqrt((1.0 - math.log(d)) / n) for d in deltas])
    radius = np.array(
        [l_target * denom[j] if j in valid else math.nan for j in range(nd)]
    )

    # Valid delta j is scored against error column col[j], one column for
    # each distinct argument tuple.  Exceedances are counted per chunk; the
    # quantiles come from the kept trials, every trial unless
    # trials > error_cap, when a stratified subsample is kept.
    columns = list(dict.fromkeys(valid.values()))
    col = {j: columns.index(args) for j, args in valid.items()}
    scored, scored_cols = list(col), list(col.values())
    kept = min(trials, error_cap)
    keep = (np.arange(kept, dtype=np.int64) * trials) // kept
    store = np.full((kept, len(columns)), np.nan)
    bounds = chunk_bounds(trials, n)
    counts = np.zeros((len(bounds), nd), dtype=np.int64)
    # Per chunk and delta: whether any trial error is NaN or infinite.
    nonfinite = np.zeros((len(bounds), nd), dtype=bool)

    def run_chunk(ci: int) -> None:
        t0, t1 = bounds[ci]
        mat = _draw_chunk(token, dist.params, n, seed, t0, t1)
        out = np.empty((t1 - t0, len(columns)))
        for i, args in enumerate(columns):
            out[:, i] = np.abs(kernel(mat, *args) - mu)
        err = out[:, scored_cols]
        nonfinite[ci, scored] = ~np.isfinite(err).all(axis=0)
        counts[ci, scored] = np.count_nonzero(err > radius[scored], axis=0)
        lo, hi = np.searchsorted(keep, (t0, t1))
        store[lo:hi] = out[keep[lo:hi] - t0]

    if valid:
        if threads == 1 or len(bounds) == 1:
            for ci in range(len(bounds)):
                run_chunk(ci)
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                # consume to propagate exceptions
                list(ex.map(run_chunk, range(len(bounds))))

    rows = []
    for j, d in enumerate(deltas):
        if j not in valid:
            rows.append(
                TailRow(float(d), math.nan, math.nan, math.nan, math.nan, "invalid_delta")
            )
            continue
        flags = ["below_delta_min"] if d < floor * (1.0 - _REL_SLACK) else []
        if d * trials < 10.0:
            flags.append("undersampled")
        if kept < trials:
            flags.append("subsampled_quantile")
        if nonfinite[:, j].any():
            flags.append("nonfinite")
        if sigma == 0.0:
            flags.append("degenerate")
        q = _order_stat(store[:, col[j]], 1.0 - d)
        l_hat = q / float(denom[j]) if sigma > 0.0 else 0.0
        rows.append(
            TailRow(
                float(d),
                float(radius[j]),
                int(counts[:, j].sum()) / trials,
                q,
                l_hat,
                "+".join(flags),
            )
        )

    metadata = {
        "tool": "subgauss",
        "version": __version__,
        "dist": format_distribution(dist),
        "estimator": estimator,
        "params": p,
        "n": n,
        "trials": trials,
        "seed": seed,
        "deltas": [float(d) for d in deltas],
        "error_cap": error_cap,
        "l_target": l_target,
        "mu": mu,
        "sigma": sigma,
        "threads": threads,
    }
    return TailReport(
        rows=tuple(rows), metadata=metadata, wall_time_s=time.perf_counter() - start
    )


def exceedance_rate(errors, radius: float) -> float:
    """Fraction of errors strictly greater than radius."""
    arr = np.asarray(errors, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("errors must be a nonempty one-dimensional sequence")
    return int(np.count_nonzero(arr > radius)) / arr.size


def normalized_quantile_curve(errors, sigma: float, n: int, deltas):
    """Per delta: the empirical (1-delta)-quantile of the errors divided by
    sigma*sqrt((1+ln(1/delta))/n), i.e. the realized constant L_hat(delta).
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0 for a normalized curve; report raw quantiles instead")
    n = _count("n", n)
    arr = np.asarray(errors, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("errors must be a nonempty one-dimensional sequence")
    out = []
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError(f"delta {d!r} outside (0, 1)")
        q = _order_stat(arr, 1.0 - d)
        out.append((float(d), q / (sigma * math.sqrt((1.0 - math.log(d)) / n))))
    return out


def _json_safe(value):
    # Non-finite floats become the strings "nan", "inf" and "-inf".
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_restore(value):
    if value in ("nan", "inf", "-inf"):
        return float(value)
    if isinstance(value, dict):
        return {k: _json_restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_restore(v) for v in value]
    return value


def _fmt_float(x: float) -> str:
    # repr is the shortest string that round-trips the exact float64
    return repr(float(x))


def _render_csv(report: TailReport) -> str:
    lines = []
    for key, value in report.metadata.items():
        if key in _VOLATILE_KEYS:
            continue
        if key == "deltas":
            text = ",".join(_fmt_float(d) for d in value)
        elif key == "params":
            text = json.dumps(_json_safe(value), sort_keys=True)
        elif isinstance(value, float):
            text = _fmt_float(value)
        else:
            text = str(value)
        lines.append(f"# {key} = {text}")
    for row in report.rows:
        if row.flag:
            lines.append(f"# flag delta={_fmt_float(row.delta)} : {row.flag}")
    lines.append(",".join(_COLUMNS))
    for row in report.rows:
        lines.append(",".join(_fmt_float(getattr(row, c)) for c in _COLUMNS))
    return "\n".join(lines) + "\n"


def _render_json(report: TailReport) -> str:
    obj = {
        "metadata": {
            k: _json_safe(v)
            for k, v in report.metadata.items()
            if k not in _VOLATILE_KEYS
        },
        "rows": [
            {**{c: _json_safe(getattr(row, c)) for c in _COLUMNS}, "flag": row.flag}
            for row in report.rows
        ],
    }
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_report(report: TailReport, format: str, path) -> None:
    """Serialize a report to CSV or JSON.

    CSV: `# key = value` metadata comments (plus one `# flag ...` line per
    flagged row), then the exact header delta,radius,exceedance,
    quantile_error,l_hat, then one shortest-round-trip-formatted row per
    delta.  JSON mirrors the report structure; non-finite numbers are
    serialized as the strings "nan"/"inf"/"-inf".  Wall time and thread
    count are deliberately not written so identical configs produce
    byte-identical files.
    """
    if format == "csv":
        text = _render_csv(report)
    elif format == "json":
        text = _render_json(report)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def read_report(path) -> TailReport:
    """Parse a JSON report written by write_report.

    The inverse of the JSON writer up to the volatile fields: wall_time_s
    comes back as None and the thread count is absent by design.
    """
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError(f"{path}: not a JSON tail report")
    rows = tuple(
        TailRow(**{c: _json_restore(r[c]) for c in _COLUMNS}, flag=r.get("flag", ""))
        for r in obj["rows"]
    )
    return TailReport(
        rows=rows, metadata=_json_restore(obj.get("metadata", {})), wall_time_s=None
    )
