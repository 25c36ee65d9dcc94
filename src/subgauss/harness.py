"""Monte Carlo tail-verification engine.

Runs an estimator on many independent samples, measures |estimate - mu| per
trial, and scores the error distribution on a delta grid against the target
radius L * sigma * sqrt((1 + ln(1/delta)) / n).

Reports are pure functions of the configuration: per-trial seeds derive from
(seed, trial index) alone, trials are processed in fixed-size chunks whose
layout never depends on the thread count, and aggregation order is fixed.
Repeating a run with any number of threads yields byte-identical files.

Each chunk is seeded and drawn in bulk: `seeding.trial_rngs` builds the
chunk's Generators from array-computed seeds and states, each row is filled
from its own Generator, and the family's transform runs once over the whole
chunk.  Row t still holds exactly sample(dist, n, mix_seed(seed, t)), the
stream of ``np.random.default_rng(mix_seed(seed, t))``.
"""

from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from ._version import __version__
from .core_estimators import _ceil_tol, _kreg_blocks, _kreg_check, _mom_blocks
from .distributions import DistributionSpec, _draw_rows, format_distribution
from .interval_combiner import _adaptive_depth, _family_depth
from .kurtosis_pipeline import _check as _kurtosis_check
from .kurtosis_pipeline import delta_floor, xi_terms
from .seeding import chunk_bounds, trial_rngs

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

ESTIMATORS = (
    "empirical",
    "mom",
    "quantile_kreg",
    "combined_fixed_sigma",
    "combined_adaptive",
    "kurtosis",
)

# Estimators that take delta as an input and are recomputed per delta; the
# rest are computed once per trial and scored at every delta.
DELTA_DEPENDENT = frozenset({"mom", "quantile_kreg"})

_LN2 = math.log(2.0)
_CSV_HEADER = "delta,radius,exceedance,quantile_error,l_hat"
# Config echo keys that may differ between equivalent runs; kept in the
# in-memory report, excluded from serialized files.
_VOLATILE_KEYS = ("threads",)

_PARAM_KEYS = {
    "empirical": (),
    "mom": (),
    "quantile_kreg": ("k_reg",),
    "combined_fixed_sigma": ("sigma2_hi", "delta_min"),
    "combined_adaptive": ("delta_min",),
    "kurtosis": ("b_max", "kappa_bound"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a tail experiment depends on.

    params carries estimator-specific settings: k_reg (quantile_kreg),
    sigma2_hi and delta_min (combined_fixed_sigma), delta_min
    (combined_adaptive), b_max and kappa_bound (kurtosis), plus an optional
    l_target override for the radius constant.  error_cap bounds how many
    per-trial errors are kept for quantiles; exceedance counts stay exact
    beyond it.
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
    counts as an exceedance, so the row's numbers are not meaningful).
    """

    delta: float
    radius: float
    exceedance: float
    quantile_error: float
    l_hat: float
    flag: str = ""


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
    if len(deltas) >= 2:
        pairs = list(zip(deltas, deltas[1:]))
        if not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
            raise ValueError("deltas must be strictly increasing or decreasing")


def _resolve_params(estimator: str, dist: DistributionSpec, raw: dict) -> dict:
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    allowed = set(_PARAM_KEYS[estimator]) | {"l_target"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for estimator {estimator!r}"
        )
    out: dict = {}
    if estimator == "quantile_kreg":
        k_reg = int(raw.get("k_reg", 1))
        if k_reg < 1:
            raise ValueError("k_reg must be >= 1")
        out["k_reg"] = k_reg
    elif estimator == "combined_fixed_sigma":
        if "sigma2_hi" not in raw:
            raise ValueError("combined_fixed_sigma requires params['sigma2_hi']")
        sigma2_hi = float(raw["sigma2_hi"])
        if not sigma2_hi > 0.0:
            raise ValueError("sigma2_hi must be > 0")
        out["sigma2_hi"] = sigma2_hi
        out["delta_min"] = float(raw.get("delta_min", 2.0**-10))
    elif estimator == "combined_adaptive":
        out["delta_min"] = float(raw.get("delta_min", 2.0**-10))
    elif estimator == "kurtosis":
        out["b_max"] = int(raw.get("b_max", 8))
        kappa = float(raw.get("kappa_bound", dist.kappa))
        if not kappa >= 1.0:  # also rejects NaN
            raise ValueError("kappa_bound must be >= 1")
        out["kappa_bound"] = kappa
    if "l_target" in raw:
        l_target = float(raw["l_target"])
        if not l_target > 0.0:
            raise ValueError("l_target must be > 0")
        out["l_target"] = l_target
    return dict(sorted(out.items()))


def _kernel(name: str, *args):
    """Chunk (and block count) -> estimates by _batch.<name>, looked up at
    call time so that a wrapped kernel is the one called."""
    return lambda mat, *b: getattr(_batch, name)(mat, *b, *args)


def _plan(estimator: str, dist: DistributionSpec, n: int, p: dict):
    """(kernel, blocks, floor, l_target) of an experiment; raises on
    preconditions that no delta can satisfy.

    kernel maps a (trials, n) chunk to one estimate per row.  The
    delta-dependent estimators also pass it the block count blocks(delta)
    returns, and a ValueError from blocks marks that delta invalid.  Rows with
    delta below floor lie outside the stated guarantee.  l_target is the
    theoretical constant the experiment scores.  Every validity rule is the
    one-sample estimator's own.
    """
    if estimator == "empirical":
        # Gaussian-limit constant: sqrt(2) makes the CLT tail exactly delta/e.
        return (lambda mat: mat.mean(axis=1)), None, 0.0, math.sqrt(2.0)
    if estimator == "mom":
        _mom_blocks(n, 0.5)  # n < 4 fails at every delta: raise it once
        l_target = 2.0 * math.sqrt(2.0) * math.e
        return _kernel("mom_rows"), functools.partial(_mom_blocks, n), 0.0, l_target
    if estimator == "quantile_kreg":
        k = p["k_reg"]
        _kreg_check(n, k)
        d = 0.25 * math.log(0.75) + 0.75 * math.log(1.125)
        l0 = 2.0 * math.exp(2.0 * d + 0.5)
        # From midpoint error <= L0*sigma*sqrt(2b/n) and
        # b <= (1 + 62 ln 3)(1 + ln(1/delta)), with a sqrt(k) allowance for
        # the block-size floor at regularity index k.
        l_target = l0 * math.sqrt(2.0 * k * (1.0 + 62.0 * math.log(3.0)))
        return _kernel("kreg_midpoint_rows"), lambda delta: _kreg_blocks(n, delta, k), 0.0, l_target
    if estimator == "combined_fixed_sigma":
        m = _family_depth(p["delta_min"], n)
        l_target = 0.0
        if dist.sigma2 > 0.0:
            base = 4.0 * math.sqrt(2.0) * math.e * math.sqrt(1.0 + 2.0 * _LN2)
            l_target = base * math.sqrt(p["sigma2_hi"] / dist.sigma2)
        kernel = _kernel("combined_fixed_rows", m, p["sigma2_hi"])
        return kernel, None, p["delta_min"], l_target
    if estimator == "combined_adaptive":
        m = _adaptive_depth(n, p["delta_min"])
        # On the good event the variance estimate stays below 1.5 sigma^2,
        # so the data-driven radius is at most 8 sqrt(3) e sigma sqrt(...).
        l_target = 8.0 * math.sqrt(3.0) * math.e * math.sqrt(1.0 + 2.0 * _LN2)
        return _kernel("combined_adaptive_rows", m), None, p["delta_min"], l_target
    b_max, kappa = p["b_max"], p["kappa_bound"]
    _kurtosis_check(n, b_max)
    l_target = math.inf
    if math.isfinite(kappa):
        l_target = math.sqrt(2.0) * (1.0 + xi_terms(kappa, n, b_max).xi)
    return _kernel("truncated_pipeline_rows", b_max), None, delta_floor(b_max), l_target


def run_tail_experiment(config: ExperimentConfig) -> TailReport:
    """Score an estimator's deviations over config.trials seeded samples.

    Trial t uses the sample sample(dist, n, mix_seed(seed, t)).  For each
    delta: radius = l_target * sigma * sqrt((1 + ln(1/delta))/n), exceedance
    is the exact fraction of trials with |estimate - mu| > radius,
    quantile_error is the rank-ceil((1-delta)*T) order statistic of the
    errors, and l_hat = quantile_error / (sigma*sqrt((1+ln(1/delta))/n)), or
    0 when sigma = 0.
    """
    start = time.perf_counter()
    dist = config.dist
    estimator = config.estimator
    n = int(config.n)
    trials = int(config.trials)
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if config.error_cap < 1:
        raise ValueError("error_cap must be >= 1")
    deltas = config.deltas
    _validate_deltas(deltas)
    p = _resolve_params(estimator, dist, config.params)
    kernel, blocks, floor, l_target = _plan(estimator, dist, n, p)
    l_target = p.get("l_target", l_target)
    # Per delta: (valid, base flags, block count of a delta-dependent kernel).
    rowinfo = []
    for d in deltas:
        try:
            b = None if blocks is None else blocks(d)
        except ValueError:
            rowinfo.append((False, ["invalid_delta"], None))
            continue
        flags = ["below_delta_min"] if d < floor * (1.0 - 1e-12) else []
        if d * trials < 10.0:
            flags.append("undersampled")
        rowinfo.append((True, flags, b))
    sigma = math.sqrt(dist.sigma2)
    mu = dist.mu
    nd = len(deltas)

    denom = np.array([sigma * math.sqrt((1.0 - math.log(d)) / n) for d in deltas])
    radius = np.array(
        [l_target * denom[j] if rowinfo[j][0] else math.nan for j in range(nd)]
    )

    ddep = blocks is not None
    specs = [(j, rowinfo[j][2]) for j in range(nd) if ddep and rowinfo[j][0]]
    subsampled = trials > config.error_cap
    kept = min(trials, config.error_cap)
    keep = (np.arange(kept, dtype=np.int64) * trials) // kept if subsampled else None
    store = np.full((kept, nd), np.nan) if ddep else np.empty(kept)
    bounds = chunk_bounds(trials, n)
    counts = np.zeros((len(bounds), nd), dtype=np.int64) if subsampled else None
    # Per chunk and delta: whether any trial error is NaN or infinite.
    nonfinite = np.zeros((len(bounds), nd), dtype=bool)

    def run_chunk(ci: int) -> None:
        t0, t1 = bounds[ci]
        c = t1 - t0
        mat = np.empty((c, n), dtype=np.float64)
        _draw_rows(dist, mat, trial_rngs(config.seed, t0, t1))
        if ddep:
            out = np.full((c, nd), np.nan)
            for j, b in specs:
                out[:, j] = np.abs(kernel(mat, b) - mu)
        else:
            out = np.abs(kernel(mat) - mu)
        finite = np.isfinite(out)
        nonfinite[ci] = ~(finite.all(axis=0) if ddep else finite.all())
        if not subsampled:
            store[t0:t1] = out
            return
        if ddep:
            counts[ci] = np.count_nonzero(out > radius[None, :], axis=0)
        else:
            counts[ci] = np.count_nonzero(out[:, None] > radius[None, :], axis=0)
        lo = int(np.searchsorted(keep, t0, side="left"))
        hi = int(np.searchsorted(keep, t1, side="left"))
        if hi > lo:
            store[lo:hi] = out[keep[lo:hi] - t0]

    if nd > 0:
        if config.threads == 1 or len(bounds) == 1:
            for ci in range(len(bounds)):
                run_chunk(ci)
        else:
            with ThreadPoolExecutor(max_workers=config.threads) as ex:
                # consume to propagate exceptions
                list(ex.map(run_chunk, range(len(bounds))))

    rows = []
    for j, d in enumerate(deltas):
        valid, flags, _b = rowinfo[j]
        if not valid:
            rows.append(
                TailRow(float(d), math.nan, math.nan, math.nan, math.nan, "invalid_delta")
            )
            continue
        flags = list(flags)
        col = store[:, j] if ddep else store
        if subsampled:
            flags.append("subsampled_quantile")
            exceed_count = int(counts[:, j].sum())
        else:
            exceed_count = int(np.count_nonzero(col > radius[j]))
        if nonfinite[:, j].any():
            flags.append("nonfinite")
        t_eff = col.size
        r = min(max(_ceil_tol((1.0 - d) * t_eff), 1), t_eff)
        q = float(np.partition(col, r - 1)[r - 1])
        l_hat = q / float(denom[j]) if sigma > 0.0 else 0.0
        rows.append(
            TailRow(
                float(d),
                float(radius[j]),
                exceed_count / trials,
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
        "seed": int(config.seed),
        "deltas": [float(d) for d in deltas],
        "error_cap": int(config.error_cap),
        "l_target": l_target,
        "mu": mu,
        "sigma": sigma,
        "threads": int(config.threads),
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
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.sort(np.asarray(errors, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("errors must be a nonempty one-dimensional sequence")
    t = arr.size
    out = []
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError(f"delta {d!r} outside (0, 1)")
        r = min(max(_ceil_tol((1.0 - d) * t), 1), t)
        q = float(arr[r - 1])
        out.append((float(d), q / (sigma * math.sqrt((1.0 - math.log(d)) / n))))
    return out


def _json_safe(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_restore(value):
    if value == "nan":
        return math.nan
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
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
    lines.append(_CSV_HEADER)
    for row in report.rows:
        lines.append(
            ",".join(
                _fmt_float(x)
                for x in (row.delta, row.radius, row.exceedance, row.quantile_error, row.l_hat)
            )
        )
    return "\n".join(lines) + "\n"


def _render_json(report: TailReport) -> str:
    obj = {
        "metadata": {
            k: _json_safe(v)
            for k, v in report.metadata.items()
            if k not in _VOLATILE_KEYS
        },
        "rows": [
            {
                "delta": _json_safe(row.delta),
                "radius": _json_safe(row.radius),
                "exceedance": _json_safe(row.exceedance),
                "quantile_error": _json_safe(row.quantile_error),
                "l_hat": _json_safe(row.l_hat),
                "flag": row.flag,
            }
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
        TailRow(
            delta=_json_restore(r["delta"]),
            radius=_json_restore(r["radius"]),
            exceedance=_json_restore(r["exceedance"]),
            quantile_error=_json_restore(r["quantile_error"]),
            l_hat=_json_restore(r["l_hat"]),
            flag=r.get("flag", ""),
        )
        for r in obj["rows"]
    )
    return TailReport(
        rows=rows, metadata=_json_restore(obj.get("metadata", {})), wall_time_s=None
    )
