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

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from ._version import __version__
from .core_estimators import _REG_MIN_FACTOR, _REG_RATE, _ceil_tol
from .distributions import DistributionSpec, _draw_rows, format_distribution
from .interval_combiner import _family_depth
from .kurtosis_pipeline import xi_terms
from .seeding import trial_rngs

# Not called here, but perfbench/spans.py wraps the one-trial draw and
# seeding layers under these names in this module.
from .distributions import _draw  # noqa: F401
from .seeding import mix_seed  # noqa: F401

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
# Floats generated per chunk; fixed so the chunk layout (and therefore every
# aggregate) is independent of thread count.
_CHUNK_TARGET = 1 << 22
_MAX_CHUNK_TRIALS = 4096
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
        b_max = int(raw.get("b_max", 8))
        if b_max < 1:
            raise ValueError("b_max must be >= 1")
        out["b_max"] = b_max
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


def _check_global(estimator: str, n: int, p: dict) -> dict:
    """Raise on preconditions that no delta can satisfy; return aux values."""
    if estimator == "mom" and n < 4:
        raise ValueError("median-of-means needs n >= 4")
    if estimator == "quantile_kreg":
        k = p["k_reg"]
        if n < _REG_MIN_FACTOR * k * (1.0 - 1e-12):
            raise ValueError(
                f"need n >= {_REG_MIN_FACTOR * k:.1f} for regularity index k={k}, got n={n}"
            )
    if estimator in ("combined_fixed_sigma", "combined_adaptive"):
        if n < 4:
            raise ValueError("combined families need n >= 4")
        m = _family_depth(p["delta_min"], n)
        if estimator == "combined_adaptive":
            b_m = max(2, _ceil_tol(m * _LN2))
            if n // b_m < 2:
                raise ValueError(
                    f"sample too small for the deepest level (n={n}, b_{m}={b_m})"
                )
        return {"m": m}
    if estimator == "kurtosis":
        if n < 4:
            raise ValueError("kurtosis pipeline needs n >= 4")
        if n // p["b_max"] < 2:
            raise ValueError(
                f"every block needs at least 2 points (n={n}, b_max={p['b_max']})"
            )
    return {}


def _delta_rows(estimator: str, n: int, trials: int, p: dict, deltas):
    """Per delta: (valid, base flags, block count for delta-dependent kernels)."""
    out = []
    for d in deltas:
        valid = True
        flags: list[str] = []
        b = None
        if estimator == "mom":
            lower = math.exp(1.0 - 0.5 * n)
            if d >= lower * (1.0 - 1e-12):
                b = max(1, _ceil_tol(-math.log(d)))
            else:
                valid = False
        elif estimator == "quantile_kreg":
            k = p["k_reg"]
            lower = math.exp(3.0 - n / (_REG_RATE * k))
            if d >= lower * (1.0 - 1e-12):
                b = _ceil_tol(62.0 * (math.log(3.0) - math.log(d)))
                if 2 * b * k > n:
                    valid = False
                    b = None
            else:
                valid = False
        elif estimator in ("combined_fixed_sigma", "combined_adaptive"):
            if d < p["delta_min"] * (1.0 - 1e-12):
                flags.append("below_delta_min")
        elif estimator == "kurtosis":
            dmin = (4.0 * math.e / (math.e - 2.0)) * math.exp(-p["b_max"])
            if d < dmin * (1.0 - 1e-12):
                flags.append("below_delta_min")
        if not valid:
            flags = ["invalid_delta"]
        elif d * trials < 10.0:
            flags.append("undersampled")
        out.append((valid, flags, b))
    return out


def _chunk_bounds(trials: int, n: int) -> list[tuple[int, int]]:
    """(first, stop) trial ranges of the chunks of about _CHUNK_TARGET values."""
    step = max(1, min(_MAX_CHUNK_TRIALS, _CHUNK_TARGET // n))
    return [(t0, min(t0 + step, trials)) for t0 in range(0, trials, step)]


def _resolve_l_target(estimator: str, dist: DistributionSpec, n: int, p: dict) -> float:
    """Theoretical constant scored by the experiment, unless overridden."""
    if "l_target" in p:
        return p["l_target"]
    if estimator == "empirical":
        # Gaussian-limit constant: sqrt(2) makes the CLT tail exactly delta/e.
        return math.sqrt(2.0)
    if estimator == "mom":
        return 2.0 * math.sqrt(2.0) * math.e
    if estimator == "quantile_kreg":
        d = 0.25 * math.log(0.75) + 0.75 * math.log(1.125)
        l0 = 2.0 * math.exp(2.0 * d + 0.5)
        # From midpoint error <= L0*sigma*sqrt(2b/n) and
        # b <= (1 + 62 ln 3)(1 + ln(1/delta)), with a sqrt(k) allowance for
        # the block-size floor at regularity index k.
        return l0 * math.sqrt(2.0 * p["k_reg"] * (1.0 + 62.0 * math.log(3.0)))
    if estimator == "combined_fixed_sigma":
        base = 4.0 * math.sqrt(2.0) * math.e * math.sqrt(1.0 + 2.0 * _LN2)
        if dist.sigma2 > 0.0:
            return base * math.sqrt(p["sigma2_hi"] / dist.sigma2)
        return 0.0
    if estimator == "combined_adaptive":
        # On the good event the variance estimate stays below 1.5 sigma^2,
        # so the data-driven radius is at most 8 sqrt(3) e sigma sqrt(...).
        return 8.0 * math.sqrt(3.0) * math.e * math.sqrt(1.0 + 2.0 * _LN2)
    kappa = p["kappa_bound"]
    if not math.isfinite(kappa):
        return math.inf
    return math.sqrt(2.0) * (1.0 + xi_terms(kappa, n, p["b_max"]).xi)


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
    aux = _check_global(estimator, n, p)
    rowinfo = _delta_rows(estimator, n, trials, p, deltas)
    l_target = _resolve_l_target(estimator, dist, n, p)
    sigma = math.sqrt(dist.sigma2)
    mu = dist.mu
    nd = len(deltas)

    denom = np.array([sigma * math.sqrt((1.0 - math.log(d)) / n) for d in deltas])
    radius = np.array(
        [l_target * denom[j] if rowinfo[j][0] else math.nan for j in range(nd)]
    )

    ddep = estimator in DELTA_DEPENDENT
    specs = [(j, rowinfo[j][2]) for j in range(nd) if ddep and rowinfo[j][0]]
    subsampled = trials > config.error_cap
    kept = min(trials, config.error_cap)
    keep = (np.arange(kept, dtype=np.int64) * trials) // kept if subsampled else None
    store = np.full((kept, nd), np.nan) if ddep else np.empty(kept)
    bounds = _chunk_bounds(trials, n)
    counts = np.zeros((len(bounds), nd), dtype=np.int64) if subsampled else None
    # Per chunk and delta: whether any trial error is NaN or infinite.
    nonfinite = np.zeros((len(bounds), nd), dtype=bool)
    m_depth = aux.get("m")

    def run_chunk(ci: int) -> None:
        t0, t1 = bounds[ci]
        c = t1 - t0
        mat = np.empty((c, n), dtype=np.float64)
        _draw_rows(dist, mat, trial_rngs(config.seed, t0, t1))
        if ddep:
            out = np.full((c, nd), np.nan)
            for j, b in specs:
                if estimator == "mom":
                    vals = _batch.mom_rows(mat, b)
                else:
                    vals = _batch.kreg_midpoint_rows(mat, b)
                out[:, j] = np.abs(vals - mu)
        else:
            if estimator == "empirical":
                vals = mat.mean(axis=1)
            elif estimator == "combined_fixed_sigma":
                vals = _batch.combined_fixed_rows(mat, m_depth, p["sigma2_hi"])
            elif estimator == "combined_adaptive":
                vals = _batch.combined_adaptive_rows(mat, m_depth)
            else:
                vals = _batch.truncated_pipeline_rows(mat, p["b_max"])
            out = np.abs(vals - mu)
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
