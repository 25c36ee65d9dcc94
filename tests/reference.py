"""Reference formulas that the optimized code must match bit for bit.

`draw` is the one-expression-per-family sampler that the two-stage
chunk draw in subgauss.distributions replaces, and `infvar_stress` the
one-trial-at-a-time loop that the chunked stress test replaces.

`fixed_sigma_family`, `adaptive_family`, `combine` and `pipeline` are the
one-sample formulas that the validate-once kernels replace: a
median-of-means centre and a block variance recomputed for every level.
Their block variances are the rows formula below on a one-row chunk.
`mom_variance` is the earlier one-sample block variance, a Python loop of
pairwise_block_variance over the blocks; its bits differ, and
tests/test_exact.py holds both within one bound of the exact value.
`block_means`, `block_variances` and `levels` are the per-layout passes
that the grouped block sums replace, on one sample or a chunk alike.

The rest are untiled reference versions of the variance-based batch
kernels: the straightforward whole-matrix formulas, where the block means
are gathered back to full row length, the centered squares live in (T, n)
temporaries, and the centres and variances are recomputed at every level.
The tiled kernels in subgauss._batch must agree with them bit for bit.
Their block sums and medians are plain np.add.reduceat and np.partition
calls, not the package's own kernels.
"""

from __future__ import annotations

import math

import numpy as np

from subgauss._batch import _LN2, combine_rows
from subgauss.adversarial import coupled_scaled_bernoulli
from subgauss.core_estimators import (
    ConfidenceInterval,
    _block_layout,
    _ceil_tol,
    pairwise_block_variance,
    partition_blocks,
    quantile_select,
)
from subgauss.distributions import as_values
from subgauss.interval_combiner import IntervalFamily, _family_depth
from subgauss.seeding import mix_seed


def draw(dist, n: int, rng: np.random.Generator) -> np.ndarray:
    family = dist.family
    p = dist.params
    if family == "gaussian":
        return p[0] + p[1] * rng.standard_normal(n)
    if family == "laplace":
        return rng.laplace(loc=p[0], scale=1.0, size=n)
    if family == "poisson":
        return rng.poisson(p[0], n).astype(np.float64)
    if family == "pareto":
        alpha, scale = p
        u = 1.0 - rng.random(n)
        return scale * u ** (-1.0 / alpha) - alpha * scale / (alpha - 1.0)
    if family == "student_t":
        return rng.standard_t(p[0], n)
    if family == "lognormal":
        return rng.lognormal(p[0], p[1], n)
    if family == "scaled_bernoulli_plus":
        return np.where(rng.random(n) < p[1], p[0], 0.0)
    if family == "scaled_bernoulli_minus":
        return np.where(rng.random(n) < p[1], -p[0], 0.0)
    if family == "constant":
        return np.full(n, p[0], dtype=np.float64)
    raise ValueError(f"unknown family {family!r}")


def infvar_stress(estimator, n, delta, alpha, M, trials, seed, p=None):
    log_term = math.log(2.0 / delta)
    if p is None:
        p = (2.0 / n) * log_term
    if not 0.0 < p < 1.0:
        raise ValueError("coupling probability outside (0, 1)")
    c = (M / (p * (1.0 - p) * (p**alpha + (1.0 - p) ** alpha))) ** (1.0 / (1.0 + alpha))
    radius = (M ** (1.0 / alpha) * log_term / n) ** (alpha / (1.0 + alpha))
    mean_plus = p * c

    fail_plus = 0
    fail_minus = 0
    match = 0
    for t in range(trials):
        cs = coupled_scaled_bernoulli(c, p, n, mix_seed(seed, t))
        xv = cs.x.values
        yv = cs.y.values
        if abs(estimator(xv) - mean_plus) > radius:
            fail_plus += 1
        if abs(estimator(yv) + mean_plus) > radius:
            fail_minus += 1
        if np.array_equal(xv, yv):
            match += 1
    return fail_plus / trials, fail_minus / trials, match / trials


def _mom_block_count(k: int) -> int:
    """Block count of median_of_means at delta = 2^-k: max(1, ceil(k ln 2))."""
    return max(1, _ceil_tol(-math.log(2.0**-k)))


def _median_rows(mat: np.ndarray) -> np.ndarray:
    """quantile_select(row, 0.5) of every row, or of one sample: 0-based rank
    ceil(b/2) - 1 along the last axis."""
    r = (mat.shape[-1] + 1) // 2 - 1
    return np.partition(mat, r, axis=-1)[..., r]


def mom_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    starts, sizes = _block_layout(chunk.shape[1], b)
    return _median_rows(np.add.reduceat(chunk, starts, axis=1) / sizes)


def mom_variance_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    starts, sizes = _block_layout(chunk.shape[1], b)
    mean = np.add.reduceat(chunk, starts, axis=1) / sizes
    block_of = np.repeat(np.arange(starts.size), sizes)
    centered = chunk - mean[:, block_of]
    ss = np.add.reduceat(centered * centered, starts, axis=1)
    var = np.maximum(ss / (sizes - 1), 0.0)
    return _median_rows(var)


def pipeline_rows(chunk: np.ndarray, b_max: int) -> tuple:
    n = chunk.shape[1]
    mu = mom_rows(chunk, b_max)
    nu2 = mom_variance_rows(chunk, b_max)
    r = np.sqrt(nu2) * math.sqrt(n / (2.0 * b_max))
    clipped = np.clip(chunk, (mu - r)[:, None], (mu + r)[:, None])
    return mu, nu2, r, clipped.mean(axis=1)


def truncated_pipeline_rows(chunk: np.ndarray, b_max: int) -> np.ndarray:
    return pipeline_rows(chunk, b_max)[3]


def combined_adaptive_rows(chunk: np.ndarray, m: int) -> np.ndarray:
    t, n = chunk.shape
    a = 2.0 * math.sqrt(2.0) * math.e * 2.0
    los = np.empty((t, m))
    his = np.empty((t, m))
    for k in range(1, m + 1):
        centers = mom_rows(chunk, _mom_block_count(k))
        b_k = max(2, _ceil_tol(k * _LN2))
        nu2 = mom_variance_rows(chunk, b_k)
        radius = (a * np.sqrt(nu2)) * math.sqrt((1.0 + k * _LN2) / n)
        los[:, k - 1] = centers - radius
        his[:, k - 1] = centers + radius
    return combine_rows(los, his)[0]


def combined_fixed_rows(chunk: np.ndarray, m: int, sigma2_hi: float) -> np.ndarray:
    t, n = chunk.shape
    scale = 2.0 * math.sqrt(2.0) * math.e * math.sqrt(sigma2_hi)
    los = np.empty((t, m))
    his = np.empty((t, m))
    for k in range(1, m + 1):
        centers = mom_rows(chunk, _mom_block_count(k))
        radius = scale * math.sqrt((1.0 + k * _LN2) / n)
        los[:, k - 1] = centers - radius
        his[:, k - 1] = centers + radius
    return combine_rows(los, his)[0]


def block_means(values: np.ndarray, b: int) -> np.ndarray:
    """Block means of the b-block layout along the last axis, one reduceat a
    layout: the passes that the grouped sums of core_estimators replace."""
    starts, sizes = _block_layout(values.shape[-1], b)
    return np.add.reduceat(values, starts, axis=-1) / sizes


def block_variances(values: np.ndarray, b: int) -> np.ndarray:
    """Unbiased block variances of the b-block layout along the last axis,
    about block_means gathered back to full length, one reduceat a layout."""
    starts, sizes = _block_layout(values.shape[-1], b)
    centred = values - block_means(values, b)[..., np.repeat(np.arange(b), sizes)]
    return np.add.reduceat(centred * centred, starts, axis=-1) / (sizes - 1)


def levels(values: np.ndarray, m: int, widths=None) -> list[tuple]:
    """(centre, radius) of levels k = 1..m of one sample or a chunk, as
    _batch._levels gives them (widths given) or _batch._adaptive_levels
    (widths None), with one block-means and one block-variance pass a level."""
    n = values.shape[-1]
    out = []
    for k in range(1, m + 1):
        if widths is None:
            nu2 = _median_rows(block_variances(values, max(2, _ceil_tol(k * _LN2))))
            width = 2.0 * (2.0 * math.sqrt(2.0) * math.e) * np.sqrt(nu2)
        else:
            width = widths[k - 1]
        radius = width * math.sqrt((1.0 + k * _LN2) / n)
        out.append((_median_rows(block_means(values, _mom_block_count(k))), radius))
    return out


def median_of_means(values: np.ndarray, b: int) -> float:
    starts, sizes = _block_layout(values.size, b)
    return quantile_select(np.add.reduceat(values, starts) / sizes, 0.5)


def median_of_means_at(values: np.ndarray, delta: float) -> float:
    """median_of_means at a confidence level: b = max(1, ceil(ln(1/delta)))."""
    return median_of_means(values, max(1, _ceil_tol(-math.log(delta))))


def mom_variance_row(values: np.ndarray, b: int) -> float:
    """mom_variance_rows on the one-row chunk of values."""
    return float(mom_variance_rows(values[None], b)[0])


def mom_variance(values: np.ndarray, b: int) -> float:
    part = partition_blocks(values.size, b)
    variances = [
        pairwise_block_variance(values[blk.start : blk.stop]) for blk in part.blocks
    ]
    return quantile_select(variances, 0.5)


def fixed_sigma_family(sample, sigma2_hi: float, delta_min: float) -> IntervalFamily:
    values = as_values(sample)
    n = values.size
    if not sigma2_hi > 0.0:
        raise ValueError("sigma2_hi must be > 0")
    m = _family_depth(delta_min, n)
    scale = 2.0 * math.sqrt(2.0) * math.e * math.sqrt(sigma2_hi)
    intervals = []
    for k in range(1, m + 1):
        center = median_of_means(values, _mom_block_count(k))
        radius = scale * math.sqrt((1.0 + k * _LN2) / n)
        intervals.append(ConfidenceInterval(center - radius, center + radius))
    return IntervalFamily(tuple(intervals))


def adaptive_family(sample, delta_min: float) -> IntervalFamily:
    values = as_values(sample)
    n = values.size
    m = _family_depth(delta_min, n)
    b_m = max(2, _ceil_tol(m * _LN2))
    if n // b_m < 2:
        raise ValueError(f"sample too small for the deepest level (n={n}, b_{m}={b_m})")
    nu2_of = [mom_variance_row(values, max(2, _ceil_tol(k * _LN2))) for k in range(1, m + 1)]
    intervals = []
    for k in range(1, m + 1):
        center = median_of_means(values, _mom_block_count(k))
        radius = (
            2.0 * math.sqrt(2.0) * math.e * 2.0 * math.sqrt(nu2_of[k - 1])
            * math.sqrt((1.0 + k * _LN2) / n)
        )
        if not (math.isfinite(center) and math.isfinite(radius)):
            raise ValueError(
                f"adaptive level {k} (delta=2^-{k}) has centre {center!r} and radius "
                f"{radius!r}: the sample's block sums overflow float64"
            )
        intervals.append(ConfidenceInterval(center - radius, center + radius))
    return IntervalFamily(tuple(intervals))


def combine(family: IntervalFamily) -> tuple[int, float, float]:
    """(k_hat, lo, hi) with every suffix k..m intersected afresh.  Each
    intersection folds from level m down, as the one-pass combine does, so a
    tie of 0.0 and -0.0 resolves alike."""

    def suffix(k):
        lo, hi = -math.inf, math.inf
        for iv in reversed(family.intervals[k - 1 :]):
            lo, hi = max(lo, iv.lo), min(hi, iv.hi)
        return lo, hi

    # A suffix is nonempty whenever a longer one is, so k_hat is where the
    # walk down from m stops.
    k_hat = family.m
    while k_hat > 1 and suffix(k_hat - 1)[0] <= suffix(k_hat - 1)[1]:
        k_hat -= 1
    return (k_hat, *suffix(k_hat))


def pipeline(values: np.ndarray, b_max: int) -> tuple[float, float, float, float]:
    """pipeline_rows on the one-row chunk of values."""
    return tuple(float(v[0]) for v in pipeline_rows(values[None], b_max))
