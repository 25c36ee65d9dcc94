"""Vectorized batch kernels for the Monte Carlo engine, and the block
compositions they share with the one-sample estimators.

Each kernel evaluates one estimator on every row of a (trials, n) matrix at
once.  The block means, median of means, quartiles and block variances are
the one-sample kernels of core_estimators, and the combined levels and the
truncated-mean pipeline are written here once, over the last axis, for one
sample (n,) and a chunk alike.  So every kernel gives each row the bits of
the one-sample call on it.

The variance and truncation kernels write every elementwise intermediate
into scratch allocated per call, so concurrent calls on threads share
nothing; seeding.chunk_bounds sizes the chunks they are handed.  An
estimate sums the block means of its distinct block counts once, in one
reduceat a group of layouts: the combined levels' centres and variances,
and the pipeline's centre and spread, read the same means.
"""

from __future__ import annotations

import functools
import math

import numpy as np

try:  # the ufunc behind np.clip, called without np.clip's Python wrappers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .core_estimators import _LN2, _MOM_WIDTH, _ceil_tol, _level_radius, _mom_count, _select
from .core_estimators import _block_means as block_mean_rows, _block_variances, _quartiles
# mom_rows and mom_variance_rows are kernels by name, for the harness and perfbench's spans.
from .core_estimators import _mom as mom_rows, _mom_variance as mom_variance_rows  # noqa: F401


def kreg_midpoint_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    lo, hi = _quartiles(chunk, b)
    return 0.5 * (lo + hi)


def _clipped_mean(x: np.ndarray, lo, hi) -> np.ndarray:
    """Mean along the last axis of x clipped to [lo, hi], by the ufuncs behind np.clip
    and np.mean, into a C-ordered scratch, so each row sums pairwise on any layout."""
    return np.add.reduce(_clip(x, lo, hi, out=np.empty(x.shape)), axis=-1) / x.shape[-1]


def _pipeline(x: np.ndarray, b_max: int) -> tuple:
    """Truncated-mean pipeline (mu, nu2, R, estimate) of one sample (n,), as floats,
    or of every row of a chunk (T, n) (n // b_max >= 2): median block mean and block
    variance, R = sqrt(nu2 n/(2 b_max)), and the mean clipped to mu -/+ R."""
    means = block_mean_rows(x, (b_max,))
    # The variances read the means in block order, before _select partitions them.
    nu2 = _select(_block_variances(x, means)[0], (b_max - 1) // 2)
    mu = _select(means[0], (b_max - 1) // 2)
    r = np.sqrt(nu2) * math.sqrt(x.shape[-1] / (2.0 * b_max))
    if x.ndim == 1:  # Python floats: numpy scalars warn on inf - inf
        mu, nu2, r = float(mu), float(nu2), float(r)
        return mu, nu2, r, float(_clipped_mean(x, mu - r, mu + r))
    return mu, nu2, r, _clipped_mean(x, (mu - r)[:, None], (mu + r)[:, None])


def truncated_pipeline_rows(chunk: np.ndarray, b_max: int) -> np.ndarray:
    """Truncated-mean pipeline estimate per row (center, spread, clip, mean)."""
    return _pipeline(chunk, b_max)[3]


def combine_rows(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix-intersection midpoints per row.

    Column k-1 of los/his holds interval k of the family.  Walks suffixes
    from k = m down, keeps the deepest nonempty intersection, and returns
    (estimate, k_hat) per row, matching the scalar combine().
    """
    m = los.shape[1]
    rlo = np.maximum.accumulate(los[:, ::-1], axis=1)
    rhi = np.minimum.accumulate(his[:, ::-1], axis=1)
    ok = np.logical_and.accumulate(rlo <= rhi, axis=1)
    j = ok.sum(axis=1) - 1  # >= 0: the single deepest interval is nonempty
    rows = np.arange(los.shape[0])
    est = 0.5 * (rlo[rows, j] + rhi[rows, j])
    return est, m - j


@functools.lru_cache(maxsize=64)
def _level_blocks(m: int) -> tuple[tuple[int, ...], ...]:
    """Centre and variance block counts of levels k = 1..m (median_of_means's at 2^(-k),
    adaptive_family's max(2, ceil(k ln 2))), then distinct centre, variance and all counts."""
    b_of = tuple(_mom_count(2.0**-k) for k in range(1, m + 1))
    v_of = tuple(max(2, _ceil_tol(k * _LN2)) for k in range(1, m + 1))
    return b_of, v_of, *(tuple(sorted(set(c))) for c in (b_of, v_of, b_of + v_of))


def _levels(x: np.ndarray, m: int, widths, means: dict | None = None) -> list[tuple]:
    """(centre, radius) of levels k = 1..m of one sample (n,) or a chunk
    (T, n): the median-of-means at delta = 2^(-k), and the k-th width times
    sqrt((1 + k ln 2)/n).  The centres partition the block means that means
    holds at each centre block count, or that are computed here."""
    b_of, _, bs, _, _ = _level_blocks(m)
    means = means or dict(zip(bs, block_mean_rows(x, bs)))
    mom_of = {b: _select(means[b], (b - 1) // 2) for b in bs}
    n = x.shape[-1]
    return [(mom_of[b], w * _level_radius(k, n)) for k, (b, w) in enumerate(zip(b_of, widths), 1)]


def _adaptive_levels(x: np.ndarray, m: int) -> list[tuple]:
    """Levels whose radii come from per-level block-variance estimates."""
    _, v_of, _, vs, both = _level_blocks(m)
    # One group of block means (k = 1..9 use 7 counts) serves the centres and the
    # variances, which read the means in block order, before _levels partitions them.
    means = dict(zip(both, block_mean_rows(x, both)))
    width_of = {b: 2.0 * _MOM_WIDTH * np.sqrt(_select(v, (b - 1) // 2))
                for b, v in zip(vs, _block_variances(x, [means[b] for b in vs]))}
    return _levels(x, m, [width_of[b] for b in v_of], means)


def _combined_rows(levels) -> np.ndarray:
    """Combined estimate per row of the levels centre -/+ radius."""
    los = np.column_stack([c - r for c, r in levels])
    his = np.column_stack([c + r for c, r in levels])
    return combine_rows(los, his)[0]


def combined_fixed_rows(chunk: np.ndarray, m: int, sigma2_hi: float) -> np.ndarray:
    """Combined estimate per row, radii from a known variance bound."""
    return _combined_rows(_levels(chunk, m, [_MOM_WIDTH * math.sqrt(sigma2_hi)] * m))


def combined_adaptive_rows(chunk: np.ndarray, m: int) -> np.ndarray:
    """Combined estimate per row, radii from per-level variance estimates."""
    return _combined_rows(_adaptive_levels(chunk, m))
