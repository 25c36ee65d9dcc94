"""Vectorized batch kernels for the Monte Carlo engine.

Each kernel evaluates one estimator on every row of a (trials, n) matrix at
once.  The block means, median of means and quartiles are the one-sample
kernels of core_estimators, so mom_rows, kreg_midpoint_rows and
combined_fixed_rows give each row the bits of the one-sample call.  The
block variances do not: mom_variance_rows sums each block by reduceat, the
one-sample kernel by stacked dot products, so it and the kernels built on
it agree with the one-sample calls up to floating-point reassociation.

The variance and truncation kernels write every elementwise intermediate
into one scratch buffer of their input's shape, allocated per call, so
concurrent calls on threads share nothing; seeding.chunk_bounds sizes the
chunks they are handed.  The combined kernels compute the median-of-means
centres, and combined_adaptive_rows the block variances, once per distinct
block count, not once per level.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core_estimators import _LN2, _MOM_WIDTH, _block_layout, _ceil_tol, _chunk_sums
from .core_estimators import _block_means as block_mean_rows, _mom as mom_rows
from .core_estimators import _level_radius, _mom_count, _quartiles, _select


def mom_variance_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    """Median of per-block unbiased variances for every row.

    Centered like the one-sample formula, so near-constant blocks far from
    zero keep full precision.  The chunk is centered block by block through
    reshaped views: the first n mod b blocks have q+1 values and the rest q,
    so (t, r, q+1) and (t, b-r, q) views broadcast the block means without
    a gather.
    """
    t, n = chunk.shape
    starts, sizes = _block_layout(n, b)
    q, r = divmod(n, b)
    split = r * (q + 1)
    buf = np.empty((t, n))
    mean = block_mean_rows(chunk, b)
    if r:
        np.subtract(
            chunk[:, :split].reshape(t, r, q + 1),
            mean[:, :r, None],
            out=buf[:, :split].reshape(t, r, q + 1),
        )
    np.subtract(
        chunk[:, split:].reshape(t, b - r, q),
        mean[:, r:, None],
        out=buf[:, split:].reshape(t, b - r, q),
    )
    np.multiply(buf, buf, out=buf)
    var = _chunk_sums(buf, starts) / (sizes - 1)
    return _select(var, (b - 1) // 2)


def kreg_midpoint_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    lo, hi = _quartiles(chunk, b)
    return 0.5 * (lo + hi)


def truncated_pipeline_rows(chunk: np.ndarray, b_max: int) -> np.ndarray:
    """Truncated-mean pipeline estimate per row (center, spread, clip, mean)."""
    n = chunk.shape[1]
    mu = mom_rows(chunk, b_max)
    nu2 = mom_variance_rows(chunk, b_max)
    r = np.sqrt(nu2) * math.sqrt(n / (2.0 * b_max))
    # A C-ordered scratch, so each row sums pairwise on any input layout.
    buf = np.clip(chunk, (mu - r)[:, None], (mu + r)[:, None], out=np.empty(chunk.shape))
    return buf.mean(axis=1)


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


def _mom_block_count(k: int) -> int:
    # block count of median_of_means at delta = 2^-k
    return _mom_count(2.0**-k)


def _variance_block_count(k: int) -> int:
    # variance block count of adaptive_family at level k
    return max(2, _ceil_tol(k * _LN2))


@functools.lru_cache(maxsize=64)
def _level_blocks(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Centre and variance block counts of levels k = 1..m."""
    ks = range(1, m + 1)
    return tuple(map(_mom_block_count, ks)), tuple(map(_variance_block_count, ks))


def _levels(x: np.ndarray, m: int, widths) -> list[tuple]:
    """(centre, radius) of levels k = 1..m of one sample (n,) or a chunk
    (T, n): the median-of-means at delta = 2^(-k), and the k-th width times
    sqrt((1 + k ln 2)/n)."""
    b_of = _level_blocks(m)[0]
    # Levels share block counts (k = 1..9 use 7 distinct b): one pass each.
    mom_of = {b: mom_rows(x, b) for b in set(b_of)}
    n = x.shape[-1]
    return [(mom_of[b], w * _level_radius(k, n)) for k, (b, w) in enumerate(zip(b_of, widths), 1)]


def _combined_rows(chunk: np.ndarray, m: int, widths) -> np.ndarray:
    """Combined estimate per row of the levels centre -/+ radius."""
    levels = _levels(chunk, m, widths)
    los = np.column_stack([c - r for c, r in levels])
    his = np.column_stack([c + r for c, r in levels])
    return combine_rows(los, his)[0]


def combined_fixed_rows(chunk: np.ndarray, m: int, sigma2_hi: float) -> np.ndarray:
    """Combined estimate per row, radii from a known variance bound."""
    return _combined_rows(chunk, m, [_MOM_WIDTH * math.sqrt(sigma2_hi)] * m)


def combined_adaptive_rows(chunk: np.ndarray, m: int) -> np.ndarray:
    """Combined estimate per row, radii from per-level variance estimates."""
    v_of = _level_blocks(m)[1]
    # Levels share block counts (k = 1..9 use 6 distinct b_k): one pass each.
    nu2_of = {b: mom_variance_rows(chunk, b) for b in set(v_of)}
    a = _MOM_WIDTH * 2.0
    return _combined_rows(chunk, m, (a * np.sqrt(nu2_of[b]) for b in v_of))
