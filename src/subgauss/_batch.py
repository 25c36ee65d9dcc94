"""Vectorized batch kernels for the Monte Carlo engine.

Each kernel evaluates one estimator on every row of a (trials, n) matrix at
once.  Block sums use a single reduceat over the flattened matrix with the
same block layout as the one-sample reference implementations, so batch
results agree with per-trial calls up to floating-point reassociation.

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

from .core_estimators import _LN2, _MOM_WIDTH, _block_layout, _ceil_tol, _level_radius
from .core_estimators import _mom_count, _rank


def _rank0(b: int, alpha: float) -> int:
    # 0-based index of quantile_select's rank.
    return _rank(alpha, b) - 1


def _segment_sums(chunk: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-block sums of every row: (T, n) with b block starts -> (T, b)."""
    t, n = chunk.shape
    flat = np.ascontiguousarray(chunk).reshape(-1)
    offsets = (np.arange(t, dtype=np.intp)[:, None] * n + starts[None, :]).reshape(-1)
    return np.add.reduceat(flat, offsets).reshape(t, starts.size)


def block_mean_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    starts, sizes = _block_layout(chunk.shape[1], b)
    return _segment_sums(chunk, starts) / sizes


def _select_rows(mat: np.ndarray, rank0: int) -> np.ndarray:
    return np.partition(mat, rank0, axis=1)[:, rank0]


def mom_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    """Median-of-means of every row at block count b."""
    return _select_rows(block_mean_rows(chunk, b), _rank0(b, 0.5))


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
    mean = _segment_sums(chunk, starts) / sizes
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
    var = _segment_sums(buf, starts) / (sizes - 1)
    return _select_rows(var, _rank0(b, 0.5))


def quantile_interval_rows(chunk: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Quartile interval endpoints of the b block means, per row."""
    means = block_mean_rows(chunk, b)
    r1 = _rank0(b, 0.25)
    r3 = _rank0(b, 0.75)
    kth = sorted({r1, r3})
    part = np.partition(means, kth, axis=1)
    return part[:, r1], part[:, r3]


def kreg_midpoint_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    lo, hi = quantile_interval_rows(chunk, b)
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


def _combined_rows(chunk: np.ndarray, m: int, widths) -> np.ndarray:
    """Combined estimate per row: level k is the median-of-means at
    delta = 2^(-k) plus or minus the k-th width times sqrt((1 + k ln 2)/n)."""
    t, n = chunk.shape
    b_of = _level_blocks(m)[0]
    # Levels share block counts (k = 1..9 use 7 distinct b): one pass each.
    centers_of = {b: mom_rows(chunk, b) for b in set(b_of)}
    los = np.empty((t, m))
    his = np.empty((t, m))
    for k, (b, width) in enumerate(zip(b_of, widths), start=1):
        radius = width * _level_radius(k, n)
        los[:, k - 1] = centers_of[b] - radius
        his[:, k - 1] = centers_of[b] + radius
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
