"""Vectorized batch kernels for the Monte Carlo engine.

Each kernel evaluates one estimator on every row of a (trials, n) matrix at
once.  Block sums use a single reduceat over the flattened matrix with the
same block layout as the one-sample reference implementations, so batch
results agree with per-trial calls up to floating-point reassociation.

Memory contract of the variance and truncation kernels: they walk the
matrix in row tiles of about _TILE_BYTES and write every elementwise
intermediate into one (tile, n) scratch buffer allocated per call, so no
(trials, n) temporary exists beyond that tile and concurrent calls on
threads share nothing.  The combined kernels compute the median-of-means
centres, and combined_adaptive_rows the block variances, once per distinct
block count, not once per level.  The tiling changes no
value: each block sum is the same reduceat over the same contiguous values,
so results are bit-identical to the untiled formulas.
"""

from __future__ import annotations

import math

import numpy as np

from .core_estimators import _block_layout, _ceil_tol

_LN2 = math.log(2.0)
_TILE_BYTES = 1 << 20  # one scratch tile of float64 rows: about 1 MB


def _tile_rows(n: int) -> int:
    """Rows per scratch tile for rows of length n (at least one)."""
    return max(1, _TILE_BYTES // (8 * n))


def _row_tiles(t: int, n: int):
    """Yield (row slice, scratch) pairs covering t rows of length n.

    The scratch is a contiguous (rows, n) view of one buffer allocated for
    this call alone.
    """
    step = _tile_rows(n)
    buf = np.empty((min(step, t), n))
    for lo in range(0, t, step):
        hi = min(lo + step, t)
        yield slice(lo, hi), buf[: hi - lo]


def _rank0(b: int, alpha: float) -> int:
    # 0-based index of the clamped 1-based ceil(alpha*b) rank, matching
    # quantile_select.
    return min(max(_ceil_tol(alpha * b), 1), b) - 1


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
    zero keep full precision.  Each row tile is centered block by block
    through reshaped views: the first n mod b blocks have q+1 values and the
    rest q, so (rows, r, q+1) and (rows, b-r, q) views broadcast the block
    means without a gather.
    """
    t, n = chunk.shape
    starts, sizes = _block_layout(n, b)
    q, r = divmod(n, b)
    split = r * (q + 1)
    var = np.empty((t, b))
    for rows, buf in _row_tiles(t, n):
        tile = chunk[rows]
        m = buf.shape[0]
        mean = _segment_sums(tile, starts) / sizes
        if r:
            np.subtract(
                tile[:, :split].reshape(m, r, q + 1),
                mean[:, :r, None],
                out=buf[:, :split].reshape(m, r, q + 1),
            )
        np.subtract(
            tile[:, split:].reshape(m, b - r, q),
            mean[:, r:, None],
            out=buf[:, split:].reshape(m, b - r, q),
        )
        np.multiply(buf, buf, out=buf)
        var[rows] = np.maximum(_segment_sums(buf, starts) / (sizes - 1), 0.0)
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
    lo = (mu - r)[:, None]
    hi = (mu + r)[:, None]
    est = np.empty(chunk.shape[0])
    for rows, buf in _row_tiles(*chunk.shape):
        np.clip(chunk[rows], lo[rows], hi[rows], out=buf)
        est[rows] = buf.mean(axis=1)
    return est


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
    # same arithmetic as median_of_means at delta = 2^-k
    return max(1, _ceil_tol(-math.log(2.0**-k)))


def _variance_block_count(k: int) -> int:
    # variance block count of adaptive_family at level k
    return max(2, _ceil_tol(k * _LN2))


def _level_centers(chunk: np.ndarray, m: int) -> dict:
    # Levels share block counts (k = 1..9 use 7 distinct b): one pass each.
    return {b: mom_rows(chunk, b) for b in {_mom_block_count(k) for k in range(1, m + 1)}}


def combined_fixed_rows(chunk: np.ndarray, m: int, sigma2_hi: float) -> np.ndarray:
    """Combined estimate per row, radii from a known variance bound."""
    t, n = chunk.shape
    scale = 2.0 * math.sqrt(2.0) * math.e * math.sqrt(sigma2_hi)
    los = np.empty((t, m))
    his = np.empty((t, m))
    centers_of = _level_centers(chunk, m)
    for k in range(1, m + 1):
        centers = centers_of[_mom_block_count(k)]
        radius = scale * math.sqrt((1.0 + k * _LN2) / n)
        los[:, k - 1] = centers - radius
        his[:, k - 1] = centers + radius
    return combine_rows(los, his)[0]


def combined_adaptive_rows(chunk: np.ndarray, m: int) -> np.ndarray:
    """Combined estimate per row, radii from per-level variance estimates."""
    t, n = chunk.shape
    a = 2.0 * math.sqrt(2.0) * math.e * 2.0
    los = np.empty((t, m))
    his = np.empty((t, m))
    # Levels share block counts (k = 1..9 use 6 distinct b_k): one pass each.
    nu2_of = {
        b: mom_variance_rows(chunk, b)
        for b in {_variance_block_count(k) for k in range(1, m + 1)}
    }
    centers_of = _level_centers(chunk, m)
    for k in range(1, m + 1):
        centers = centers_of[_mom_block_count(k)]
        nu2 = nu2_of[_variance_block_count(k)]
        radius = (a * np.sqrt(nu2)) * math.sqrt((1.0 + k * _LN2) / n)
        los[:, k - 1] = centers - radius
        his[:, k - 1] = centers + radius
    return combine_rows(los, his)[0]
