"""Untiled reference versions of the variance-based batch kernels.

These are the straightforward whole-matrix formulas: the block means are
gathered back to full row length, the centered squares live in (T, n)
temporaries, and the variance is recomputed at every level.  The tiled
kernels in subgauss._batch must agree with them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from subgauss._batch import (
    _LN2,
    _mom_block_count,
    _rank0,
    _segment_sums,
    _select_rows,
    combine_rows,
    mom_rows,
)
from subgauss.core_estimators import _block_layout, _ceil_tol


def mom_variance_rows(chunk: np.ndarray, b: int) -> np.ndarray:
    starts, sizes = _block_layout(chunk.shape[1], b)
    mean = _segment_sums(chunk, starts) / sizes
    block_of = np.repeat(np.arange(starts.size), sizes)
    centered = chunk - mean[:, block_of]
    ss = _segment_sums(centered * centered, starts)
    var = np.maximum(ss / (sizes - 1), 0.0)
    return _select_rows(var, _rank0(b, 0.5))


def truncated_pipeline_rows(chunk: np.ndarray, b_max: int) -> np.ndarray:
    n = chunk.shape[1]
    mu = mom_rows(chunk, b_max)
    nu2 = mom_variance_rows(chunk, b_max)
    r = np.sqrt(nu2) * math.sqrt(n / (2.0 * b_max))
    clipped = np.clip(chunk, (mu - r)[:, None], (mu + r)[:, None])
    return clipped.mean(axis=1)


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
