"""Block partitions, order-statistic quantiles, median-of-means, the
pairwise-difference variance estimator, and quantile-interval estimators.

Every estimator here is deterministic and pure: block boundaries are a fixed
function of (n, b) and quantiles use a fixed rank rule, so repeated calls on
the same data agree bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import as_values

__all__ = [
    "BlockPartition",
    "ConfidenceInterval",
    "partition_blocks",
    "quantile_select",
    "median_of_means",
    "median_of_means_raw",
    "pairwise_block_variance",
    "mom_variance",
    "quantile_interval_raw",
    "quantile_interval",
]

_LN2 = math.log(2.0)
_REG_RATE = 124.0  # block budget per regularity index: b*k <= n/2 with b ~ 62 ln(3/delta)
_REG_MIN_FACTOR = (3.0 + math.log(4.0)) * _REG_RATE


def _ceil_tol(x: float, tol: float = 1e-9) -> int:
    # Binary-float dust must not flip a count at an integer boundary:
    # ceil(-log(float(e^-2))) would otherwise give 3 instead of 2.
    r = round(x)
    if abs(x - r) <= tol * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _floor_tol(x: float, tol: float = 1e-9) -> int:
    r = round(x)
    if abs(x - r) <= tol * max(1.0, abs(x)):
        return int(r)
    return int(math.floor(x))


@functools.lru_cache(maxsize=256)
def _block_layout(n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and sizes of the contiguous b-block partition of [n].

    Cached, since one-sample calls repeat a few (n, b) pairs; the arrays are
    shared between callers and therefore read-only.
    """
    q, r = divmod(n, b)
    first = np.arange(r, dtype=np.intp) * (q + 1)
    rest = r * (q + 1) + np.arange(b - r, dtype=np.intp) * q
    starts = np.concatenate([first, rest])
    sizes = np.concatenate(
        [np.full(r, q + 1, dtype=np.intp), np.full(b - r, q, dtype=np.intp)]
    )
    starts.flags.writeable = False
    sizes.flags.writeable = False
    return starts, sizes


@dataclass(frozen=True)
class BlockPartition:
    """A partition of the index set {0, ..., n-1} into b contiguous blocks.

    The first (n mod b) blocks have size ceil(n/b), the rest floor(n/b).
    """

    n: int
    b: int
    blocks: tuple[range, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(blk) for blk in self.blocks)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo <= self.hi:  # also rejects NaN endpoints
            raise ValueError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def partition_blocks(n: int, b: int) -> BlockPartition:
    """Split {0, ..., n-1} into b contiguous blocks.

    The first (n mod b) blocks get the extra element, so sizes differ by at
    most one and every block has at least floor(n/b) elements.
    """
    if b < 1 or b > n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    starts, sizes = _block_layout(n, b)
    blocks = tuple(
        range(int(s), int(s + m)) for s, m in zip(starts.tolist(), sizes.tolist())
    )
    return BlockPartition(n=n, b=b, blocks=blocks)


def quantile_select(values, alpha: float) -> float:
    """Order statistic of rank ceil(alpha*m), 1-based, of the m values.

    This deterministic rule always returns an element of the input and
    satisfies both counting conditions #{y <= result} >= alpha*m and
    #{y >= result} >= (1-alpha)*m.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a nonempty one-dimensional sequence")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m = arr.size
    r = min(max(_ceil_tol(alpha * m), 1), m)
    return float(np.partition(arr, r - 1)[r - 1])


def _block_means(values: np.ndarray, b: int) -> np.ndarray:
    starts, sizes = _block_layout(values.size, b)
    return np.add.reduceat(values, starts) / sizes


def _mom(values: np.ndarray, b: int) -> float:
    """Median of the b block means of a validated sample (1 <= b <= n)."""
    # quantile_select(means, 0.5) takes 0-based rank ceil(b/2) - 1 = (b-1)//2.
    return float(np.partition(_block_means(values, b), (b - 1) // 2)[(b - 1) // 2])


def median_of_means_raw(sample, b: int) -> float:
    """Median of the b block means (explicit block count).

    With independent unit-variance blocks the median of b block means
    deviates from the mean by more than 2*L0*sigma with probability at most
    L0^(-b); this is the primitive behind every delta-calibrated wrapper.
    """
    values = as_values(sample)
    if b < 1 or b > values.size:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={values.size}")
    return _mom(values, b)


def _mom_blocks(n: int, delta: float) -> int:
    """Block count of median_of_means at (n, delta); ValueError outside its range."""
    if n < 4:
        raise ValueError("median_of_means needs n >= 4")
    lower = math.exp(1.0 - 0.5 * n)
    if not (delta >= lower * (1.0 - 1e-12) and delta < 1.0):
        raise ValueError(f"delta={delta!r} outside the valid range [{lower!r}, 1)")
    # The delta range keeps b <= n/2, so b needs no check of its own.
    return max(1, _ceil_tol(-math.log(delta)))


def median_of_means(sample, delta: float) -> float:
    """Median of b = ceil(ln(1/delta)) block means.

    Guarantee target: P(|est - mu| > 2*sqrt(2)*e*sigma*sqrt((1+ln(1/delta))/n))
    is at most delta, for delta in [e^(1-n/2), 1) and n >= 4.  Near delta = 1
    the single block degrades gracefully to the empirical mean.
    """
    values = as_values(sample)
    return _mom(values, _mom_blocks(values.size, delta))


def pairwise_block_variance(values) -> float:
    """Mean squared pairwise difference over unordered pairs, i.e. the
    unbiased sample variance, via the mean/centered-second-moment identity.

    Centering before squaring keeps the result within a few ulp of the
    O(m^2) pair sum even on near-constant blocks far from zero, where the
    uncentered one-pass form loses half its digits.  Results clamp to 0.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two values")
    m = arr.size
    centered = arr - float(arr.mean())
    ss = float(centered @ centered)
    return max(ss / (m - 1), 0.0)


def _block_variance(values: np.ndarray, b: int) -> float:
    """mom_variance of a validated sample whose blocks have >= 2 points."""
    q, r = divmod(values.size, b)
    split = r * (q + 1)
    variances = []
    for blocks in (values[:split].reshape(r, q + 1), values[split:].reshape(b - r, q)):
        if blocks.size:
            c = blocks - blocks.mean(axis=1)[:, None]
            ss = (c[:, None, :] @ c[:, :, None]).reshape(-1)
            variances.append(np.maximum(ss / (blocks.shape[1] - 1), 0.0))
    return float(np.partition(np.concatenate(variances), (b - 1) // 2)[(b - 1) // 2])


def mom_variance(sample, b: int) -> float:
    """Median of the per-block pairwise variances over a b-block partition.

    Concentration target: deviates from sigma^2 by more than
    2e*sqrt(6(kappa+3))*sigma^2*sqrt(b/n) with probability at most e^(-b),
    provided every block has at least 2 points.

    Gather-free: the n mod b blocks of q+1 values and the rest of q values
    are two reshaped views, centred by their `.mean(axis=1)` (the pairwise
    sum and divide of a block's `.mean()`) and squared by stacked `c @ c`
    (the BLAS dot of `centered @ centered`), so every block variance keeps
    the bits of pairwise_block_variance on that block.
    """
    values = as_values(sample)
    n = values.size
    if b < 1 or n // b < 2:
        raise ValueError(f"every block needs at least 2 points (n={n}, b={b})")
    return _block_variance(values, b)


def _quartile_interval(values: np.ndarray, b: int) -> ConfidenceInterval:
    """quantile_interval_raw of a validated sample (1 <= b <= n)."""
    means = _block_means(values, b)
    return ConfidenceInterval(quantile_select(means, 0.25), quantile_select(means, 0.75))


def quantile_interval_raw(sample, b: int) -> ConfidenceInterval:
    """[1/4-quantile, 3/4-quantile] of the b block means."""
    values = as_values(sample)
    if b < 1 or b > values.size:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={values.size}")
    return _quartile_interval(values, b)


def _kreg_check(n: int, k: int) -> None:
    """The delta-free preconditions of quantile_interval; ValueError if unmet."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < _REG_MIN_FACTOR * k * (1.0 - 1e-12):
        raise ValueError(
            f"need n >= {_REG_MIN_FACTOR * k:.1f} for regularity index k={k}, got n={n}"
        )


def _kreg_blocks(n: int, delta: float, k: int) -> int:
    """Block count of quantile_interval at (n, delta, k) once _kreg_check
    passed; ValueError outside the delta range."""
    lower = math.exp(3.0 - n / (_REG_RATE * k))
    if not (delta >= lower * (1.0 - 1e-12) and delta < 1.0):
        raise ValueError(f"delta={delta!r} outside the valid range [{lower!r}, 1)")
    b = _ceil_tol(62.0 * (math.log(3.0) - math.log(delta)))
    if 2 * b * k > n:
        raise ValueError(f"block count b={b} violates b*k <= n/2 (n={n}, k={k})")
    return b


def quantile_interval(sample, delta: float, k: int) -> ConfidenceInterval:
    """Quartile interval of b = ceil(62*ln(3/delta)) block means.

    Designed for distributions whose j-fold sums land on each side of j*mu
    with probability >= 1/3 for all j >= k.  Valid for
    n >= (3+ln 4)*124*k and delta in [e^(3 - n/(124 k)), 1); within that
    range b*k <= n/2 so each block keeps at least 2k points.
    """
    values = as_values(sample)
    _kreg_check(values.size, k)
    return _quartile_interval(values, _kreg_blocks(values.size, delta, k))
