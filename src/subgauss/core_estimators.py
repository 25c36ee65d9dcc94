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

from . import seeding
from .distributions import _as_int, as_values

__all__ = [
    "BlockPartition", "ConfidenceInterval", "partition_blocks", "quantile_select",
    "median_of_means", "median_of_means_raw", "pairwise_block_variance", "mom_variance",
    "quantile_interval_raw", "quantile_interval",
]

_LN2 = math.log(2.0)
_MOM_WIDTH = 2.0 * math.sqrt(2.0) * math.e  # the constant L of median_of_means
_REG_RATE = 124.0  # block budget per regularity index: b*k <= n/2 with b ~ 62 ln(3/delta)
_REG_MIN_FACTOR = (3.0 + math.log(4.0)) * _REG_RATE
_REL_SLACK = 1e-12  # relative slack of a test at a range floor, for float rounding


def _ceil_tol(x: float, tol: float = 1e-9) -> int:
    # Binary-float dust must not flip a count at an integer boundary:
    # ceil(-log(float(e^-2))) would otherwise give 3 instead of 2.
    r = round(x)
    if abs(x - r) <= tol * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _floor_tol(x: float, tol: float = 1e-9) -> int:
    return -_ceil_tol(-x, tol)


def _rank(alpha: float, m: int) -> int:
    """1-based rank ceil(alpha*m) of the alpha-quantile of m values, in [1, m]."""
    return min(max(_ceil_tol(alpha * m), 1), m)


def _block_layout(n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and sizes of the contiguous b-block partition of [n]."""
    q, r = divmod(n, b)
    index = np.arange(b, dtype=np.intp)
    starts = index * q + np.minimum(index, r)  # block i < r holds q + 1 values
    sizes = np.diff(starts, append=n)
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


def _check_interval(lo: float, hi: float) -> tuple[float, float]:
    """The rule on an interval's float endpoints: (lo, hi), or ValueError if unmet."""
    if not lo <= hi:  # also rejects NaN endpoints
        raise ValueError(f"interval needs lo <= hi, got [{lo}, {hi}]")
    return lo, hi


@dataclass(frozen=True)
class ConfidenceInterval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        _check_interval(self.lo, self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _block_count(n: int, b: int) -> tuple[int, int]:
    """(n, b) as ints, or ValueError unless 1 <= b <= n: the rule on an explicit block count."""
    b, n = _as_int("b", b), _as_int("n", n)
    if b < 1 or b > n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    return n, b


def partition_blocks(n: int, b: int) -> BlockPartition:
    """Split {0, ..., n-1} into b contiguous blocks.

    The first (n mod b) blocks get the extra element, so sizes differ by at
    most one and every block has at least floor(n/b) elements.
    """
    n, b = _block_count(n, b)
    starts, sizes = _block_layout(n, b)
    blocks = tuple(range(s, s + m) for s, m in zip(starts.tolist(), sizes.tolist()))
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
    return _order_stat(arr, alpha)


def _order_stat(arr: np.ndarray, alpha: float) -> float:
    """quantile_select on a nonempty 1-D float array, alpha unchecked."""
    return float(_select(arr.copy(), _rank(alpha, arr.size) - 1))


def _select(a: np.ndarray, r: int) -> np.ndarray:
    """Order statistic r (0-based) along the last axis, partitioning a in place."""
    a.partition(r)
    return a[..., r]


@functools.lru_cache(maxsize=256)
def _block_plan(shape: tuple[int, ...], bs: tuple[int, ...], centred: bool, target: int) -> tuple:
    """(offsets, divisors, parts, chunk, out, sizes) of each group's flat
    np.add.reduceat, a group being as many layouts of bs as fit target values
    stacked, over values of shape (*lead, n).  offsets are one row's: block
    means sum the values, each layout from 0, and in groups of two or more a
    separator at n (the next row's first value, or a pad after the last row)
    ends each layout's last block; variances sum a scratch (*lead, G, n),
    layout g from g * n.  chunk = (rows * stride, stride) repeats them a row.
    parts: each layout's slice of a row's sums; sizes: one row's block sizes
    (the divisors, less one if centred), by which a group's means repeat."""
    *lead, n = shape
    rows = math.prod(lead)
    step = max(1, target // (rows * n))
    plan = []
    for i in range(0, len(bs), step):
        group = bs[i : i + step]
        separated = not centred and len(group) > 1
        offsets, sizes, parts, at = [], [], [], 0
        for g, b in enumerate(group):
            starts, size = _block_layout(n, b)
            offsets.append(starts + g * n if centred else starts)
            sizes.append(size)
            parts.append((at, at + b))
            at += b + separated
            if separated:
                offsets.append([n])
                sizes.append([1])
        offsets, sizes = np.concatenate(offsets), np.concatenate(sizes)
        divisors = (sizes - 1 if centred else sizes).astype(np.float64)
        offsets.flags.writeable = divisors.flags.writeable = sizes.flags.writeable = False
        stride = len(group) * n if centred else n
        chunk = (rows * stride, stride) if rows > 1 else None
        plan.append((offsets, divisors, tuple(parts), chunk, (*lead, -1), sizes))
    return tuple(plan)


def _sum_blocks(flat: np.ndarray, group: tuple) -> list[np.ndarray]:
    """A group's divided block sums over flat, one view a layout.  A flat reduceat
    releases the GIL; numpy's reduceat along an axis keeps it up to 500 rows."""
    offsets, divisors, parts, chunk, out, _ = group
    offsets = (np.arange(0, *chunk)[:, None] + offsets).ravel() if chunk else offsets
    sums = np.add.reduceat(flat, offsets).reshape(out)
    sums /= divisors
    return [sums] if len(parts) == 1 else [sums[..., lo:hi] for lo, hi in parts]


def _block_means(values: np.ndarray, bs: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Means of the blocks of each b-block layout in bs (1 <= b <= n), of one
    sample (n,) or of every row of a chunk (T, n): one reduceat a group."""
    means = []
    for group in _block_plan(values.shape, bs, False, seeding._CHUNK_TARGET):
        flat = values.ravel() if len(group[2]) == 1 else np.concatenate((values, (0.0,)), None)
        means += _sum_blocks(flat, group)
    return tuple(means)


def _mom(values: np.ndarray, b: int) -> np.ndarray:
    """Median of the b block means (1 <= b <= n) along the last axis:
    quantile_select(means, 0.5) takes 0-based rank ceil(b/2) - 1 = (b-1)//2."""
    return _select(_block_means(values, (b,))[0], (b - 1) // 2)


def _group_variances(values: np.ndarray, means, group: tuple) -> list[np.ndarray]:
    """Block variances of a group's G layouts: their means, repeated by block size,
    are the scratch (*lead, G, n), into which one subtract centres the values,
    broadcast over the layouts; it is squared and summed once."""
    _, _, parts, _, _, sizes = group
    buf = np.repeat(np.concatenate(means[: len(parts)], axis=-1), sizes, axis=-1)
    buf = buf.reshape(*values.shape[:-1], len(parts), -1)
    np.subtract(values[..., None, :], buf, out=buf)
    np.multiply(buf, buf, out=buf)
    return _sum_blocks(buf.ravel(), group)


def _block_variances(values: np.ndarray, means) -> tuple[np.ndarray, ...]:
    """Unbiased variances of the blocks (>= 2 points each) of one sample (n,) or every
    row of a chunk (T, n) about _block_means's means, centred: a one-pass sum of squares
    loses half its digits on near-constant blocks far from zero.  Never below +0.0."""
    variances = []
    bs = tuple([mu.shape[-1] for mu in means])
    for group in _block_plan(values.shape, bs, True, seeding._CHUNK_TARGET):
        variances += _group_variances(values, means[len(variances) :], group)
    return tuple(variances)


def _mom_variance(values: np.ndarray, b: int) -> np.ndarray:
    """Median of the b block variances along the last axis (n // b >= 2)."""
    return _select(_block_variances(values, _block_means(values, (b,)))[0], (b - 1) // 2)


def median_of_means_raw(sample, b: int) -> float:
    """Median of the b block means (explicit block count).

    With independent unit-variance blocks the median of b block means
    deviates from the mean by more than 2*L0*sigma with probability at most
    L0^(-b); this is the primitive behind every delta-calibrated wrapper.
    """
    values = as_values(sample)
    _, b = _block_count(values.size, b)
    return float(_mom(values, b))


def _check_range(name: str, value: float, log_floor: float) -> None:
    """ValueError unless e^log_floor <= value < 1, with _REL_SLACK at the floor.

    A floor that underflows to 0.0 lies below every positive float, so there
    the test is value > 0 and the message shows the floor as exp(log_floor).
    Zero and NaN are rejected either way.
    """
    floor = math.exp(log_floor)
    ok = value >= floor * (1.0 - _REL_SLACK) if floor > 0.0 else value > 0.0
    if not (ok and value < 1.0):
        shown = repr(floor) if floor > 0.0 else f"exp({log_floor!r})"
        raise ValueError(f"{name}={value!r} outside the valid range [{shown}, 1)")


@functools.lru_cache(maxsize=256)
def _mom_blocks(n: int, delta: float) -> int:
    """Block count of median_of_means at (n, delta); ValueError outside its
    range.  Cached: calls repeat a few (n, delta) pairs."""
    if n < 4:
        raise ValueError("median_of_means needs n >= 4")
    _check_range("delta", delta, 1.0 - 0.5 * n)
    # The delta range keeps b <= n/2, so b needs no check of its own.
    return _mom_count(delta)


def _mom_count(delta: float) -> int:
    """ceil(ln(1/delta)), at least 1: the block count rule of median_of_means."""
    return max(1, _ceil_tol(-math.log(delta)))


def median_of_means(sample, delta: float) -> float:
    """Median of b = ceil(ln(1/delta)) block means.

    Guarantee target: P(|est - mu| > 2*sqrt(2)*e*sigma*sqrt((1+ln(1/delta))/n))
    is at most delta, for delta in [e^(1-n/2), 1) and n >= 4.  Near delta = 1
    the single block degrades gracefully to the empirical mean.
    """
    values = as_values(sample)
    return float(_mom(values, _mom_blocks(values.size, delta)))


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


def mom_variance(sample, b: int) -> float:
    """Median of the per-block pairwise variances over a b-block partition.

    Concentration target: deviates from sigma^2 by more than
    2e*sqrt(6(kappa+3))*sigma^2*sqrt(b/n) with probability at most e^(-b),
    provided every block has at least 2 points.

    The kernel (_block_variances) is mom_variance_rows's, so a sample and a
    one-row chunk agree bit for bit.
    """
    values = as_values(sample)
    n, b = values.size, _as_int("b", b)
    if b < 1 or n // b < 2:
        raise ValueError(f"every block needs at least 2 points (n={n}, b={b})")
    return float(_mom_variance(values, b))


def _quartiles(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Quartiles of the b block means (1 <= b <= n) along the last axis.
    Each partitions the means in their built order, as quantile_select
    does, so a tie of 0.0 and -0.0 keeps its zero."""
    means = _block_means(values, (b,))[0]
    return _select(means.copy(), _rank(0.25, b) - 1), _select(means, _rank(0.75, b) - 1)


def quantile_interval_raw(sample, b: int) -> ConfidenceInterval:
    """[1/4-quantile, 3/4-quantile] of the b block means."""
    values = as_values(sample)
    _, b = _block_count(values.size, b)
    return ConfidenceInterval(*_quartiles(values, b))


def _kreg_check(n: int, k: int) -> int:
    """The delta-free preconditions of quantile_interval: k as an int, ValueError if unmet."""
    k = _as_int("k", k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < _REG_MIN_FACTOR * k * (1.0 - _REL_SLACK):
        raise ValueError(
            f"need n >= {_REG_MIN_FACTOR * k:.1f} for regularity index k={k}, got n={n}"
        )
    return k


def _kreg_blocks(n: int, delta: float, k: int) -> int:
    """Block count of quantile_interval at (n, delta, k) once _kreg_check
    passed; ValueError outside the delta range."""
    _check_range("delta", delta, 3.0 - n / (_REG_RATE * k))
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
    k = _kreg_check(values.size, k)
    return ConfidenceInterval(*_quartiles(values, _kreg_blocks(values.size, delta, k)))
