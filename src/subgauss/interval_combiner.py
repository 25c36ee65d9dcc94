"""Dyadic confidence-interval families and their combination into a single
estimate that needs no confidence level as input.

The device: build intervals I_1, ..., I_m where I_k targets confidence
2^(-k), find the smallest k whose suffix intersection I_k cap ... cap I_m is
nonempty, and return the midpoint of that intersection.  The result inherits
every level's guarantee at once, at the price of a sqrt(1 + 2 ln 2) factor
on the constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._batch import _mom_block_count, _variance_block_count
# median_of_means, mom_variance and quantile_interval are not called here, but
# perfbench/spans.py wraps the core estimators under these names in this module.
from .core_estimators import (  # noqa: F401
    _REG_RATE,
    ConfidenceInterval,
    _block_variance,
    _floor_tol,
    _kreg_blocks,
    _kreg_check,
    _mom,
    _quartile_interval,
    median_of_means,
    mom_variance,
    quantile_interval,
)
from .distributions import as_values

__all__ = [
    "IntervalFamily",
    "CombineResult",
    "combine",
    "fixed_sigma_family",
    "adaptive_family",
    "quantile_kreg_family",
    "multiple_delta_estimate",
    "BUILDERS",
]

_LN2 = math.log(2.0)
BUILDERS = ("fixed_sigma", "adaptive", "quantile_kreg")


@dataclass(frozen=True)
class IntervalFamily:
    """Intervals indexed k = 1..m; interval k targets confidence 2^(-k)."""

    intervals: tuple[ConfidenceInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        if len(self.intervals) < 1:
            raise ValueError("a family needs at least one interval")

    @property
    def m(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class CombineResult:
    k_hat: int
    estimate: float
    final_interval: ConfidenceInterval


def combine(family: IntervalFamily) -> CombineResult:
    """Midpoint of the deepest-suffix intersection.

    k_hat is the minimal k such that the intersection of intervals k..m is
    nonempty (k = m always qualifies, so this never fails); the estimate is
    the midpoint of that intersection.  Touching endpoints count as a
    nonempty (single point) intersection.
    """
    lo = -math.inf
    hi = math.inf
    k_hat = family.m
    best = (family.intervals[-1].lo, family.intervals[-1].hi)
    for k in range(family.m, 0, -1):
        iv = family.intervals[k - 1]
        lo2 = max(lo, iv.lo)
        hi2 = min(hi, iv.hi)
        if lo2 > hi2:
            break
        lo, hi = lo2, hi2
        k_hat = k
        best = (lo, hi)
    final = ConfidenceInterval(best[0], best[1])
    return CombineResult(k_hat=k_hat, estimate=final.midpoint, final_interval=final)


def _family_depth(delta_min: float, n: int) -> int:
    lower = math.exp(1.0 - 0.5 * n)
    if not (delta_min >= lower * (1.0 - 1e-12) and delta_min < 1.0):
        raise ValueError(f"delta_min={delta_min!r} outside the valid range [{lower!r}, 1)")
    m = _floor_tol(-math.log2(delta_min)) - 1
    if m < 1:
        raise ValueError("delta_min must be at most 1/4 so the family is nonempty")
    return m


@functools.lru_cache(maxsize=64)
def _level_blocks(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Centre and variance block counts of levels k = 1..m."""
    ks = range(1, m + 1)
    return tuple(map(_mom_block_count, ks)), tuple(map(_variance_block_count, ks))


def _adaptive_depth(n: int, delta_min: float) -> int:
    """Depth m of adaptive_family at (n, delta_min); ValueError when a level's
    variance blocks would hold fewer than 2 points."""
    m = _family_depth(delta_min, n)
    b_m = _level_blocks(m)[1][-1]
    if n // b_m < 2:
        raise ValueError(f"sample too small for the deepest level (n={n}, b_{m}={b_m})")
    return m


def _centered_family(values, m: int, widths) -> IntervalFamily:
    """Interval k is the median-of-means at delta = 2^(-k), one pass per block
    count, plus or minus widths[k-1] * sqrt((1 + k ln 2)/n)."""
    b_of = _level_blocks(m)[0]
    center_of = {b: _mom(values, b) for b in set(b_of)}
    intervals = []
    for k, (b, width) in enumerate(zip(b_of, widths), start=1):
        radius = width * math.sqrt((1.0 + k * _LN2) / values.size)
        intervals.append(ConfidenceInterval(center_of[b] - radius, center_of[b] + radius))
    return IntervalFamily(tuple(intervals))


def fixed_sigma_family(sample, sigma2_hi: float, delta_min: float) -> IntervalFamily:
    """Median-of-means centers with radii from a known variance bound.

    Interval k is centered at the median-of-means at delta = 2^(-k) with
    radius 2*sqrt(2)*e*sqrt(sigma2_hi)*sqrt((1 + k ln 2)/n).  The family has
    m = floor(log2(1/delta_min)) - 1 levels.
    """
    values = as_values(sample)
    n = values.size
    if not sigma2_hi > 0.0:
        raise ValueError("sigma2_hi must be > 0")
    m = _family_depth(delta_min, n)
    scale = 2.0 * math.sqrt(2.0) * math.e * math.sqrt(sigma2_hi)
    return _centered_family(values, m, [scale] * m)


def adaptive_family(sample, delta_min: float) -> IntervalFamily:
    """Like fixed_sigma_family, but the variance bound is estimated per level.

    The radius at level k substitutes 2*sqrt(mom_variance(sample, b_k)) for
    the known sigma bound, with b_k = max(2, ceil(k ln 2)) blocks, so no
    variance knowledge is required.
    """
    values = as_values(sample)
    m = _adaptive_depth(values.size, delta_min)
    b_of = _level_blocks(m)[1]
    # Levels share block counts (k = 1..9 use 6 distinct b_k): one pass each.
    nu2_of = {b: _block_variance(values, b) for b in set(b_of)}
    a = 2.0 * math.sqrt(2.0) * math.e * 2.0
    return _centered_family(values, m, [a * math.sqrt(nu2_of[b]) for b in b_of])


def quantile_kreg_family(sample, k_reg: int, delta_min: float | None = None) -> IntervalFamily:
    """Quartile block-mean intervals at delta = 2^(-k) for k = 1..m.

    delta_min defaults to 4*e^(3 - n/(124*k_reg)), the smallest level the
    quartile construction supports at this sample size.
    """
    values = as_values(sample)
    n = values.size
    if delta_min is None:
        delta_min = 4.0 * math.exp(3.0 - n / (_REG_RATE * k_reg))
        if not delta_min < 0.25:
            raise ValueError(
                f"n={n} too small for a dyadic quartile family at k={k_reg}"
            )
    m = _family_depth(delta_min, n)
    _kreg_check(n, k_reg)
    intervals = tuple(
        _quartile_interval(values, _kreg_blocks(n, 2.0**-k, k_reg)) for k in range(1, m + 1)
    )
    return IntervalFamily(intervals)


def multiple_delta_estimate(
    sample,
    builder: str,
    *,
    sigma2_hi: float | None = None,
    delta_min: float | None = None,
    k_reg: int = 1,
) -> float:
    """End-to-end combined estimate from one of the family builders.

    builder is one of "fixed_sigma" (requires sigma2_hi), "adaptive", or
    "quantile_kreg" (uses k_reg; delta_min defaults per the quartile
    construction).  The returned value takes no confidence level as input
    yet satisfies the deviation bound simultaneously for every delta the
    family covers.
    """
    if builder == "fixed_sigma":
        if sigma2_hi is None:
            raise ValueError("fixed_sigma builder requires sigma2_hi")
        if delta_min is None:
            raise ValueError("fixed_sigma builder requires delta_min")
        family = fixed_sigma_family(sample, sigma2_hi, delta_min)
    elif builder == "adaptive":
        if delta_min is None:
            raise ValueError("adaptive builder requires delta_min")
        family = adaptive_family(sample, delta_min)
    elif builder == "quantile_kreg":
        family = quantile_kreg_family(sample, k_reg, delta_min)
    else:
        raise ValueError(f"unknown builder {builder!r}; expected one of {BUILDERS}")
    return combine(family).estimate
