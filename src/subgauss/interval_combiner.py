"""Dyadic confidence-interval families and their combination into a single
estimate that needs no confidence level as input.

The device: build intervals I_1, ..., I_m where I_k targets confidence
2^(-k), find the smallest k whose suffix intersection I_k cap ... cap I_m is
nonempty, and return the midpoint of that intersection.  The result inherits
every level's guarantee at once, at the price of a sqrt(1 + 2 ln 2) factor
on the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._batch import _level_blocks
# median_of_means, mom_variance and quantile_interval are not called here, but
# perfbench/spans.py wraps the core estimators under these names in this module.
from .core_estimators import (  # noqa: F401
    _LN2,
    _MOM_WIDTH,
    _REG_RATE,
    ConfidenceInterval,
    _block_variance,
    _check_range,
    _floor_tol,
    _kreg_blocks,
    _kreg_check,
    _level_radius,
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
    """Depth m of a family at (n, delta_min).  The range floor e^(1 - n/2)
    keeps b_m = max(2, ceil(m ln 2)) <= n/2, so each adaptive variance block
    holds at least 2 points."""
    _check_range("delta_min", delta_min, 1.0 - 0.5 * n)
    m = _floor_tol(-math.log2(delta_min)) - 1
    if m < 1:
        raise ValueError("delta_min must be at most 1/4 so the family is nonempty")
    return m


def _check_sigma2_hi(sigma2_hi: float) -> None:
    """fixed_sigma_family's rule on the variance bound; ValueError if unmet."""
    if not 0.0 < sigma2_hi < math.inf:  # also rejects NaN
        raise ValueError("sigma2_hi must be finite and > 0")


def _centers(values, m: int) -> list[float]:
    """Median-of-means at delta = 2^(-k), k = 1..m: one pass per block count."""
    b_of = _level_blocks(m)[0]
    center_of = {b: _mom(values, b) for b in set(b_of)}
    return [center_of[b] for b in b_of]


def _centered_family(centers, radii) -> IntervalFamily:
    return IntervalFamily(tuple(ConfidenceInterval(c - r, c + r) for c, r in zip(centers, radii)))


def fixed_sigma_family(sample, sigma2_hi: float, delta_min: float) -> IntervalFamily:
    """Median-of-means centers with radii from a known variance bound.

    Interval k is centered at the median-of-means at delta = 2^(-k) with
    radius 2*sqrt(2)*e*sqrt(sigma2_hi)*sqrt((1 + k ln 2)/n).  The family has
    m = floor(log2(1/delta_min)) - 1 levels.
    """
    values = as_values(sample)
    _check_sigma2_hi(sigma2_hi)
    m = _family_depth(delta_min, values.size)
    width = _MOM_WIDTH * math.sqrt(sigma2_hi)
    radii = [width * _level_radius(k, values.size) for k in range(1, m + 1)]
    return _centered_family(_centers(values, m), radii)


def adaptive_family(sample, delta_min: float) -> IntervalFamily:
    """Like fixed_sigma_family, but the variance bound is estimated per level.

    The radius at level k substitutes 2*sqrt(mom_variance(sample, b_k)) for
    the known sigma bound, with b_k = max(2, ceil(k ln 2)) blocks, so no
    variance knowledge is required.  A level whose centre or radius is not
    finite (the sample's block sums overflow) is a ValueError.
    """
    values = as_values(sample)
    m = _family_depth(delta_min, values.size)
    b_of = _level_blocks(m)[1]
    # Levels share block counts (k = 1..9 use 6 distinct b_k): one pass each.
    nu2_of = {b: _block_variance(values, b) for b in set(b_of)}
    a = _MOM_WIDTH * 2.0
    n = values.size
    radii = [a * math.sqrt(nu2_of[b]) * _level_radius(k, n) for k, b in enumerate(b_of, 1)]
    centers = _centers(values, m)
    for k, (c, r) in enumerate(zip(centers, radii), start=1):
        if not math.isfinite(c - r):  # r < 1e160 when finite, so c - r cannot overflow
            raise ValueError(f"adaptive level {k} (delta=2^-{k}) has centre {c!r} and radius "
                             f"{r!r}: the sample's block sums overflow float64")
    return _centered_family(centers, radii)


def quantile_kreg_family(sample, k_reg: int, delta_min: float | None = None) -> IntervalFamily:
    """Quartile block-mean intervals at delta = 2^(-k) for k = 1..m.

    delta_min defaults to 4*e^(3 - n/(124*k_reg)), the smallest level the
    quartile construction supports at this sample size, but no less than
    2^-1075 (1,074 levels): a deeper level's delta is below every positive
    float.
    """
    values = as_values(sample)
    n = values.size
    _kreg_check(n, k_reg)
    if delta_min is None:
        # The default's depth, in log space: the default underflows to 0.0
        # from n of about 92,800 k_reg.  No level goes below 2^-1074, the
        # smallest positive float, so every representable delta is covered.
        m = min(_floor_tol((n / (_REG_RATE * k_reg) - 3.0 - math.log(4.0)) / _LN2) - 1, 1074)
        if m < 1:
            raise ValueError(f"n={n} too small for a dyadic quartile family at k={k_reg}")
    else:
        m = _family_depth(delta_min, n)
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
