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

from . import _batch
from .core_estimators import _LN2, _MOM_WIDTH, _REG_RATE, ConfidenceInterval
from .core_estimators import _check_interval, _check_range, _floor_tol, _kreg_blocks, _kreg_check
from .core_estimators import _quartiles
# Not called here, but perfbench/spans.py wraps the core estimators under
# these names in this module.
from .core_estimators import median_of_means, mom_variance, quantile_interval  # noqa: F401
from .distributions import as_values

__all__ = [
    "IntervalFamily", "CombineResult", "combine", "fixed_sigma_family", "adaptive_family",
    "quantile_kreg_family", "multiple_delta_estimate", "BUILDERS",
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


def _combine(los, his) -> tuple[int, float, float]:
    """(k_hat, lo, hi) of the levels [los[k-1], his[k-1]], k = 1..m: the
    minimal k whose suffix intersection is nonempty, and that intersection."""
    k_hat, lo, hi = len(los), -math.inf, math.inf
    for k in range(len(los), 0, -1):
        lo2, hi2 = max(lo, los[k - 1]), min(hi, his[k - 1])
        if lo2 > hi2:
            break
        k_hat, lo, hi = k, lo2, hi2
    return k_hat, lo, hi


def combine(family: IntervalFamily) -> CombineResult:
    """Midpoint of the deepest-suffix intersection.

    k_hat is the minimal k such that the intersection of intervals k..m is
    nonempty (k = m always qualifies, so this never fails); the estimate is
    the midpoint of that intersection.  Touching endpoints count as a
    nonempty (single point) intersection.
    """
    ivs = family.intervals
    k_hat, lo, hi = _combine([iv.lo for iv in ivs], [iv.hi for iv in ivs])
    final = ConfidenceInterval(lo, hi)
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


def _centered_levels(levels, finite: bool = False):
    """Level bounds c -/+ r of _batch._levels as Python floats (numpy scalars warn
    on overflow), each checked like a ConfidenceInterval; finite adds adaptive's check."""
    los, his = [], []
    for k, (c, r) in enumerate(levels, start=1):
        c, r = float(c), float(r)
        lo, hi = c - r, c + r
        if finite and not math.isfinite(lo):  # r < 1e160 when finite, so lo cannot overflow
            raise ValueError(f"adaptive level {k} (delta=2^-{k}) has centre {c!r} and radius "
                             f"{r!r}: the sample's block sums overflow float64")
        _check_interval(lo, hi)
        los.append(lo)
        his.append(hi)
    return los, his


def _family(levels) -> IntervalFamily:
    return IntervalFamily(tuple(map(ConfidenceInterval, *levels)))


def _fixed_bounds(values, sigma2_hi: float, delta_min: float):
    """Level bounds of fixed_sigma_family on a validated sample."""
    _check_sigma2_hi(sigma2_hi)
    m = _family_depth(delta_min, values.size)
    return _centered_levels(_batch._levels(values, m, [_MOM_WIDTH * math.sqrt(sigma2_hi)] * m))


def fixed_sigma_family(sample, sigma2_hi: float, delta_min: float) -> IntervalFamily:
    """Median-of-means centers with radii from a known variance bound.

    Interval k is centered at the median-of-means at delta = 2^(-k) with
    radius 2*sqrt(2)*e*sqrt(sigma2_hi)*sqrt((1 + k ln 2)/n).  The family has
    m = floor(log2(1/delta_min)) - 1 levels.
    """
    return _family(_fixed_bounds(as_values(sample), sigma2_hi, delta_min))


def _adaptive_bounds(values, delta_min: float):
    """Level bounds of adaptive_family on a validated sample."""
    m = _family_depth(delta_min, values.size)
    return _centered_levels(_batch._adaptive_levels(values, m), finite=True)


def adaptive_family(sample, delta_min: float) -> IntervalFamily:
    """Like fixed_sigma_family, but the variance bound is estimated per level.

    The radius at level k substitutes 2*sqrt(mom_variance(sample, b_k)) for
    the known sigma bound, with b_k = max(2, ceil(k ln 2)) blocks, so no
    variance knowledge is required.  A level whose centre or radius is not
    finite (the sample's block sums overflow) is a ValueError.
    """
    return _family(_adaptive_bounds(as_values(sample), delta_min))


def _kreg_bounds(values, k_reg: int, delta_min: float | None):
    """Level bounds of quantile_kreg_family on a validated sample."""
    n = values.size
    k_reg = _kreg_check(n, k_reg)
    if delta_min is None:
        # The default's depth, in log space: the default underflows to 0.0
        # from n of about 92,800 k_reg.  No level goes below 2^-1074, the
        # smallest positive float, so every representable delta is covered.
        m = min(_floor_tol((n / (_REG_RATE * k_reg) - 3.0 - math.log(4.0)) / _LN2) - 1, 1074)
        if m < 1:
            raise ValueError(f"n={n} too small for a dyadic quartile family at k={k_reg}")
    else:
        m = _family_depth(delta_min, n)
    levels = [_check_interval(*map(float, _quartiles(values, _kreg_blocks(n, 2.0**-k, k_reg))))
              for k in range(1, m + 1)]
    return [lo for lo, _ in levels], [hi for _, hi in levels]


def quantile_kreg_family(sample, k_reg: int, delta_min: float | None = None) -> IntervalFamily:
    """Quartile block-mean intervals at delta = 2^(-k) for k = 1..m.

    delta_min defaults to 4*e^(3 - n/(124*k_reg)), the smallest level the
    quartile construction supports at this sample size, but no less than
    2^-1075 (1,074 levels): a deeper level's delta is below every positive
    float.
    """
    return _family(_kreg_bounds(as_values(sample), k_reg, delta_min))


def multiple_delta_estimate(sample, builder: str, *, sigma2_hi: float | None = None,
                            delta_min: float | None = None, k_reg: int = 1) -> float:
    """End-to-end combined estimate from one of the family builders.

    builder is one of "fixed_sigma" (requires sigma2_hi), "adaptive", or
    "quantile_kreg" (uses k_reg; delta_min defaults per the quartile
    construction).  The returned value takes no confidence level as input
    yet satisfies the deviation bound simultaneously for every delta the
    family covers.  The levels are combined as float bounds, with the
    family's checks and messages, so no interval object is built: the value
    is combine(<builder>_family(...)).estimate bit for bit.
    """
    if builder == "fixed_sigma":
        if sigma2_hi is None:
            raise ValueError("fixed_sigma builder requires sigma2_hi")
        if delta_min is None:
            raise ValueError("fixed_sigma builder requires delta_min")
        levels = _fixed_bounds(as_values(sample), sigma2_hi, delta_min)
    elif builder == "adaptive":
        if delta_min is None:
            raise ValueError("adaptive builder requires delta_min")
        levels = _adaptive_bounds(as_values(sample), delta_min)
    elif builder == "quantile_kreg":
        levels = _kreg_bounds(as_values(sample), k_reg, delta_min)
    else:
        raise ValueError(f"unknown builder {builder!r}; expected one of {BUILDERS}")
    _, lo, hi = _combine(*levels)
    return 0.5 * (lo + hi)
