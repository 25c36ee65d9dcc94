"""Exact values of the kernels' formulas, as fractions.Fraction.

Every float64 is a dyadic rational, so a sample is exactly a list of
integers over one power-of-two denominator.  Sums, squares and the
variance identity m * sum(x^2) - (sum x)^2 are then integer arithmetic,
and each result is the Fraction of the formula's true value on the given
floats.  float(result) rounds it once; ulp(result) is the unit in which
tests/test_exact.py measures a float kernel's distance from it.

block_means and block_variances follow the contiguous b-block partition
of core_estimators.partition_blocks: the first n mod b blocks hold one
value more.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# The smallest positive normal float64, 2^-1022.
TINY = Fraction(1, 2**1022)

# The errors tests/test_exact.py allows the float kernels, in ulps (its
# docstring gives the unit of each and how the bounds were set).
MEANS_ULPS = 12
VARIANCE_ULPS = 24
CLIP_ULPS = 8


def _integers(values) -> tuple[list[int], int]:
    """(X, d) with values[i] == X[i] / d exactly, d a power of two."""
    ratios = [v.as_integer_ratio() for v in np.asarray(values, dtype=np.float64).tolist()]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def _blocks(n: int, b: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of the b-block partition of [n]."""
    q, r = divmod(n, b)
    bounds = [i * q + min(i, r) for i in range(b + 1)]
    return list(zip(bounds, bounds[1:]))


def block_means(values, b: int) -> list[Fraction]:
    """The exact mean of each block."""
    xs, d = _integers(values)
    return [Fraction(sum(xs[s:e]), d * (e - s)) for s, e in _blocks(len(xs), b)]


def block_abs_means(values, b: int) -> list[Fraction]:
    """The exact mean absolute value of each block: the scale of a float sum's error."""
    xs, d = _integers(values)
    return [Fraction(sum(map(abs, xs[s:e])), d * (e - s)) for s, e in _blocks(len(xs), b)]


def block_variances(values, b: int) -> list[Fraction]:
    """The exact unbiased variance of each block (at least 2 values a block):
    the squared deviations from the exact block mean, over m - 1."""
    xs, d = _integers(values)
    out = []
    for s, e in _blocks(len(xs), b):
        m = e - s
        total = sum(xs[s:e])
        squares = sum(x * x for x in xs[s:e])
        out.append(Fraction(m * squares - total * total, d * d * m * (m - 1)))
    return out


def smallest_square(values, b: int) -> Fraction | None:
    """The smallest nonzero squared deviation of a value from its block's
    exact mean, or None if every value equals its block's mean."""
    xs, d = _integers(values)
    smallest = None
    for s, e in _blocks(len(xs), b):
        m, total = e - s, sum(xs[s:e])
        # m x - total is m d times the deviation, an integer.
        gaps = [abs(m * x - total) for x in xs[s:e] if m * x != total]
        if gaps:
            sq = Fraction(min(gaps) ** 2, (m * d) ** 2)
            smallest = sq if smallest is None else min(smallest, sq)
    return smallest


def median(values: list[Fraction]) -> Fraction:
    """Order statistic of 0-based rank (m - 1) // 2, the median rule of the kernels."""
    return sorted(values)[(len(values) - 1) // 2]


def clipped_mean(values, lo: float, hi: float) -> Fraction:
    """The exact mean of the values clipped to [lo, hi] (clipping floats is exact)."""
    xs, d = _integers(np.clip(np.asarray(values, dtype=np.float64), lo, hi))
    return Fraction(sum(xs), d * len(xs))


def ulp(exact: Fraction) -> Fraction:
    """Spacing of the float64 values in the binade of exact (2^-1074 below the normals)."""
    x = abs(exact)
    if x < TINY:
        return Fraction(1, 2**1074)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** k > x:
        k -= 1
    return Fraction(2) ** (k - 52)


def overflows(exact: Fraction) -> bool:
    """True if exact rounds beyond the largest float64."""
    try:
        float(exact)
    except OverflowError:
        return True
    return False
