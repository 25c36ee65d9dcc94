"""The block kernels against the exact value of their formula (tests/exact.py).

The parity tests say a kernel is unchanged; these say it is right, to a
stated number of ulps.  Each bound (in tests/exact.py) is about twice the
largest error seen in 12,000 examples of these strategies a kernel, on
this code and on the earlier one-sample variance kernel, a per-block loop
kept as reference.mom_variance, so it is not fitted to one kernel's bits.
The largest errors seen were 5.7 ulp for block means, 6.3 for the median
block variance (11.9 for the loop) and 3.8 for the clipped mean.  The
units:

- block means: the error, in ulps of the block's mean absolute value, is at
  most MEANS_ULPS.  For a one-signed block that is the relative error; on
  a block whose values cancel, no float sum has a bounded relative error,
  so the unit is the sum's own scale.
- median block variance: the relative error is at most VARIANCE_ULPS, for
  one sample and for every row of a chunk, plus the effect of the block
  mean's own rounding (_variance_allowance).  A sum of squares cannot cancel.
- clipped mean: the pipeline's estimate is within CLIP_ULPS ulps of the
  mean absolute clipped value of the exact mean of the sample clipped to
  the pipeline's own window.

Data are skipped where the formula's float result is not meant to hold:
where a block sum, a sum of squares or the result overflows, where a
squared deviation or a mean absolute value is near the subnormals, or
where a block's exact variance is 0 (a constant block's computed mean can
sit an ulp off the constant, which is a separate defect).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact
import reference as ref
from exact import CLIP_ULPS, MEANS_ULPS, VARIANCE_ULPS
from test_batch import layouts as row_layouts, matrices
from test_one_sample import layouts, samples
from subgauss import _batch
from subgauss.core_estimators import _block_means, _block_variances, _select, mom_variance

COMMON = settings(deadline=None, max_examples=60)
MAX_N = 2000
# samples() includes sums that overflow; the skip rules drop them after the kernel ran.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _mean_abs_ulps(got: float, want: Fraction, scale: Fraction) -> float:
    """|got - want| in ulps of scale, a mean absolute value."""
    return float(abs(Fraction(float(got)) - want) / exact.ulp(scale))


def _checked_rows(x: np.ndarray) -> list[int]:
    return sorted({0, len(x) // 2, len(x) - 1})


def _groups(b: int) -> list[tuple[tuple[int, ...], int]]:
    """(block counts, index of b) of a group of one layout and of a group of
    two, which the block kernels sum in one reduceat at these sizes."""
    return [((b,), 0), ((b, 1 if b > 1 else 2), 0)]


def _grouped_median_variances(x: np.ndarray, b: int) -> list[np.ndarray]:
    """The median block variance of the b-block layout of x (n // b >= 2),
    from a group of one layout and from a group of two."""
    out = []
    for group, i in _groups(b):
        variances = _block_variances(x, _block_means(x, group))[i]
        out.append(_select(variances, (b - 1) // 2))
    return out


def _summable(scale: Fraction, m: int) -> bool:
    """True if m values of mean absolute value scale sum without overflow,
    to a mean that is not subnormal."""
    return not exact.overflows(2 * m * scale) and scale >= exact.TINY * 2**53


def _block_mean_errors(values, b: int, got: np.ndarray) -> list[tuple[int, float]]:
    """(block, error in ulps of its mean absolute value) of the block means got
    of values, on every block whose sum cannot overflow."""
    m = len(values) // b
    wants, scales = exact.block_means(values, b), exact.block_abs_means(values, b)
    return [(i, _mean_abs_ulps(got[i], want, scale))
            for i, (want, scale) in enumerate(zip(wants, scales)) if _summable(scale, m + 1)]


@COMMON
@given(data=st.data())
def test_block_means_within_bound(data):
    n, b = data.draw(layouts())
    assume(n <= MAX_N)
    x = data.draw(samples(n))
    for group, j in _groups(b):
        for i, err in _block_mean_errors(x, b, _block_means(x, group)[j]):
            assert err <= MEANS_ULPS, (group, i, err)
    # The rows of a chunk, by the chunk's flat reduceat: a harness-sized chunk
    # is summed a layout at a time, its first three rows as one group.
    n, b = data.draw(row_layouts())
    chunk, _layout = data.draw(matrices(n))
    for rows, (group, j) in ((chunk, _groups(b)[0]), (chunk[:3], _groups(b)[1])):
        means = _block_means(rows, group)[j]
        for t in _checked_rows(rows):
            for i, err in _block_mean_errors(rows[t], b, means[t]):
                assert err <= MEANS_ULPS, (group, t, i, err)


def _variance_allowance(values, b: int) -> tuple[Fraction, Fraction] | None:
    """(exact median block variance v, the error the kernels may make on it),
    or None where they are not held to a bound (see the module docstring).

    The error is VARIANCE_ULPS ulps of v plus the largest
    m delta^2 / (m - 1) over the blocks, with delta = MEANS_ULPS ulps of the
    block's mean absolute value: a block mean off by delta adds m delta^2 to
    the block's sum of squares.  That term only shows on blocks whose
    spread is a few ulps of their mean, such as near-ties far from zero.
    """
    variances = exact.block_variances(values, b)
    scales = exact.block_abs_means(values, b)
    m = len(values) // b
    if any(v == 0 or exact.overflows(2 * v * m) for v in variances):
        return None
    smallest = exact.smallest_square(values, b)
    if smallest is not None and smallest < 4 * exact.TINY:
        return None
    if not all(_summable(scale, m + 1) for scale in scales):
        return None
    # m delta^2 / (m - 1) is at most 2 delta^2 for m >= 2.
    shift = max(2 * (MEANS_ULPS * exact.ulp(scale)) ** 2 for scale in scales)
    want = exact.median(variances)
    return want, VARIANCE_ULPS * exact.ulp(want) + shift


def _within(got: float, want: Fraction, allowance: Fraction) -> bool:
    return abs(Fraction(float(got)) - want) <= allowance


@COMMON
@given(data=st.data())
def test_median_variance_within_bound(data):
    n, b = data.draw(layouts())
    assume(n <= MAX_N)
    x = data.draw(samples(n))
    bound = _variance_allowance(x, b)
    if bound is None:
        return
    assert _within(mom_variance(x, b), *bound)
    for got in _grouped_median_variances(x, b):
        assert _within(got, *bound)
    # The earlier per-block loop meets the same bound, so the two agree to
    # within twice of it.
    assert _within(ref.mom_variance(x, b), *bound)


@COMMON
@given(data=st.data())
def test_median_variance_rows_within_bound(data):
    n, b = data.draw(row_layouts())
    x, _layout = data.draw(matrices(n))
    got = _batch.mom_variance_rows(x, b)
    for t in _checked_rows(x):
        bound = _variance_allowance(x[t], b)
        if bound is not None:
            assert _within(got[t], *bound), t
    # The first three rows, from a group of one layout and from a group of two.
    for got in _grouped_median_variances(x[:3], b):
        for t in _checked_rows(x[:3]):
            bound = _variance_allowance(x[t], b)
            if bound is not None:
                assert _within(got[t], *bound), t


@COMMON
@given(data=st.data())
def test_clipped_mean_within_bound(data):
    n, b = data.draw(layouts())
    assume(n <= MAX_N and n // b >= 2)
    x = data.draw(samples(n))
    mu, _nu2, r, est = _batch._pipeline(x, b)
    lo, hi = mu - r, mu + r
    assume(np.isfinite(lo) and np.isfinite(hi))
    scale = exact.block_abs_means(np.clip(x, lo, hi), 1)[0]
    assume(_summable(scale, n))
    err = _mean_abs_ulps(est, exact.clipped_mean(x, lo, hi), scale)
    assert err <= CLIP_ULPS, err
