"""Bit-for-bit parity of the one-sample estimators with their loop references.

mom_variance computes every block variance from two reshaped views, and the
families and the kurtosis pipeline validate once and call private kernels;
tests/reference.py keeps the per-block loop and the per-level call
structure they replace.  Every value is compared through float.hex, which is
stricter than == (it tells -0.0 from 0.0) and lets a NaN equal a NaN; an
error must carry the same message.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from test_batch import FAMILIES, draw
from subgauss import interval_combiner, kurtosis_pipeline
from subgauss.core_estimators import median_of_means_raw, mom_variance

COMMON = settings(deadline=None, max_examples=60)


@st.composite
def layouts(draw_):
    """(n, b): every remainder n mod b for b = 1..9, or b up to n // 2."""
    if draw_(st.booleans()):
        b = draw_(st.integers(1, 9))
        n = b * draw_(st.integers(2, 300)) + draw_(st.integers(0, b - 1))
    else:
        n = draw_(st.integers(4, 600))
        b = draw_(st.integers(1, n // 2))
    return n, b


@st.composite
def samples(draw_, n: int):
    """n finite values from a family, scaled by 1e-150..1e150 and shifted off
    zero, or scaled near the float limit so block sums overflow to inf;
    contiguous or a strided view."""
    family = draw_(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw_(st.integers(0, 2**32 - 1)))
    stride = draw_(st.sampled_from([1, 2, 3]))
    x = draw(family, n * stride, rng)
    if draw_(st.integers(0, 9)) == 0:
        x = np.clip(x * 1e307, -1.7e308, 1.7e308)
    else:
        shift = draw_(st.sampled_from([0.0, 1.0, 1e6]))
        x = (x + shift) * 10.0 ** draw_(st.integers(-150, 150))
    return x[::stride]


def bits(fn, *args):
    try:
        out = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(out, interval_combiner.IntervalFamily):
        return [(iv.lo.hex(), iv.hi.hex()) for iv in out.intervals]
    if isinstance(out, tuple):
        return [float(v).hex() for v in out]
    return float(out).hex()


@COMMON
@given(data=st.data())
def test_block_kernels_match_loop(data):
    n, b = data.draw(layouts())
    x = data.draw(samples(n))
    assert bits(mom_variance, x, b) == bits(ref.mom_variance, x, b)
    assert bits(median_of_means_raw, x, b) == bits(ref.median_of_means, x, b)
    if n // b >= 2:
        got = bits(kurtosis_pipeline._pipeline, x, b)
        assert got == bits(ref.pipeline, x, b)
    if n >= 4 and n // b >= 2:
        config = kurtosis_pipeline.KurtosisConfig(b_max=b, kappa_bound=9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert bits(kurtosis_pipeline.kurtosis_estimate, x, config) == got[3]


@COMMON
@given(data=st.data(), m=st.integers(1, 12))
def test_families_match_per_level_calls(data, m):
    n = data.draw(st.integers(4, 1500))
    x = data.draw(samples(n))
    delta_min = 2.0 ** -(m + 1)
    sigma2_hi = data.draw(st.sampled_from([0.25, 1.0, 1e6]))
    assert bits(interval_combiner.fixed_sigma_family, x, sigma2_hi, delta_min) == bits(
        ref.fixed_sigma_family, x, sigma2_hi, delta_min
    )
    assert bits(interval_combiner.adaptive_family, x, delta_min) == bits(
        ref.adaptive_family, x, delta_min
    )


def test_constant_blocks_have_zero_variance():
    # Exact block sums: each centred value is exactly 0, in both views.
    for n, b in ((20, 3), (21, 3), (9, 4), (4, 2)):
        x = np.full(n, 3.0 * 2.0**-600)
        assert mom_variance(x, b) == 0.0 == ref.mom_variance(x, b)
        assert math.copysign(1.0, mom_variance(x, b)) == 1.0
