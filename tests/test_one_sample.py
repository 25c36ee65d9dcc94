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
from subgauss.core_estimators import (
    median_of_means,
    median_of_means_raw,
    mom_variance,
    quantile_interval_raw,
)

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


@st.composite
def mom_deltas(draw_, n: int):
    """A delta in median_of_means's range [e^(1 - n/2), 1) at n, edges included."""
    floor = math.exp(1.0 - 0.5 * n)
    return draw_(st.one_of(
        st.sampled_from([floor, floor * (1.0 - 1e-12), 1.0 - 2.0**-53]
                        + [d for d in (0.5, 0.05) if d >= floor]),
        st.floats(1e-9, 0.5 * n - 1.0).map(lambda u: math.exp(-u)),
        st.integers(1, max(1, int((0.5 * n - 1.0) / math.log(2.0)))).map(lambda k: 2.0**-k),
    ))


@COMMON
@given(data=st.data())
def test_median_of_means_matches_reference(data):
    # Rows of a read-only matrix, as infvar_stress passes them; the
    # estimator partitions its own block means, never the sample.
    n = data.draw(st.integers(4, 600))
    rows = np.stack([data.draw(samples(n)) for _ in range(2)])
    rows.flags.writeable = False
    before = rows.copy()
    for row in rows:
        delta = data.draw(mom_deltas(n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert bits(median_of_means, row, delta) == bits(ref.median_of_means_at, row, delta)
    assert np.array_equal(rows.view(np.uint64), before.view(np.uint64))


def test_median_of_means_delta_messages():
    # n = 100: the range is [e^-49, 1).  Each message is raised afresh,
    # also after a valid call at the same n.
    x = np.arange(100.0)
    floor = "5.242885663363464e-22"
    shown = ["nan", "0.0", "-0.0", "1.0", "5.2428856633529785e-22", "5e-324"]
    for _ in range(2):
        assert median_of_means(x, 0.5) == 49.5
        for text in shown:
            message = f"delta={text} outside the valid range [{floor}, 1)"
            assert bits(median_of_means, x, float(text)) == ("error", message)
    # The range edge and the 1e-12 slack below it are accepted.
    assert median_of_means(x, 5.242885663363464e-22) == 50.5
    assert median_of_means(x, 5.242885663358221e-22) == 50.5
    assert median_of_means(x, 1.0 - 2.0**-53) == 49.5
    assert bits(median_of_means, x[:3], 0.5) == ("error", "median_of_means needs n >= 4")
    bad = x.copy()
    bad[7] = math.nan
    assert bits(median_of_means, bad, 0.5) == ("error", "sample values must all be finite")


# Finite inputs whose block sums overflow: the value and every warning
# (category and text, in order) of each public one-sample call.
OVERFLOW_CASES = [
    ("max", median_of_means, (0.1,), "inf", ["reduceat"]),
    ("max", median_of_means_raw, (2,), "inf", ["reduceat"]),
    ("max", mom_variance, (2,), "inf", ["reduce"]),
    ("max", quantile_interval_raw, (2,), ["inf", "inf"], ["reduceat"]),
    ("signed", median_of_means, (0.1,), (1e308 / 3).hex(), ["reduceat"]),
    ("signed", median_of_means_raw, (2,), "0x0.0p+0", []),
    ("signed", mom_variance, (2,), "inf", ["reduce"]),
    ("signed", quantile_interval_raw, (2,), ["0x0.0p+0", "0x0.0p+0"], []),
]


def test_overflow_warnings_are_pinned():
    inputs = {"max": np.full(8, 1e308), "signed": np.array([1e308, 1e308, -1e308, -1e308] * 2)}
    for name, fn, args, value, ufuncs in OVERFLOW_CASES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = fn(inputs[name], *args)
        if isinstance(got, tuple) or hasattr(got, "lo"):
            got = [got.lo.hex(), got.hi.hex()]
        else:
            got = got.hex()
        assert got == value, (name, fn.__name__)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, f"overflow encountered in {u}") for u in ufuncs
        ], (name, fn.__name__)
