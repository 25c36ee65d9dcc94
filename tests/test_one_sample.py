"""Bit-for-bit parity of the one-sample estimators with their loop references.

mom_variance, the families and the kurtosis pipeline share the block
variance kernel of the batch kernels; tests/reference.py keeps the per-level
call structure they replace, whose block variances are its rows formula on
a one-row chunk.  Every value is compared through float.hex, which is
stricter than == (it tells -0.0 from 0.0) and lets a NaN equal a NaN; an
error must carry the same message.  The earlier per-block loop,
reference.mom_variance, has other bits; tests/test_exact.py holds it and
mom_variance within one bound of the exact value.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from test_batch import FAMILIES, draw, per_level
from subgauss import Sample, _batch, interval_combiner, kurtosis_pipeline, seeding
from subgauss.core_estimators import (
    _block_means,
    _block_plan,
    _block_variances,
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
    assert bits(mom_variance, x, b) == bits(ref.mom_variance_row, x, b)
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


@COMMON
@given(data=st.data(), builder=st.sampled_from(interval_combiner.BUILDERS))
def test_estimate_is_combine_of_its_family(data, builder):
    # multiple_delta_estimate combines float level bounds without building
    # a family; it must return combine(family).estimate bit for bit, or
    # raise the family's ValueError.
    n = data.draw(st.integers(4, 2500))
    x = data.draw(samples(n))
    delta_min = 2.0 ** -data.draw(st.integers(2, 14))
    if builder == "fixed_sigma":
        sigma2_hi = data.draw(st.sampled_from([0.25, 1.0, 1e6]))
        kwargs = {"sigma2_hi": sigma2_hi, "delta_min": delta_min}
        family_of = partial(interval_combiner.fixed_sigma_family, x, sigma2_hi, delta_min)
    elif builder == "adaptive":
        kwargs = {"delta_min": delta_min}
        family_of = partial(interval_combiner.adaptive_family, x, delta_min)
    else:
        k_reg = data.draw(st.integers(1, 2))
        delta_min = data.draw(st.sampled_from([None, delta_min]))
        kwargs = {"k_reg": k_reg, "delta_min": delta_min}
        family_of = partial(interval_combiner.quantile_kreg_family, x, k_reg, delta_min)
    got = bits(lambda: interval_combiner.multiple_delta_estimate(x, builder, **kwargs))
    try:
        family = family_of()
    except ValueError as exc:
        assert got == ("error", str(exc))
        return
    result = interval_combiner.combine(family)
    assert got == result.estimate.hex()
    k_hat, lo, hi = ref.combine(family)
    final = result.final_interval
    assert (result.k_hat, final.lo.hex(), final.hi.hex()) == (k_hat, lo.hex(), hi.hex())


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


def combined_fixed(x):
    return interval_combiner.multiple_delta_estimate(
        x, "fixed_sigma", sigma2_hi=1.0, delta_min=0.125
    )


def combined_adaptive(x):
    return interval_combiner.multiple_delta_estimate(x, "adaptive", delta_min=0.125)


def kurtosis(x):
    config = kurtosis_pipeline.KurtosisConfig(b_max=2, kappa_bound=9.0)
    return kurtosis_pipeline.kurtosis_estimate(x, config)


ADAPTIVE_OVERFLOW = ("adaptive level 1 (delta=2^-1) has centre {} and radius inf: the "
                     "sample's block sums overflow float64")
# kurtosis_estimate's precondition warnings at n = 8, b_max = 2, kappa_bound = 9.
KURTOSIS_PRECONDITIONS = [
    "variance-estimate concentration condition fails: 96*e*(kappa+3)*b_max/n = 782.9 > 1",
    "truncation window may be unstable: 2*(eps_mu + eps_R) = 72.93 exceeds "
    "sqrt(n/(2*b_max)) = 1.414",
    "center-accuracy assumption fails: eps_mu = 3.844 exceeds sqrt(kappa_bound) = 3",
]

# Finite inputs whose block sums overflow: the value (or the ValueError) and
# every warning (category and text, in order) of each public one-sample
# call.  A warning given as a bare ufunc name is that ufunc's overflow.
OVERFLOW_CASES = [
    ("max", median_of_means, (0.1,), "inf", ["reduceat"]),
    ("max", median_of_means_raw, (2,), "inf", ["reduceat"]),
    ("max", mom_variance, (2,), "inf", ["reduceat"]),
    ("max", quantile_interval_raw, (2,), ["inf", "inf"], ["reduceat"]),
    ("signed", median_of_means, (0.1,), (1e308 / 3).hex(), ["reduceat"]),
    ("signed", median_of_means_raw, (2,), "0x0.0p+0", []),
    ("signed", mom_variance, (2,), "inf", ["multiply"]),
    ("signed", quantile_interval_raw, (2,), ["0x0.0p+0", "0x0.0p+0"], []),
    # Both levels' block means (b = 1 and 2) are one reduceat: one overflow warning.
    ("max", combined_fixed, (), "inf", ["reduceat"]),
    ("max", combined_adaptive, (), ("error", ADAPTIVE_OVERFLOW.format("inf")), ["reduceat"]),
    ("max", kurtosis, (), "nan", [*KURTOSIS_PRECONDITIONS, "reduceat"]),
    ("signed", combined_fixed, (), "0x0.0p+0", []),
    ("signed", combined_adaptive, (), ("error", ADAPTIVE_OVERFLOW.format("0.0")), ["multiply"]),
    ("signed", kurtosis, (), "nan", [*KURTOSIS_PRECONDITIONS, "multiply", "reduce",
                                     "invalid value encountered in reduce"]),
]


def test_overflow_warnings_are_pinned():
    inputs = {"max": np.full(8, 1e308), "signed": np.array([1e308, 1e308, -1e308, -1e308] * 2)}
    for name, fn, args, value, ufuncs in OVERFLOW_CASES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = fn(inputs[name], *args)
            except ValueError as exc:
                got = ("error", str(exc))
        if hasattr(got, "lo"):
            got = [got.lo.hex(), got.hi.hex()]
        elif isinstance(got, float):
            got = got.hex()
        assert got == value, (name, fn.__name__)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, u if " " in u else f"overflow encountered in {u}") for u in ufuncs
        ], (name, fn.__name__)


@st.composite
def kernel_inputs(draw_, n: int):
    """A sample (n,) or a chunk of 1 or 3 rows small enough for the block
    kernels to sum several layouts in one group: family values scaled by
    1e-150..1e150, blocks of +0.0 and -0.0, a constant, or values near
    1e300 whose sums overflow; contiguous, strided, read-only, a Sample's
    values, or a chunk in C or Fortran order or a column slice."""
    rows = draw_(st.sampled_from([None, 1, 3]))
    size = n * (rows or 1)
    rng = np.random.default_rng(draw_(st.integers(0, 2**32 - 1)))
    kind = draw_(st.sampled_from(["family", "zeros", "constant", "huge"]))
    if kind == "zeros":
        p = draw_(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
        x = np.where(rng.random(size) < p, -0.0, 0.0)
    elif kind == "constant":
        x = np.full(size, draw_(st.floats(-1e300, 1e300)))
    else:
        x = draw(draw_(st.sampled_from(FAMILIES)), size, rng)
        if kind == "huge":
            x = np.clip(x * 10.0 ** draw_(st.integers(296, 300)), -1.7e308, 1.7e308)
        else:
            shift = draw_(st.sampled_from([0.0, 1.0, 1e6]))
            x = (x + shift) * 10.0 ** draw_(st.integers(-150, 150))
    if rows is None:
        form = draw_(st.sampled_from(["contiguous", "strided", "read-only", "Sample"]))
        if form == "strided":
            wide = np.zeros(2 * n)
            wide[::2] = x
            x = wide[::2]
        elif form == "Sample":
            return Sample(x).values
    else:
        form = draw_(st.sampled_from(["C", "F", "columns", "read-only"]))
        x = x.reshape(rows, n)
        if form == "F":
            x = np.asfortranarray(x)
        elif form == "columns":
            wide = np.zeros((rows, n + 3))
            wide[:, 1 : n + 1] = x
            x = wide[:, 1 : n + 1]
    if form == "read-only":
        x.flags.writeable = False
    return x


def _raw(a) -> list[int]:
    """The bit patterns of an array or scalar: -0.0 differs from 0.0, and a
    NaN equals only a NaN of the same bits."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(data=st.data(), m=st.integers(1, 12))
def test_grouped_kernels_match_per_layout_passes(data, m):
    # Every layout of an estimate is summed in one group: its block means,
    # block variances and levels keep the bits of one pass a layout.
    _, v_of, _, vs, both = _batch._level_blocks(m)
    floor = 2 * v_of[-1]  # 2 points a block at the deepest variance level
    step = math.lcm(*both)
    n = data.draw(st.one_of(
        st.just(floor),
        st.integers(floor, 9000),
        st.integers(-(-floor // step), 9000 // step).map(lambda j: j * step),  # b divides n
    ))
    x = data.draw(kernel_inputs(n))
    for bs, centred in ((both, False), (vs, True)):
        assert len(_block_plan(x.shape, bs, centred, seeding._CHUNK_TARGET)) == 1  # one group
    means = dict(zip(both, _block_means(x, both)))
    for b in both:
        assert _raw(means[b]) == _raw(ref.block_means(x, b)), b
    for b, got in zip(vs, _block_variances(x, [means[b] for b in vs])):
        assert _raw(got) == _raw(ref.block_variances(x, b)), b
    widths = [1.5] * m
    for got, want in ((_batch._levels(x, m, widths), ref.levels(x, m, widths)),
                      (_batch._adaptive_levels(x, m), ref.levels(x, m))):
        got = per_level(*got)
        assert [(_raw(c), _raw(r)) for c, r in got] == [(_raw(c), _raw(r)) for c, r in want]


def _split_inputs(n: int) -> np.ndarray:
    """Four rows of n values: values off zero, blocks of -0.0 (the first half)
    and of +0.0 and -0.0, values whose squares and sums overflow, and a tiny
    constant."""
    rng = np.random.default_rng(n)
    return np.stack([
        (rng.standard_normal(n) + 1e6) * 1e3,
        np.where((np.arange(n) < n // 2) | (rng.random(n) < 0.5), -0.0, 0.0),
        np.where(rng.random(n) < 0.3, -1.0, 1.0) * rng.uniform(1e307, 1.7e308, n),
        np.full(n, 5e-324),
    ])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [14, 15, 1031])  # b = 7 has q = 2 at n = 14; 1031 is prime
@pytest.mark.parametrize("per_group", [1, 2, 4])
@pytest.mark.parametrize("order", ["C", "F"])
def test_split_groups_match_per_layout_passes(monkeypatch, n, per_group, order):
    # A chunk target that fits per_group layouts splits an estimate's layouts
    # into groups of one, as in a full harness chunk, or of two or more: the
    # block variances and adaptive levels keep the bits of one pass a layout.
    m = 9
    _, _, _, vs, both = _batch._level_blocks(m)
    chunk = np.asarray(_split_inputs(n), order=order)
    for x in (chunk, chunk[0], chunk[1], chunk[2]):
        monkeypatch.setattr(seeding, "_CHUNK_TARGET", per_group * x.size)
        for bs, centred in ((both, False), (vs, True)):
            groups = _block_plan(x.shape, bs, centred, seeding._CHUNK_TARGET)
            sizes = [len(bs[i : i + per_group]) for i in range(0, len(bs), per_group)]
            assert [len(group[2]) for group in groups] == sizes
        means = dict(zip(both, _block_means(x, both)))
        for b, got in zip(vs, _block_variances(x, [means[b] for b in vs])):
            assert _raw(got) == _raw(ref.block_variances(x, b)), b
        got, want = per_level(*_batch._adaptive_levels(x, m)), ref.levels(x, m)
        assert [(_raw(c), _raw(r)) for c, r in got] == [(_raw(c), _raw(r)) for c, r in want]
