"""Bit-for-bit parity of the batch variance kernels with their references.

The kernels in subgauss._batch write their intermediates into one scratch
buffer and compute the block means of each distinct block count once;
tests/reference.py holds the per-level, whole-matrix formulas they
replace.
Every case compares with np.array_equal, so any change in the order of a
floating-point operation shows up as a failure.  The kernels are the
one-sample ones over the last axis, so each of their rows must also have
the bits of a one-sample call on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from subgauss import _batch, core_estimators, kurtosis_pipeline, seeding
from subgauss.core_estimators import _ceil_tol, median_of_means_raw, mom_variance
from subgauss.core_estimators import quantile_interval_raw
from subgauss.interval_combiner import multiple_delta_estimate
from subgauss.seeding import _MAX_CHUNK_TRIALS, chunk_bounds

COMMON = settings(deadline=None, max_examples=40)

FAMILIES = ("gaussian", "student", "pareto", "lognormal", "poisson", "bern2+", "bern2-")


def draw(family: str, shape, rng: np.random.Generator) -> np.ndarray:
    if family == "gaussian":
        return rng.standard_normal(shape)
    if family == "student":
        return rng.standard_t(6.0, shape)
    if family == "pareto":
        return (1.0 - rng.random(shape)) ** (-1.0 / 2.5) - 2.5 / 1.5
    if family == "lognormal":
        return rng.lognormal(0.0, 1.0, shape)
    if family == "poisson":  # ties
        return rng.poisson(2.0, shape).astype(np.float64)
    sign = 1.0 if family == "bern2+" else -1.0  # two-point, ties
    return np.where(rng.random(shape) < 0.3, sign * 2.0, 0.0)


@st.composite
def layouts(draw_, b_min=1, b_max=9):
    """(n, b) covering every remainder n mod b, with at least 2 points a block."""
    b = draw_(st.integers(b_min, b_max))
    q = draw_(st.integers(2, 200))
    r = draw_(st.integers(0, b - 1))
    return q * b + r, b


@st.composite
def matrices(draw_, n: int):
    """A (T, n) matrix: T at 1 or around the rows of a harness chunk, values
    from a family, scaled by 1e-150..1e150 and shifted off zero, in a given
    memory layout."""
    rows = chunk_bounds(_MAX_CHUNK_TRIALS, n)[0][1]
    t = draw_(st.sampled_from(sorted({1, max(1, rows - 1), rows, rows + 1})))
    family = draw_(st.sampled_from(FAMILIES))
    seed = draw_(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw_(st.integers(-150, 150))
    shift = draw_(st.sampled_from([0.0, 1.0, 1e6]))
    layout = draw_(st.sampled_from(["C", "F", "columns"]))
    rng = np.random.default_rng(seed)
    if layout == "columns":
        wide = (draw(family, (t, n + 3), rng) + shift) * scale
        return wide[:, 1 : n + 1], layout
    x = (draw(family, (t, n), rng) + shift) * scale
    return (np.asfortranarray(x) if layout == "F" else x), layout


@COMMON
@given(data=st.data())
def test_mom_variance_rows_matches_reference(data):
    n, b = data.draw(layouts())
    x, _layout = data.draw(matrices(n))
    got = _batch.mom_variance_rows(x, b)
    assert np.array_equal(got, ref.mom_variance_rows(x, b), equal_nan=True)


@COMMON
@given(data=st.data())
def test_truncated_pipeline_rows_matches_reference(data):
    n, b_max = data.draw(layouts())
    x, layout = data.draw(matrices(n))
    got = _batch.truncated_pipeline_rows(x, b_max)
    # The reference's clip keeps the input's memory order, so on a Fortran
    # array its row mean sums column by column; the kernel's C-ordered
    # scratch always sums each row pairwise, as on a C-ordered copy.
    want = ref.truncated_pipeline_rows(
        np.ascontiguousarray(x) if layout == "F" else x, b_max
    )
    assert np.array_equal(got, want, equal_nan=True)


@COMMON
@given(data=st.data())
def test_combined_adaptive_rows_matches_reference(data):
    m = data.draw(st.integers(1, 12))
    b_m = max(2, _ceil_tol(m * _batch._LN2))
    n, _b = data.draw(layouts(b_min=b_m, b_max=b_m))
    x, _layout = data.draw(matrices(n))
    got = _batch.combined_adaptive_rows(x, m)
    assert np.array_equal(got, ref.combined_adaptive_rows(x, m), equal_nan=True)


@COMMON
@given(data=st.data())
def test_combined_fixed_rows_matches_reference(data):
    m = data.draw(st.integers(1, 12))
    n, _b = data.draw(layouts(b_min=_batch._level_blocks(m)[0][-1], b_max=9))
    x, _layout = data.draw(matrices(n))
    sigma2_hi = data.draw(st.sampled_from([0.25, 1.0, 1e6]))
    got = _batch.combined_fixed_rows(x, m, sigma2_hi)
    assert np.array_equal(got, ref.combined_fixed_rows(x, m, sigma2_hi), equal_nan=True)


def _bits(value) -> int:
    # The float's bit pattern, so that -0.0 and 0.0 differ.
    return int(np.float64(value).view(np.int64))


def _bits_or_none(fn, *args, **kwargs):
    """The bits of fn's value, or None where fn raises (a level's delta is
    outside the range at this n, or a block sum overflows)."""
    try:
        return _bits(fn(*args, **kwargs))
    except ValueError:
        return None


@COMMON
@given(data=st.data())
def test_rows_match_one_sample_calls(data):
    n, b = data.draw(layouts())
    x, _layout = data.draw(matrices(n))
    m = data.draw(st.sampled_from([m for m in range(1, 13) if _batch._level_blocks(m)[0][-1] <= n]))
    sigma2_hi = data.draw(st.sampled_from([0.25, 1.0, 1e6]))
    delta_min = 2.0 ** -(m + 1)
    mom = _batch.mom_rows(x, b)
    mid = _batch.kreg_midpoint_rows(x, b)
    var = _batch.mom_variance_rows(x, b)
    truncated = _batch.truncated_pipeline_rows(x, b)
    fixed = _batch.combined_fixed_rows(x, m, sigma2_hi)
    adaptive = None
    if n // _batch._level_blocks(m)[1][-1] >= 2:  # 2 points a block at the deepest level
        adaptive = _batch.combined_adaptive_rows(x, m)
    for i, row in enumerate(x):
        assert _bits(mom[i]) == _bits(median_of_means_raw(row, b))
        assert _bits(mid[i]) == _bits(quantile_interval_raw(row, b).midpoint)
        assert _bits(var[i]) == _bits(mom_variance(row, b))
        assert _bits(truncated[i]) == _bits(kurtosis_pipeline._pipeline(row, b)[3])
        want = _bits_or_none(
            multiple_delta_estimate, row, "fixed_sigma", sigma2_hi=sigma2_hi, delta_min=delta_min
        )
        if want is not None:
            assert _bits(fixed[i]) == want
    # The first, middle and last rows: an adaptive estimate takes about 0.1 ms.
    for i in sorted({0, len(x) // 2, len(x) - 1}):
        want = _bits_or_none(multiple_delta_estimate, x[i], "adaptive", delta_min=delta_min)
        if want is not None:
            assert _bits(adaptive[i]) == want


@COMMON
@given(
    layout=layouts(),
    t=st.integers(1, 40),
    mantissa=st.integers(-(2**20), 2**20),
    exponent=st.integers(-500, 480),
)
def test_constant_rows_have_zero_variance(layout, t, mantissa, exponent):
    # A short mantissa keeps every block sum exact, so the block mean is the
    # constant itself and each centered value is exactly 0.
    n, b = layout
    c = mantissa * 2.0**exponent
    x = np.full((t, n), c)
    assert np.array_equal(_batch.mom_variance_rows(x, b), np.zeros(t))
    assert np.array_equal(_batch.truncated_pipeline_rows(x, b), x[:, 0])


class _Counting:
    """Records the block counts of every call of the shared block-means and
    block-variance kernels, as _batch looks them up, and of every flat
    reduceat they make (core_estimators._sum_blocks, one a group of layouts)."""

    def __init__(self, monkeypatch):
        self.means, self.variances = [], []  # block counts, a kernel call each
        self.groups = {"means": [], "variances": []}  # block counts, a reduceat each
        real_sums = core_estimators._sum_blocks
        kind = []

        def recording(name, real, calls):
            def kernel(x, arg):
                calls.append([a if isinstance(a, int) else a.shape[-1] for a in arg])
                kind.append(name)
                try:
                    return real(x, arg)
                finally:
                    kind.pop()
            return kernel

        def sums(*args):
            out = real_sums(*args)
            self.groups[kind[-1]].append([s.shape[-1] for s in out])
            return out

        monkeypatch.setattr(_batch, "block_mean_rows",
                            recording("means", _batch.block_mean_rows, self.means))
        monkeypatch.setattr(_batch, "_block_variances",
                            recording("variances", _batch._block_variances, self.variances))
        monkeypatch.setattr(core_estimators, "_sum_blocks", sums)


# One sample and a chunk: the compositions are written once over the last axis.
SHAPES = ((64,), (3, 64))


def test_variance_once_per_distinct_block_count(monkeypatch):
    # At m = 9 the variance block counts max(2, ceil(k ln 2)) are
    # 2, 2, 3, 3, 4, 5, 5, 6, 7: six distinct counts, one kernel call and,
    # since all six fit the chunk budget stacked, one reduceat.  The
    # truncated-mean pipeline takes one block-means and one variance pass.
    for shape in SHAPES:
        x = np.random.default_rng(0).standard_normal(shape)
        counting = _Counting(monkeypatch)
        _batch._adaptive_levels(x, 9)
        assert counting.variances == [[2, 3, 4, 5, 6, 7]], shape
        assert counting.groups["variances"] == [[2, 3, 4, 5, 6, 7]], shape
        counting = _Counting(monkeypatch)
        _batch._pipeline(x, 8)
        assert (counting.means, counting.variances) == ([[8]], [[8]]), shape
        assert counting.groups == {"means": [[8]], "variances": [[8]]}, shape


@pytest.mark.parametrize("kernel", ["fixed", "adaptive"])
def test_centers_once_per_distinct_block_count(monkeypatch, kernel):
    # One block-means call for the distinct block counts of levels 1..9,
    # which the adaptive variances share: b = 1..7, in one reduceat.
    for shape in SHAPES:
        x = np.random.default_rng(1).standard_normal(shape)
        counting = _Counting(monkeypatch)
        if kernel == "fixed":
            _batch._levels(x, 9, [1.0] * 9)
        else:
            _batch._adaptive_levels(x, 9)
        assert counting.means == [[1, 2, 3, 4, 5, 6, 7]], shape
        assert counting.groups["means"] == [[1, 2, 3, 4, 5, 6, 7]], shape


@pytest.mark.parametrize("fit, means, variances", [
    (1, [[1], [2], [3], [4], [5], [6], [7]], [[2], [3], [4], [5], [6], [7]]),
    (2, [[1, 2], [3, 4], [5, 6], [7]], [[2, 3], [4, 5], [6, 7]]),
    (3, [[1, 2, 3], [4, 5, 6], [7]], [[2, 3, 4], [5, 6, 7]]),
])
def test_group_holds_the_layouts_that_fit_the_chunk_target(monkeypatch, fit, means, variances):
    # A group stacks as many layouts as fit seeding._CHUNK_TARGET values, so
    # a full harness chunk (fit = 1) sums one layout a reduceat.  The levels'
    # bytes do not depend on the grouping.
    def level_bytes(x):
        return [np.asarray(v).tobytes() for level in _batch._adaptive_levels(x, 9) for v in level]

    for shape in SHAPES:
        x = np.random.default_rng(2).standard_normal(shape)
        want = level_bytes(x)
        monkeypatch.setattr(seeding, "_CHUNK_TARGET", (fit + 1) * x.size - 1)
        counting = _Counting(monkeypatch)
        got = level_bytes(x)
        assert counting.groups == {"means": means, "variances": variances}, shape
        assert got == want, shape
