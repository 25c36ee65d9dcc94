"""Bit-for-bit parity of the tiled variance kernels with untiled references.

The kernels in subgauss._batch walk the matrix in row tiles through one
scratch buffer and compute each centre and block variance once per distinct
block count; tests/reference.py holds the per-level, whole-matrix formulas
they replace.
Every case compares with np.array_equal, so any change in the order of a
floating-point operation shows up as a failure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from subgauss import _batch
from subgauss.core_estimators import _ceil_tol

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
    """A (T, n) matrix: T at 1 or around the tile size, values from a family,
    scaled by 1e-150..1e150 and shifted off zero, in a given memory layout."""
    tile = _batch._tile_rows(n)
    t = draw_(st.sampled_from(sorted({1, max(1, tile - 1), tile, tile + 1})))
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
    # array its row mean sums column by column; the tiled kernel always sums
    # each row pairwise, as on a C-ordered copy.
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
    n, _b = data.draw(layouts(b_min=_batch._mom_block_count(m), b_max=9))
    x, _layout = data.draw(matrices(n))
    sigma2_hi = data.draw(st.sampled_from([0.25, 1.0, 1e6]))
    got = _batch.combined_fixed_rows(x, m, sigma2_hi)
    assert np.array_equal(got, ref.combined_fixed_rows(x, m, sigma2_hi), equal_nan=True)


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


@pytest.mark.parametrize("n", [17, 256, 16384])
def test_row_tiles_cover_every_row_once(n):
    tile = _batch._tile_rows(n)
    assert tile * n * 8 <= _batch._TILE_BYTES or tile == 1
    t = 2 * tile + 1
    seen = np.zeros(t, dtype=int)
    for rows, buf in _batch._row_tiles(t, n):
        assert buf.shape == (rows.stop - rows.start, n)
        assert buf.flags.c_contiguous
        seen[rows] += 1
    assert np.array_equal(seen, np.ones(t, dtype=int))


def test_variance_once_per_distinct_block_count(monkeypatch):
    calls = []
    real = _batch.mom_variance_rows

    def counting(chunk, b):
        calls.append(b)
        return real(chunk, b)

    monkeypatch.setattr(_batch, "mom_variance_rows", counting)
    x = np.random.default_rng(0).standard_normal((3, 64))
    _batch.combined_adaptive_rows(x, 9)
    assert sorted(calls) == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("kernel", ["fixed", "adaptive"])
def test_centers_once_per_distinct_block_count(monkeypatch, kernel):
    calls = []
    real = _batch.mom_rows

    def counting(chunk, b):
        calls.append(b)
        return real(chunk, b)

    monkeypatch.setattr(_batch, "mom_rows", counting)
    x = np.random.default_rng(1).standard_normal((3, 64))
    if kernel == "fixed":
        _batch.combined_fixed_rows(x, 9, 1.0)
    else:
        _batch.combined_adaptive_rows(x, 9)
    assert sorted(calls) == [1, 2, 3, 4, 5, 6, 7]
