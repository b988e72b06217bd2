"""Grid engine: transforms, convolution, norms, short-time table."""

from __future__ import annotations

import ast
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from youngbound import grids
from youngbound.grids import (
    Grid,
    GridMismatchError,
    ResolutionError,
    ResolutionWarning,
    SampledFunction,
    SampledKernel2d,
    bracket,
    convolve,
    fourier_lebesgue_norm,
    fourier_transform,
    gaussian_resolution_guard,
    inverse_fourier_transform,
    mixed_norm_2d,
    modulation_norm,
    stft,
    stft_magnitude_norms,
    stft_magnitudes,
    stft_table_norm,
    weighted_lebesgue_norm,
)
from youngbound.grids import _MixedNorm
from youngbound.kernels import KernelParams, kernel_table

from oracles import (
    direct_convolution,
    direct_dft_centered,
    direct_stft_point,
    gaussian_lp_norm,
    gaussian_stft_norm,
    loop_mixed_norm,
    loop_stft_table,
    loop_weighted_norm,
    weighted_table_norm,
    trapezoid_weighted_norm,
)

GRID = Grid(1, 16.0, 1024)
SQRT_PI = math.sqrt(math.pi)


def sample(grid, func):
    return SampledFunction(grid, func(grid.axis()).astype(np.complex128))


def gaussian(alpha):
    return lambda x: np.exp(-alpha * x * x)


# ---------------------------------------------------------------------------
# Grid bookkeeping
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 16.0, 64)
    with pytest.raises(ValueError):
        Grid(2, 16.0, 64)  # the numerics are one-dimensional
    with pytest.raises(ValueError):
        Grid(1, -1.0, 64)
    with pytest.raises(ValueError):
        Grid(1, 16.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 16.0, 4)


@pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf])
def test_grid_rejects_a_non_finite_extent(extent):
    """A non-finite box would turn every norm on it into nan or inf."""
    with pytest.raises(ValueError, match="finite"):
        Grid(1, extent, 8)


def test_grid_spacing_and_axis():
    g = Grid(1, 16.0, 1024)
    assert g.h == pytest.approx(1 / 32)
    ax = g.axis()
    assert ax[0] == pytest.approx(-16.0)
    assert ax[g.n // 2] == 0.0
    assert ax[-1] == pytest.approx(16.0 - g.h)


def test_dual_grid_is_an_involution():
    g = Grid(1, 12.0, 256)
    assert g.dual().dual() == g
    assert g.dual().extent == pytest.approx(math.pi * g.n / (2 * g.extent))


def test_bracket_values():
    assert bracket(0) == 1.0
    assert bracket(3) == pytest.approx(math.sqrt(10.0))
    assert bracket((3, 4)) == pytest.approx(math.sqrt(26.0))


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def test_standard_gaussian_is_a_fixed_point():
    f = sample(GRID, gaussian(0.5))
    fhat = fourier_transform(f)
    expected = np.exp(-fhat.grid.axis() ** 2 / 2.0)
    assert np.max(np.abs(fhat.values - expected)) < 1e-12


def test_gaussian_transform_closed_form():
    # e^{-x^2} maps to 2^{-1/2} e^{-xi^2/4}
    f = sample(GRID, gaussian(1.0))
    fhat = fourier_transform(f)
    xi = fhat.grid.axis()
    expected = np.exp(-xi * xi / 4.0) / math.sqrt(2.0)
    assert np.max(np.abs(fhat.values - expected)) < 1e-12


def test_transform_matches_direct_dft():
    g = Grid(1, 10.0, 128)
    rng = np.random.default_rng(3)
    envelope = np.exp(-g.axis() ** 2 / 4.0)
    vals = envelope * rng.standard_normal(g.n)
    f = SampledFunction(g, vals.astype(np.complex128))
    with mock.patch.object(grids, "BOUNDARY_TOL", math.inf):
        fast = fourier_transform(f).values
    slow = direct_dft_centered(vals, g.h, g.extent)
    assert np.max(np.abs(fast - slow)) < 1e-10 * np.max(np.abs(slow))


def test_parseval_on_the_grid():
    f = sample(GRID, lambda x: np.exp(-0.3 * x * x) * np.cos(x))
    fhat = fourier_transform(f)
    a = weighted_lebesgue_norm(f, 2, 0)
    b = weighted_lebesgue_norm(fhat, 2, 0)
    assert a == pytest.approx(b, rel=1e-8)


def test_round_trip_is_exact():
    f = sample(GRID, lambda x: np.exp(-0.2 * x * x) * (1.0 + np.sin(2 * x)))
    back = inverse_fourier_transform(fourier_transform(f))
    assert back.grid == f.grid
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_under_resolved_transform_is_refused():
    # A spike this narrow pushes mass to the edge of the dual box.
    f = sample(Grid(1, 16.0, 64), gaussian(400.0))
    with pytest.raises(ResolutionError):
        fourier_transform(f)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def test_convolve_matches_quadratic_oracle():
    g = Grid(1, 8.0, 64)
    rng = np.random.default_rng(11)
    envelope = np.exp(-g.axis() ** 2 / 2.0)
    fv = envelope * rng.standard_normal(g.n)
    gv = envelope * rng.standard_normal(g.n)
    fast = convolve(SampledFunction(g, fv + 0j), SampledFunction(g, gv + 0j))
    slow = direct_convolution(fv, gv, g.h)
    assert np.max(np.abs(fast.values - slow)) < 1e-9


def test_indicator_self_convolution_at_zero():
    # Rectangle rule on chi_{[-1,1]} * chi_{[-1,1]} at 0: h per sample in
    # the overlap, 2/h + 1 samples, so the value is exactly 2 + h.
    g = Grid(1, 16.0, 1024)
    ind = SampledFunction(g, (np.abs(g.axis()) <= 1.0).astype(np.complex128))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        out = convolve(ind, ind)
    assert out.values[g.n // 2].real == pytest.approx(2.0 + g.h, abs=1e-12)


def test_gaussian_self_convolution_closed_form():
    f = sample(GRID, gaussian(1.0))
    out = convolve(f, f)
    expected = math.sqrt(math.pi / 2.0) * np.exp(-GRID.axis() ** 2 / 2.0)
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_convolution_theorem():
    f = sample(GRID, gaussian(0.7))
    g = sample(GRID, lambda x: np.exp(-0.4 * x * x) * np.cos(x / 2))
    lhs = fourier_transform(convolve(f, g)).values
    rhs = (
        math.sqrt(2.0 * math.pi)
        * fourier_transform(f).values
        * fourier_transform(g).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_convolve_rejects_mismatched_grids():
    f = sample(Grid(1, 16.0, 256), gaussian(1.0))
    g = sample(Grid(1, 8.0, 256), gaussian(1.0))
    with pytest.raises(GridMismatchError):
        convolve(f, g)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("imaginary", [False, True])
def test_self_convolution_transforms_once_with_the_bits_of_two(seed, imaginary):
    """convolve(f, f) transforms f once and squares its spectrum; the result
    has the bits of convolving f with an equal copy, which takes two
    transforms."""
    g = Grid(1, 8.0, 256)
    rng = np.random.default_rng(seed)
    envelope = np.exp(-g.axis() ** 2 / 2.0)
    vals = envelope * rng.standard_normal(g.n)
    if imaginary:
        vals = vals + 1j * envelope * rng.standard_normal(g.n)
    f = SampledFunction(g, vals)
    with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
        once = convolve(f, f).values
        assert fft.call_count == 1
        twice = convolve(f, SampledFunction(g, f.values.copy())).values
        assert fft.call_count == 3
    assert np.array_equal(once.view(np.uint64), twice.view(np.uint64))


def test_convolution_taking_its_factors_empties_the_list():
    g = Grid(1, 8.0, 64)
    f = sample(g, gaussian(1.0))
    h = sample(g, gaussian(0.5))
    for factors in ([f, f], [f, h]):
        expected = convolve(*factors).values
        held = list(factors)
        assert np.array_equal(grids._convolve_taking(held).values, expected)
        assert held == []


def test_edge_heavy_input_warns():
    g = Grid(1, 4.0, 64)
    f = sample(g, gaussian(0.05))  # visibly truncated at |x| = 4
    with pytest.warns(ResolutionWarning):
        convolve(f, f)


def test_all_zero_factor_is_not_edge_heavy():
    """A factor that is zero everywhere has no peak to compare its edge
    with, so it never warns; the other factor still does."""
    g = Grid(1, 4.0, 64)
    zero = SampledFunction(g, np.zeros(g.n))
    heavy = sample(g, gaussian(0.05))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not np.any(convolve(zero, zero).values)
        convolve(zero, heavy)
    assert [str(w.message).split(" has ")[0] for w in caught] == ["convolve: second factor"]
    assert all(w.category is ResolutionWarning for w in caught)


def test_samples_of_the_wrong_shape_are_refused():
    g = Grid(1, 4.0, 64)
    with pytest.raises(ValueError, match=r"values shape \(63,\) does not match grid shape \(64,\)"):
        SampledFunction(g, np.zeros(63))
    with pytest.raises(ValueError, match=r"kernel shape \(64,\) does not match \(64, 64\)"):
        SampledKernel2d(g, np.zeros(64))


# ---------------------------------------------------------------------------
# Weighted norms
# ---------------------------------------------------------------------------

def test_gaussian_l2_norm_closed_form():
    for alpha in (0.25, 1.0, 3.0):
        f = sample(GRID, gaussian(alpha))
        assert weighted_lebesgue_norm(f, 2, 0) == pytest.approx(
            (math.pi / (2 * alpha)) ** 0.25, rel=1e-10
        )


def test_gaussian_lp_norms_match_closed_form():
    f = sample(GRID, gaussian(1.0))
    for p in (1, 2, 4):
        assert weighted_lebesgue_norm(f, p, 0) == pytest.approx(
            gaussian_lp_norm(1.0, p), rel=1e-10
        )


def test_weighted_norm_matches_trapezoid_quadrature():
    f = sample(GRID, gaussian(0.5))
    fast = weighted_lebesgue_norm(f, 3, 0.5)
    slow = trapezoid_weighted_norm(gaussian(0.5), 3, 0.5)
    assert fast == pytest.approx(slow, rel=1e-8)


def test_sup_norm_with_weight():
    f = sample(GRID, gaussian(1.0))
    # <x>^{-1} e^{-x^2} peaks at the origin with value 1.
    assert weighted_lebesgue_norm(f, "inf", -1) == pytest.approx(1.0)


def test_norm_rejects_non_finite_samples():
    vals = np.ones(GRID.n, dtype=np.complex128)
    vals[5] = np.nan
    with pytest.raises(ValueError):
        weighted_lebesgue_norm(SampledFunction(GRID, vals), 2, 0)


def test_norm_rejects_an_overflowing_weight():
    """<x>^400 overflows binary64 on the box, and where it meets a sample
    that underflowed to zero the weighted magnitude is inf * 0 = NaN."""
    g = Grid(1, 48.0, 1024)
    x = g.axis()
    f = SampledFunction(g, (1.0 + x * x) ** -200.0 * np.exp(-x * x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ResolutionError, match="overflows"):
            weighted_lebesgue_norm(f, 2, 400)


def test_norm_rejects_exponents_below_one():
    f = sample(GRID, gaussian(1.0))
    with pytest.raises(ValueError):
        weighted_lebesgue_norm(f, 0.5, 0)


smooth_arrays = hnp.arrays(
    np.float64,
    64,
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)


@settings(max_examples=40)
@given(smooth_arrays, st.sampled_from([1, 2, 3, "inf"]), st.sampled_from([-1, 0, 1]))
def test_prop_norm_matches_python_loop(vals, p, t):
    g = Grid(1, 4.0, 64)
    fast = weighted_lebesgue_norm(SampledFunction(g, vals + 0j), p, t)
    pf = math.inf if p == "inf" else p
    slow = loop_weighted_norm(vals, g.h, g.axis(), pf, t)
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


_MEMO_EXPONENTS = st.sampled_from([1, 2, 3, "inf"])
_MEMO_WEIGHTS = st.sampled_from([Fraction(-3, 2), -1, 0, Fraction(1, 3), Fraction(1, 2), 1, 2])


@settings(max_examples=40)
@given(smooth_arrays, st.lists(st.tuples(_MEMO_EXPONENTS, _MEMO_WEIGHTS), min_size=1, max_size=12))
def test_prop_weight_memo_has_the_bits_of_fresh_norms(vals, calls):
    """One memo serves norms of repeated and interleaved weights with the
    bits of a fresh weighted_lebesgue_norm each time, and keeps one weight
    for each distinct nonzero exponent."""
    g = Grid(1, 4.0, 64)
    fs = [SampledFunction(g, vals + 0j), SampledFunction(g, vals[::-1] * 1j)]
    memo = grids._WeightedNorms(g)
    for i, (p, t) in enumerate(calls):
        f = fs[i % 2]
        assert memo(f, p, t) == weighted_lebesgue_norm(f, p, t)
    assert set(memo.weights) == {float(t) for _, t in calls if t != 0}


def test_weight_memo_refuses_another_grid():
    memo = grids._WeightedNorms(Grid(1, 4.0, 64))
    with pytest.raises(GridMismatchError):
        memo(sample(Grid(1, 8.0, 64), gaussian(1.0)), 2, 1)


@settings(max_examples=30)
@given(smooth_arrays)
def test_prop_norm_is_monotone_in_the_weight(vals):
    g = Grid(1, 4.0, 64)
    f = SampledFunction(g, vals + 0j)
    low = weighted_lebesgue_norm(f, 2, -1)
    mid = weighted_lebesgue_norm(f, 2, 0)
    high = weighted_lebesgue_norm(f, 2, 1)
    assert low <= mid + 1e-12
    assert mid <= high + 1e-12


@settings(max_examples=30)
@given(smooth_arrays, smooth_arrays)
def test_prop_cauchy_schwarz_on_the_grid(a, b):
    g = Grid(1, 4.0, 64)
    fa = SampledFunction(g, a + 0j)
    fb = SampledFunction(g, b + 0j)
    prod = SampledFunction(g, (a * b) + 0j)
    lhs = weighted_lebesgue_norm(prod, 1, 0)
    rhs = weighted_lebesgue_norm(fa, 2, 0) * weighted_lebesgue_norm(fb, 2, 0)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_refinement_converges():
    errors = []
    target = SQRT_PI ** 0.5  # continuum L^2 norm of e^{-x^2/2}
    for n in (64, 128, 256):
        f = sample(Grid(1, 16.0, n), gaussian(0.5))
        errors.append(abs(weighted_lebesgue_norm(f, 2, 0) - target))
    assert errors[1] <= errors[0] and errors[2] <= errors[1]


# ---------------------------------------------------------------------------
# Transform-side norms
# ---------------------------------------------------------------------------

def test_fourier_lebesgue_norm_frozen_values():
    f = sample(GRID, gaussian(0.5))
    assert fourier_lebesgue_norm(f, 2, 0) == pytest.approx(math.pi ** 0.25, rel=1e-10)
    assert fourier_lebesgue_norm(f, "inf", 0) == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# Short-time transform
# ---------------------------------------------------------------------------

def test_stft_matches_direct_sum_at_sample_points():
    g = Grid(1, 8.0, 128)
    f = sample(g, lambda x: np.exp(-x * x) * (1 + 0.5 * np.sin(x)))
    w = sample(g, gaussian(0.5))
    table = stft(f, w, stride=16)
    for row, idx in enumerate(range(0, g.n, 16)):
        for freq in (10, 64, 100):
            ref = direct_stft_point(f.values, w.values, g.h, g.extent, idx, freq)
            assert table.values[row, freq] == pytest.approx(ref, abs=1e-12)


@st.composite
def _stft_inputs(draw):
    n = 2 ** draw(st.integers(3, 8))
    stride = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    extent = draw(st.floats(0.5, 64.0))
    return n, stride, seed, extent


@settings(max_examples=60)
@given(_stft_inputs(), st.integers(0, 256), st.integers(1, 300))
def test_prop_stft_bitwise_equals_row_loop_oracle(inputs, start, count):
    """The vectorized table repeats the row loop's arithmetic exactly, for
    every stride that divides n, with complex data and complex windows; a
    block of lattice rows is the same rows of the whole table, bit for bit."""
    n, stride, seed, extent = inputs
    rng = np.random.default_rng(seed)
    g = Grid(1, extent, n)
    f = SampledFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    w = SampledFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    table = stft(f, w, stride)
    assert np.array_equal(
        table.values, loop_stft_table(f.values, w.values, g.h, stride)
    )
    assert np.array_equal(table.x_positions, g.axis()[np.arange(0, n, stride)])
    rows = slice(start % (n // stride), start % (n // stride) + count)
    windows = grids._window_lattice(np.conj(w.values), stride)
    block = grids._stft_rows(f, windows, rows)
    assert block.shape[0] == len(range(n // stride)[rows])
    assert np.array_equal(block, table.values[rows])


@settings(max_examples=60)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    st.sampled_from([0.0, 0.25, -1.0, 1.0]),
    st.sampled_from([0.0, -0.5, 1.0]),
    st.sampled_from(["M", "W"]),
)
def test_prop_table_norm_bitwise_equals_oracle(seed, p, q, s, t, space):
    """Skipping a weight whose exponent is zero, and taking magnitudes once,
    change no bit of the norm."""
    rng = np.random.default_rng(seed)
    g = Grid(1, 6.0, 64)
    f = SampledFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    w = SampledFunction(g, np.exp(-g.axis() ** 2 / 2.0))
    table = stft(f, w, 4)
    expected = weighted_table_norm(
        table.values, table.x_positions, g.dual_axis(), 4 * g.h,
        g.dual_spacing, p, q, s, t, space,
    )
    assert stft_table_norm(table, p, q, s, t, space=space) == expected


@settings(max_examples=80)
@given(
    _stft_inputs(),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.sampled_from([0.0, 0.5, -1.0]),
    st.sampled_from([0.0, -0.5, 1.0]),
    st.sampled_from(["M", "W"]),
)
def test_prop_magnitude_table_norm_equals_complex_table_norm(inputs, p, q, s, t, space):
    """The half-width magnitude table of real data, with its mirror columns
    folded into the column weight, gives the norm of the full complex table
    to 1e-12 relative."""
    n, stride, seed, extent = inputs
    rng = np.random.default_rng(seed)
    g = Grid(1, extent, n)
    f = SampledFunction(g, rng.standard_normal(n))
    w = SampledFunction(g, rng.standard_normal(n))
    half = stft_magnitudes(f, w, stride)
    full = stft(f, w, stride)
    assert half.values.shape == (n // stride, n // 2 + 1)
    assert np.array_equal(half.x_positions, full.x_positions)
    expected = stft_table_norm(full, p, q, s, t, space=space)
    got = stft_table_norm(half, p, q, s, t, space=space)
    assert got == pytest.approx(expected, rel=1e-12)


_NORM_EXPONENTS = st.sampled_from([1.0, 2.0, math.inf])
_NORM_TUPLES = st.tuples(
    _NORM_EXPONENTS,
    _NORM_EXPONENTS,
    st.sampled_from([0.0, 0.5, -1.0]),
    st.sampled_from([0.0, -0.5, 1.0]),
)


@settings(max_examples=80)
@given(
    _stft_inputs(),
    st.sampled_from([1, 3, 5, 64, 300]),
    st.lists(_NORM_TUPLES, min_size=1, max_size=2),
    st.sampled_from(["M", "W"]),
)
def test_prop_streamed_norms_equal_whole_table_norms(inputs, block, norms, space):
    """Norms read from blocks of lattice rows (of sizes that divide the
    rows or not, or exceed them), several norms per pass, give the bits
    of stft_table_norm on the whole magnitude table."""
    n, stride, seed, extent = inputs
    rng = np.random.default_rng(seed)
    g = Grid(1, extent, n)
    f = SampledFunction(g, rng.standard_normal(n))
    w = SampledFunction(g, rng.standard_normal(n))
    whole = stft_magnitudes(f, w, stride)
    expected = [stft_table_norm(whole, *norm, space=space) for norm in norms]
    with mock.patch.object(grids, "BLOCK_ROWS", block):
        assert stft_magnitude_norms(f, w, stride, norms, space=space) == expected


# The modulation ladders' grid: n = 2048 on [-24, 24).
LADDER_GRID = Grid(1, 24.0, 2048)


def _counting_rows():
    """A stand-in for grids._window_rows that records, in the list it
    returns beside it, how many lattice rows each call builds."""
    built = []
    window_rows = grids._window_rows

    def counting(fv, windows, rows=slice(None), out=None):
        out = window_rows(fv, windows, rows, out)
        built.append(out.shape[0])
        return out

    return counting, built


_ORACLE_EXPONENTS = st.sampled_from([1.0, 2.0, 4.0, math.inf])


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.floats(2.0 ** -4, 2.0),
    _ORACLE_EXPONENTS,
    _ORACLE_EXPONENTS,
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([1, 2, 8]),
    st.sampled_from(["M", "W"]),
)
def test_prop_folded_gaussian_norms_match_the_closed_form(c, b, p, q, s, t, stride, space):
    """On the ladders' grid, the short-time norms of an even Gaussian
    c e^{-b x^2} against e^{-x^2/2}, built from the rows x <= 0 only, agree
    with the closed form within the tolerance the oracle derives from the
    box truncation (the oracle imports nothing from the package).  From
    b = 1/8 on, the samples without a mirror are below 1e-31, and the pass
    always folds."""
    x = LADDER_GRID.axis()
    f = SampledFunction(LADDER_GRID, c * np.exp(-b * x * x))
    w = SampledFunction(LADDER_GRID, np.exp(-x * x / 2.0))
    counting, built = _counting_rows()
    with mock.patch.object(grids, "_window_rows", counting):
        got = stft_magnitude_norms(f, w, stride, [(p, q, s, t)], space=space)[0]
    value, tol = gaussian_stft_norm(c, b, p, q, s, t, LADDER_GRID.n, LADDER_GRID.extent, stride)
    assert abs(got - value) <= tol, (got, value, tol)
    if b >= 0.125:
        assert sum(built) == LADDER_GRID.n // stride // 2 + 1


def test_a_non_even_input_keeps_the_whole_table_bits(monkeypatch):
    """One sample off its mirror, by one part in 10^7, and the pass builds
    every row and gives the bits of stft_table_norm on the whole table."""
    x = LADDER_GRID.axis()
    values = np.exp(-0.3 * x * x)
    values[700] *= 1.0 + 1e-7
    f = SampledFunction(LADDER_GRID, values)
    w = SampledFunction(LADDER_GRID, np.exp(-x * x / 2.0))
    norms = [(2.0, 1.0, 0.0, 0.25), (1.0, math.inf, -0.5, 1.0)]
    whole = stft_magnitudes(f, w, 8)
    for space in ("M", "W"):
        counting, built = _counting_rows()
        monkeypatch.setattr(grids, "_window_rows", counting)
        got = stft_magnitude_norms(f, w, 8, norms, space=space)
        assert got == [stft_table_norm(whole, *norm, space=space) for norm in norms]
        assert sum(built) == LADDER_GRID.n // 8
        monkeypatch.undo()


@pytest.mark.parametrize("stride", [8, 16])
def test_an_even_input_on_two_lattice_rows_keeps_the_whole_table_bits(stride, monkeypatch):
    """With two lattice rows (x = -L and x = 0) no row has a mirror to fold
    into: the pass builds both and gives the bits of the whole table, sup
    norms included.  On one row it builds that row."""
    g = Grid(1, 8.0, 16)
    x = g.axis()
    f = SampledFunction(g, np.exp(-x * x))
    w = SampledFunction(g, np.exp(-x * x / 2.0))
    norms = [(math.inf, 2.0, 0.0, 0.0), (1.0, math.inf, 1.0, -1.0)]
    counting, built = _counting_rows()
    monkeypatch.setattr(grids, "_window_rows", counting)
    got = stft_magnitude_norms(f, w, stride, norms)
    assert sum(built) == 16 // stride
    whole = stft_magnitudes(f, w, stride)
    assert got == [stft_table_norm(whole, *norm) for norm in norms]


def test_a_fold_the_mirror_bound_refuses_keeps_the_whole_table_bits(monkeypatch):
    """At b = 1/16 the sample at x = -L (e^{-36}) can move the L^1 norms
    weighted <x> <xi> of the folded rows by more than FOLD_TOL of them:
    the pass builds the folded rows, then every row, and gives the bits of
    the whole table."""
    x = LADDER_GRID.axis()
    f = SampledFunction(LADDER_GRID, np.exp(-x * x / 16.0))
    w = SampledFunction(LADDER_GRID, np.exp(-x * x / 2.0))
    counting, built = _counting_rows()
    monkeypatch.setattr(grids, "_window_rows", counting)
    got = stft_magnitude_norms(f, w, 8, [(1.0, 1.0, 1.0, 1.0)])
    assert sum(built) == 129 + 256
    assert got == [stft_table_norm(stft_magnitudes(f, w, 8), 1.0, 1.0, 1.0, 1.0)]


def test_stft_validates_inputs():
    g = Grid(1, 8.0, 128)
    f = sample(g, gaussian(1.0))
    w = sample(g, gaussian(0.5))
    other = sample(Grid(1, 4.0, 128), gaussian(0.5))

    def norms(f, w, stride=1):
        return stft_magnitude_norms(f, w, stride, [(2, 2, 0, 0)])

    for build in (stft, stft_magnitudes, norms):
        with pytest.raises(ValueError):
            build(f, w, stride=3)  # 3 does not divide 128
        with pytest.raises(ValueError):
            build(f, SampledFunction(g, np.zeros(g.n, dtype=np.complex128)))
        with pytest.raises(GridMismatchError):
            build(f, other)


def test_stft_magnitudes_rejects_complex_input():
    g = Grid(1, 8.0, 128)
    f = sample(g, gaussian(1.0))
    w = sample(g, gaussian(0.5))
    tilted = SampledFunction(g, w.values * np.exp(1e-3j * g.axis()))
    for args in ((tilted, w), (f, tilted)):
        with pytest.raises(ValueError, match="must be real"):
            stft_magnitudes(*args)


def test_moyal_identity_for_gaussians():
    g = Grid(1, 16.0, 512)
    f = sample(g, gaussian(0.5))
    w = sample(g, gaussian(0.5))
    # || V_phi f ||_{L^2(x,xi)} = ||f||_2 ||phi||_2 = sqrt(pi) here.
    total = modulation_norm(f, w, 2, 2, 0, 0, space="M", stride=1)
    assert total == pytest.approx(SQRT_PI, rel=1e-6)


def test_modulation_orders_coincide_when_exponents_match():
    g = Grid(1, 16.0, 512)
    f = sample(g, lambda x: np.exp(-0.7 * x * x) * (1 + 0.2 * np.cos(x)))
    w = sample(g, gaussian(0.5))
    m = modulation_norm(f, w, 2, 2, 0.25, -0.5, space="M", stride=4)
    wnorm = modulation_norm(f, w, 2, 2, 0.25, -0.5, space="W", stride=4)
    assert m == pytest.approx(wnorm, rel=1e-12)


def test_modulation_norm_rejects_unknown_space():
    g = Grid(1, 16.0, 512)
    f = sample(g, gaussian(1.0))
    w = sample(g, gaussian(0.5))
    with pytest.raises(ValueError):
        modulation_norm(f, w, 2, 2, 0, 0, space="X")


# ---------------------------------------------------------------------------
# Mixed norms of two-argument kernels
# ---------------------------------------------------------------------------

def _kernel_on(grid, func):
    """Sample a two-argument kernel F(x, y) over a one-dimensional grid."""
    ax = grid.axis()
    return SampledKernel2d(grid, func(ax[:, None], ax[None, :]) + 0j)


def test_mixed_norm_separable_kernel():
    g = Grid(1, 8.0, 128)
    kernel = _kernel_on(g, lambda x, y: np.exp(-x * x) * np.exp(-2.0 * y * y))
    got = mixed_norm_2d(kernel, 2, 3, order=1)
    expected = gaussian_lp_norm(1.0, 2) * gaussian_lp_norm(2.0, 3)
    assert got == pytest.approx(expected, rel=1e-10)
    # Same factorization either way around for a separable kernel.
    assert mixed_norm_2d(kernel, 2, 3, order=2) == pytest.approx(got, rel=1e-10)


def test_mixed_norm_order_matters_for_entangled_kernels():
    g = Grid(1, 8.0, 64)
    kernel = _kernel_on(
        g, lambda x, y: np.exp(-((x - y) ** 2)) * np.exp(-0.1 * y * y)
    )
    one = mixed_norm_2d(kernel, 1, 4, order=1)
    two = mixed_norm_2d(kernel, 1, 4, order=2)
    assert one != pytest.approx(two, rel=1e-3)


_MIXED_EXPONENTS = st.sampled_from([1, Fraction(3, 2), 2, "inf"])


@settings(max_examples=60)
@given(
    st.integers(0, 2 ** 32 - 1),
    _MIXED_EXPONENTS,
    _MIXED_EXPONENTS,
    st.floats(0.01, 10.0),
    st.floats(0.01, 10.0),
)
def test_prop_mixed_norm_matches_loop_oracle(seed, p, q, x_cell, y_cell):
    """Both orders of the kernel mixed norm, and the routine under it with
    unequal quadrature cells, agree with a loop coding on random
    nonnegative tables (some entries exactly zero)."""
    assume(x_cell != y_cell)
    rng = np.random.default_rng(seed)
    g = Grid(1, 4.0, 16)
    table = rng.uniform(0.0, 3.0, (16, 16)) * (rng.uniform(size=(16, 16)) < 0.8)
    pf, qf = (math.inf if v == "inf" else float(v) for v in (p, q))
    kernel = SampledKernel2d(g, table)
    for order in (1, 2):
        expected = loop_mixed_norm(table.tolist(), pf, qf, (g.h, g.h), order == 1)
        got = mixed_norm_2d(kernel, p, q, order)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        cells = (x_cell, y_cell)
        expected = loop_mixed_norm(table.tolist(), pf, qf, cells, order == 1)
        norm = _MixedNorm(pf, qf, cells, p_inside=order == 1)
        norm.add(table.copy())
        got = norm.value()
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_mixed_norm_blocks_leave_the_table_and_keep_its_bits(block):
    """One magnitude table fed in row blocks to two norms, p = 1 and
    p = 2, each a copy of the block, since a norm consumes what it is
    handed: the table is left as it was, and each norm has the bits of
    the whole table's mixed_norm_2d."""
    g = Grid(1, 8.0, 128)
    table = np.random.default_rng(4).uniform(0.0, 3.0, (g.n, g.n))
    before = table.copy()
    norms = {p: _MixedNorm(float(p), 3.0, (g.h, g.h), p_inside=True) for p in (1, 2)}
    for rows in grids._row_blocks(g.n, block):
        for norm in norms.values():
            norm.add(table[rows].copy())
    assert table.tobytes() == before.tobytes()
    kernel = SampledKernel2d(g, table)
    for p, norm in norms.items():
        assert repr(norm.value()) == repr(mixed_norm_2d(kernel, p, 3, 1))


def test_mixed_norm_validates_order():
    g = Grid(1, 8.0, 64)
    kernel = _kernel_on(g, lambda x, y: np.exp(-x * x - y * y))
    with pytest.raises(ValueError):
        mixed_norm_2d(kernel, 2, 2, order=3)


# ---------------------------------------------------------------------------
# Resolution guard
# ---------------------------------------------------------------------------

def test_gaussian_resolution_guard():
    gaussian_resolution_guard(Grid(1, 16.0, 256), 1.0)
    with pytest.raises(ResolutionError):
        gaussian_resolution_guard(Grid(1, 4.0, 256), 0.01)
    with pytest.raises(ValueError):
        gaussian_resolution_guard(Grid(1, 16.0, 256), -1.0)


def _whole_table_requests():
    """Each whole-table library function at n = 1024 (a 512-point table for
    mixed_norm_2d, which reads one), as a call."""
    grid = Grid(1, 16.0, 1024)
    ax = grid.axis()
    f = SampledFunction(grid, np.exp(-ax ** 2))
    w = SampledFunction(grid, np.exp(-ax ** 2 / 2.0))
    table = SampledKernel2d(Grid(1, 16.0, 512), np.ones((512, 512)))
    return {
        "stft": lambda: stft(f, w),
        "stft_magnitudes": lambda: stft_magnitudes(f, w),
        "modulation_norm": lambda: modulation_norm(f, w, 2, 2, 0, 0),
        "kernel_table": lambda: kernel_table(grid, KernelParams((1, 1, 1))),
        "mixed_norm_2d": lambda: mixed_norm_2d(table, 2, 2, 1),
    }


@pytest.mark.parametrize("name", list(_whole_table_requests()))
def test_whole_table_functions_refuse_above_the_cap(name, monkeypatch):
    """With the cap at 1 MiB, each whole-table function (8 to 32 bytes a
    table entry, 2 to 32 MiB here) is refused with the cap's error before
    it makes its table: the traced peak stays below 64 KiB, where
    modulation_norm traced 34 MB before it refused."""
    request = _whole_table_requests()[name]
    monkeypatch.setattr(grids, "MAX_TABLE_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap of 1048576; lower grid_n"):
            request()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# ---------------------------------------------------------------------------
# Module boundaries
# ---------------------------------------------------------------------------

def _names_imported_from_grids(module: str) -> set[str]:
    """The names of every ``from .grids import`` statement of the package
    module ``module``, read from its source."""
    tree = ast.parse((Path(grids.__file__).parent / f"{module}.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "grids" and node.level == 1
        for alias in node.names
    }


def test_short_time_rows_and_block_plumbing_stay_in_grids():
    """The product identity lives beside the norm passes in grids, each
    buffer layout sets its own block rows and the job runner sets the
    ufunc buffer, so neither probes nor kernels reaches for grids'
    short-time row or block-size helpers."""
    probes = _names_imported_from_grids("probes")
    kernels = _names_imported_from_grids("kernels")
    assert probes and kernels
    assert probes.isdisjoint({
        "TWO_PI", "_window_lattice", "_stft_rows", "_check_stft_inputs", "_flat_rows",
        "_allocate", "_block_rows", "_row_blocks", "_small_ufunc_buffer",
    }), probes
    assert kernels.isdisjoint({"_block_rows", "_small_ufunc_buffer"}), kernels
