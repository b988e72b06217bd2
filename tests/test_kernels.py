"""Three-bracket kernel, region decomposition, bilinear operator checks."""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from youngbound import grids, kernels
from youngbound.exponents import Exponent, young_functional
from youngbound.grids import (
    Grid,
    GridMismatchError,
    SampledFunction,
    SampledKernel2d,
    mixed_norm_2d,
    weighted_lebesgue_norm,
)
from youngbound.kernels import (
    _DEFAULT_SCALES,
    _GaussSum1d,
    _GaussSum2d,
    REGION_TO_ITEM,
    KernelParams,
    PreconditionError,
    RegionParams,
    decomposition_residual,
    kernel_f,
    kernel_table,
    region_codes,
    region_of,
    t_f,
    t_theta_f,
    verify_lemma_intestimates,
    verify_prop_tf_bounds,
)

from oracles import (
    direct_bilinear_tf,
    gather_tf,
    gaussian_tf,
    naive_gauss_sum_2d,
    numpy_uniforms,
    region_table,
    theta_table,
)

GRID32 = Grid(1, 8.0, 32)


def smooth_pair(grid, seed):
    rng = np.random.default_rng(seed)
    ax = grid.axis()
    env = np.exp(-(ax ** 2) / 8.0)
    f = env * rng.standard_normal(grid.n)
    g = env * rng.standard_normal(grid.n)
    return SampledFunction(grid, f + 0j), SampledFunction(grid, g + 0j)


# ---------------------------------------------------------------------------
# Kernel values
# ---------------------------------------------------------------------------

def test_kernel_frozen_values():
    assert kernel_f(0, 0, KernelParams((0, 0, 0))) == 1.0
    assert kernel_f(3, 1, KernelParams((1, 1, 1))) == pytest.approx(0.1)
    assert kernel_f(5, 5, KernelParams((0, 2, 0))) == pytest.approx(1.0)


def test_kernel_table_matches_pointwise():
    params = KernelParams((F(1, 2), 1, F(3, 2)))
    table = kernel_table(GRID32, params)
    ax = GRID32.axis()
    for i in (0, 7, 16, 31):
        for j in (3, 16, 30):
            assert table.values[i, j] == pytest.approx(
                kernel_f(ax[i], ax[j], params), rel=1e-12
            )


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams((1, 1), d=1)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        KernelParams((1, 1, 1), d=3)


def test_kernel_params_reject_two_dimensions():
    """The numerics are one-dimensional, the kernel included."""
    with pytest.raises(ValueError, match="one-dimensional"):
        KernelParams((1, 0, 0), d=2)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

def test_region_frozen_values():
    params = RegionParams()
    assert region_of(10, 1, params) == 1
    assert region_of(10, 9.9, params) == 2
    assert region_of(0, 0, params) == 3
    assert region_of(20, 31, params) == 4
    assert region_of(20, -30, params) == 5


def test_region_params_validation():
    with pytest.raises(ValueError):
        RegionParams(delta=F(3, 2))
    with pytest.raises(ValueError):
        RegionParams(delta=F(1, 2), R=7)  # below 4/delta


def test_region_boundary_ties():
    params = RegionParams(delta=F(1, 2), R=8)
    # |x| = R exactly stays in region 3 (the clause is non-strict).
    assert region_of(8, -4, params) == 3
    # <x-y> = <y> exactly lands in region 4 (non-strict there too).
    assert region_of(20, 10, params) == 4


@settings(max_examples=60)
@given(
    st.floats(min_value=-40, max_value=40, allow_nan=False),
    st.floats(min_value=-40, max_value=40, allow_nan=False),
)
def test_prop_region_codes_agree_with_pointwise(x, y):
    params = RegionParams()
    codes = region_codes(np.array([x]), np.array([y]), params)
    assert codes[0] == region_of(x, y, params)


def test_region_table_is_a_partition():
    """region_codes on the grid gives every point one id in 1..5, the one
    of a second coding of the clauses."""
    params = RegionParams()
    ax = Grid(1, 16.0, 256).axis()
    codes = region_codes(ax[:, None], ax[None, :], params)
    assert set(np.unique(codes)) <= {1, 2, 3, 4, 5}
    assert np.array_equal(codes, region_table(ax, float(params.delta), float(params.R)))


def test_region_to_item_mapping():
    assert REGION_TO_ITEM == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4}


# ---------------------------------------------------------------------------
# Bilinear operator
# ---------------------------------------------------------------------------

def test_tf_matches_quadratic_oracle():
    params = KernelParams((F(1, 2), F(1, 4), 1))
    table = kernel_table(GRID32, params)
    f, g = smooth_pair(GRID32, 5)
    fast = t_f(table, f, g).values
    slow = direct_bilinear_tf(table.values, f.values, g.values, GRID32.h)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_tf_callable_kernel_matches_table():
    params = KernelParams((1, 0, F(1, 2)))
    table = kernel_table(GRID32, params)
    f, g = smooth_pair(GRID32, 6)

    def callable_kernel(x, y):
        bx = np.sqrt(1.0 + x * x)
        by = np.sqrt(1.0 + y * y)
        return bx ** -1.0 * by ** -0.5

    a = t_f(table, f, g).values
    with mock.patch.object(kernels, "BLOCK_ROWS", 7):
        b = t_f(callable_kernel, f, g).values
    assert np.max(np.abs(a - b)) < 1e-12


@st.composite
def _tf_inputs(draw):
    n = 2 ** draw(st.integers(3, 8))
    # Block sizes that do not divide n leave a short last block.
    block_rows = draw(
        st.integers(1, n + 3).filter(lambda b: n % b != 0)
        | st.sampled_from([n // 2, n])
    )
    return n, block_rows, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60)
@given(_tf_inputs())
def test_prop_tf_bitwise_equals_gather_oracle(inputs):
    """The Toeplitz view repeats the fancy-index gather's arithmetic exactly,
    for tables and for callable kernels, whatever the block size."""
    n, block_rows, seed = inputs
    rng = np.random.default_rng(seed)
    grid = Grid(1, 8.0, n)
    kmat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g = SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    slow = gather_tf(kmat, f.values, g.values, grid.h, block_rows)
    with mock.patch.object(kernels, "BLOCK_ROWS", block_rows):
        fast = t_f(SampledKernel2d(grid, kmat), f, g).values
    assert np.array_equal(fast, slow)

    def kernel(x, y):
        return np.exp(-((x - y) ** 2)) / (1.0 + x * x)

    ax = grid.axis()
    with mock.patch.object(kernels, "BLOCK_ROWS", block_rows):
        fast = t_f(kernel, f, g).values
    slow = gather_tf(
        kernel(ax[:, None], ax[None, :]), f.values, g.values, grid.h, block_rows
    )
    assert np.array_equal(fast, slow)


@settings(max_examples=40)
@given(_tf_inputs())
def test_prop_real_tables_match_their_complex_cast_bitwise(inputs):
    """A real table stays float64.  numpy promotes it to complex inside t_f,
    and |x + 0j| is |x|, so t_f and mixed_norm_2d give the bits of the same
    table stored as complex, signed zeros included."""
    n, block_rows, seed = inputs
    rng = np.random.default_rng(seed)
    grid = Grid(1, 8.0, n)
    kmat = rng.standard_normal((n, n))
    kmat[rng.random((n, n)) < 0.1] = -0.0
    real = SampledKernel2d(grid, kmat)
    cplx = SampledKernel2d(grid, kmat.astype(np.complex128))
    assert real.values.dtype == np.float64
    assert cplx.values.dtype == np.complex128
    f = SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g = SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    with mock.patch.object(kernels, "BLOCK_ROWS", block_rows):
        fast = t_f(real, f, g).values
        slow = t_f(cplx, f, g).values
    assert fast.tobytes() == slow.tobytes()
    for p, q, order in ((2, 3, 1), (2, 3, 2), ("inf", 1, 1), (1, "inf", 2)):
        assert mixed_norm_2d(real, p, q, order) == mixed_norm_2d(cplx, p, q, order)


def test_kernel_tables_are_real():
    table = kernel_table(GRID32, KernelParams((0, 1, 1)))
    assert table.values.dtype == np.float64
    assert theta_table(table.values).dtype == np.float64


_gauss_terms = st.lists(
    st.tuples(
        st.floats(-2.0, 2.0, allow_nan=False),  # amplitude
        st.floats(1e-3, 1e3),  # width a
        st.floats(-60.0, 60.0),  # center u
        st.floats(-60.0, 60.0),  # center v
    ),
    min_size=1,
    max_size=4,
)


def _outer_grid_buffers(n):
    """A float64 table and a complex scratch array for sampling n x n."""
    return np.empty((n, n)), np.empty((n, n), dtype=np.complex128)


@settings(max_examples=80)
@given(_gauss_terms, st.integers(3, 8), st.floats(0.5, 40.0), st.integers(1, 9))
def test_prop_gauss_sum_sampling_bitwise_equals_naive(terms, log_n, extent, block):
    """Clipping each bump to the band where its exponent stays above
    -_EXP_ZERO skips only terms below |amp| 2^-1022: they move no entry by
    more than their sum, and no bit of an entry 2^54 times larger, where
    each is under half an ulp.  Widths from 1e-3 to 1e3 and centers beyond
    the box make the band anything from the whole grid to nothing.  No
    entry is -0, as in the oracle, which starts every entry at +0; the
    rows outside the returned live rows are +0; and sampling ``block``
    rows at a time gives the bits (and signs of zero) of the whole table."""
    ax = Grid(1, extent, 2 ** log_n).axis()
    sample, live = _GaussSum2d(tuple(terms)).sampler(ax, ax)
    fast = sample(slice(0, ax.size), *_outer_grid_buffers(ax.size))
    slow = naive_gauss_sum_2d(terms, ax, ax)
    skipped = sum(abs(amp) for amp, *_ in terms) * np.finfo(float).tiny
    assert np.all(np.abs(fast - slow) <= skipped)
    normal = np.abs(slow) >= 2.0 ** 54 * skipped
    assert np.array_equal(fast[normal], slow[normal])
    assert np.array_equal(np.signbit(fast[normal]), np.signbit(slow[normal]))
    assert not np.any(np.signbit(fast[fast == 0.0]))
    dead = np.ones(ax.size, dtype=bool)
    dead[live] = False
    assert not np.any(fast[dead]) and not np.any(np.signbit(fast[dead]))
    out, scratch = _outer_grid_buffers(ax.size)
    for start in range(0, ax.size, block):
        rows = slice(start, min(start + block, ax.size))
        sample(rows, out[: rows.stop - start], scratch)
        assert np.array_equal(out[: rows.stop - start], fast[rows])
        assert np.array_equal(np.signbit(out[: rows.stop - start]), np.signbit(fast[rows]))


def test_gauss_sums_share_only_terms_and_dilation():
    """Only a 1-d sum has ``sample``; a 2-d one samples through its sampler.
    Dilating either kind by lam multiplies each width by lam^2 and divides
    each center by lam, and keeps the kind."""
    one = _GaussSum1d(((1.5, 2.0, 0.5), (0.5, 1.0, -1.0)))
    two = _GaussSum2d(((1.5, 2.0, 0.5, -0.25),))
    assert hasattr(one, "sample") and not hasattr(two, "sample")
    assert one.dilated(2.0) == _GaussSum1d(((1.5, 8.0, 0.25), (0.5, 4.0, -0.5)))
    assert two.dilated(0.5) == _GaussSum2d(((1.5, 0.5, 1.0, -0.5),))


@pytest.mark.parametrize("case", [1, 2, 3])
def test_operator_check_has_the_bits_of_the_naive_sampler(case, monkeypatch):
    """The terms the kernel sampling skips move no ratio or slope of an
    operator check at n = 512: evaluating every term everywhere, as the
    oracle does, gives the same report bits."""
    grid = Grid(1, 16.0, 512)
    fast = verify_prop_tf_bounds(case, (2, 2, 2), trials=1, grid=grid)

    def naive_sampler(self, x, y):
        def sample(block, out, scratch):
            out[...] = naive_gauss_sum_2d(self.terms, x[block], y)
            return out

        return sample, slice(0, x.size)  # every row is sampled

    monkeypatch.setattr(_GaussSum2d, "sampler", naive_sampler)
    naive = verify_prop_tf_bounds(case, (2, 2, 2), trials=1, grid=grid)
    assert repr((fast.ratios, fast.slopes)) == repr((naive.ratios, naive.slopes))


def test_tf_is_bilinear():
    params = KernelParams((0, 1, 0))
    table = kernel_table(GRID32, params)
    f1, g = smooth_pair(GRID32, 7)
    f2, _ = smooth_pair(GRID32, 8)
    combo = SampledFunction(GRID32, 2.0 * f1.values - 3.0 * f2.values)
    lhs = t_f(table, combo, g).values
    rhs = 2.0 * t_f(table, f1, g).values - 3.0 * t_f(table, f2, g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_theta_swaps_translated_argument():
    """T_{Theta F}(f, g) must equal T_F(g, f) and the remapped-table route."""
    params = KernelParams((0, F(1, 2), F(1, 2)))
    table = kernel_table(GRID32, params)
    f, g = smooth_pair(GRID32, 9)
    via_swap = t_theta_f(table, f, g).values
    assert np.max(np.abs(via_swap - t_f(table, g, f).values)) == 0.0
    remapped = t_f(SampledKernel2d(GRID32, theta_table(table.values)), g, f).values
    # The remapped table loses the index band pushed off the grid, so
    # compare away from the edges where both routes are fully supported.
    inner = slice(8, 24)
    assert np.max(np.abs(via_swap[inner] - remapped[inner])) < 1e-9


def test_tf_rejects_mismatched_inputs():
    table = kernel_table(GRID32, KernelParams((0, 0, 0)))
    f, _ = smooth_pair(GRID32, 1)
    other = SampledFunction(
        Grid(1, 4.0, 32), np.ones(32, dtype=np.complex128)
    )
    with pytest.raises(ValueError):
        t_f(table, f, other)
    with pytest.raises(ValueError):
        t_f(table, other, other)


@pytest.mark.parametrize("complex_inputs", [False, True], ids=["real-f-g", "complex-f-g"])
@pytest.mark.parametrize("complex_block", [False, True], ids=["real-block", "complex-block"])
def test_tf_rows_only_read_the_kernel_block(complex_inputs, complex_block):
    """A block of T_F rows leaves the kernel block's bytes as they were,
    with or without a product array from the caller, and gives the bits of
    the same rows of t_f."""
    f, g = smooth_pair(GRID32, 3)
    if complex_inputs:
        g = SampledFunction(GRID32, g.values * (1.0 - 2.0j))
    table = kernel_table(GRID32, KernelParams((0, F(1, 2), 1))).values
    if complex_block:
        table = table * (1.0 + 1.0j)
    expected = t_f(SampledKernel2d(GRID32, table), f, g).values
    rows_of = kernels._tf_rows(f, g)
    rows = slice(5, 21)
    kblk = table[rows].copy()
    before = kblk.tobytes()
    for product in (None, np.empty(kblk.shape, dtype=np.complex128)):
        got = rows_of(kblk, rows, product)
        assert kblk.tobytes() == before
        assert np.array_equal(got * GRID32.h, expected[rows])


# ---------------------------------------------------------------------------
# Decomposition identity
# ---------------------------------------------------------------------------

def test_decomposition_residual_vanishes():
    grid = Grid(1, 16.0, 256)
    kparams = KernelParams((F(1, 2), F(1, 3), 1))
    rparams = RegionParams()
    for seed in (0, 1):
        f, g = smooth_pair(grid, seed)
        assert decomposition_residual(grid, kparams, rparams, f, g) <= 1e-12


def test_decomposition_residual_zero_inputs():
    grid = Grid(1, 16.0, 64)
    zero = SampledFunction(grid, np.zeros(grid.n, dtype=np.complex128))
    res = decomposition_residual(
        grid, KernelParams((1, 1, 1)), RegionParams(), zero, zero
    )
    assert res == 0.0


def test_decomposition_residual_rejects_inputs_on_another_grid():
    grid = Grid(1, 16.0, 64)
    f, g = smooth_pair(Grid(1, 16.0, 128), 0)
    with pytest.raises(GridMismatchError):
        decomposition_residual(grid, KernelParams((1, 1, 1)), RegionParams(), f, g)


def test_t_f_names_a_grid_mismatch():
    """A kernel table, or a g, on another grid than f is a GridMismatchError
    (a ValueError), as in convolve, stft and decomposition_residual."""
    f, g = smooth_pair(GRID32, 0)
    other = Grid(1, 8.0, 64)
    with pytest.raises(GridMismatchError, match="kernel and functions"):
        t_f(kernel_table(other, KernelParams((1, 1, 1))), f, g)
    with pytest.raises(GridMismatchError, match="f and g"):
        t_f(kernel_table(GRID32, KernelParams((1, 1, 1))), f, smooth_pair(other, 0)[1])


# ---------------------------------------------------------------------------
# Slice-norm envelopes
# ---------------------------------------------------------------------------

def test_slice_envelope_region_one_smoke(monkeypatch):
    monkeypatch.setattr(kernels, "QUAD_POINTS", 4001)
    report = verify_lemma_intestimates(
        1,
        KernelParams((1, 1, 1)),
        RegionParams(),
        2,
        scan_range=(1.0, 32.0),
    )
    assert report.region == 1 and report.item == 1
    assert report.passed
    assert report.max_ratio <= 3.0 * report.median_ratio + 1e-12
    assert len(report.scan_values) + len(report.excluded_empty) > 0


def test_slice_scan_from_a_subnormal_value_ends():
    """From the smallest subnormal, v * 2^(1/4) rounds back to v; the scan
    still stops at its counted length instead of growing without end."""
    report = verify_lemma_intestimates(
        1, KernelParams((0, 0, 0)), RegionParams(), 2, scan_range=(5e-324, 1e-321)
    )
    assert len(report.scan_values) == 31


@pytest.mark.parametrize("region", kernels.REGION_IDS)
def test_threaded_slice_scan_equals_serial_run(region, monkeypatch):
    """Two quadratures at a time give the report of one after another, to
    the bit, in every region."""
    args = (region, KernelParams((F(1, 2), 1, F(3, 2))), RegionParams(), 2)
    threaded = verify_lemma_intestimates(*args, scan_range=(1.0, 64.0))
    monkeypatch.setattr(kernels, "_two_at_a_time", _serial)
    serial = verify_lemma_intestimates(*args, scan_range=(1.0, 64.0))
    assert repr(threaded) == repr(serial)


def test_slice_scan_refuses_an_overflowing_envelope_before_any_quadrature(monkeypatch):
    """The region 4 envelope <v>^200.5 overflows from about v = 34.5 on:
    the scan from 1 is refused before the quadrature of any of the
    values below it runs."""
    ran = []
    monkeypatch.setattr(kernels, "_slice_domain", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="region 4 at scan value 3[4-9].* overflows binary64"):
        verify_lemma_intestimates(4, KernelParams((-100, -100, 0)), RegionParams(), 2)
    assert ran == []


def _bracket(v: float) -> float:
    return math.sqrt(1.0 + v * v)


# Each branch of the slice envelope that no other test reaches, at p = 2
# (1/p = 1/2): region, weights, and the envelope at the scan value v.
_ENVELOPE_BRANCHES = {
    "item1-log": (1, (0, 0, F(1, 2)), lambda v: (1.0 + math.log(_bracket(v))) ** 0.5),
    "item2-log": (2, (0, F(1, 2), 0), lambda v: (1.0 + math.log(_bracket(v))) ** 0.5),
    "item4-below": (4, (0, 0, 0), lambda v: _bracket(v) ** 0.5),
    "item4-log": (
        4, (F(1, 2), 0, 0), lambda v: _bracket(v) ** 0.0 * (1.0 + math.log(_bracket(v))) ** 0.5
    ),
}


@pytest.mark.parametrize("branch", list(_ENVELOPE_BRANCHES))
def test_slice_envelope_branches_pass(branch):
    """The log-factor envelopes of items 1 and 2 (t2 = 1/p, t1 = 1/p) and
    item 4 below and at t0 = 1/p hold over the default scan, whose first
    values meet no point of regions 1, 2 and 4."""
    region, t, envelope = _ENVELOPE_BRANCHES[branch]
    report = verify_lemma_intestimates(region, KernelParams(t), RegionParams(), 2)
    assert report.envelopes == [envelope(v) for v in report.scan_values]
    assert report.passed
    assert len(report.excluded_empty) < len(report.scan_values) // 2
    assert report.under_resolved == []


def test_slice_with_too_few_supporting_points_is_flagged():
    """At v = 3.9053809113196625 the region 5 slice (delta = 1/2, R = 8)
    meets fewer than four of the quadrature points: the scan value is
    flagged as under-resolved but kept."""
    v = 3.9053809113196625
    report = verify_lemma_intestimates(
        5, KernelParams((0, 0, 0)), RegionParams(), 2, scan_range=(v, 1.1 * v)
    )
    assert report.scan_values == [v]
    assert report.under_resolved == [v]
    assert report.excluded_empty == []
    assert report.ratios[0] is not None and report.ratios[0] > 0.0


def test_slice_envelope_rejects_bad_region():
    with pytest.raises(ValueError):
        verify_lemma_intestimates(
            6, KernelParams((1, 1, 1)), RegionParams(), 2
        )


def test_slice_report_serializes(monkeypatch):
    import json

    from youngbound.scenario import RunRecord

    monkeypatch.setattr(kernels, "QUAD_POINTS", 2001)
    report = verify_lemma_intestimates(
        3,
        KernelParams((0, 1, 1)),
        RegionParams(),
        "inf",
        scan_range=(1.0, 16.0),
    )
    record = RunRecord("verify-lemmas", {}, {"report": report}, 0, None, "", "", {})
    assert json.dumps(json.loads(record.to_json())["results"]["report"])


# ---------------------------------------------------------------------------
# Operator-bound stress
# ---------------------------------------------------------------------------

def test_prop_tf_bounds_case_one_passes():
    report = verify_prop_tf_bounds(1, (2, 1, 2), trials=2, seed=3)
    assert report.passed
    assert report.case == 1
    assert all(abs(s) <= 0.05 for s in report.slopes)


def test_prop_tf_bounds_rejects_negative_functional():
    with pytest.raises(PreconditionError):
        verify_prop_tf_bounds(1, (1, 1, 1))


def test_prop_tf_bounds_rejects_cap_breach():
    # R(p) = 1/2 but 1/p0 = 1/4: case 1 does not apply.
    with pytest.raises(PreconditionError):
        verify_prop_tf_bounds(1, (4, 4, 2))


def test_prop_tf_bounds_validates_arguments():
    with pytest.raises(ValueError):
        verify_prop_tf_bounds(4, (2, 1, 2))
    with pytest.raises(ValueError):
        verify_prop_tf_bounds(1, (2, 1, 2), kernel="spikes")


def test_prop_tf_bounds_refuses_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        verify_prop_tf_bounds(1, (2, 2, 2), trials=0)


def test_prop_tf_bounds_flat_kernel_mode():
    report = verify_prop_tf_bounds(2, (2, 2, 2), trials=2, kernel="ones")
    assert report.kernel == "ones"
    assert report.scales == [1.0]
    assert report.passed


# repr((ratios, slopes)) of two-trial operator checks at seed 0 on a
# 256-point grid of half-width 16, recorded from the complex-product block
# code; any faster path must reproduce them bit for bit.
_PINNED_OPERATOR_REPORTS = {
    (1, (2, 2, 2), "bumps"): "([[0.3935362540893277, 0.3935687635101121, 0.3935362540893278, 0.3935687635101121, 0.39605391190900985], [0.51103295445166, 0.5110549581065575, 0.5123697957638346, 0.5135164238957435, 0.5128371345323404]], [0.0036801114472641613, 0.0034201563028763166])",
    (2, (2, 2, 2), "bumps"): "([[0.2589662847628988, 0.2589702228654791, 0.25896628476289874, 0.26028782867983064, 0.258966284762883], [0.6802829677006798, 0.6803107172640106, 0.6802829677006798, 0.6803107172640105, 0.6802829677006798]], [0.0014643258382731994, -1.013012406900521e-16])",
    (3, (2, 2, 2), "bumps"): "([[0.433045343519049, 0.433051928843414, 0.433045343519049, 0.4352552390659047, 0.43304534351904883], [0.4939766265533583, 0.4939967764561682, 0.49397662655335817, 0.4939967764561682, 0.4939766265533584]], [0.0014643258383081484, -1.013012406900521e-16])",
    (1, (1, 2, 2), "bumps"): "([[0.48141898138080746, 0.48072353199252055, 0.4819889177885283, 0.4856950858649531, 0.4783748795257095], [0.7505696849750025, 0.7514311519046318, 0.7528283749589357, 0.7540764061685127, 0.7556849081969249]], [-0.0006918646171297506, 0.004933472458913654])",
    (2, (2, 2, 2), "ones"): "([[0.24643333640775908], [0.2592584619926946]], [])",
}


@pytest.mark.parametrize("setting", list(_PINNED_OPERATOR_REPORTS))
def test_operator_check_keeps_its_pinned_bits(setting):
    """The operator check's ratios and slopes keep the bits that the
    complex-product block code gave, for cases 1 to 3, the R(p) = 0 case
    and the flat kernel: the other bitwise tests compare two paths that
    share the sampler and the row sums, so only literals pin those."""
    case, p, kernel = setting
    report = verify_prop_tf_bounds(
        case, p, trials=2, seed=0, grid=Grid(1, 16.0, 256), kernel=kernel
    )
    assert repr((report.ratios, report.slopes)) == _PINNED_OPERATOR_REPORTS[setting]


def _draw(rng, k, dims):
    """k Gaussian terms (amplitude, width, one center per dimension), drawn
    from numpy's generator in the order verify_prop_tf_bounds draws them."""
    amps = rng.uniform(0.5, 1.5, k)
    widths = rng.uniform(0.5, 2.0, k)
    centers = [rng.uniform(-2.0, 2.0, k) for _ in range(dims)]
    return tuple(zip(amps, widths, *centers))


def _whole_table_prop_ratios(case, p, trials, seed, grid, kernel):
    """The ratios and slopes of verify_prop_tf_bounds, coded on whole
    kernel tables: the same draws, then mixed_norm_2d and t_f / t_theta_f
    of one SampledKernel2d per scale."""
    exps = tuple(Exponent.of(v) for v in p)
    r_val = young_functional(exps)
    r_exp = math.inf if r_val == 0 else float(1 / r_val)
    rng = np.random.default_rng(seed)
    scales = [1.0] if kernel == "ones" else list(_DEFAULT_SCALES)
    ax = grid.axis()
    knorm_args = ("inf", r_exp, 2) if case == 1 else (r_exp, "inf", 1)
    maps = {1: (t_f, t_theta_f), 2: (t_f,), 3: (t_theta_f,)}[case]
    ratios, slopes = [], []
    for _ in range(trials):
        fsum = _GaussSum1d(_draw(rng, 2, 1))
        gsum = _GaussSum1d(_draw(rng, 2, 1))
        ksum = _GaussSum2d(_draw(rng, 3, 2)) if kernel == "bumps" else None
        row = []
        for lam in scales:
            fl = SampledFunction(grid, fsum.dilated(lam).sample(ax))
            gl = SampledFunction(grid, gsum.dilated(lam).sample(ax))
            if ksum is None:
                table = np.ones((grid.n, grid.n))
            else:
                sample, _ = ksum.dilated(lam).sampler(ax, ax)
                table = sample(slice(0, grid.n), *_outer_grid_buffers(grid.n))
            ktab = SampledKernel2d(grid, table)
            denom = (
                mixed_norm_2d(ktab, *knorm_args)
                * weighted_lebesgue_norm(fl, exps[1], 0)
                * weighted_lebesgue_norm(gl, exps[2], 0)
            )
            num = max(
                weighted_lebesgue_norm(apply(ktab, fl, gl), exps[0].conjugate(), 0)
                for apply in maps
            )
            row.append(num / denom)
        ratios.append(row)
        if len(scales) > 1:
            slopes.append(float(np.polyfit(np.log(scales), np.log(row), 1)[0]))
    return ratios, slopes


# (case, p, kernel): both mixed-norm orders, R(p) = 0 in each order (an
# L^inf inner norm in order 1), and the flat kernel.
_OPERATOR_SETTINGS = [
    (1, (2, 2, 2), "bumps"),
    (2, (2, 2, 2), "bumps"),
    (3, (2, 2, 2), "bumps"),
    (1, (1, 2, 2), "bumps"),
    (2, (2, 1, 2), "bumps"),
    (2, (2, 2, 2), "ones"),
]


def test_prop_streamed_operator_check_equals_whole_table_path():
    """Sampling the kernel in row blocks (of sizes that divide the grid or
    not, or exceed it, by rows or by entries), skipping the rows outside
    the sampler's live rows, and feeding each block to the mixed norm and
    to every map gives the ratios and slopes of whole tables to the bit.
    On a box of half-width 32 the bumps of the larger scales leave the
    outer rows +0, so some checks at n = 512 skip rows, and the test
    asserts that they did."""
    skipping = []  # n of every check in which a point skipped rows
    sampler = _GaussSum2d.sampler

    def watched(self, x, y):
        sample, live = sampler(self, x, y)
        if live.stop - live.start < x.size:
            skipping.append(x.size)
        return sample, live

    @settings(max_examples=30)
    @example(_OPERATOR_SETTINGS[1], 512, 64, 1 << 16, 32.0, 0)
    @example(_OPERATOR_SETTINGS[0], 512, 7, 1, 32.0, 1)
    @given(
        st.sampled_from(_OPERATOR_SETTINGS),
        st.sampled_from([16, 32, 64, 512]),
        st.sampled_from([1, 3, 5, 7, 64, 100]),
        st.sampled_from([1, 700, 1 << 16]),
        st.sampled_from([4.0, 8.0, 16.0, 32.0]),
        st.integers(0, 2 ** 32 - 1),
    )
    def check(setting, n, block, entries, extent, seed):
        case, p, kernel = setting
        grid = Grid(1, extent, n)
        expected = _whole_table_prop_ratios(case, p, 1, seed, grid, kernel)
        with mock.patch.object(kernels, "BLOCK_ROWS", block), mock.patch.object(
            kernels, "BLOCK_ENTRIES", entries
        ), mock.patch.object(_GaussSum2d, "sampler", watched):
            report = verify_prop_tf_bounds(
                case, p, trials=1, seed=seed, grid=grid, kernel=kernel
            )
        assert repr((report.ratios, report.slopes)) == repr(expected)

    check()
    assert 512 in skipping


@pytest.mark.parametrize("setting", _OPERATOR_SETTINGS)
def test_operator_point_reads_its_kernel_block_in_place(setting, monkeypatch):
    """Every map of an operator point leaves the kernel block's bytes as
    they were, and the mixed norm then takes the block itself as its
    magnitudes: no entry is negative or -0.  The settings cover cases 1-3,
    R(p) = 0 in each mixed-norm order and the flat kernel."""
    case, p, kernel = setting
    tf_rows, add = kernels._tf_rows, grids._MixedNorm.add
    maps, blocks = [], []

    def watched_rows(f, g):
        rows_of = tf_rows(f, g)

        def watched(kblk, *args, **kwargs):
            before = kblk.tobytes()
            out = rows_of(kblk, *args, **kwargs)
            maps.append(kblk.tobytes() == before)
            return out

        return watched

    def watched_add(self, mag):
        blocks.append(not np.any(np.signbit(mag)))
        return add(self, mag)

    monkeypatch.setattr(kernels, "_tf_rows", watched_rows)
    monkeypatch.setattr(grids._MixedNorm, "add", watched_add)
    verify_prop_tf_bounds(case, p, trials=1, grid=Grid(1, 16.0, 512), kernel=kernel)
    assert maps and all(maps)
    assert blocks and all(blocks)


# float.hex of the lambda = 2 ratio of one-trial operator checks at seed 0
# on a 1024-point grid of half-width 32, where about half the kernel rows
# at that scale are +0; recorded before the point loop skipped them.
_PINNED_SKIPPING_POINTS = {
    (1, (2, 2, 2)): "0x1.92fb2af46a817p-2",
    (2, (2, 2, 2)): "0x1.092e752f4b082p-2",
    (1, (1, 2, 2)): "0x1.ed8e80bbbea13p-2",
}


@pytest.mark.parametrize("case, p", list(_PINNED_SKIPPING_POINTS))
def test_operator_point_that_skips_rows_keeps_its_pinned_bits(case, p):
    report = verify_prop_tf_bounds(case, p, trials=1, seed=0, grid=Grid(1, 32.0, 1024))
    assert report.scales[-1] == 2.0
    assert report.ratios[0][-1].hex() == _PINNED_SKIPPING_POINTS[case, p]


def test_operator_blocks_have_at_least_64_rows_and_65536_entries():
    """256 rows at n = 256, 128 at n = 512 and 64 from n = 1024 on; at
    n = 512 a point's buffers hold 24 bytes an entry, 1.5 MB."""
    layouts = {n: kernels._operator_point_buffers(Grid(1, 16.0, n)) for n in (256, 512, 1024, 4096)}
    rows = {n: layout[0][0][0] for n, layout in layouts.items()}
    assert rows == {256: 256, 512: 128, 1024: 64, 4096: 64}
    assert grids._charge(layouts[512], 0, np.float64) == 24 * 65536 + 3 * grids.UFUNC_BUFFER * 8


@pytest.mark.parametrize("n, extent", [(512, 16.0), (1024, 32.0)])
def test_tf_matches_the_closed_form_on_the_operator_draws(n, extent):
    """t_f and t_theta_f of the sampled kernel and inputs of every trial
    and scale of the benchmark's operator cases (seed 0, four trials: the
    draws do not depend on the case or p) equal the closed-form T_F of the
    Gaussian sums, within oracles.gaussian_tf's tolerance: the mass each
    drawn factor has outside [-L, L), times the other factors' sups, plus
    1e-12 of the largest |T_F|."""
    grid = Grid(1, extent, n)
    ax = grid.axis()
    rng = np.random.default_rng(0)
    table, scratch = _outer_grid_buffers(n)
    for _ in range(4):
        fsum, gsum = _GaussSum1d(_draw(rng, 2, 1)), _GaussSum1d(_draw(rng, 2, 1))
        ksum = _GaussSum2d(_draw(rng, 3, 2))
        for lam in _DEFAULT_SCALES:
            fl, gl, kl = fsum.dilated(lam), gsum.dilated(lam), ksum.dilated(lam)
            f = SampledFunction(grid, fl.sample(ax))
            g = SampledFunction(grid, gl.sample(ax))
            ktab = SampledKernel2d(grid, kl.sampler(ax, ax)[0](slice(0, n), table, scratch))
            for got, (first, second) in (
                (t_f(ktab, f, g), (fl, gl)),
                (t_theta_f(ktab, f, g), (gl, fl)),
            ):
                want, tol = gaussian_tf(kl.terms, first.terms, second.terms, n, extent)
                assert np.max(np.abs(got.values - want)) <= tol


# The (low, high, k) of the operator check's draws: amplitudes, widths and
# centers.
_DRAW_SHAPES = [(0.5, 1.5, 2), (0.5, 2.0, 3), (-2.0, 2.0, 3)]


@settings(max_examples=200)
@example(2**32 - 1, _DRAW_SHAPES)
@example(2**32, _DRAW_SHAPES)
@example(2**128, _DRAW_SHAPES)
@given(
    st.integers(0, 2**256),
    st.lists(st.sampled_from(_DRAW_SHAPES), min_size=1, max_size=12),
)
def test_prop_bump_draws_reproduce_numpy_default_rng(seed, shapes):
    """The operator check's generator draws the uniforms of
    numpy.random.default_rng(seed), bit for bit, for seeds of one to nine
    32-bit words and any sequence of the draw shapes."""
    rng = kernels._DefaultRng(seed)
    ours = [[v.hex() for v in rng.uniform(*shape)] for shape in shapes]
    theirs = [[v.hex() for v in row] for row in numpy_uniforms(seed, shapes)]
    assert ours == theirs


def _serial(fn, items, layout):
    """The serial loop, each item with fresh buffers."""
    return [fn(item, lambda: grids._allocate(layout)) for item in items]


@pytest.mark.parametrize("setting", _OPERATOR_SETTINGS)
def test_threaded_operator_check_equals_serial_run(setting, monkeypatch):
    """Two points at a time give the report of one point after another,
    to the bit."""
    case, p, kernel = setting
    threaded = verify_prop_tf_bounds(case, p, trials=2, seed=11, kernel=kernel)
    monkeypatch.setattr(kernels, "_two_at_a_time", _serial)
    serial = verify_prop_tf_bounds(case, p, trials=2, seed=11, kernel=kernel)
    assert repr(threaded) == repr(serial)


def test_failing_point_raises_the_serial_loops_exception(monkeypatch):
    """Every point at a scale of 1 or more raises, with a message naming
    its bumps and scale; the check raises the first of them, as the serial
    loop does, and leaves no thread behind."""
    dilated = _GaussSum1d.dilated

    def failing(self, lam):
        if lam >= 1.0:
            raise ValueError(repr((self.terms, lam)))
        return dilated(self, lam)

    monkeypatch.setattr(_GaussSum1d, "dilated", failing)
    threads = threading.active_count()
    with pytest.raises(ValueError) as threaded:
        verify_prop_tf_bounds(1, (2, 2, 2), trials=3, seed=5)
    assert threading.active_count() == threads
    monkeypatch.setattr(kernels, "_two_at_a_time", _serial)
    with pytest.raises(ValueError) as serial:
        verify_prop_tf_bounds(1, (2, 2, 2), trials=3, seed=5)
    assert str(threaded.value) == str(serial.value)


def _unbuffered(fn):
    return lambda item, held: fn(item)


@pytest.mark.parametrize(
    "kernel, trials, most", [("bumps", 1, 2), ("bumps", 4, 2), ("ones", 1, 1)]
)
def test_operator_check_allocates_one_point_set_a_thread(kernel, trials, most, allocations):
    """Every (trial, scale) point reuses its thread's set of point buffers:
    at most two sets, whatever the trial count, and one for a single point."""
    grid = Grid(1, 8.0, 64)
    verify_prop_tf_bounds(2, (2, 2, 2), trials=trials, grid=grid, kernel=kernel)
    assert 1 <= len(allocations) <= most
    assert all(layout == kernels._operator_point_buffers(grid) for layout in allocations)


def test_two_at_a_time_raises_the_lowest_failing_index():
    """Item 2 fails while item 1 is still running; item 1 then fails too,
    and its exception is the one raised."""

    def fn(i):
        if i == 1:
            time.sleep(0.2)
            raise ValueError(1)
        if i == 2:
            raise ValueError(2)
        return i

    threads = threading.active_count()
    with pytest.raises(ValueError, match="1"):
        grids._two_at_a_time(_unbuffered(fn), [0, 1, 2, 3], [])
    assert threading.active_count() == threads


def test_two_at_a_time_hands_out_items_on_demand():
    """While item 0 sleeps, the other thread runs items 1, 2 and 3: no
    thread is held to a fixed share of the items."""
    rest_done = threading.Event()
    ran = []

    def fn(i):
        if i == 0:
            return rest_done.wait(timeout=5.0)
        ran.append(i)
        if len(ran) == 3:
            rest_done.set()
        return i

    assert grids._two_at_a_time(_unbuffered(fn), [0, 1, 2, 3], []) == [True, 1, 2, 3]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 2)), max_size=40))
def test_prop_two_at_a_time_is_the_serial_loop(items):
    """Items that sleep 0-2 ms and fail where marked: the helper returns
    list(map(fn, items)) or raises the serial loop's exception, and leaves
    no thread behind."""

    def fn(item):
        index, (fails, sleep_ms) = item
        time.sleep(sleep_ms / 1000.0)
        if fails:
            raise ValueError(index)
        return index * index

    indexed = list(enumerate(items))
    threads = threading.active_count()
    try:
        expected = list(map(fn, indexed))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            grids._two_at_a_time(_unbuffered(fn), indexed, [])
        assert raised.value.args == exc.args
    else:
        assert grids._two_at_a_time(_unbuffered(fn), indexed, []) == expected
    assert threading.active_count() == threads


def test_operator_check_leaves_no_thread_behind():
    threads = threading.active_count()
    verify_prop_tf_bounds(2, (2, 2, 2), trials=1, grid=Grid(1, 8.0, 64))
    assert threading.active_count() == threads


def test_two_at_a_time_runs_every_item_once_under_fast_switching():
    """With the interpreter switching threads every microsecond, no item
    is lost or run twice, and every result lands at its index."""
    calls = []

    def fn(i):
        calls.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = grids._two_at_a_time(_unbuffered(fn), list(range(2000)), [])
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))


def test_two_at_a_time_runs_both_threads_in_the_callers_error_state():
    """numpy keeps its error state in a context variable, which a new
    thread starts at its default; the helper runs in a copy of the
    caller's context, so a job on either thread sees the caller's
    np.geterr()."""
    both = threading.Barrier(2, timeout=5.0)
    seen = {}

    def fn(i):
        both.wait()  # each thread holds its item until the other has one
        seen[threading.get_ident()] = np.geterr()
        return i

    with np.errstate(over="raise", divide="ignore", invalid="raise"):
        caller = np.geterr()
        assert grids._two_at_a_time(_unbuffered(fn), [0, 1], []) == [0, 1]
    assert len(seen) == 2
    assert all(state == caller for state in seen.values())


def _report_hexes(report) -> list[str]:
    floats = [*itertools.chain(*report.ratios), *report.slopes]
    return [v.hex() for v in (*floats, report.max_ratio, report.min_ratio, report.spread)]


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize(
    "case, p, kernel",
    [(1, (2, 2, 2), "bumps"), (2, (2, 2, 2), "bumps"), (3, (2, 2, 2), "bumps"),
     (1, (1, 2, 2), "bumps"), (2, (2, 2, 2), "ones")],
    ids=["case1", "case2", "case3", "r0", "ones"],
)
def test_operator_points_keep_their_bits_under_the_small_buffer(case, p, kernel, n, monkeypatch):
    """Every ratio, slope and summary float of the report is the same under
    the small ufunc buffer as under numpy's default one, to the bit."""
    grid = Grid(1, 16.0, n)
    small = verify_prop_tf_bounds(case, p, trials=1, seed=3, grid=grid, kernel=kernel)
    monkeypatch.setattr(grids, "UFUNC_BUFFER", 8192)  # numpy's default
    default = verify_prop_tf_bounds(case, p, trials=1, seed=3, grid=grid, kernel=kernel)
    assert _report_hexes(small) == _report_hexes(default)


@pytest.mark.parametrize("caller", [None, 4096])
def test_operator_check_leaves_the_callers_buffer_size(caller, monkeypatch):
    """Each point runs under UFUNC_BUFFER on whichever thread takes it; after
    a threaded check, and after one whose points raise, the calling thread
    keeps the buffer size it had: numpy's default or one it set itself."""
    seen = []
    dilated = _GaussSum1d.dilated

    def watched(self, lam):
        seen.append(np.getbufsize())
        return dilated(self, lam)

    def failing(self, lam):
        raise ValueError("a failing point")

    grid = Grid(1, 8.0, 64)
    with np.errstate():
        if caller is not None:
            np.setbufsize(caller)
        before = np.getbufsize()
        monkeypatch.setattr(_GaussSum1d, "dilated", watched)
        verify_prop_tf_bounds(1, (2, 2, 2), trials=2, grid=grid)
        assert np.getbufsize() == before
        assert seen and set(seen) == {grids.UFUNC_BUFFER}
        monkeypatch.setattr(_GaussSum1d, "dilated", failing)
        with pytest.raises(ValueError, match="a failing point"):
            verify_prop_tf_bounds(1, (2, 2, 2), trials=2, grid=grid)
        assert np.getbufsize() == before


@pytest.mark.parametrize("trials", [3, 12])
def test_operator_trials_are_drawn_when_their_first_point_is_taken(trials, monkeypatch):
    """When a point starts, at most two trials have been drawn beyond the
    trials before its own, how many trials there are: its own, and at
    most one that the other thread took while this point waited to start."""
    first_amps = []  # the first uniform of each draw call, in draw order
    uniform = kernels._DefaultRng.uniform

    def counted(self, low, high, k):
        out = uniform(self, low, high, k)
        first_amps.append(out[0])
        return out

    leads = []
    real = grids._two_at_a_time

    def watched(fn, items, layout):
        def point(item, held):
            # A bumps trial makes ten draw calls: amplitudes, widths and
            # centers of f and g (3 each) and of the kernel (4).
            trial = first_amps.index(item[0].terms[0][0]) // 10
            leads.append(len(first_amps) // 10 - trial)
            return fn(item, held)

        return real(point, items, layout)

    monkeypatch.setattr(kernels._DefaultRng, "uniform", counted)
    monkeypatch.setattr(kernels, "_two_at_a_time", watched)
    verify_prop_tf_bounds(2, (2, 2, 2), trials=trials, grid=Grid(1, 8.0, 32))
    assert len(leads) == trials * len(_DEFAULT_SCALES)
    assert 1 <= min(leads) and max(leads) <= 2
