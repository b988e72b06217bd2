"""Numerical witnesses: ladders, necessity probes, boundedness sweeps."""

from __future__ import annotations

import math
import threading
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngbound import grids, probes
from youngbound.exponents import Classification, ParamTuple, check_convolution
from youngbound.grids import (
    Grid,
    ResolutionError,
    SampledFunction,
    _stft_product_identity_error,
    _xi_convolve_rows,
    convolve,
    fourier_lebesgue_norm,
    fourier_transform,
    gaussian_resolution_guard,
    inverse_fourier_transform,
    stft,
    weighted_lebesgue_norm,
)
from youngbound.kernels import PreconditionError
from youngbound.probes import (
    DEFAULT_ALPHAS,
    SWEEP_FLAVORS,
    BumpFamily,
    GaussianFamily,
    boundedness_sweep,
    fit_power_law,
    gaussian_lower_bound_check,
    gaussian_necessity_probe,
    gaussian_norm_slope,
    translation_necessity_probe,
)

from oracles import synthetic_power_samples, whole_table_identity_error


# ---------------------------------------------------------------------------
# Slope regression
# ---------------------------------------------------------------------------

def test_fit_recovers_clean_power_law():
    xs, ys = synthetic_power_samples(-1.5)
    slope, intercept, r2 = fit_power_law(xs, ys)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_survives_multiplicative_noise():
    for seed in range(5):
        xs, ys = synthetic_power_samples(0.75, noise=0.01, seed=seed)
        slope, _, _ = fit_power_law(xs, ys)
        assert abs(slope - 0.75) < 0.01


def test_fit_flat_ladder_convention():
    slope, _, r2 = fit_power_law([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
    assert slope == pytest.approx(0.0, abs=1e-15)
    assert r2 == 1.0


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(ValueError, match="distinct"):  # one x fixes no slope
        fit_power_law([2.0, 2.0], [1.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [0.0, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, 2.0], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, bad], [1.0, 2.0])


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_gaussian_family_member_values():
    fam = GaussianFamily((F(1), F(0), F(-1)))
    g = Grid(1, 16.0, 256)
    member = fam.member(0, 1.0, g)
    x = g.axis()
    expected = (1.0 + x * x) ** -0.5 * np.exp(-x * x)
    assert np.max(np.abs(member.values - expected)) < 1e-14
    with pytest.raises(ValueError):
        fam.member(0, 2.0, g)  # alpha above 1


def test_family_keeps_each_factor_with_the_bits_of_a_fresh_family():
    fam = GaussianFamily((F(1, 2), F(1, 3), F(-2)))
    g, other = Grid(1, 16.0, 256), Grid(1, 12.0, 256)
    for j, alpha, grid in [(1, 1.0, g), (1, 0.5, g), (2, 0.25, g), (1, 0.5, other), (2, 1.0, g)]:
        kept = fam.member(j, alpha, grid).values
        fresh = GaussianFamily(fam.t).member(j, alpha, grid).values
        assert np.array_equal(kept.view(np.uint64), fresh.view(np.uint64))
    assert set(fam.factors) == {(1, g), (2, g), (1, other)}


def _ladder_calls():
    """One run of every ladder and probe that keeps factors or weights."""
    gaussian_norm_slope(2, F(1, 2))
    gaussian_necessity_probe(ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 8), F(1, 4), F(1, 2))))
    translation_necessity_probe(ParamTuple(d=1, p=(2, 1, 1), t=(0, 1, -2)))
    gaussian_lower_bound_check(1, 0, 0.25)
    boundedness_sweep(ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 2), F(1, 4), F(3, 8))), "convolution")
    boundedness_sweep(
        ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0), q=(2, 2, 2), s=(F(1, 2), F(1, 4), F(3, 8))),
        "multiplication",
    )


def test_no_memo_outlives_its_call():
    """Families and norm memos live for one call: equality, hashing and
    repr ignore the kept factors, none survives the ladder that made it,
    and no module of the package gains a global or fills a cache."""
    import gc
    import sys

    fam = GaussianFamily((1, 2, 3))
    fam.member(1, 0.5, Grid(1, 16.0, 256))
    assert fam.factors
    assert fam == GaussianFamily((1, 2, 3))
    assert hash(fam) == hash(GaussianFamily((1, 2, 3)))
    assert "factors" not in repr(fam)

    def live(kind):
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, kind)}

    modules = [m for name, m in sys.modules.items() if name.startswith("youngbound")]

    def state():
        out = {}
        for module in modules:
            for name, value in vars(module).items():
                size = len(value) if isinstance(value, (dict, list, set)) else None
                info = getattr(value, "cache_info", None)
                out[module.__name__, name] = (id(value), size, info and info().currsize)
        return out

    before = state(), live(GaussianFamily), live(grids._WeightedNorms)
    _ladder_calls()
    assert (state(), live(GaussianFamily), live(grids._WeightedNorms)) == before


def test_bump_family_profile():
    fam = BumpFamily()
    assert fam.support_radius == 1.25
    x = np.array([0.0, 0.5, 1.0, 1.25, 2.0])
    prof = fam.profile(x)
    assert prof[0] == 1.0 and prof[2] == 1.0
    assert prof[3] == 0.0 and prof[4] == 0.0


# ---------------------------------------------------------------------------
# Calibration ladder
# ---------------------------------------------------------------------------

def test_norm_slope_weight_cancellation():
    # The family weight cancels the norm weight, so t plays no role.
    report = gaussian_norm_slope(4, 1)
    assert report.predicted_slope == pytest.approx(1 / 8)
    assert report.passed
    assert report.r_squared >= 0.99


def test_norm_slope_ladder_matches_closed_form():
    report = gaussian_norm_slope(2, 0)
    for alpha, value in zip(report.ladder_x, report.ladder_y):
        assert value == pytest.approx((math.pi / (2 * alpha)) ** 0.25, rel=1e-8)


# ---------------------------------------------------------------------------
# Gaussian spreading probe
# ---------------------------------------------------------------------------

def test_gaussian_probe_witnesses_total_violation():
    report = gaussian_necessity_probe(ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0)))
    assert report.predicted_slope == pytest.approx(0.25)
    assert abs(report.fitted_slope - 0.25) <= 0.03
    assert report.r_squared >= 0.99
    assert report.witnessed


def test_gaussian_probe_control_case_is_flat():
    report = gaussian_necessity_probe(ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0)))
    assert abs(report.fitted_slope) <= 0.05
    assert not report.witnessed  # nothing to witness at slope zero


def test_gaussian_probe_permutes_negative_slot_one():
    params = ParamTuple(d=1, p=(2, 2, 2), t=(0, -1, 1))
    report = gaussian_necessity_probe(params)
    assert report.permutation != (0, 1, 2)
    # The prediction is permutation-invariant: (d R - sum t) / 2 = 1/4.
    assert report.predicted_slope == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Translation probe
# ---------------------------------------------------------------------------

def test_translation_probe_pinned_case():
    params = ParamTuple(d=1, p=(2, 1, 1), t=(0, 1, -2))
    report = translation_necessity_probe(params)
    assert report.predicted_slope == pytest.approx(-1.0)
    assert abs(report.fitted_slope + 1.0) <= 0.05
    assert report.conv_variation < 1e-10
    assert report.witnessed


def test_translation_probe_rotates_requested_pair():
    params = ParamTuple(d=1, p=(1, 1, 1), t=(-1, -1, 1))
    report = translation_necessity_probe(params, pair=(0, 1))
    assert report.permutation == (2, 0, 1)
    assert report.predicted_slope == pytest.approx(-2.0)


def test_translation_probe_offset_validation():
    params = ParamTuple(d=1, p=(2, 1, 1), t=(0, 1, -2))
    with pytest.raises(ValueError):
        translation_necessity_probe(params, (4, 2, 8))
    with pytest.raises(ValueError):
        translation_necessity_probe(params, (math.pi, 4.0))
    with pytest.raises(ValueError):
        translation_necessity_probe(params, (2, 4, 40))  # bump leaves the box
    with pytest.raises(ValueError):
        translation_necessity_probe(params, pair=(1, 1))


# ---------------------------------------------------------------------------
# Pointwise lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_holds_for_zero_weights():
    report = gaussian_lower_bound_check(0, 0, 0.25)
    assert report.passed
    assert report.constant > 0.0


def test_lower_bound_holds_for_unit_weights():
    report = gaussian_lower_bound_check(1, 1, 0.1)
    assert report.passed


def test_lower_bound_precondition_and_validation():
    with pytest.raises(PreconditionError):
        gaussian_lower_bound_check(-1, 0, 0.25)
    with pytest.raises(ValueError):
        gaussian_lower_bound_check(0, 0, 2.0)
    with pytest.raises(ValueError):
        gaussian_lower_bound_check(0, 0, 0.25, window=40.0)


# ---------------------------------------------------------------------------
# Boundedness sweep
# ---------------------------------------------------------------------------

def test_sweep_flavors_constant():
    assert SWEEP_FLAVORS == (
        "convolution",
        "multiplication",
        "modulation-convolution",
        "modulation-multiplication",
    )


def test_sweep_refuses_unbounded_tuples():
    params = ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0))
    assert check_convolution(params).classification is Classification.UNBOUNDED
    with pytest.raises(PreconditionError):
        boundedness_sweep(params, "convolution")


def test_sweep_validates_flavor_and_space():
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0))
    with pytest.raises(ValueError):
        boundedness_sweep(params, "division")
    with pytest.raises(ValueError):
        boundedness_sweep(
            ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(1, 1, 1), s=(0, 0, 0)),
            "modulation-convolution",
            space="Z",
        )


@pytest.mark.parametrize(
    "flavor",
    ["division", "modulation-division", "weak-convolution", "lebesgue-convolution"],
)
def test_sweep_rejects_unknown_flavors(flavor):
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(2, 1, 2), s=(0, 0, 0))
    with pytest.raises(ValueError, match="flavor must be one of"):
        boundedness_sweep(params, flavor)


def test_sweep_convolution_flat_case():
    report = boundedness_sweep(ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0)), "convolution")
    assert report.passed
    assert abs(report.fitted_slope) <= 0.01
    assert report.spread < 1.05


def test_sweep_multiplication_flat_case():
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(2, 1, 2), s=(0, 0, 0))
    report = boundedness_sweep(params, "multiplication")
    assert report.passed
    assert abs(report.fitted_slope) <= 0.01


@pytest.mark.parametrize("t", [(F(3, 8),) * 3, (F(1, 2), F(1, 4), F(3, 8))])
def test_convolution_ladder_has_the_bits_of_fresh_norms_and_members(t):
    """With t1 = t2 the ladder convolves one member with itself; either way
    its ratios have the bits of fresh members, norms and convolutions."""
    params = ParamTuple(d=1, p=(2, 2, 2), t=t)
    report = boundedness_sweep(params, "convolution")
    expected = []
    for a in DEFAULT_ALPHAS:
        f1, f2 = (GaussianFamily(t).member(j, a, probes.PROBE_GRID) for j in (1, 2))
        num = weighted_lebesgue_norm(convolve(f1, f2), params.p[0].conjugate(), -t[0])
        den = weighted_lebesgue_norm(f1, 2, t[1]) * weighted_lebesgue_norm(f2, 2, t[2])
        expected.append(num / den)
    assert report.ratios == expected


@pytest.mark.parametrize(
    "s, transforms", [((F(3, 8),) * 3, (13, 26)), ((F(1, 2), F(1, 4), F(3, 8)), (26, 39))]
)
def test_multiplication_ladder_with_equal_weights_has_the_bits_of_two_transforms(
    s, transforms
):
    """With s1 = s2 the multiplication ladder takes one inverse and one
    forward transform of its function per point, not two of each, and its
    ratios have the bits of the run that takes them all."""
    params = ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0), q=(2, 2, 2), s=s)
    with mock.patch.object(
        probes, "inverse_fourier_transform", wraps=inverse_fourier_transform
    ) as inv, mock.patch.object(probes, "fourier_transform", wraps=fourier_transform) as fwd:
        report = boundedness_sweep(params, "multiplication")
    assert (inv.call_count, fwd.call_count) == transforms
    dual = probes.PROBE_GRID.dual()
    expected = []
    for a in DEFAULT_ALPHAS:
        g1, g2 = (inverse_fourier_transform(GaussianFamily(s).member(j, a, dual)) for j in (1, 2))
        product = SampledFunction(g1.grid, g1.values * g2.values)
        num = fourier_lebesgue_norm(product, params.q[0].conjugate(), -s[0])
        den = fourier_lebesgue_norm(g1, 2, s[1]) * fourier_lebesgue_norm(g2, 2, s[2])
        expected.append(num / den)
    assert report.ratios == expected


def test_sweep_interior_weights_stay_inside_tolerance():
    params = ParamTuple(d=1, p=(2, 2, 2), t=(F(3, 8),) * 3)
    report = boundedness_sweep(params, "convolution")
    assert report.passed
    assert report.spread < 4.0


def test_sweep_modulation_reports_identity_error():
    """The short-time product identity holds even though the dilated family
    is not extremal for modulation norms (the reported slope honestly shows
    the decay, so the flatness gate fails by design here)."""
    params = ParamTuple(
        d=1, p=(2, 2, 2), t=(F(1, 4), F(1, 4), 0), q=(2, 1, 2), s=(0, 0, 0)
    )
    report = boundedness_sweep(params, "modulation-multiplication", space="M")
    assert report.identity_rel_error is not None
    assert report.identity_rel_error <= 1e-6
    assert not report.passed
    assert report.fitted_slope < -0.05


_MODULATION_TUPLE = ParamTuple(
    d=1, p=(2, 2, 2), t=(F(1, 4), F(1, 4), 0), q=(2, 1, 2), s=(0, 0, 0)
)


@pytest.mark.parametrize(
    "flavor, complex_tables",
    [("modulation-multiplication", 2), ("modulation-convolution", 0)],
)
def test_modulation_ladder_builds_each_table_once(monkeypatch, flavor, complex_tables):
    """Nine scales: one numerator and one shared denominator pass over the
    real rows each (f1 = f2), and no block of rows is transformed twice.
    The even inputs (every denominator, and the multiplication flavor's
    numerator f f) build only the rows x <= 0; the convolution numerator
    f * f is not bitwise even and builds every row.  Only the product
    identity transforms complex rows, two blocks per block of lattice
    rows: its left side and its half-window rows."""
    window_rows = grids._window_rows
    blocks = []

    def counting(fv, windows, rows=slice(None), out=None):
        key = np.ascontiguousarray(windows).tobytes()
        blocks.append((fv.dtype.str, fv.tobytes(), key, rows.start))
        return window_rows(fv, windows, rows, out)

    monkeypatch.setattr(grids, "_window_rows", counting)
    monkeypatch.setattr(grids, "BLOCK_ROWS", 5)
    report = boundedness_sweep(
        _MODULATION_TUPLE, flavor, space="M", grid=Grid(1, 24.0, 256)
    )
    assert len(report.scales) == 9
    assert len(set(blocks)) == len(blocks)
    # 256 / stride 8 = 32 lattice rows in blocks of 5: 7 blocks for a whole
    # pass, 4 for the 17 rows x <= 0 of a folded one; the identity's blocks
    # of max(1, 5 // 2) = 2 rows: 16 a table.
    folded = 18 if flavor == "modulation-multiplication" else 9
    real = sum(dtype == np.dtype(float).str for dtype, *_ in blocks)
    assert (real, len(blocks) - real) == (4 * folded + 7 * (18 - folded), complex_tables * 16)


@pytest.mark.parametrize("flavor", ["modulation-convolution", "modulation-multiplication"])
@pytest.mark.parametrize("stride, grid", [(8, None), (1, Grid(1, 24.0, 256))])
def test_threaded_modulation_ladder_equals_serial_run(flavor, stride, grid, monkeypatch):
    """Two ladder points (or the product identity and a point) at a time
    give the report of one after another, to the bit."""
    threaded = boundedness_sweep(_MODULATION_TUPLE, flavor, grid=grid, stride=stride)
    monkeypatch.setattr(
        probes, "_two_at_a_time",
        lambda fn, items, layout: [fn(item, lambda: grids._allocate(layout)) for item in items],
    )
    serial = boundedness_sweep(_MODULATION_TUPLE, flavor, grid=grid, stride=stride)
    assert repr(threaded) == repr(serial)


@pytest.mark.parametrize("stride", [1, 8])
@pytest.mark.parametrize("flavor", ["modulation-convolution", "modulation-multiplication"])
def test_modulation_ladder_allocates_one_pass_set_a_thread(flavor, stride, allocations):
    """The 18 passes of a ladder share at most two sets of pass buffers,
    one a thread, and the multiplication flavor's product identity takes
    one set of its own."""
    grid = Grid(1, 24.0, 256)
    boundedness_sweep(_MODULATION_TUPLE, flavor, grid=grid, stride=stride)
    passes = allocations.count(grids._norm_pass_buffers(grid, stride))
    identities = allocations.count(grids._identity_buffers(grid, stride))
    assert 1 <= passes <= 2
    assert identities == (flavor == "modulation-multiplication")
    assert passes + identities == len(allocations)


@pytest.mark.parametrize("flavor", ["modulation-convolution", "modulation-multiplication"])
def test_modulation_ladder_guards_every_scale_before_any_point(flavor, monkeypatch):
    """On a box that truncates the fourth scale the ladder raises that
    scale's ResolutionError, as the serial loop did on reaching it, before
    any point or thread starts."""
    grid = Grid(1, 8.0, 256)

    def runs(*args, **kwargs):
        raise AssertionError("a ladder point ran before every scale was guarded")

    monkeypatch.setattr(probes, "_stft_magnitude_norms", runs)
    monkeypatch.setattr(probes, "_stft_product_identity_error", runs)
    threads = threading.active_count()
    with pytest.raises(ResolutionError) as raised:
        boundedness_sweep(_MODULATION_TUPLE, flavor, grid=grid)
    assert threading.active_count() == threads
    with pytest.raises(ResolutionError) as serial:
        gaussian_resolution_guard(grid, probes.MODULATION_ALPHAS[3])
    assert str(raised.value) == str(serial.value)
    gaussian_resolution_guard(grid, probes.MODULATION_ALPHAS[2])


def _as_a_job(call):
    """``call()`` run as the one job of ``grids._two_at_a_time``, so under
    its ufunc buffer of UFUNC_BUFFER elements."""
    (value,) = grids._two_at_a_time(lambda item, held: call(), [None], [])
    return value


# Norms with finite, infinite, zero and nonzero exponents and weights.
_BUFFER_NORMS = [(2, 1, 0.5, 0.25), (1, math.inf, -0.5, 0), (math.inf, 2, 0, 1)]


@pytest.mark.parametrize("space", ["M", "W"])
@pytest.mark.parametrize("n, stride", [(2048, 2), (4096, 4)])
@pytest.mark.parametrize("shift", [0.0, 0.75], ids=["even", "shifted"])
def test_norm_passes_keep_their_bits_under_the_small_buffer(n, stride, space, shift):
    """A norm pass gives the same bits under the small ufunc buffer as under
    numpy's default one, with rows of 1025 and 2049 columns, wider than
    the small buffer, and both in a folded pass (the even Gaussian) and a
    whole one."""
    grid = Grid(1, 24.0, n)
    x = grid.axis()
    f = SampledFunction(grid, np.exp(-0.3 * (x - shift) ** 2))
    window = SampledFunction(grid, np.exp(-x * x / 2.0))
    default = grids.stft_magnitude_norms(f, window, stride, _BUFFER_NORMS, space=space)
    small = _as_a_job(
        lambda: grids.stft_magnitude_norms(f, window, stride, _BUFFER_NORMS, space=space)
    )
    assert [v.hex() for v in small] == [v.hex() for v in default]


@pytest.mark.parametrize("n, stride", [(1024, 1), (2048, 2)])
def test_product_identity_keeps_its_bits_under_the_small_buffer(n, stride):
    grid = Grid(1, 24.0, n)
    x = grid.axis()
    f = SampledFunction(grid, np.exp(-0.4 * x * x))
    g = SampledFunction(grid, np.exp(-0.2 * (x - 1.0) ** 2))
    for f1, f2 in [(f, f), (f, g)]:
        default = _stft_product_identity_error(f1, f2, stride)
        small = _as_a_job(lambda: _stft_product_identity_error(f1, f2, stride))
        assert small.hex() == default.hex()


@pytest.mark.parametrize("caller", [None, 4096])
@pytest.mark.parametrize("flavor", ["modulation-convolution", "modulation-multiplication"])
def test_modulation_ladder_leaves_the_callers_buffer_size(flavor, caller, monkeypatch):
    """Each job runs under UFUNC_BUFFER on whichever thread takes it; after
    a ladder, and after one whose jobs raise, the calling thread keeps the
    buffer size it had: numpy's default or one it set itself."""
    seen = []
    norms, identity = probes._stft_magnitude_norms, probes._stft_product_identity_error

    def watched(run):
        def job(*args):
            seen.append(np.getbufsize())
            return run(*args)
        return job

    def failing(*args):
        raise ValueError("a failing job")

    grid = Grid(1, 24.0, 256)
    with np.errstate():
        if caller is not None:
            np.setbufsize(caller)
        before = np.getbufsize()
        monkeypatch.setattr(probes, "_stft_magnitude_norms", watched(norms))
        monkeypatch.setattr(probes, "_stft_product_identity_error", watched(identity))
        boundedness_sweep(_MODULATION_TUPLE, flavor, grid=grid)
        assert np.getbufsize() == before
        assert seen and set(seen) == {grids.UFUNC_BUFFER}
        monkeypatch.setattr(probes, "_stft_magnitude_norms", failing)
        with pytest.raises(ValueError, match="a failing job"):
            boundedness_sweep(_MODULATION_TUPLE, flavor, grid=grid)
        assert np.getbufsize() == before


def test_product_identity_reuse_is_bitwise():
    """Reusing f1's table for f2 and squaring one padded spectrum give the
    very bits of the separate-table path and of the whole-table oracle."""
    grid = Grid(1, 16.0, 256)
    x = grid.axis()
    f = SampledFunction(grid, np.exp(-0.3 * x * x))
    twin = SampledFunction(grid, f.values.copy())
    window = SampledFunction(grid, np.exp(-x * x / 2.0))
    v = stft(f, window, 4).values
    spec = np.empty((v.shape[0], 2 * v.shape[1]), dtype=np.complex128)
    assert np.array_equal(
        _xi_convolve_rows(v, v, 0.5, spec), _xi_convolve_rows(v, v.copy(), 0.5, spec.copy())
    )
    separate = _stft_product_identity_error(f, twin, 4)
    assert _stft_product_identity_error(f, f, 4) == separate
    assert whole_table_identity_error(f.values, f.values, grid.h, 16.0, 4) == separate
    assert separate <= 1e-6


def test_product_identity_of_a_zero_left_side_is_its_right_side():
    """Where the left side f1 f2 is 0 the error is the right side's sup, in
    place of a relative error over 0: 0 for f1 = 0, and for factors on
    disjoint halves of the box the sup of the whole-table oracle's right
    side, which the sampled tables leave above 0."""
    grid = Grid(1, 16.0, 256)
    x = grid.axis()
    zero = SampledFunction(grid, np.zeros(grid.n))
    left = SampledFunction(grid, np.where(x < 0.0, np.exp(-0.3 * (x + 2.0) ** 2), 0.0))
    right = SampledFunction(grid, np.where(x >= 0.0, np.exp(-0.3 * (x - 2.0) ** 2), 0.0))
    assert _stft_product_identity_error(zero, right, 4) == 0.0
    apart = _stft_product_identity_error(left, right, 4)
    assert apart == whole_table_identity_error(left.values, right.values, grid.h, 16.0, 4)
    assert apart > 0.0


@st.composite
def _identity_inputs(draw):
    n = 2 ** draw(st.integers(3, 8))
    stride = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    block = draw(st.sampled_from([1, 3, n // stride, n]))
    return n, stride, block, draw(st.integers(0, 2 ** 32 - 1)), draw(st.floats(2.0, 32.0))


@settings(max_examples=60)
@given(_identity_inputs(), st.booleans())
def test_prop_streamed_identity_equals_whole_table_oracle(inputs, shared):
    """Row blocks of 1, 3 and at least all rows, whether or not they divide
    the rows, give the whole-table error to the bit, for f2 = f1 (one table)
    and a distinct f2."""
    n, stride, block, seed, extent = inputs
    rng = np.random.default_rng(seed)
    grid = Grid(1, extent, n)
    f1 = SampledFunction(grid, rng.standard_normal(n))
    f2 = f1 if shared else SampledFunction(grid, rng.standard_normal(n))
    expected = whole_table_identity_error(f1.values, f2.values, grid.h, extent, stride)
    with mock.patch.object(grids, "BLOCK_ROWS", block):
        assert _stft_product_identity_error(f1, f2, stride) == expected


def test_identity_holds_one_block_of_python_objects(monkeypatch):
    """With one lattice row a block, the identity at n = 512 holds the same
    declared buffers and n-point arrays at stride 8 (64 blocks) as at
    stride 1 (512 blocks), so its traced peaks differ by less than 4 KiB:
    nothing it keeps grows with the number of blocks.  An untraced first
    run leaves out what numpy caches on a first transform."""
    monkeypatch.setattr(grids, "BLOCK_ROWS", 2)
    grid = Grid(1, 16.0, 512)
    x = grid.axis()
    f1 = SampledFunction(grid, np.exp(-0.3 * x * x))
    f2 = SampledFunction(grid, np.exp(-0.5 * x * x))
    _stft_product_identity_error(f1, f2, 8)
    peaks = {}
    tracemalloc.start()
    try:
        for stride in (8, 1):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _stft_product_identity_error(f1, f2, stride)
            peaks[stride] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[8]) < 4096, peaks


def test_sweep_propagates_resolution_guard():
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0))
    with pytest.raises(ResolutionError):
        boundedness_sweep(params, "convolution", grid=Grid(1, 4.0, 64))


def test_sweep_report_serializes():
    import json

    from youngbound.scenario import RunRecord

    report = boundedness_sweep(
        ParamTuple(d=1, p=(1, 2, 2), t=(0, 0, 0)), "convolution"
    )
    record = RunRecord("probe", {}, {"report": report}, 0, None, "", "", {})
    payload = json.loads(record.to_json())["results"]["report"]
    assert json.dumps(payload)
    assert payload["flavor"] == "convolution"
    assert len(payload["scales"]) == len(DEFAULT_ALPHAS)
