"""Numerical witnesses: scaling ladders, translation probes, sweeps.

Each probe measures a ratio of norms along a one-parameter family and fits
a power law.  The exact theory predicts the slope, so a probe both
calibrates the numerics (does the fit match the prediction?) and, when the
predicted slope has the unbounded sign, witnesses that no uniform constant
can exist.

Two families do all the work:

- GaussianFamily: f_j = <.>^{-t_j} e^{-alpha |x|^2} with 0 < alpha <= 1.
  Spreading alpha -> 0 drives the total-weight conditions.
- BumpFamily: a fixed C^2 plateau bump translated to +/- x0.  The
  convolution f1 * f2 is independent of x0 exactly, while the product of
  the weighted input norms scales like <x0>^{t1 + t2}; separating offsets
  drives the pairwise conditions.

The boundedness sweep is the converse direction: for a tuple the exact
checker classifies as Bounded, the measured ratio must stay flat and
uniformly bounded along the whole ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exponents import (
    SWEEP_FLAVORS,
    Classification,
    Exponent,
    ParamTuple,
    PreconditionError,
    classify,
    young_functional,
)
from .grids import (
    Grid,
    SampledFunction,
    _charge,
    _identity_charge,
    _norm_pass_buffers,
    _refuse_above_cap,
    _require_one_dimension,
    _stft_magnitude_norms,
    _stft_product_identity_error,
    _two_at_a_time,
    _weight_value,
    _WeightedNorms,
    _convolve_taking,
    convolve,
    fourier_transform,
    gaussian_resolution_guard,
    inverse_fourier_transform,
)

__all__ = [
    "GaussianFamily",
    "BumpFamily",
    "ProbeReport",
    "TranslationReport",
    "BoundReport",
    "SweepReport",
    "fit_power_law",
    "gaussian_norm_slope",
    "gaussian_necessity_probe",
    "translation_necessity_probe",
    "gaussian_lower_bound_check",
    "boundedness_sweep",
    "DEFAULT_ALPHAS",
]

DEFAULT_ALPHAS = tuple(2.0 ** (-k / 2.0) for k in range(13))
MODULATION_ALPHAS = tuple(2.0 ** (-k / 2.0) for k in range(9))

PROBE_GRID = Grid(1, 48.0, 4096)
TRANSLATION_GRID = Grid(1, 32.0, 2048)
LOWER_BOUND_GRID = Grid(1, 18.0, 1024)
MODULATION_GRID = Grid(1, 24.0, 2048)

# Largest relative variation of the translation probe's output norm across
# offsets: the offsets cancel exactly, so only rounding may move it.
CONSTANCY_TOL = 1e-10
# Largest relative error of the short-time product identity that a
# modulation-multiplication ladder accepts.
IDENTITY_TOL = 1e-6

def _refuse_ladder(grid: Grid, point_bytes: int, members, weights) -> None:
    """Refuse a Gaussian ladder or probe on ``grid`` above the memory cap:
    a point holds ``point_bytes`` a grid point, and the run keeps one family
    factor per distinct weight of ``members`` and one memo weight per
    distinct nonzero one of ``weights`` (exact, so a weight beyond binary64
    is refused later by its own text), 8 bytes a point each.  8 bytes a
    point more cover its small objects and numpy's ufunc buffers (under
    70 KB in the charge tests)."""
    kept = len(set(members)) + len(set(weights) - {0})
    _refuse_above_cap((point_bytes + 8 * kept + 8) * grid.n)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianFamily:
    """f_j = <.>^{-t_j} e^{-alpha |x|^2} for a weight triple t.

    The factor <x>^{-t_j} of each (j, grid) is computed once and kept for
    the family's lifetime (8 bytes a grid point); a ladder makes its own
    family, so no factor outlives the ladder.  The kept factors take no
    part in equality or hashing.
    """

    t: tuple[Fraction, Fraction, Fraction]
    factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", tuple(Fraction(v) for v in self.t))

    def member(self, j: int, alpha: float, grid: Grid) -> SampledFunction:
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        gaussian_resolution_guard(grid, alpha)
        x = grid.axis()
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            if (j, grid) not in self.factors:
                self.factors[j, grid] = (1.0 + x * x) ** (-_weight_value(self.t[j]) / 2.0)
            vals = self.factors[j, grid] * np.exp(-alpha * x * x)
        if not np.all(np.isfinite(vals)):
            raise ValueError(
                f"the weight {self.t[j]} makes <x>^(-t) e^(-{alpha} x^2) overflow "
                f"binary64 on the grid (|x| up to {float(np.max(np.abs(x))):g})"
            )
        return SampledFunction(grid, vals)


@dataclass(frozen=True)
class BumpFamily:
    """A C^2 plateau bump: 1 on [-plateau, plateau], quintic falloff.

    The transition is the smoothstep 6u^5 - 15u^4 + 10u^3, so the profile
    is twice continuously differentiable and supported in radius
    plateau + width.
    """

    plateau = 1.0
    width = 0.25
    support_radius = plateau + width

    def profile(self, x: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(x, dtype=float))
        u = np.clip((self.support_radius - r) / self.width, 0.0, 1.0)
        return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))

    def sample(self, grid: Grid, center: float = 0.0) -> SampledFunction:
        return SampledFunction(grid, self.profile(grid.axis() - center))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    kind: str
    ladder_x: list[float]
    ladder_y: list[float]
    fitted_slope: float
    predicted_slope: float
    r_squared: float
    tol: float
    passed: bool
    witnessed: bool | None = None
    permutation: tuple[int, int, int] | None = None


@dataclass
class TranslationReport:
    offsets: list[float]
    products: list[float]
    conv_norms: list[float]
    fitted_slope: float
    predicted_slope: float
    r_squared: float
    conv_variation: float
    permutation: tuple[int, int, int]
    passed: bool
    witnessed: bool


@dataclass
class BoundReport:
    t1: str
    t2: str
    alpha: float
    window: float
    constant: float
    min_convolution: float
    passed: bool


@dataclass
class SweepReport:
    flavor: str
    space: str | None
    classification: str
    theorem_used: str
    scales: list[float]
    ratios: list[float]
    fitted_slope: float
    spread: float
    passed: bool
    identity_rel_error: float | None = None


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): (slope, intercept, r^2).

    All inputs must be finite and strictly positive, with at least two
    distinct x values; a flat ladder fits slope zero with r^2 = 1 by
    convention (the residual test would be 0/0 otherwise).
    """
    xa = np.asarray(xs, dtype=float)
    ya = np.asarray(ys, dtype=float)
    if xa.size < 2 or np.all(xa == xa[0]):  # one x value fixes no slope
        raise ValueError("need at least two distinct ladder points to fit")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValueError("power-law fit requires finite data")
    if np.any(xa <= 0.0) or np.any(ya <= 0.0):
        raise ValueError("power-law fit requires positive data")
    lx = np.log(xa)
    ly = np.log(ya)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(np.dot(total, total))
    ss_res = float(np.dot(resid, resid))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _alpha_ladder_report(
    kind: str, alphas: list[float], values: list[float], predicted: float,
    tol: float, permutation: tuple[int, int, int] | None = None,
) -> ProbeReport:
    """Fit ``values`` against 1/alpha; the ladder passes when the slope is
    within ``tol`` of ``predicted`` and r^2 >= 0.99."""
    slope, _, r2 = fit_power_law([1.0 / a for a in alphas], values)
    return ProbeReport(
        kind=kind,
        ladder_x=alphas,
        ladder_y=values,
        fitted_slope=slope,
        predicted_slope=predicted,
        r_squared=r2,
        tol=tol,
        passed=abs(slope - predicted) <= tol and r2 >= 0.99,
        permutation=permutation,
    )


def gaussian_norm_slope(
    p,
    t,
    *,
    alphas: Sequence[float] | None = None,
    grid: Grid | None = None,
    tol: float = 0.05,
) -> ProbeReport:
    """Calibration probe: || <.>^{-t} e^{-alpha |.|^2} ||_{L^p_t} ladder.

    The family weight cancels the norm weight exactly, so the norm equals
    (pi / (p alpha))^{1/(2p)} and the slope against log(1/alpha) is 1/(2p)
    for every t.  A failure here means the grid or the norms are wrong, not
    the mathematics.
    """
    pe = Exponent.of(p)
    tw = Fraction(t)
    grid = grid or PROBE_GRID
    alphas = list(alphas) if alphas is not None else list(DEFAULT_ALPHAS)
    # A point: the member (complex, 16) and |f| or the member's temporaries.
    _refuse_ladder(grid, 32, [tw], [tw])
    fam = GaussianFamily((tw, tw, tw))
    norm = _WeightedNorms(grid)
    values = [norm(fam.member(0, a, grid), pe, tw) for a in alphas]
    predicted = float(Fraction(1, 2) * pe.reciprocal())
    return _alpha_ladder_report("norm_slope", alphas, values, predicted, tol)


_PAIR_TO_PERM = {
    (1, 2): (0, 1, 2),
    (0, 2): (1, 0, 2),
    (0, 1): (2, 0, 1),
}


def _permute_blocks(params: ParamTuple, perm: tuple[int, int, int]) -> ParamTuple:
    return ParamTuple(
        d=params.d,
        p=tuple(params.p[i] for i in perm),
        t=tuple(params.t[i] for i in perm),
    )


def _slot1_nonneg_permutation(t) -> tuple[int, int, int]:
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        if t[perm[1]] >= 0:
            return perm
    raise PreconditionError(
        "all weights are negative; no slot permutation puts a nonnegative "
        "weight in position 1, which the spreading lower bound requires"
    )


def _member_pair(fam: GaussianFamily, alpha: float, grid: Grid) -> list[SampledFunction]:
    """[f1, f2] of ``fam`` at ``alpha``, one array twice when t1 = t2.  The
    caller holds the members only through this list, so a convolution that
    takes them frees each one once it is transformed."""
    f1 = fam.member(1, alpha, grid)
    return [f1, f1 if fam.t[2] == fam.t[1] else fam.member(2, alpha, grid)]


def _convolution_ratios(
    params: ParamTuple, alphas: Sequence[float], grid: Grid
) -> list[float]:
    """||f1 * f2||_{L^{p0'}_{-t0}} / (||f1||_{L^{p1}_{t1}} ||f2||_{L^{p2}_{t2}})
    along the Gaussian family of ``params.t``."""
    t0, t1, t2 = params.t
    # A point: one complex factor beside two 2n-point complex spectra, or
    # the product spectrum, its inverse and the result (80 bytes).
    _refuse_ladder(grid, 80, [t1, t2], [t1, t2, -t0])
    fam = GaussianFamily(params.t)
    norm = _WeightedNorms(grid)
    p0c = params.p[0].conjugate()
    ratios = []
    for a in alphas:
        factors = _member_pair(fam, a, grid)
        den = norm(factors[0], params.p[1], params.t[1]) * \
            norm(factors[1], params.p[2], params.t[2])
        num = norm(_convolve_taking(factors), p0c, -params.t[0])
        ratios.append(num / den)
    return ratios


def gaussian_necessity_probe(
    params: ParamTuple,
    *,
    alphas: Sequence[float] | None = None,
    grid: Grid | None = None,
    tol: float = 0.05,
) -> ProbeReport:
    """Spreading probe for the total-weight condition.

    Measures rho(alpha) = ||f1 * f2||_{L^{p0'}_{-t0}} divided by the product
    of the input norms along the Gaussian family and fits the slope against
    log(1/alpha); the predicted value is (d R(p) - sum t) / 2.  A positive
    predicted slope means the ratio blows up as the bumps spread, so a
    passing fit witnesses unboundedness.

    The three slots are permuted (trilinear duality) so that slot 1 carries
    a nonnegative weight, which the prediction's lower bound needs; the
    permutation used is recorded in the report.
    """
    _require_one_dimension(params.d)
    perm = _slot1_nonneg_permutation(params.t)
    work = _permute_blocks(params, perm)
    grid = grid or PROBE_GRID
    alphas = list(alphas) if alphas is not None else list(DEFAULT_ALPHAS)
    ratios = _convolution_ratios(work, alphas, grid)
    predicted = float((young_functional(work.p) - sum(work.t)) / 2)
    report = _alpha_ladder_report(
        "gaussian_necessity", alphas, ratios, predicted, tol, permutation=perm
    )
    report.witnessed = report.passed and predicted > 0
    return report


def translation_necessity_probe(
    params: ParamTuple,
    offsets: Sequence[float] = (2.0, 4.0, 8.0, 16.0),
    *,
    pair: tuple[int, int] = (1, 2),
    grid: Grid | None = None,
    tol: float = 0.05,
) -> TranslationReport:
    """Separation probe for a pairwise weight condition.

    Translating the two bumps to +/- x0 leaves their convolution literally
    unchanged (the offsets cancel), so the output norm is constant, while
    the product of the weighted input norms scales like <x0>^{t_j + t_k}.
    The slope is fitted against log x0 (not log <x0>: the bracket's
    curvature at small offsets biases the fit outside tolerance).

    ``pair`` names the weight pair to witness; trilinear duality rotates
    that pair into slots (1, 2) and the permutation is recorded.  A passing
    fit with negative predicted slope witnesses unboundedness: the ratio
    output-norm over input-norms grows without bound.
    """
    _require_one_dimension(params.d)
    key = tuple(sorted(pair))
    if key not in _PAIR_TO_PERM:
        raise ValueError(f"pair must name two distinct slots, got {pair}")
    perm = _PAIR_TO_PERM[key]
    work = _permute_blocks(params, perm)
    grid = grid or TRANSLATION_GRID
    fam = BumpFamily()

    offs = [float(v) for v in offsets]
    if len(offs) < 2 or any(b <= a for a, b in zip(offs, offs[1:])):
        raise ValueError("offsets must be strictly increasing")
    if offs[0] <= 0:
        raise ValueError("offsets must be positive")
    h = grid.h
    for x0 in offs:
        if abs(x0 / h - round(x0 / h)) > 1e-9:
            raise ValueError(
                f"offset {x0} is not a multiple of the grid spacing {h}; "
                "the exact-translation argument needs sample-aligned shifts"
            )
    reach = offs[-1] + fam.support_radius
    if reach > grid.extent - 2 * h:
        raise ValueError(
            f"support overflow: offset {offs[-1]} pushes the bump (radius "
            f"{fam.support_radius}) outside the box of extent {grid.extent}"
        )

    # A point: the two bumps, then the arrays of their convolution.
    _refuse_ladder(grid, 80, [], [work.t[1], work.t[2], -work.t[0]])
    p0c = work.p[0].conjugate()
    norm = _WeightedNorms(grid)
    products = []
    conv_norms = []
    for x0 in offs:
        factors = [fam.sample(grid, +x0), fam.sample(grid, -x0)]
        products.append(
            norm(factors[0], work.p[1], work.t[1]) * norm(factors[1], work.p[2], work.t[2])
        )
        conv_norms.append(norm(_convolve_taking(factors), p0c, -work.t[0]))
    slope, _, r2 = fit_power_law(offs, products)
    predicted = float(work.t[1] + work.t[2])
    base = conv_norms[0]
    variation = max(abs(v - base) for v in conv_norms) / base
    passed = (
        abs(slope - predicted) <= tol
        and r2 >= 0.99
        and variation <= CONSTANCY_TOL
    )
    return TranslationReport(
        offsets=offs,
        products=products,
        conv_norms=conv_norms,
        fitted_slope=slope,
        predicted_slope=predicted,
        r_squared=r2,
        conv_variation=variation,
        permutation=perm,
        passed=passed,
        witnessed=passed and predicted < 0,
    )


def gaussian_lower_bound_check(
    t1,
    t2,
    alpha: float,
    *,
    window: float = 8.0,
    grid: Grid | None = None,
) -> BoundReport:
    """Pointwise floor for the convolution of two weighted Gaussians.

    Checks that f1 * f2 >= c <x>^{1 - t1 - t2} e^{-3 alpha |x|^2} holds on
    |x| <= window with a single constant c > 0 (the reported value is the
    measured minimum of the quotient).  Requires t1 >= 0: the annulus
    argument behind the envelope pairs the y and x - y brackets, and a
    negative weight in slot 1 breaks that pairing.
    """
    t1f = Fraction(t1)
    t2f = Fraction(t2)
    if t1f < 0:
        raise PreconditionError(
            f"slot-1 weight must be nonnegative for the envelope, got {t1f}"
        )
    grid = grid or LOWER_BOUND_GRID
    if window >= grid.extent:
        raise ValueError("window must sit strictly inside the box")

    # The arrays of the convolution, then it beside the envelope's arrays.
    _refuse_ladder(grid, 80, [t1f, t2f], [])
    fam = GaussianFamily((Fraction(0), t1f, t2f))
    conv = _convolve_taking(_member_pair(fam, alpha, grid))
    x = grid.axis()
    mask = np.abs(x) <= window
    g = conv.values.real[mask]
    envelope = (1.0 + x[mask] ** 2) ** (float(1 - t1f - t2f) / 2.0) * np.exp(
        -3.0 * alpha * x[mask] ** 2
    )
    quotient = g / envelope
    constant = float(np.min(quotient))
    min_conv = float(np.min(g))
    return BoundReport(
        t1=str(t1f),
        t2=str(t2f),
        alpha=alpha,
        window=window,
        constant=constant,
        min_convolution=min_conv,
        passed=constant > 0.0 and min_conv > 0.0,
    )


# ---------------------------------------------------------------------------
# Boundedness sweep
# ---------------------------------------------------------------------------

def boundedness_sweep(
    params: ParamTuple,
    flavor: str,
    *,
    space: str = "M",
    grid: Grid | None = None,
    stride: int = 8,
    slope_tol: float = 0.05,
    spread_cap: float = 4.0,
) -> SweepReport:
    """Consistency sweep for a tuple the exact checker calls Bounded.

    Runs the flavor's Gaussian ladder and requires the measured norm ratio
    to stay flat (fitted slope within ``slope_tol`` against log(1/alpha))
    and uniformly bounded (max/min at most ``spread_cap``).  Refuses to run
    on tuples that are not classified Bounded: a sweep on an unbounded
    tuple would only confirm the probe results, and on an undetermined one
    it proves nothing either way.

    Flavor families:

    - convolution: x-side weighted Gaussians, ratio in weighted Lebesgue
      norms;
    - multiplication: transform-side family (the hats are weighted
      Gaussians on the dual grid, the functions are synthesized by the
      inverse transform), ratio in Fourier-side norms;
    - modulation-convolution / modulation-multiplication: plain Gaussians
      against the standard window, ratio in the space-``space`` norms; the
      multiplication flavor also cross-checks the short-time product
      identity at the middle scale and folds that error into PASS.
    """
    if flavor not in SWEEP_FLAVORS:
        raise ValueError(f"flavor must be one of {SWEEP_FLAVORS}, got {flavor!r}")
    _require_one_dimension(params.d)

    setting, _, base = flavor.rpartition("-")
    verdict = classify(params, base, setting or "lebesgue", space)
    if verdict.classification is not Classification.BOUNDED:
        raise PreconditionError(
            f"boundedness_sweep needs a Bounded verdict, got "
            f"{verdict.classification.value} for flavor {flavor!r}"
        )

    modulation = setting == "modulation"
    alphas = list(MODULATION_ALPHAS if modulation else DEFAULT_ALPHAS)
    if grid is None:
        grid = MODULATION_GRID if modulation else PROBE_GRID

    identity_err: float | None = None
    ratios: list[float] = []

    if flavor == "convolution":
        ratios = _convolution_ratios(params, alphas, grid)
    elif flavor == "multiplication":
        s0, s1, s2 = params.s
        same = s2 == s1  # then g2 is g1, transformed once
        # A point: g1, the product and its transform's arrays (64), and g2.
        _refuse_ladder(grid, 64 if same else 80, [s1, s2], [s1, s2, -s0])
        dual = grid.dual()
        hats = GaussianFamily(params.s)
        # The functions live on dual.dual(), and their transforms here.
        norm = _WeightedNorms(dual.dual().dual())
        q0c = params.q[0].conjugate()

        def ratio(a: float) -> float:  # its arrays go when it returns
            g1 = inverse_fourier_transform(hats.member(1, a, dual))
            g2 = g1 if same else inverse_fourier_transform(hats.member(2, a, dual))
            product = SampledFunction(g1.grid, g1.values * g2.values)
            num = norm(fourier_transform(product), q0c, -s0)
            del product  # two functions and a transform at a time
            ghat = fourier_transform(g1)
            den = norm(ghat, params.q[1], s1)
            if not same:
                ghat = fourier_transform(g2)
            return num / (den * norm(ghat, params.q[2], s2))

        ratios = [ratio(a) for a in alphas]
    else:
        mult = base == "multiplication"
        # Two jobs run at once: two passes, or the identity beside one.
        # Beside its buffers a pass holds 112 bytes a grid point: its
        # function (complex, 16) and, for a convolution numerator, the
        # 2n-point spectrum and inverse and the result of `convolve` (80),
        # more than its own arrays.
        norm_pass = _charge(_norm_pass_buffers(grid, stride), 112 * grid.n, np.float64)
        second = _identity_charge(grid, stride) if mult else norm_pass
        _refuse_above_cap(norm_pass + second)
        x = grid.axis()
        window = SampledFunction(grid, np.exp(-x * x / 2.0))
        p0c = params.p[0].conjugate()
        q0c = params.q[0].conjugate()
        for a in alphas:  # a failing alpha raises before any point runs
            gaussian_resolution_guard(grid, a)

        def job(item: tuple[str, float], held) -> list[float] | float:
            kind, a = item
            f = SampledFunction(grid, np.exp(-a * x * x))
            if kind == "identity":  # it allocates its own buffers
                return _stft_product_identity_error(f, f, stride)
            buffers = held()  # held through the convolution too
            if kind == "numerator":
                # f * f is real; its imaginary part is rounding.
                target = f.values * f.values if mult else convolve(f, f).values.real
                f = SampledFunction(grid, target)
                norms = [(p0c, q0c, -params.s[0], -params.t[0])]
            else:
                # f1 = f2, so one pass over the blocks serves both norms.
                norms = [(params.p[j], params.q[j], params.s[j], params.t[j]) for j in (1, 2)]
            return _stft_magnitude_norms(f, window, stride, norms, space, buffers)

        # The identity at the middle scale costs six to seven passes at
        # stride 2: first in line, it runs on one thread while the other
        # takes the passes as they come, and its thread asks for no pass
        # buffers until it is done.
        jobs = [("identity", alphas[len(alphas) // 2])] if mult else []
        for a in alphas:
            jobs += [("numerator", a), ("denominator", a)]
        values = _two_at_a_time(job, jobs, _norm_pass_buffers(grid, stride))
        if mult:
            identity_err = values.pop(0)
        ratios = [num / (d1 * d2) for (num,), (d1, d2) in zip(values[::2], values[1::2])]

    inv = [1.0 / a for a in alphas]
    slope, _, _ = fit_power_law(inv, ratios)
    spread = max(ratios) / min(ratios)
    passed = abs(slope) <= slope_tol and spread <= spread_cap
    if identity_err is not None:
        passed = passed and identity_err <= IDENTITY_TOL

    return SweepReport(
        flavor=flavor,
        space=space if modulation else None,
        classification=verdict.classification.value,
        theorem_used=verdict.theorem_used,
        scales=alphas,
        ratios=ratios,
        fitted_slope=slope,
        spread=spread,
        passed=passed,
        identity_rel_error=identity_err,
    )
