"""Three-weight kernels, the five-region decomposition, and its verifiers.

The kernel under study is

    F(x, y) = <x>^{-t0} <x-y>^{-t1} <y>^{-t2},

together with the bilinear map T_F(f, g)(x) = int F(x, y) f(y) g(x - y) dy
and its twisted companion T_{Theta F}(f, g)(x) = int F(x, y) f(x - y) g(y) dy.

The plane splits into five regions controlled by a ratio delta in (0, 1) and
a radius R >= 4/delta:

    region 1:  <y> < delta <x>
    region 2:  <x-y> < delta <x>, outside region 1
    region 3:  delta <x> <= min(<y>, <x-y>) and |x| <= R
    region 4:  delta <x> <= <x-y> <= <y> and |x| > R
    region 5:  delta <x> <= <y> <= <x-y> and |x| > R

Assignment is by the first clause that applies, read top to bottom, so every
point lands in exactly one region and the tie <y> = <x-y> in the outer zone
goes to region 4.  On each region one factor of F dominates, and the slice
norms obey closed-form envelopes; ``verify_lemma_intestimates`` measures
those envelopes numerically and ``verify_prop_tf_bounds`` does the same for
the mixed-norm operator bounds built on top of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exponents import Exponent, PreconditionError, _exponent_triple, young_functional
from .grids import (
    BLOCK_ROWS,
    Grid,
    GridMismatchError,
    SampledFunction,
    SampledKernel2d,
    _axis_power_norm,
    _charge,
    _exponent_value,
    _flat_rows,
    _MixedNorm,
    _refuse_above_cap,
    _require_one_dimension,
    _row_blocks,
    _two_at_a_time,
    _weight_value,
    bracket,
    weighted_lebesgue_norm,
)

__all__ = [
    "KernelParams",
    "RegionParams",
    "REGION_IDS",
    "kernel_f",
    "kernel_table",
    "region_of",
    "region_codes",
    "t_f",
    "t_theta_f",
    "decomposition_residual",
    "SliceReport",
    "verify_lemma_intestimates",
    "PropReport",
    "verify_prop_tf_bounds",
    "PreconditionError",
]

REGION_IDS = (1, 2, 3, 4, 5)

# Four envelope items cover the five regions: the outer-zone envelope (item
# 4) serves regions 4 and 5.  Enumerations that count five refer to regions,
# not envelope items.
REGION_TO_ITEM = {1: 1, 2: 2, 3: 3, 4: 4, 5: 4}


@dataclass(frozen=True)
class KernelParams:
    """Weight triple and dimension (always 1) of the three-bracket kernel."""

    t: tuple[Fraction, Fraction, Fraction]
    d: int = 1

    def __post_init__(self) -> None:
        _require_one_dimension(self.d)
        ts = tuple(Fraction(v) for v in self.t)
        if len(ts) != 3:
            raise ValueError("kernel weight triple must have three entries")
        object.__setattr__(self, "t", ts)


@dataclass(frozen=True)
class RegionParams:
    delta: Fraction = Fraction(1, 2)
    R: Fraction = Fraction(8)

    def __post_init__(self) -> None:
        delta = Fraction(self.delta)
        radius = Fraction(self.R)
        if not (0 < delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if radius < 4 / delta:
            raise ValueError(
                f"R must be at least 4/delta = {4 / delta}, got {radius}"
            )
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "R", radius)


def kernel_f(x, y, params: KernelParams) -> float:
    """F(x, y) at the points x and y of the line."""
    t0, t1, t2 = (float(v) for v in params.t)
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    return float(
        bracket(xa) ** (-t0) * bracket(xa - ya) ** (-t1) * bracket(ya) ** (-t2)
    )


def _kernel_values(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    """Vectorized F on broadcastable coordinate arrays (one dimension)."""
    t0, t1, t2 = (_weight_value(v) for v in t)
    bx = np.sqrt(1.0 + x * x)
    by = np.sqrt(1.0 + y * y)
    bxy = np.sqrt(1.0 + (x - y) * (x - y))
    return bx ** (-t0) * bxy ** (-t1) * by ** (-t2)


def kernel_table(grid: Grid, params: KernelParams) -> SampledKernel2d:
    # _kernel_values holds three float64 tables at once, five n-point
    # arrays (the axis, two brackets and two of their powers) and numpy's
    # buffers for three float64 operands at the caller's size.
    _refuse_above_cap(24 * grid.n * grid.n + 40 * grid.n + 24 * np.getbufsize())
    ax = grid.axis()
    return SampledKernel2d(grid, _kernel_values(ax[:, None], ax[None, :], params.t))


def region_of(x, y, params: RegionParams) -> int:
    """Region id in 1..5 at a single point (first matching clause wins)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    bx = bracket(xa)
    by = bracket(ya)
    bxy = bracket(xa - ya)
    delta = float(params.delta)
    radius = float(params.R)
    if by < delta * bx:
        return 1
    if bxy < delta * bx:
        return 2
    if abs(float(xa)) <= radius:
        return 3
    if bxy <= by:
        return 4
    return 5


def region_codes(x: np.ndarray, y: np.ndarray, params: RegionParams) -> np.ndarray:
    """Vectorized region ids (int8) on broadcastable 1-d coordinate arrays.

    The clauses of :func:`region_of` in order: the first that holds gives
    the id, and 5 where none does; the property tests compare the two.
    """
    bx = np.sqrt(1.0 + x * x)
    by = np.sqrt(1.0 + y * y)
    bxy = np.sqrt(1.0 + (x - y) * (x - y))
    delta = float(params.delta)
    conditions = [by < delta * bx, bxy < delta * bx, np.abs(x) <= float(params.R), bxy <= by]
    return np.select(conditions, [1, 2, 3, 4], np.int8(5))


# ---------------------------------------------------------------------------
# Bilinear maps
# ---------------------------------------------------------------------------

def _kernel_block(kernel, grid: Grid, rows: slice) -> np.ndarray:
    if isinstance(kernel, SampledKernel2d):
        if kernel.grid != grid:
            raise GridMismatchError("t_f: kernel and functions on different grids")
        return kernel.values[rows]
    ax = grid.axis()
    return kernel(ax[rows, None], ax[None, :])


def _tf_rows(f: SampledFunction, g: SampledFunction):
    """The rows of T_F(f, g) / h, as a function of a block of kernel rows,
    the slice of grid rows it holds and, if given, an array for the products.

    The third factor is read off the grid: x_i - y_j = (i - j + n/2 - n/2) h
    lands on sample i - j + n/2 when that index exists and contributes zero
    otherwise.  Each row is summed on its own, so a block of rows has the
    bits of the same rows of a larger block.

    When f and g are real and so is the block, the products F f g are
    float64: F f is widened into the complex product array with zero
    imaginary parts and its real lanes are multiplied by g.  They are the
    real parts of the complex products, bit for bit (every imaginary factor
    is zero), and the complex row sum adds its real lane on its own, so the
    rows keep the complex path's bits.  The block of kernel rows is only
    read, so every map of a point reads the same block.
    """
    if f.grid != g.grid:
        raise GridMismatchError("t_f: f and g on different grids")
    n = f.grid.n
    half = n // 2
    real = not (np.any(f.values.imag) or np.any(g.values.imag))
    fv = f.values.real if real else f.values
    # g reversed and zero-padded: window k of this buffer holds
    # g[2n - 1 - k - j] at column j (zero off the grid), so row i, which
    # needs g[i - j + n/2], reads window n + n/2 - 1 - i without a gather.
    buf = np.zeros(3 * n, dtype=fv.dtype)
    buf[n : 2 * n] = (g.values.real if real else g.values)[::-1]
    windows = sliding_window_view(buf, n)

    def rows_of(kblk: np.ndarray, rows: slice, product=None) -> np.ndarray:
        gblk = windows[n + half - 1 - rows.start : n + half - 1 - rows.stop : -1]
        if product is None:
            product = np.empty(kblk.shape, dtype=np.complex128)
        np.multiply(kblk, fv, out=product)
        if not real or np.iscomplexobj(kblk):
            return np.multiply(product, gblk, out=product).sum(axis=1)
        lanes = product.view(np.float64).reshape(*kblk.shape, 2)[..., 0]
        np.multiply(lanes, gblk, out=lanes)
        return product.sum(axis=1)

    return rows_of


def t_f(kernel, f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """T_F(f, g)(x_i) = h * sum_j F(x_i, y_j) f(y_j) g(x_i - y_j).

    ``kernel`` may be a materialized table or a callable evaluated BLOCK_ROWS
    rows at a time, which keeps memory flat for large n.
    """
    rows_of = _tf_rows(f, g)
    grid = f.grid
    out = np.empty(grid.n, dtype=np.complex128)
    for rows in _row_blocks(grid.n, BLOCK_ROWS):
        out[rows] = rows_of(_kernel_block(kernel, grid, rows), rows)
    return SampledFunction(grid, out * grid.h)


def t_theta_f(kernel, f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """T_{Theta F}(f, g)(x) = int F(x, y) f(x - y) g(y) dy.

    Swapping which argument is translated is the same as swapping the
    arguments of T_F, and it also equals T applied to the remapped kernel
    (Theta F)(x, z) = F(x, x - z); the tests check both identities.
    """
    return t_f(kernel, g, f)


def decomposition_residual(
    grid: Grid,
    kernel_params: KernelParams,
    region_params: RegionParams,
    f: SampledFunction,
    g: SampledFunction,
) -> float:
    """Relative sup distance between T_F and the sum of its region pieces.

    Each masked piece is applied as its own operator; nothing is shared with
    the full application except the inputs, so the identity F = sum_j F_j is
    actually exercised rather than assumed.  When T_F vanishes identically
    the absolute sup of the mismatch is returned instead.  f and g must
    live on ``grid``.
    """
    if f.grid != grid or g.grid != grid:
        raise GridMismatchError("decomposition_residual: f or g is not on grid")
    t = kernel_params.t

    def full(x, y):
        return _kernel_values(x, y, t)

    def piece(j):
        def fn(x, y):
            vals = _kernel_values(x, y, t)
            return np.where(region_codes(x, y, region_params) == j, vals, 0.0)

        return fn

    reference = t_f(full, f, g).values
    total = np.zeros_like(reference)
    for j in REGION_IDS:
        total = total + t_f(piece(j), f, g).values
    denom = float(np.max(np.abs(reference)))
    diff = float(np.max(np.abs(reference - total)))
    if denom == 0.0:
        return diff
    return diff / denom


# ---------------------------------------------------------------------------
# Slice-norm envelope verification
# ---------------------------------------------------------------------------

@dataclass
class SliceReport:
    region: int
    item: int
    p: str
    t: tuple[str, str, str]
    scan_values: list[float]
    slice_norms: list[float]
    envelopes: list[float]
    ratios: list[float | None]
    max_ratio: float
    median_ratio: float
    passed: bool
    excluded_empty: list[float]
    under_resolved: list[float]
    notes: str


def _envelope(region: int, v: float, t, rp: Fraction) -> float:
    """Closed-form slice envelope of ``region`` at scan value v (bracket of
    the slice); one beyond binary64 is a ValueError naming the weights."""
    t0, t1, t2 = t
    item = REGION_TO_ITEM[region]
    bv = math.sqrt(1.0 + v * v)
    log_factor = (1.0 + math.log(bv)) ** float(rp)
    try:
        if item == 1:
            lead = bv ** float(-t0 - t1)
            if t2 == rp:
                return lead * log_factor
            return lead * (1.0 + bv ** float(rp - t2))
        if item == 2:
            lead = bv ** float(-t0 - t2)
            if t1 == rp:
                return lead * log_factor
            return lead * (1.0 + bv ** float(rp - t1))
        if item == 3:
            return bv ** float(-t1 - t2)
        # item 4 covers the two outer regions
        if t0 < rp:
            return bv ** float(-t0 - t1 - t2 + rp)
        if t0 == rp:
            return bv ** float(-t1 - t2) * log_factor
        return bv ** float(-t1 - t2)
    except OverflowError:
        raise ValueError(
            f"the slice envelope of region {region} at scan value {v:g} overflows "
            f"binary64 for the weights t = {', '.join(map(str, t))}"
        ) from None


def _slice_domain(region: int, v: float, rparams: RegionParams) -> tuple[float, float] | None:
    """Interval of the integration variable that can meet the region slice."""
    delta = float(rparams.delta)
    radius = float(rparams.R)
    bv = math.sqrt(1.0 + v * v)
    if region in (1, 2):
        reach = delta * bv
        if reach <= 1.0:
            return None
        w = math.sqrt(reach * reach - 1.0)
        if region == 1:
            return (-w, w)
        return (v - w, v + w)
    if region == 3:
        return (-radius, radius)
    # regions 4, 5: delta <x> <= <y> bounds the x window
    reach = bv / delta
    w = math.sqrt(reach * reach - 1.0)
    return (-w, w)


# Ratio between consecutive scan values of the slice verifier, and the
# quadrature points across each slice.
SCAN_RATIO = 2.0 ** 0.25
QUAD_POINTS = 20001
# Most scan values a slice check may ask for (the default scan has 27).
MAX_SCAN_POINTS = 1000


def verify_lemma_intestimates(
    region: int,
    kernel_params: KernelParams,
    region_params: RegionParams,
    p,
    *,
    scan_range: tuple[float, float] = (1.0, 100.0),
    ratio_cap: float = 3.0,
) -> SliceReport:
    """Measure one region's slice norms against the claimed envelope.

    For regions 1 and 2 the scan variable is x and the slice integral runs
    over y; for regions 3, 4, 5 the roles are reversed.  Every slice has
    compactly supported integrand (the region inequalities bound the free
    variable), so the quadrature window is exact and only the rectangle rule
    contributes error.

    Scan points whose slice is empty are recorded and excluded from the
    statistics; points with fewer than four supporting cells are flagged as
    under-resolved but retained.  PASS means the largest retained ratio is
    at most ``ratio_cap`` times the median one, i.e. the envelope is tight
    up to a uniform constant over the whole scan range.
    """
    if region not in REGION_IDS:
        raise ValueError(f"region must be in 1..5, got {region}")
    lo, hi = scan_range
    if not (0 < lo < hi):
        raise ValueError(f"scan range must satisfy 0 < lo < hi, got {scan_range}")

    p_exp = Exponent.of(p)
    rp, pf = p_exp.reciprocal(), _exponent_value(p_exp)
    item = REGION_TO_ITEM[region]
    weights = tuple(_weight_value(v) for v in kernel_params.t)  # refused before any envelope

    # The values lo * SCAN_RATIO^k up to hi, counted before any is built.
    # The bound is capped at the largest float, where hi * (1 + 1e-12)
    # would overflow, and the loop runs a counted number of times: from a
    # subnormal lo, v * SCAN_RATIO can round back to v.
    limit = min(hi * (1.0 + 1e-12), sys.float_info.max)
    count = math.floor((math.log2(limit) - math.log2(lo)) / math.log2(SCAN_RATIO)) + 1
    if count > MAX_SCAN_POINTS:
        raise ValueError(
            f"the scan from {lo!r} to {hi!r} would take {count} points of "
            f"{QUAD_POINTS}-point quadrature, above the limit of {MAX_SCAN_POINTS}"
        )
    scan_values = [lo]
    for _ in range(count - 1):
        scan_values.append(scan_values[-1] * SCAN_RATIO)

    # Every envelope first: one beyond binary64 is refused before any
    # quadrature runs, so before any can print a numpy warning.
    envelopes = [_envelope(region, v, kernel_params.t, rp) for v in scan_values]

    def quadrature(v: float, _held) -> tuple[float, int]:
        """The slice norm at v and the number of its supporting points."""
        domain = _slice_domain(region, v, region_params)
        if domain is None:
            return 0.0, 0
        a, b = domain
        u = np.linspace(a, b, QUAD_POINTS)
        du = (b - a) / (QUAD_POINTS - 1)
        if region in (1, 2):
            x, y = np.full_like(u, v), u
        else:
            x, y = u, np.full_like(u, v)
        mask = region_codes(x, y, region_params) == region
        support = int(mask.sum())
        if support == 0:
            return 0.0, 0
        vals = np.where(mask, _kernel_values(x, y, weights), 0.0)
        return float(_axis_power_norm(vals, pf, du, axis=None)), support

    # Each quadrature stands alone, so two at a time keep the serial bits.
    measured = _two_at_a_time(quadrature, scan_values, [])
    norms = [norm for norm, _ in measured]
    ratios = [None if norm == 0.0 else norm / env for norm, env in zip(norms, envelopes)]
    excluded = [v for v, ratio in zip(scan_values, ratios) if ratio is None]
    flagged = [
        v for v, ratio, (_, support) in zip(scan_values, ratios, measured)
        if ratio is not None and support < 4
    ]
    retained = [ratio for ratio in ratios if ratio is not None]

    max_ratio = max(retained, default=0.0)
    median_ratio = float(np.median(retained)) if retained else 0.0
    passed = not retained or max_ratio <= ratio_cap * median_ratio

    notes = (
        "four envelope items cover the five regions (the outer-zone item "
        "serves regions 4 and 5); enumerations that count five refer to "
        "regions, not items."
    )
    if not retained:
        notes += " every scan point had an empty slice."

    return SliceReport(
        region=region,
        item=item,
        p=str(p_exp),
        t=tuple(str(v) for v in kernel_params.t),
        scan_values=scan_values,
        slice_norms=norms,
        envelopes=envelopes,
        ratios=ratios,
        max_ratio=max_ratio,
        median_ratio=median_ratio,
        passed=passed,
        excluded_empty=excluded,
        under_resolved=flagged,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Operator-bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _GaussSum:
    """Sum of Gaussian bumps with exact dilation in the parameters."""

    terms: tuple[tuple[float, ...], ...]  # (amplitude, a, one center per axis)

    def dilated(self, lam: float) -> "_GaussSum":
        return type(self)(
            tuple(
                (amp, a * lam * lam, *(c / lam for c in centers))
                for amp, a, *centers in self.terms
            )
        )


class _GaussSum1d(_GaussSum):
    """The sum in one variable: each term has one center."""

    def sample(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=float)
        for amp, a, c in self.terms:
            out = out + amp * np.exp(-a * (x - c) ** 2)
        return out


# exp(-x) is below the smallest normal double, np.finfo(float).tiny = 2^-1022,
# for every x >= _EXP_ZERO (from ln 2^1022 = 708.3964 on), and rounds to +0.0
# from 745.14 on; between the two it is subnormal, and slow.
_EXP_ZERO = 708.4


def _band(mask: np.ndarray) -> slice | None:
    """The slice from the first to the last True entry, None when none is."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    return slice(idx[0], idx[-1] + 1)


class _GaussSum2d(_GaussSum):
    """The sum in two variables: each term has centers (u, v)."""

    def sampler(self, x: np.ndarray, y: np.ndarray):
        """The sum on the outer grid of the 1-d axes x and y, as a function
        of a slice of x, an output block of as many rows and a C-contiguous
        complex scratch array as large, which fills the block and returns it;
        and the slice of x outside which every row of the sum is +0.

        Each term is evaluated only on the band of rows and columns where
        a (x - u)^2 and a (y - v)^2 stay below _EXP_ZERO, and inside that
        band only where its exponent does.  Everywhere else exp is below
        the smallest normal double (rounding is monotone, so the skipped
        exponents are at most -_EXP_ZERO as computed), so a skipped term
        is below |amp| 2^-1022: it moves no bit of an entry above
        2^54 times the sum of those bounds, and no entry by more than it.
        numpy's exp takes about 150 ns a point where its result is
        subnormal, against 1.2 ns where it is normal (x86-64, numpy 2.4).

        The bands and the squared distances are 1-d and are computed here,
        once for every block.  A block that skips no exponent takes exp and
        the sum unmasked.  In any other block a skipped exponent is set to
        -inf, whose exp is +0: the block starts at +0 and no sum of finite
        terms turns an entry into -0, so adding amp * 0 changes no bit.
        The first term to meet a block, if it covers the block and amp > 0,
        writes amp * exp into it in place of that start: 0 + x is x for
        x >= +0.

        A row outside every term's row band is +0 in every column, so the
        rows outside the hull of the bands are +0 (all rows are returned
        when no term has a band).
        """
        terms = []
        for amp, a, u, v in self.terms:
            dx, dy = (x - u) ** 2, (y - v) ** 2
            rows, cols = _band(a * dx < _EXP_ZERO), _band(a * dy < _EXP_ZERO)
            if rows is not None and cols is not None:
                terms.append((amp, a, rows, cols, dx, dy[cols], float(np.max(dy[cols]))))

        def sample(block: slice, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
            fresh = True  # nothing is written into the block yet
            for amp, a, rows, cols, dx, dy, dy_top in terms:
                start, stop = max(rows.start, block.start), min(rows.stop, block.stop)
                if start >= stop:
                    continue
                arg = _flat_rows(scratch.view(float), stop - start, dy.size)
                np.add(dx[start:stop, None], dy, out=arg)
                arg *= -a
                # The squares fall and then rise along each axis, so the
                # block's smallest exponent is that of its largest squares.
                if (max(dx[start], dx[stop - 1]) + dy_top) * -a <= -_EXP_ZERO:
                    drop = _flat_rows(scratch.view(bool), *arg.shape, arg.nbytes)
                    np.less_equal(arg, -_EXP_ZERO, out=drop)
                    np.copyto(arg, -np.inf, where=drop)
                np.exp(arg, out=arg)
                target = out[start - block.start : stop - block.start, cols]
                if fresh and target.size == out.size and amp > 0:
                    np.multiply(arg, amp, out=target)
                else:
                    if fresh:
                        out.fill(0.0)
                    arg *= amp
                    np.add(target, arg, out=target)
                fresh = False
            if fresh:
                out.fill(0.0)
            return out

        if not terms:
            return sample, slice(0, x.size)
        bands = [rows for _, _, rows, *_ in terms]
        return sample, slice(min(b.start for b in bands), max(b.stop for b in bands))


@dataclass
class PropReport:
    case: int
    p: tuple[str, str, str]
    r: float
    kernel: str
    scales: list[float]
    ratios: list[list[float]]
    slopes: list[float]
    max_ratio: float
    min_ratio: float
    spread: float
    passed: bool
    notes: str = ""


_DEFAULT_SCALES = (0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0)
# The dilation scales of each kernel: the flat kernel has no dilation leg.
_KERNEL_SCALES = {"bumps": _DEFAULT_SCALES, "ones": (1.0,)}


# A block of the operator check has at least BLOCK_ROWS rows and at least
# this many entries (128 rows at n = 512, 64 from n = 1024 on), so a point
# at small n makes fewer numpy calls an entry, which its two threads
# otherwise take turns at under the GIL.  Its two buffers take 24 bytes an
# entry: 1.5 MB for n = 256 to 1024, inside a core's 2 MiB L2 cache.
BLOCK_ENTRIES = 1 << 16


def _operator_point_buffers(grid: Grid) -> list:
    """An operator point holds one block of kernel rows and its T_F products."""
    rows = min(grid.n, max(BLOCK_ROWS, BLOCK_ENTRIES // grid.n))
    return [((rows, grid.n), np.float64), ((rows, grid.n), np.complex128)]


# The operator trials draw their bumps from numpy's default_rng(seed), so a
# recorded seed gives the same bumps in every version, but in plain integers:
# importing numpy's random module costs a cold process 11-16 ms and 6 MB for
# ~24 draws.
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant advances on every call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


class _DefaultRng:
    """numpy's ``default_rng(seed)`` for ``uniform``, bit for bit.

    SeedSequence mixes the seed's little-endian 32-bit words into a 4-word
    pool and hashes that into a 128-bit PCG64 seed and increment; each draw
    steps the 128-bit LCG, then takes the XSL-RR output's top 53 bits.
    """

    def __init__(self, seed: int) -> None:
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]

        def mix(x: int, y: int) -> int:
            r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return r ^ r >> 16

        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(w))
        out = _hashmix(0x8B51F9DD, 0x58F38DED)
        state = [out(pool[i % 4]) for i in range(8)]
        # Eight 32-bit words read as four little-endian 64-bit ones: the
        # seed's high and low halves, then the increment's.
        u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (u64[2] << 64 | u64[3]) << 1 & _M128 | 1
        # Seeding steps from state 0, adds the seed and steps again.
        seed128 = u64[0] << 64 | u64[1]
        self._state = ((self._inc + seed128) * _PCG64_MULT + self._inc) & _M128

    def uniform(self, low: float, high: float, k: int) -> list[float]:
        scale = high - low
        out = []
        for _ in range(k):
            st = self._state = (self._state * _PCG64_MULT + self._inc) & _M128
            x, rot = (st >> 64 ^ st) & _M64, st >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            out.append(low + scale * ((x >> 11) * 2**-53))
        return out


def verify_prop_tf_bounds(
    case: int,
    p,
    *,
    trials: int = 4,
    seed: int = 0,
    grid: Grid | None = None,
    kernel: str = "bumps",
    slope_tol: float = 0.05,
    spread_cap: float = 10.0,
) -> PropReport:
    """Stress the mixed-norm operator bounds on random smooth data.

    Standing hypothesis: R(p) >= 0; additionally r = 1/R(p) (sup scale when
    R(p) = 0) and, per case,

    - case 1: R(p) <= 1/p0, kernel measured in the sup-in-x mixed norm,
      both T_F and T_{Theta F} tested into L^{p0'};
    - case 2: R(p) <= max(1/2, 1/p1), sup-in-y mixed norm, T_F only;
    - case 3: R(p) <= max(1/2, 1/p2), sup-in-y mixed norm, T_{Theta F} only.

    Each trial draws a Gaussian-bump kernel and input pair, then rescales
    all three through an exact parameter dilation.  With r = 1/R(p) the
    continuum ratio is scale-invariant, so PASS requires the fitted slope of
    log ratio against log scale to stay within ``slope_tol`` for every trial
    and the overall ratio spread to stay below ``spread_cap``.

    ``kernel="ones"`` freezes F = 1 (its continuum mixed norm diverges, so
    the grid value reflects the box); the dilation leg is skipped in that
    mode and only the trial spread is judged.
    """
    exps = _exponent_triple(p)
    if case not in (1, 2, 3):
        raise ValueError(f"case must be 1, 2, or 3, got {case}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"the seed must be a non-negative integer, got {seed}")
    if kernel not in _KERNEL_SCALES:
        raise ValueError(f"kernel must be 'bumps' or 'ones', got {kernel!r}")

    r_val = young_functional(exps)
    if r_val < 0:
        raise PreconditionError(
            f"standing hypothesis violated: R(p) = {r_val} < 0"
        )
    recip = exps[case - 1].reciprocal()
    cap = recip if case == 1 else max(Fraction(1, 2), recip)
    if r_val > cap:
        raise PreconditionError(f"case {case} requires R(p) <= {cap}, got R(p) = {r_val}")

    try:
        r_exp = float("inf") if r_val == 0 else float(1 / r_val)
    except OverflowError:
        raise ValueError(
            f"the dual scale r = 1/R(p) = {1 / r_val} is beyond binary64"
        ) from None
    grid = grid or Grid(1, 16.0, 512)
    scale_list = list(_KERNEL_SCALES[kernel])
    # Two points run at once, unless the check has only one.  Beside its
    # buffers a point holds 176 bytes a grid point: the two sampled inputs
    # (complex, 32); for each of at most two maps the reversed, zero-padded
    # g of `_tf_rows` (real, 24) and the image (16); the kernel norm's
    # running column sums and their next sum (16); and the sampler's squared
    # distances, along both axes for each of its three bumps (48).  The maps
    # and the sampler go before the images are scaled and measured (24
    # more).  Its small objects (bumps, closures, slices, views) take at
    # most 8 KiB; its products are real, so numpy buffers float64 operands.
    point = _charge(_operator_point_buffers(grid), 176 * grid.n + 8192, np.float64)
    _refuse_above_cap(min(2, trials * len(scale_list)) * point)
    rng = _DefaultRng(seed)
    ax = grid.axis()
    p0c = exps[0].conjugate()

    def draw(k: int, dims: int) -> tuple:
        """k terms (amplitude, width, one center per dimension)."""
        amps = rng.uniform(0.5, 1.5, k)
        widths = rng.uniform(0.5, 2.0, k)
        centers = [rng.uniform(-2.0, 2.0, k) for _ in range(dims)]
        return tuple(zip(amps, widths, *centers))

    # Case 1 measures the kernel sup-in-x (mixed_norm_2d order 2), cases 2
    # and 3 sup-in-y (order 1).
    knorm_p, knorm_q = (math.inf, r_exp) if case == 1 else (r_exp, math.inf)
    # T_F(f, g), and T_{Theta F}(f, g) = T_F(g, f).
    swaps = {1: (False, True), 2: (False,), 3: (True,)}[case]

    def ratio(point, held) -> float:
        fsum, gsum, ksum, lam = point
        kernel_rows, product = held()
        fl = SampledFunction(grid, fsum.dilated(lam).sample(ax))
        gl = SampledFunction(grid, gsum.dilated(lam).sample(ax))
        if ksum is None:
            sample, live = None, slice(0, grid.n)
        else:
            sample, live = ksum.dilated(lam).sampler(ax, ax)
        # mixed_norm_2d and t_f of the kernel table, one block of its
        # rows at a time: every block serves the norm and each map.  The
        # rows outside ``live`` are +0, so their T_F rows are 0; the norm
        # takes them as zero rows.
        knorm = _MixedNorm(knorm_p, knorm_q, (grid.h, grid.h), p_inside=case != 1)
        maps = [_tf_rows(gl, fl) if swap else _tf_rows(fl, gl) for swap in swaps]
        images = [np.zeros(grid.n, dtype=np.complex128) for _ in maps]
        knorm.skip(live.start)
        for rows in _row_blocks(live.stop, len(kernel_rows), start=live.start):
            kblk = kernel_rows[: rows.stop - rows.start]
            if sample is None:
                kblk.fill(1.0)
            else:
                sample(rows, kblk, product)
            for rows_of, out in zip(maps, images):
                out[rows] = rows_of(kblk, rows, product[: len(kblk)])
            # The maps only read the block, and the norm takes it last and
            # consumes it: a sum of positive bumps (or 1.0) is its own magnitude.
            knorm.add(kblk)
        knorm.skip(grid.n - live.stop)
        # The maps' padded inputs and the sampler's squared distances go
        # before each image is scaled and measured, so the point holds no
        # more after its blocks than during them.
        del maps, sample
        denom = (
            knorm.value()
            * weighted_lebesgue_norm(fl, exps[1], 0)
            * weighted_lebesgue_norm(gl, exps[2], 0)
        )
        num = max(
            weighted_lebesgue_norm(SampledFunction(grid, out * grid.h), p0c, 0)
            for out in images
        )
        return num / denom

    def points():
        """Each trial's points, its bumps drawn when its first point is
        taken: the items are taken in order, so in the serial rng order."""
        for _ in range(trials):
            sums = (_GaussSum1d(draw(2, 1)), _GaussSum1d(draw(2, 1)))
            ksum = _GaussSum2d(draw(3, 2)) if kernel == "bumps" else None
            yield from ((*sums, ksum, lam) for lam in scale_list)

    flat = _two_at_a_time(ratio, points(), _operator_point_buffers(grid))
    ratios = np.reshape(flat, (trials, -1)).tolist()
    logs = np.log(scale_list)
    slopes = [float(np.polyfit(logs, np.log(r), 1)[0]) for r in ratios if logs.size > 1]

    max_ratio = max(flat)
    min_ratio = min(flat)
    spread = max_ratio / min_ratio
    slope_ok = all(abs(sl) <= slope_tol for sl in slopes) if slopes else True
    passed = slope_ok and spread <= spread_cap and math.isfinite(max_ratio)

    return PropReport(
        case=case,
        p=tuple(str(e) for e in exps),
        r=r_exp,
        kernel=kernel,
        scales=scale_list,
        ratios=ratios,
        slopes=slopes,
        max_ratio=max_ratio,
        min_ratio=min_ratio,
        spread=spread,
        passed=passed,
        notes="dilation leg skipped (kernel fixed)" if kernel == "ones" else "",
    )
