"""Sampled functions on centered grids, transforms, and weighted norms.

The numerics are one-dimensional (the exact layer in ``exponents`` covers
every dimension d).  The playing field is the interval [-L, L) sampled at
n equispaced points, x_k = (k - n/2) h with h = 2L/n.  The dual grid
carries frequencies xi_m = m pi / L for m in [-n/2, n/2), which is exactly
the layout produced by the shifted FFT below, so a transform of a sampled
function is again a sampled function on a grid of this class.

Conventions:

- Fourier transform is unitary with the (2 pi)^{-1/2} normalization, so a
  standard Gaussian is a fixed point and Parseval holds with constant one.
- Convolution is computed alias-free by zero-padding to 2n; for
  sequences supported on the grid the linear convolution has length 2n - 1,
  so the circular wrap never touches the retained window.  Mass leaking
  through the box edge is reported as a warning rather than an error,
  because the padding itself is exact.
- All quadrature is the rectangle rule, which is superalgebraically accurate
  for the smooth, rapidly decaying functions this module is pointed at.

Weighted norms use the japanese bracket <x> = sqrt(1 + |x|^2).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exponents import Exponent

__all__ = [
    "Grid",
    "SampledFunction",
    "SampledKernel2d",
    "StftTable",
    "GridMismatchError",
    "ResolutionError",
    "ResolutionWarning",
    "bracket",
    "weighted_lebesgue_norm",
    "fourier_transform",
    "inverse_fourier_transform",
    "fourier_lebesgue_norm",
    "convolve",
    "stft",
    "stft_magnitudes",
    "stft_magnitude_norms",
    "stft_table_norm",
    "modulation_norm",
    "mixed_norm_2d",
    "gaussian_resolution_guard",
]

TWO_PI = 2.0 * math.pi

EDGE_WARN_REL = 1e-10
# Largest |fhat| on the outermost frequency shell, relative to its peak,
# that a transform may keep before its dual box is said to truncate it.
BOUNDARY_TOL = 1e-6
# Largest edge value e^{-alpha L^2} a Gaussian may keep on a box of
# half-width L before the box is said to truncate it.
GAUSSIAN_EDGE_TOL = 1e-12
# Rows of a table that the streamed numerics hold at once.  Each block
# routine's buffer layout sets its block rows from it, and its loop reads
# them back from its buffers.
BLOCK_ROWS = 64
# Elements in each of numpy's ufunc buffers while a job of _two_at_a_time
# runs (the default is 8192).  numpy's buffered iterator copies a 2-D
# operand whose rows are much shorter than its buffer into the buffer
# before the loop runs: a 64-row broadcast add of 512-wide rows took
# 0.83 ns a point at 8192, 0.63 at 2048 and 0.24 at 1024 or less (x86-64,
# numpy 2.4).  The serial operator and modulation groups of the benchmark
# ran equally fast at 128-1024 and slower at 2048, so this is the largest
# size that keeps the 512-wide operator rows out of the buffer.
# Elementwise results do not depend on how the loop is split, so no bit
# moves.
UFUNC_BUFFER = 1024
# Most bytes the arrays of one numerical request may take at once: each
# routine refuses a larger request before it makes a grid-sized array.
MAX_TABLE_BYTES = 1 << 30


class GridMismatchError(ValueError):
    """Raised when an operation mixes functions on different grids."""


class ResolutionError(ValueError):
    """Raised when a grid demonstrably cannot resolve the requested data."""


class ResolutionWarning(UserWarning):
    """Emitted when samples near the box edge are large enough to matter."""


def _require_one_dimension(d: int) -> None:
    """The numerics are one-dimensional; the exact layer takes any d."""
    if d != 1:
        raise ValueError(f"the numerics are one-dimensional, got d = {d}")


@dataclass(frozen=True)
class Grid:
    """A centered grid on [-L, L) with n points.

    Grids are one-dimensional: ``d`` must be 1, and every numerical routine
    relies on it.  n must be a power of two (and at least 8) so the shifted
    FFT identities below are exact and refinement studies can halve h
    cleanly.
    """

    d: int = 1
    extent: float = 16.0
    n: int = 1024

    def __post_init__(self) -> None:
        _require_one_dimension(self.d)
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    @property
    def dual_spacing(self) -> float:
        return math.pi / self.extent

    def axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.h

    def dual_axis(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dual_spacing

    def dual(self) -> "Grid":
        """The frequency-side grid; dual of the dual is the original grid."""
        return Grid(self.d, math.pi * self.n / (2.0 * self.extent), self.n)


@dataclass
class SampledFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals


@dataclass
class SampledKernel2d:
    """A two-argument kernel F(x, y) sampled on grid x grid.

    Real tables stay float64 and complex ones complex128.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        vals = np.asarray(self.values, dtype=dtype)
        expected = self.grid.shape + self.grid.shape
        if vals.shape != expected:
            raise ValueError(
                f"kernel shape {vals.shape} does not match {expected}"
            )
        self.values = vals


@dataclass
class StftTable:
    """Short-time transform samples V(x_m, xi_k) on a strided x-lattice.

    ``values`` has shape (number of lattice points, number of columns); row
    m is the slice at x = x_positions[m], column k sits at xi[k].  A table
    from :func:`stft` holds complex V over the whole dual axis and has no
    ``multiplicity``.  A table from :func:`stft_magnitudes` holds |V| at
    xi >= 0 only, and column k stands for ``multiplicity[k]`` columns of
    the full table: itself and its mirror -xi.  A folded pass of
    :func:`stft_magnitude_norms` holds the rows x <= 0 only, and row m
    stands for ``row_multiplicity[m]`` rows: itself and its mirror -x.
    A pass builds its rows in blocks: its table has no ``values`` (None).
    """

    grid: Grid
    stride: int
    x_positions: np.ndarray
    values: np.ndarray
    xi: np.ndarray
    multiplicity: np.ndarray | None = None
    row_multiplicity: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def bracket(point) -> float:
    """<x> = sqrt(1 + |x|^2) for a scalar or a coordinate sequence."""
    arr = np.asarray(point, dtype=float)
    return float(np.sqrt(1.0 + np.sum(arr * arr)))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _exponent_value(p) -> float:
    """Normalize an exponent argument to a float in [1, inf]; a finite one
    beyond binary64 is a ValueError naming it."""
    try:
        val = float(Exponent.parse(p) if isinstance(p, str) else p)
    except OverflowError:
        raise ValueError(f"the exponent {p} is beyond binary64") from None
    if math.isnan(val) or val < 1.0:
        raise ValueError(f"norm exponent must lie in [1, oo], got {p!r}")
    return val


def _weight_value(t) -> float:
    """An exact weight as a float; one beyond binary64 is a ValueError naming it."""
    try:
        return float(t)
    except OverflowError:
        raise ValueError(f"the weight {t} is beyond binary64") from None


def _axis_power_norm(mag: np.ndarray, p: float, cell: float, axis) -> np.ndarray:
    """(sum mag^p cell)^{1/p} along the given axes, sup when p = inf.

    ``mag`` holds magnitudes, real and nonnegative, and is consumed: its
    powers are taken in place (``**=`` runs the same routine as ``**``)."""
    if math.isinf(p):
        return np.max(mag, axis=axis)
    mag **= p
    return (np.sum(mag, axis=axis) * cell) ** (1.0 / p)


def _row_blocks(count: int, size: int, start: int = 0):
    """Consecutive slices of ``size`` rows (the last may be shorter) that
    cover rows ``start`` .. count - 1, made one at a time."""
    for first in range(start, count, size):
        yield slice(first, min(first + size, count))


# A block routine declares the buffers it holds across its blocks as a
# list of (shape, dtype).  The same list allocates them and charges them
# against the memory cap, so the charge cannot drift from the layout.
def _allocate(layout: list) -> list[np.ndarray]:
    """One set of the buffers that ``layout`` declares."""
    return [np.empty(shape, dtype) for shape, dtype in layout]


def _refuse_above_cap(nbytes: int) -> None:
    """Refuse a request whose arrays held at once would take ``nbytes``."""
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"the tables held at once would take {nbytes} bytes, above the cap of "
            f"{MAX_TABLE_BYTES}; lower grid_n"
        )


def _charge(layout: list, point_bytes: int, ufunc_dtype) -> int:
    """The bytes of the buffers ``layout`` declares, of the n-point arrays
    beside them, and of numpy's buffers for three ``ufunc_dtype`` operands."""
    held = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout)
    return held + point_bytes + 3 * UFUNC_BUFFER * np.dtype(ufunc_dtype).itemsize


def _two_at_a_time(fn, items, layout: list) -> list:
    """``[fn(item, held) for item in items]`` on the calling thread and one
    helper thread, which overlap where numpy releases the GIL; ``held()``
    is the thread's set of the ``layout`` buffers, allocated on first use.

    Each thread takes the next item of the iterable ``items`` under a lock
    when it is free, so a long item holds back no other and an item is
    made only when it is taken.  No item is taken once one has failed.
    The items are taken in order, so every item before a failing one was
    taken and ran to its end: once the helper is joined, the first failing
    item raises its exception, as the serial loop does.  The helper runs in
    a copy of the caller's context, so numpy's error state holds on both.
    Each runs its items with ufunc buffers of UFUNC_BUFFER elements, and
    errstate gives the caller its own size back, also when an item raises."""
    results: dict[int, object] = {}
    failures: dict[int, Exception] = {}
    lock = threading.Lock()
    items, indices, done = iter(items), itertools.count(), object()

    def work() -> None:
        held = functools.cache(lambda: _allocate(layout))
        with np.errstate():
            np.setbufsize(UFUNC_BUFFER)
            while True:
                try:
                    with lock:
                        if failures:
                            return
                        i, item = next(indices), next(items, done)
                    if item is done:
                        return
                    results[i] = fn(item, held)
                except Exception as exc:  # raised again on the calling thread
                    with lock:
                        failures[i] = exc

    helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    helper.start()
    try:
        work()
    finally:
        helper.join()
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(results))]


class _MixedNorm:
    """L^p along axis 0 and L^q along axis 1 of a table of magnitudes that
    arrives in consecutive row blocks, with quadrature cells ``cells``; the
    L^p integral is inside when ``p_inside``, else the L^q one.

    The blocks give the bits of the whole table: every step works row by
    row except the L^p sum down the columns, and numpy sums axis 0 of a
    table with more than one column as a fold over the rows in order, so
    each block adds the running column sums into its first row (the sum
    that a fold over them in front of that row would form first).  A sup
    is a running maximum.
    """

    def __init__(self, p: float, q: float, cells: tuple[float, float], p_inside: bool):
        self.p, self.q, self.cells, self.p_inside = p, q, cells, p_inside
        self.columns = None  # running column sums of mag^p, or maxima
        self.rows: list[np.ndarray] = []  # L^q norm of each row

    def add(self, mag: np.ndarray) -> None:
        """Take in the next block, consuming ``mag``."""
        if not self.p_inside:
            self.rows.append(_axis_power_norm(mag, self.q, self.cells[1], axis=1))
        elif math.isinf(self.p):
            top = np.max(mag, axis=0)
            self.columns = top if self.columns is None else np.maximum(self.columns, top)
        else:
            mag **= self.p
            if self.columns is not None:
                mag[0] += self.columns
            self.columns = np.sum(mag, axis=0)

    def skip(self, count: int) -> None:
        """Take in ``count`` rows of zeros.  A zero row's L^q norm is +0, and
        adding +0 to a column sum or maximum of magnitudes moves no bit, so
        only the row norms take them: the final sum keeps its length."""
        if count and not self.p_inside:
            self.rows.append(np.zeros(count))

    def value(self) -> float:
        """The norm of the blocks taken in; it may consume the running sums,
        so it is read once."""
        if not self.p_inside:
            inner = np.concatenate(self.rows)
            return float(_axis_power_norm(inner, self.p, self.cells[0], axis=None))
        inner = self.columns
        if not math.isinf(self.p):
            inner = (inner * self.cells[0]) ** (1.0 / self.p)
        return float(_axis_power_norm(inner, self.q, self.cells[1], axis=None))


class _WeightedNorms:
    """|| f <.>^t ||_{L^p} for functions on one grid, as
    :func:`weighted_lebesgue_norm` computes it, with each weight <x>^t
    computed once for the life of the memo.  A memo lives for one call: a
    ladder or probe makes one for its points and drops it when it returns,
    and it holds 8 bytes a grid point for each distinct nonzero weight."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.weights: dict[float, np.ndarray] = {}

    def __call__(self, f: SampledFunction, p, t) -> float:
        if f.grid != self.grid:
            raise GridMismatchError(
                "weighted_lebesgue_norm: the function is not on the memo's grid"
            )
        weight = _weight_value(t)
        mag = np.abs(f.values)
        if weight != 0.0:  # the weight <x>^0 is 1.0 exactly, and x * 1.0 is x
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                if weight not in self.weights:  # sqrt(1 + x^2) ** weight, in one array
                    w = self.weights[weight] = self.grid.axis()
                    w *= w
                    w += 1.0
                    np.sqrt(w, out=w)
                    w **= weight
                mag *= self.weights[weight]
        if not np.all(np.isfinite(mag)):
            if not np.all(np.isfinite(f.values)):
                raise ValueError("weighted_lebesgue_norm: non-finite samples")
            reach = float(np.max(np.abs(self.grid.axis())))
            raise ResolutionError(
                f"weighted_lebesgue_norm: |f| <x>^{t} overflows binary64 on the "
                f"grid (|x| up to {reach:g}); the weight exponent is too large "
                "for this box"
            )
        return float(_axis_power_norm(mag, _exponent_value(p), self.grid.h, axis=None))


def weighted_lebesgue_norm(f: SampledFunction, p, t) -> float:
    """|| f <.>^t ||_{L^p} by the rectangle rule; sup norm when p = inf.

    Non-finite samples are rejected: a NaN anywhere would otherwise
    propagate into every norm silently.  So is a weight that overflows
    binary64 on the grid (where it meets a sample that underflowed to
    zero, the weighted magnitude is inf * 0 = NaN); that is a
    ResolutionError.
    """
    return _WeightedNorms(f.grid)(f, p, t)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def fourier_transform(f: SampledFunction) -> SampledFunction:
    """Unitary transform of a sampled function, returned on the dual grid.

    For n divisible by four the shift sandwich reproduces the centered
    transform sum exactly, so e^{-|x|^2/2} maps to e^{-|xi|^2/2} to machine
    precision on an adequate grid.

    The outermost frequency shell is checked: if the transform has not
    decayed below BOUNDARY_TOL times its peak there, the dual grid is
    declared under-resolved and a ResolutionError is raised.
    """
    g = f.grid
    vals = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f.values)))
    vals *= g.h * TWO_PI ** -0.5
    peak = float(np.max(np.abs(vals)))
    shell = _boundary_shell_max(vals)
    if peak > 0.0 and shell > BOUNDARY_TOL * peak:
        raise ResolutionError(
            "fourier_transform: |fhat| at the boundary of the dual box "
            f"is {shell:.3e} against peak {peak:.3e}; refine the grid "
            "(smaller h widens the dual box)"
        )
    return SampledFunction(g.dual(), vals)


def _boundary_shell_max(vals: np.ndarray) -> float:
    return float(max(abs(vals[0]), abs(vals[-1])))


def inverse_fourier_transform(fhat: SampledFunction) -> SampledFunction:
    """Inverse of :func:`fourier_transform`; the round trip is exact."""
    g = fhat.grid
    target = g.dual()
    vals = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(fhat.values)))
    vals *= g.n * g.h * TWO_PI ** -0.5
    return SampledFunction(target, vals)


def fourier_lebesgue_norm(f: SampledFunction, q, s) -> float:
    """|| fhat <.>^s ||_{L^q} on the dual grid."""
    return weighted_lebesgue_norm(fourier_transform(f), q, s)


def _warn_if_edge_heavy(f: SampledFunction, label: str) -> None:
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return
    edge = _boundary_shell_max(f.values)
    if edge > EDGE_WARN_REL * peak:
        warnings.warn(
            f"convolve: {label} has relative edge mass {edge / peak:.3e}; "
            "the result is the convolution of the truncated data",
            ResolutionWarning,
            stacklevel=4,  # the caller of convolve
        )


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """(f * g)(x) = int f(y) g(x - y) dy on the common grid.

    Zero-pads to 2n, so the circular product equals the linear
    convolution of the sampled sequences exactly; the only quadrature error
    is the rectangle rule itself.  When ``g`` is ``f`` its padded spectrum
    is computed once and squared.
    """
    return _convolve_taking([f, g])


def _convolve_taking(factors: list) -> SampledFunction:
    """:func:`convolve` of the two functions in ``factors``, emptying the
    list: each factor is let go once it is transformed, so when the caller
    holds no other reference to it, its samples are freed before the next
    2n-point array is made."""
    f, g = factors
    if f.grid != g.grid:
        raise GridMismatchError("convolve: operands live on different grids")
    grid = f.grid
    _warn_if_edge_heavy(f, "first factor")
    _warn_if_edge_heavy(g, "second factor")
    same = g is f
    del f, g
    n = grid.n
    spec = np.fft.fft(factors.pop(0).values, n=2 * n)
    if same:  # one transform, squared
        factors.clear()
        spec *= spec
    else:
        spec *= np.fft.fft(factors.pop().values, n=2 * n)
    vals = np.fft.ifft(spec)[n // 2 : n // 2 + n] * grid.h
    return SampledFunction(grid, vals)


# ---------------------------------------------------------------------------
# Short-time transform and modulation-type norms
# ---------------------------------------------------------------------------

def _check_stft_inputs(f: SampledFunction, window: SampledFunction, stride: int) -> None:
    if f.grid != window.grid:
        raise GridMismatchError("stft: function and window on different grids")
    n = f.grid.n
    if stride < 1 or n % stride != 0:
        raise ValueError(f"stride must be a positive divisor of n, got {stride}")
    if not np.any(np.abs(window.values) > 0.0):
        raise ValueError("stft: window is identically zero")


def _window_lattice(wv: np.ndarray, stride: int, padded: np.ndarray | None = None) -> np.ndarray:
    """Row m: the window samples ``wv`` shifted to lattice index m * stride,
    zero off the grid; every row is one strided view of a zero-padded copy,
    built once for all the blocks of a table in ``padded`` (2n samples of
    the window's dtype; fresh when None)."""
    n = wv.size
    half = n // 2
    if padded is None:
        padded = np.empty(2 * n, dtype=wv.dtype)
    padded[:half] = 0.0
    padded[half : half + n] = wv
    padded[half + n :] = 0.0
    # Row m is padded[n - m * stride :][:n].
    return sliding_window_view(padded, n)[n:0:-stride]


def _window_rows(
    fv: np.ndarray,
    windows: np.ndarray,
    rows: slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rows y -> fv(y) w(y - x_m) for the lattice rows ``rows`` of the
    :func:`_window_lattice` ``windows``, in FFT input order (the centering
    shift is two half-slice products), written into ``out`` when it is
    given."""
    half = fv.size // 2
    shifted = windows[rows]
    if out is None:
        out = np.empty(shifted.shape, dtype=np.result_type(fv, shifted))
    np.multiply(fv[half:], shifted[:, half:], out=out[:, :half])
    np.multiply(fv[:half], shifted[:, :half], out=out[:, half:])
    return out


def _stft_rows(
    f: SampledFunction,
    windows: np.ndarray,
    rows: slice = slice(None),
    work: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The lattice rows ``rows`` of the :func:`stft` table of f against the
    window whose conjugated samples make the :func:`_window_lattice`
    ``windows``: the rows are built and transformed in ``work``, and the
    centering shift writes them, scaled, to ``out`` (each a fresh array
    when None)."""
    work = _window_rows(f.values, windows, rows, out=work)
    if out is None:
        out = np.empty_like(work)
    half = f.grid.n // 2
    scale = f.grid.h * (TWO_PI ** -0.5)
    np.fft.fft(work, axis=1, out=work)
    np.multiply(work[:, half:], scale, out=out[:, :half])
    np.multiply(work[:, :half], scale, out=out[:, half:])
    return out


def _flat_rows(buffer: np.ndarray, count: int, width: int, offset: int = 0) -> np.ndarray:
    """A C-contiguous (count, width) array in the memory of ``buffer`` from
    element ``offset`` on."""
    return buffer.reshape(-1)[offset : offset + count * width].reshape(count, width)


def stft(f: SampledFunction, window: SampledFunction, stride: int = 1) -> StftTable:
    """V(x, xi) = transform of y -> f(y) conj(window(y - x)) at lattice x.

    The window is shifted by whole samples (x runs over every stride-th grid
    point), so no interpolation enters.  Each row is transformed on its
    own, so a block of rows from :func:`_stft_rows` has the bits of the same
    rows of the whole table.

    The rows are multiplied straight into the FFT input order and the
    output centering shift is two half-slice copies.  ``tests/oracles.py``
    keeps the row-by-row coding with explicit shifts, and the tests require
    equal bits.
    """
    _check_stft_inputs(f, window, stride)
    # The complex rows, transformed in place, and the table they are
    # shifted into: 32 bytes an entry; the conjugated and the padded
    # window and the two axes: 64 bytes a grid point; and numpy's buffers
    # for three complex operands at the caller's size (0.27 MB at 8192).
    n = f.grid.n
    _refuse_above_cap(32 * (n // stride) * n + 64 * n + 48 * np.getbufsize())
    return StftTable(
        grid=f.grid,
        stride=stride,
        x_positions=f.grid.axis()[::stride],
        values=_stft_rows(f, _window_lattice(np.conj(window.values), stride)),
        xi=f.grid.dual_axis(),
    )


def stft_magnitudes(f: SampledFunction, window: SampledFunction, stride: int = 1) -> StftTable:
    """|V(x, xi)| of a real function against a real window, at xi >= 0.

    For real f and window V(x, -xi) is the conjugate of V(x, xi), so the
    columns xi = k pi / L, k = 0 .. n/2, carry every magnitude of the
    :func:`stft` table: column k counts twice for 0 < k < n/2, and once at
    k = 0 and at k = n/2 (the full table's column -n/2).  The rows are
    float64, one real FFT each, and magnitudes are taken once.
    """
    fr, wr = _real_stft_inputs(f, window, stride)
    # The float64 rows beside their half-width complex spectra, the padded
    # window (16 bytes a grid point) and numpy's buffers for three float64
    # operands at the caller's size.
    n = f.grid.n
    rows = (n // stride) * (8 * n + 16 * (n // 2 + 1))
    _refuse_above_cap(rows + 16 * n + 24 * np.getbufsize())
    table = np.abs(np.fft.rfft(_window_rows(fr, _window_lattice(wr, stride)), axis=1))
    table *= f.grid.h * (TWO_PI ** -0.5)
    return _magnitude_table(f.grid, stride, table)


def _real_stft_inputs(
    f: SampledFunction, window: SampledFunction, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """The checked real samples of f and the window for a magnitude table."""
    _check_stft_inputs(f, window, stride)
    if np.any(f.values.imag != 0.0) or np.any(window.values.imag != 0.0):
        raise ValueError("stft_magnitudes: function and window must be real")
    return f.values.real, window.values.real


def _magnitude_table(grid: Grid, stride: int, values: np.ndarray | None = None) -> StftTable:
    """A magnitude table of ``values`` on the columns xi = k pi / L,
    k = 0 .. n/2, with how many columns of the full table each stands for."""
    half = grid.n // 2
    multiplicity = np.full(half + 1, 2.0)
    multiplicity[[0, half]] = 1.0
    xi = np.arange(half + 1) * grid.dual_spacing
    return StftTable(grid, stride, grid.axis()[::stride], values, xi, multiplicity)


def _norm_tuples(norms, space: str) -> list[tuple[float, float, float, float]]:
    """The checked (p, q, s, t) of ``norms`` as floats."""
    if space not in ("M", "W"):
        raise ValueError(f"space must be 'M' or 'W', got {space!r}")
    return [
        (_exponent_value(p), _exponent_value(q), _weight_value(s), _weight_value(t))
        for p, q, s, t in norms
    ]


def _axis_weight(
    positions: np.ndarray, weight: float, multiplicity: np.ndarray | None, r: float
) -> np.ndarray | None:
    """<.>^weight at ``positions``, times multiplicity^{1/r} when the
    positions stand for several rows or columns of the full table and r is
    finite; None for the weight 1.  A zero exponent gives the weight 1.0
    exactly, and x * 1.0 is x."""
    out = (1.0 + positions ** 2) ** (weight / 2.0) if weight != 0.0 else None
    if multiplicity is not None and not math.isinf(r):
        folded = multiplicity ** (1.0 / r)
        out = folded if out is None else out * folded
    return out


def _weighted_magnitudes(
    values: np.ndarray,
    row: np.ndarray | None,
    column: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """|V| of a block of table rows ``values`` times the row weight ``row``
    and the column weight ``column`` (a weight of None is 1), in ``out`` or
    a fresh array: never in ``values``, since one table serves several
    norms, so the norm may overwrite it."""
    a = np.abs(values, out=out) if np.iscomplexobj(values) else values
    for weight in (None if row is None else row[:, None], column):
        if weight is not None:
            a = np.multiply(a, weight, out=out if a is values else a)
    return np.positive(a, out=out) if a is values else a


def _table_norms(frame: StftTable, norms, space: str, blocks=None, scratch=None) -> list[float]:
    """The :func:`stft_table_norm` of each (p, q, s, t) of the
    :func:`_norm_tuples` ``norms`` over a table on the axes of ``frame``:
    ``frame.values``, or, when given, the consecutive row blocks that
    ``blocks`` yields as (rows, values), ``rows`` a slice of the frame's
    rows.  Each norm's row and column weights are computed once, and its
    weighted copy of a block is written into the memory of the float64
    array ``scratch`` when it is given."""
    cells = (frame.grid.h * frame.stride, frame.grid.dual_spacing)
    parts = [
        (
            _MixedNorm(p, q, cells, space == "M"),
            _axis_weight(frame.x_positions, t, frame.row_multiplicity, p),
            _axis_weight(frame.xi, s, frame.multiplicity, q),
        )
        for p, q, s, t in norms
    ]
    for rows, values in [(slice(None), frame.values)] if blocks is None else blocks:
        out = None if scratch is None else _flat_rows(scratch, *values.shape)
        for norm, row, column in parts:
            # A fresh weighted copy is freed when add returns.
            norm.add(_weighted_magnitudes(values, None if row is None else row[rows], column, out))
    return [norm.value() for norm, *_ in parts]


def stft_table_norm(table: StftTable, p, q, s, t, *, space: str = "M") -> float:
    """Weighted modulation-type norm of a short-time table.

    With A(x, xi) = |V(x, xi)| <x>^t <xi>^s:

    - space "M": inner L^p in x, outer L^q in xi;
    - space "W": inner L^q in xi, outer L^p in x.

    Quadrature cells are stride h in x and pi / L in xi.  A column that
    stands for m columns of the full table is weighted m^{1/q} (1 when
    q = inf): the inner L^p norm is homogeneous, so in both spaces this
    adds m times the column's q-th power to the L^q sum.  A row that
    stands for m rows is weighted m^{1/p} in the same way.
    """
    return _table_norms(table, _norm_tuples([(p, q, s, t)], space), space)[0]


def _norm_pass_buffers(grid: Grid, stride: int) -> list:
    """A norm pass holds one block of BLOCK_ROWS lattice rows (all, when
    fewer): its float64 rows and half-width spectra; and the padded window."""
    rows = min(BLOCK_ROWS, grid.n // max(stride, 1))
    return [
        ((rows, grid.n), np.float64),
        ((rows, grid.n // 2 + 1), np.complex128),
        ((2 * grid.n,), np.float64),
    ]


def stft_magnitude_norms(
    f: SampledFunction,
    window: SampledFunction,
    stride: int,
    norms,
    *,
    space: str = "M",
) -> list[float]:
    """The :func:`stft_table_norm` of ``stft_magnitudes(f, window, stride)``
    for each (p, q, s, t) of ``norms``, and never the whole table: its rows
    are built BLOCK_ROWS at a time, and every norm reads each block once.

    When the samples of f and of the window are both even about x = 0
    (v[k] == v[n - k] for k >= 1) and the lattice has an even number of
    rows, more than two, the rows x > 0 are not built: row -x has their
    magnitudes but
    for the two samples that have no mirror on the grid, and it is
    weighted 2^{1/p} in their place (see :func:`_mirror_error`).  Such a
    fold moves a norm at rounding level; it is taken only when the bound
    on what those samples can move every norm is at most FOLD_TOL of it.
    Any other pass has the bits of the whole table.

    One set of its :func:`_norm_pass_buffers` serves every block: the
    magnitudes go into the spent rows, and each norm's weighted copy and
    its powers into the spent spectra.
    """
    buffers = _allocate(_norm_pass_buffers(f.grid, stride))
    return _stft_magnitude_norms(f, window, stride, norms, space, buffers)


# Largest bound on the move of a norm by a row fold, relative to the norm,
# at which stft_magnitude_norms takes the fold: one ulp, below what the
# fold's other order of summation moves a norm by itself.
FOLD_TOL = 2.0 ** -52


def _even(v: np.ndarray) -> bool:
    """v[k] == v[n - k] for k = 1 .. n - 1: samples even about x = 0 (the
    sample at x = -L has no mirror on the grid)."""
    return bool(np.array_equal(v[1:], v[:0:-1]))


def _mirror_error(fr: np.ndarray, wr: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """For even samples fr and wr, a bound on ||V(x, xi)| - |V(-x, xi)||
    over xi at each lattice point x = a h, 0 < a < n/2, of ``offsets``
    (before the factor h (2 pi)^{-1/2}).

    Row x of the table, reversed about y = 0 (which conjugates its
    spectrum), is row -x with two terms changed: it lacks f(-L) w(x - L)
    at y = -L, whose mirror y = L is off the grid, and it has
    f(L - x) w(-L) at y = L - x, where row -x reads the window off the
    grid.  Each term moves every bin of the spectrum by its modulus."""
    n = fr.size
    return abs(fr[0]) * np.abs(wr[offsets]) + np.abs(fr[n - offsets]) * abs(wr[0])


def _fold_bound(error, x, xi, multiplicity, norm, cells) -> float:
    """The norm (p, q, s, t) of the table that is ``error`` on the rows at
    ``x`` and in every column, zero elsewhere: by the triangle inequality
    it bounds how far replacing those rows by their mirrors moves the
    norm.  The table is separable, so in either space its norm is the
    product of a row norm and a column norm."""
    p, q, s, t = norm
    row = _axis_weight(x, t, None, p)
    column = _axis_weight(xi, s, multiplicity, q)
    # The norm consumes a fresh product: ``error`` serves every norm.
    rows = _axis_power_norm(error * (1.0 if row is None else row), p, cells[0], None)
    columns = _axis_power_norm(np.ones_like(xi) if column is None else column, q, cells[1], None)
    return float(rows * columns)


def _stft_magnitude_norms(f, window, stride: int, norms, space: str, buffers) -> list[float]:
    """:func:`stft_magnitude_norms` in a set of its :func:`_norm_pass_buffers`."""
    fr, wr = _real_stft_inputs(f, window, stride)
    norms = _norm_tuples(norms, space)
    grid = f.grid
    n = grid.n
    rows_buffer, spectra_buffer, padded = buffers
    scale = grid.h * (TWO_PI ** -0.5)
    windows = _window_lattice(wr, stride, padded)
    whole = _magnitude_table(grid, stride)
    x = whole.x_positions

    def tables(count: int):
        for rows in _row_blocks(count, len(rows_buffer)):
            k = rows.stop - rows.start
            spectra = np.fft.rfft(
                _window_rows(fr, windows, rows, out=rows_buffer[:k]),
                axis=1,
                out=spectra_buffer[:k],
            )
            table = np.abs(spectra, out=_flat_rows(rows_buffer, k, n // 2 + 1))
            table *= scale
            yield rows, table

    scratch = spectra_buffer.view(np.float64)
    half = x.size // 2
    if x.size % 2 == 0 and x.size > 2 and _even(fr) and _even(wr):
        # Rows x = -L .. 0; every row between stands for itself and -x.
        row_multiplicity = np.full(half + 1, 2.0)
        row_multiplicity[[0, half]] = 1.0
        folded = replace(whole, x_positions=x[: half + 1], row_multiplicity=row_multiplicity)
        values = _table_norms(folded, norms, space, tables(half + 1), scratch)
        # Rows 1 .. half - 1 stand in for their mirrors x = a h > 0.
        error = _mirror_error(fr, wr, n // 2 - stride * np.arange(1, half)) * scale
        cells = (grid.h * stride, grid.dual_spacing)
        if all(
            _fold_bound(error, x[1:half], whole.xi, whole.multiplicity, norm, cells)
            <= FOLD_TOL * value
            for value, norm in zip(values, norms)
        ):
            return values
    return _table_norms(whole, norms, space, tables(x.size), scratch)


def _xi_convolve_rows(
    a: np.ndarray,
    b: np.ndarray,
    dxi: float,
    spec: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise convolution along the dual axis, centered layout, exact pad.

    When ``b`` is ``a`` its padded spectrum is computed once and squared.
    The padded spectrum is built in ``spec`` (rows x 2n) and the result
    written to ``out`` (rows x n, which may be ``a``; fresh when None).
    """
    n = a.shape[1]
    spec[:, :n] = a
    spec[:, n:] = 0.0
    np.fft.fft(spec, axis=1, out=spec)
    if b is a:
        spec *= spec
    else:
        spec *= np.fft.fft(b, n=2 * n, axis=1)
    np.fft.ifft(spec, axis=1, out=spec)
    return np.multiply(spec[:, n // 2 : n // 2 + n], dxi, out=out)


def _identity_buffers(grid: Grid, stride: int) -> list:
    """The identity holds a block of half as many lattice rows as a pass:
    its 2n-wide padded spectrum and factor table; and two padded windows."""
    rows = min(max(1, BLOCK_ROWS // 2), grid.n // max(stride, 1))
    return [
        ((rows, 2 * grid.n), np.complex128),
        ((rows, grid.n), np.complex128),
        ((2 * grid.n,), np.complex128),
        ((2 * grid.n,), np.complex128),
    ]


def _identity_charge(grid: Grid, stride: int) -> int:
    """Beside its buffers the identity holds 88 bytes a grid point (f, f1 f2,
    the two windows and a conjugate, complex, 16 each, and the positions,
    8) and at most 8 KiB of Python objects."""
    return _charge(_identity_buffers(grid, stride), 88 * grid.n + 8192, np.complex128)


def _stft_product_identity_error(
    f1: SampledFunction, f2: SampledFunction, stride: int
) -> float:
    """Relative sup error in the short-time product identity.

    With windows phi1 = phi2 = e^{-|y|^2/4} and phi = phi1 phi2, the table
    of f1 f2 under phi equals (2 pi)^{-1/2} times the row-wise dual-axis
    convolution of the tables of f1 and f2.

    Every row of the identity stands alone, so the tables are built a
    block of :func:`_identity_buffers` rows at a time and the sup norms are
    running maxima: the error has the bits of the whole-table error.
    One set of those buffers serves every block.  Passing the same object
    as f1 and f2 builds their table once; a distinct f2 takes a fresh
    table and padded spectrum per block.
    """
    grid = f1.grid
    n = grid.n
    x = grid.axis()
    phi = SampledFunction(grid, np.exp(-x * x / 2.0))
    phi_half = SampledFunction(grid, np.exp(-x * x / 4.0))
    for f in (f1, f2):
        _check_stft_inputs(f, phi_half, stride)
    product = SampledFunction(grid, f1.values * f2.values)
    spec, table, phi_padded, half_padded = _allocate(_identity_buffers(grid, stride))
    phi_rows = _window_lattice(np.conj(phi.values), stride, phi_padded)
    half_rows = _window_lattice(np.conj(phi_half.values), stride, half_padded)
    # np.maximum, unlike max(), keeps a NaN.
    lhs_sup = err_sup = rhs_sup = np.float64(0.0)
    for rows in _row_blocks(n // stride, len(spec)):
        count = rows.stop - rows.start
        padded = spec[:count]
        # The factor rows and then the left side's rows are transformed in
        # the first half of the padded spectrum, the right side is written
        # over the factor table, the left side into the padded spectrum's
        # second half, and the magnitudes into its spent first quarter.
        work = _flat_rows(padded, count, n)
        out = _flat_rows(padded.view(np.float64), count, n)
        v1 = _stft_rows(f1, half_rows, rows, work, table[:count])
        v2 = v1 if f2 is f1 else _stft_rows(f2, half_rows, rows)
        rhs = _xi_convolve_rows(v1, v2, grid.dual_spacing, padded, out=v1)
        del v2
        rhs *= TWO_PI ** -0.5
        rhs_sup = np.maximum(rhs_sup, np.max(np.abs(rhs, out=out)))
        lhs = _stft_rows(
            product, phi_rows, rows, work, _flat_rows(padded, count, n, count * n)
        )
        lhs_sup = np.maximum(lhs_sup, np.max(np.abs(lhs, out=out)))
        err_sup = np.maximum(err_sup, np.max(np.abs(np.subtract(lhs, rhs, out=rhs), out=out)))
    if lhs_sup == 0.0:
        return float(rhs_sup)
    return float(err_sup) / float(lhs_sup)


def modulation_norm(
    f: SampledFunction,
    window: SampledFunction,
    p,
    q,
    s,
    t,
    *,
    space: str = "M",
    stride: int = 1,
) -> float:
    """Weighted modulation-type norm computed through the short-time table.

    The norm of ``stft(f, window, stride)`` as :func:`stft_table_norm`
    defines it.  The table is the most this holds at once (its magnitudes
    come after the transformed rows go), so stft's refusal is its own.
    """
    return stft_table_norm(stft(f, window, stride), p, q, s, t, space=space)


def mixed_norm_2d(kernel: SampledKernel2d, p, q, order: int) -> float:
    """Mixed norm of a two-argument kernel.

    order 1: inner L^p in the first argument, outer L^q in the second.
    order 2: inner L^q in the second argument, outer L^p in the first.

    In both orders p stays attached to the first argument and q to the
    second; ``order`` only chooses which integral is inside.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    # The magnitudes, the running sums or row norms and their next value
    # (16 bytes a grid point), and at most 8 KiB of Python objects.
    _refuse_above_cap(8 * kernel.values.size + 16 * kernel.grid.n + 8192)
    cell = kernel.grid.h
    norm = _MixedNorm(
        _exponent_value(p), _exponent_value(q), (cell, cell), p_inside=order == 1
    )
    norm.add(np.abs(kernel.values))
    return norm.value()


def gaussian_resolution_guard(grid: Grid, alpha: float) -> None:
    """Refuse a grid whose box visibly truncates e^{-alpha |x|^2}.

    The edge value e^{-alpha L^2} must sit below GAUSSIAN_EDGE_TOL; probes
    call this before trusting any ladder point.
    """
    a = float(alpha)
    if a <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    edge = math.exp(-a * grid.extent ** 2)
    if edge >= GAUSSIAN_EDGE_TOL:
        raise ResolutionError(
            f"grid extent {grid.extent} truncates e^(-{a} x^2) at relative "
            f"level {edge:.3e} (tolerance {GAUSSIAN_EDGE_TOL:.1e}); enlarge the box"
        )
