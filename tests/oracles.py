"""Independent reference computations the test suite checks against.

Everything in this module is deliberately slow and dumb: nested loops,
direct O(n^2) sums, high-resolution trapezoid quadrature, a second coding
of the exact threshold functionals.  None of it imports the package, so
agreement between these references and the fast implementations is
evidence, not circularity.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Continuum norms by quadrature
# ---------------------------------------------------------------------------

def trapezoid_weighted_norm(func, p, t, lo=-60.0, hi=60.0, n=240001):
    """(integral of |func|^p <x>^{tp})^{1/p} by trapezoid rule; sup at p = inf.

    The rule differs from the package's rectangle rule, so matching values
    are a genuine cross-check rather than the same sum twice.
    """
    xs = np.linspace(lo, hi, n)
    mag = np.abs(func(xs)) * (1.0 + xs * xs) ** (float(t) / 2.0)
    if math.isinf(p):
        return float(np.max(mag))
    return float(np.trapezoid(mag ** float(p), xs) ** (1.0 / float(p)))


def gaussian_lp_norm(alpha, p, d=1):
    """Closed form || e^{-alpha |x|^2} ||_{L^p(R^d)} = (pi/(p alpha))^{d/(2p)}."""
    return (math.pi / (p * alpha)) ** (d / (2.0 * p))


# ---------------------------------------------------------------------------
# Direct grid sums (quadratic cost, no FFT anywhere)
# ---------------------------------------------------------------------------

def loop_weighted_norm(vals, h, axis_vals, p, t):
    """Rectangle-rule weighted norm as an explicit python loop."""
    total = 0.0
    best = 0.0
    for v, x in zip(vals, axis_vals):
        m = abs(v) * (1.0 + x * x) ** (float(t) / 2.0)
        best = max(best, m)
        if not math.isinf(p):
            total += m ** float(p)
    if math.isinf(p):
        return best
    return (total * h) ** (1.0 / float(p))


def direct_convolution(fvals, gvals, h):
    """(f * g)[i] = h * sum_j f[j] g[i - j + n/2] with zero fill outside."""
    n = len(fvals)
    out = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            k = i - j + n // 2
            if 0 <= k < n:
                acc += fvals[j] * gvals[k]
        out[i] = acc * h
    return out


def direct_dft_centered(vals, h, extent):
    """fhat[m] = h (2 pi)^{-1/2} sum_j f(x_j) e^{-i xi_m x_j} on centered axes."""
    n = len(vals)
    xs = (np.arange(n) - n // 2) * h
    xis = (np.arange(n) - n // 2) * (math.pi / extent)
    out = np.empty(n, dtype=np.complex128)
    for m in range(n):
        out[m] = np.sum(vals * np.exp(-1j * xis[m] * xs))
    return out * h / math.sqrt(TWO_PI)


def direct_bilinear_tf(kernel_matrix, fvals, gvals, h):
    """T_F(f, g)(x_i) = h * sum_j F[i, j] f[j] g[i - j + n/2], zero outside."""
    n = len(fvals)
    out = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            k = i - j + n // 2
            if 0 <= k < n:
                acc += kernel_matrix[i, j] * fvals[j] * gvals[k]
        out[i] = acc * h
    return out


def direct_stft_point(fvals, wvals, h, extent, shift_index, freq_index):
    """One sample of the short-time transform by direct summation.

    The window is translated by shift_index - n/2 whole samples with zero
    fill, matching the lattice convention x = axis()[shift_index].
    """
    n = len(fvals)
    shift = shift_index - n // 2
    shifted = np.zeros(n, dtype=np.complex128)
    if shift >= 0:
        if shift < n:
            shifted[shift:] = np.conj(wvals[: n - shift])
    else:
        if -shift < n:
            shifted[:shift] = np.conj(wvals[-shift:])
    xs = (np.arange(n) - n // 2) * h
    xi = (freq_index - n // 2) * (math.pi / extent)
    return np.sum(fvals * shifted * np.exp(-1j * xi * xs)) * h / math.sqrt(TWO_PI)


# ---------------------------------------------------------------------------
# Loop codings of the vectorized fast paths (bitwise references)
#
# These repeat, operation for operation, the arithmetic of the fast paths in
# the package, one row or one term at a time.  Same operations in the same
# order give the same bits, so the tests compare with np.array_equal.
# ---------------------------------------------------------------------------

def loop_stft_table(fvals, wvals, h, stride):
    """Short-time table row by row: shifted conjugate window, explicit
    ifftshift / fft / fftshift, then the h (2 pi)^{-1/2} scale.

    Row m holds the window translated by m * stride - n/2 samples with zero
    fill, the lattice convention x = axis()[m * stride].
    """
    n = len(fvals)
    wconj = np.conj(np.asarray(wvals, dtype=np.complex128))
    fvals = np.asarray(fvals, dtype=np.complex128)
    lattice = range(0, n, stride)
    rows = np.empty((len(lattice), n), dtype=np.complex128)
    for row, idx in enumerate(lattice):
        shift = idx - n // 2
        shifted = np.zeros(n, dtype=np.complex128)
        if shift >= 0:
            shifted[shift:] = wconj[: n - shift]
        else:
            shifted[:shift] = wconj[-shift:]
        rows[row] = fvals * shifted
    spectra = np.fft.fft(np.fft.ifftshift(rows, axes=1), axis=1)
    return np.fft.fftshift(spectra, axes=1) * (h * TWO_PI ** -0.5)


def whole_table_identity_error(f1vals, f2vals, h, extent, stride):
    """Relative sup error of the short-time product identity on whole tables.

    The left side is the table of f1 f2 under phi = e^{-x^2/2}; the right
    side convolves the tables of f1 and f2 under e^{-x^2/4} along xi (every
    row at once, zero-padded to 2n, dual cell pi / extent) and scales by
    (2 pi)^{-1/2}.  Both sup norms run over the whole table.
    """
    n = len(f1vals)
    x = (np.arange(n) - n // 2) * h
    lhs = loop_stft_table(f1vals * f2vals, np.exp(-x * x / 2.0), h, stride)
    phi_half = np.exp(-x * x / 4.0)
    v1 = loop_stft_table(f1vals, phi_half, h, stride)
    v2 = loop_stft_table(f2vals, phi_half, h, stride)
    spec = np.fft.fft(v1, n=2 * n, axis=1) * np.fft.fft(v2, n=2 * n, axis=1)
    rhs = np.fft.ifft(spec, axis=1)[:, n // 2 : n // 2 + n] * (math.pi / extent)
    rhs *= TWO_PI ** -0.5
    scale = float(np.max(np.abs(lhs)))
    if scale == 0.0:
        return float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs))) / scale


# ---------------------------------------------------------------------------
# Closed forms of the Gaussian short-time norms
# ---------------------------------------------------------------------------

# Relative floor of the comparison with the grid: rounding, and the
# rectangle rule's own error on lattices of step at most 0.1875, where the
# branch points of <x>^{tr} at +-i put it near e^{-2 pi / 0.1875} = 3e-15.
GAUSSIAN_STFT_FLOOR = 1e-12


def _bracket_gaussian_integral(a, r, w, lo=0.0):
    """The integral of (e^{-a x^2} <x>^w)^r over |x| >= lo, by a dense
    trapezoid after the substitution u = x sqrt(r a), with step
    min(0.002, sqrt(r a) / 20) out to |u| = 10 (where e^{-u^2} is 4e-44).
    Not Gauss-Hermite: <x>^{wr} has branch points at x = +-i, which come
    close to the real u axis as r a shrinks."""
    scale = math.sqrt(r * a)
    start = lo * scale
    if start >= 10.0:
        return 0.0
    step = min(0.002, scale / 20.0)
    u = np.linspace(start, 10.0, int(math.ceil((10.0 - start) / step)) + 1)
    vals = np.exp(-u * u) * (1.0 + (u / scale) ** 2) ** (r * w / 2.0)
    return 2.0 * float(np.trapezoid(vals, u)) / scale


def _lattice_norm(points, cell, r, weight):
    """(sum of <x>^{weight r} cell)^{1/r} over ``points``; max at r = inf."""
    vals = (1.0 + points * points) ** (weight / 2.0)
    if math.isinf(r):
        return float(np.max(vals))
    return float(np.sum(vals ** r) * cell) ** (1.0 / r)


def gaussian_stft_norm(c, b, p, q, s, t, n, extent, stride):
    """The weighted modulation norm of f = c e^{-b x^2} against the window
    e^{-x^2/2}, and the tolerance within which the grid of n points on
    [-extent, extent), at lattice stride ``stride``, must reproduce it.

    |V f|(x, xi) = c (2b+1)^{-1/2} e^{-B x^2} e^{-C xi^2}, B = b/(2b+1),
    C = 1/(2(2b+1)).  It is separable, so the M and W norms agree:
    c (2b+1)^{-1/2} X Y, with X = ||e^{-B x^2} <x>^t||_{L^p} and
    Y = ||e^{-C xi^2} <xi>^s||_{L^q}.  A sup (p or q infinite) is taken
    over the lattice the grid samples.

    The tolerance is derived from the box.  The grid's x and xi integrals
    stop at the box edges, which takes the tail fractions of X^p and Y^q
    off; and the box truncates f and the window, which moves every entry
    of the grid's table by at most c (e^{-b L^2} + e^{-L^2/2} / sqrt(2b)),
    hence the norm by at most that times the lattice norms of <x>^t and
    <xi>^s.  Twice their sum, plus GAUSSIAN_STFT_FLOOR of the value, is the
    tolerance.
    """
    h = 2.0 * extent / n
    x = (np.arange(0, n, stride) - n // 2) * h
    xi = (np.arange(n) - n // 2) * (math.pi / extent)
    big_b, big_c = b / (2.0 * b + 1.0), 1.0 / (2.0 * (2.0 * b + 1.0))
    factors, tails = [], 0.0
    for a, r, w, points, edge in ((big_b, p, t, x, extent), (big_c, q, s, xi, -xi[0])):
        if math.isinf(r):
            factors.append(float(np.max(np.exp(-a * points ** 2) * (1.0 + points ** 2) ** (w / 2.0))))
            continue
        whole = _bracket_gaussian_integral(a, r, w)
        factors.append(whole ** (1.0 / r))
        tails += _bracket_gaussian_integral(a, r, w, lo=edge) / (r * whole)
    value = c / math.sqrt(2.0 * b + 1.0) * factors[0] * factors[1]
    entry = c * (math.exp(-b * extent ** 2) + math.exp(-extent ** 2 / 2.0) / math.sqrt(2.0 * b))
    spill = entry * _lattice_norm(x, stride * h, p, t) * _lattice_norm(xi, math.pi / extent, q, s)
    return value, 2.0 * (tails * value + spill) + GAUSSIAN_STFT_FLOOR * value


def weighted_table_norm(values, x_positions, xi_axis, x_cell, xi_cell, p, q, s, t, space):
    """Modulation-type norm of a short-time table with both weights always
    applied: A = |V| <x>^t <xi>^s, then inner and outer power sums (inner
    over x for space "M", over xi for "W"); p and q are floats, inf for sup."""
    wx = (1.0 + x_positions ** 2) ** (float(t) / 2.0)
    wxi = (1.0 + xi_axis ** 2) ** (float(s) / 2.0)
    a = np.abs(values) * wx[:, None] * wxi[None, :]

    def power_norm(arr, r, cell, axis):
        mag = np.abs(arr)
        if math.isinf(r):
            return np.max(mag, axis=axis)
        return (np.sum(mag ** r, axis=axis) * cell) ** (1.0 / r)

    if space == "M":
        return float(power_norm(power_norm(a, p, x_cell, 0), q, xi_cell, None))
    return float(power_norm(power_norm(a, q, xi_cell, 1), p, x_cell, None))


def loop_mixed_norm(table, p, q, cells, p_inside):
    """L^p over the first index and L^q over the second of a nonnegative
    table (nested lists), as python loops; the L^p sum is the inner one when
    ``p_inside``.  p and q are floats, inf for sup, and ``cells`` holds the
    quadrature cell of each index."""
    rows, cols = len(table), len(table[0])

    def power(vals, r, cell):
        if math.isinf(r):
            return max(vals)
        total = 0.0
        for v in vals:
            total += v ** r
        return (total * cell) ** (1.0 / r)

    if p_inside:
        inner = [power([table[i][j] for i in range(rows)], p, cells[0]) for j in range(cols)]
        return power(inner, q, cells[1])
    inner = [power([table[i][j] for j in range(cols)], q, cells[1]) for i in range(rows)]
    return power(inner, p, cells[0])


def gather_tf(kernel_matrix, fvals, gvals, h, block_rows):
    """T_F(f, g) in row blocks, the g factor gathered by fancy indexing:
    block[i, j] = F[i, j] f[j] g[i - j + n/2], zero off the grid."""
    n = len(fvals)
    half = n // 2
    buf = np.zeros(3 * n, dtype=np.complex128)
    buf[n : 2 * n] = gvals
    kernel_matrix = np.asarray(kernel_matrix, dtype=np.complex128)
    fvals = np.asarray(fvals, dtype=np.complex128)
    out = np.empty(n, dtype=np.complex128)
    cols = np.arange(n)
    for start in range(0, n, block_rows):
        rows = np.arange(start, min(start + block_rows, n))
        gblk = buf[n + half + rows[:, None] - cols[None, :]]
        out[rows] = (kernel_matrix[rows, :] * fvals[None, :] * gblk).sum(axis=1)
    return out * h


def theta_table(values):
    """The remapped table (Theta F)[i, j] = F[i, i - j + n/2], zero off-grid.

    Theta is an involution in the continuum; on the grid it is one away from
    the index band that the remap pushes over the edge.
    """
    n = values.shape[0]
    idx = np.arange(n)
    src = idx[:, None] - idx[None, :] + n // 2
    valid = (src >= 0) & (src < n)
    rows = np.broadcast_to(idx[:, None], (n, n))
    return np.where(valid, values[rows, np.clip(src, 0, n - 1)], 0.0)


def region_table(axis, delta, radius):
    """Region ids 1..5 of every point (x, y) of axis x axis, the first
    clause that holds winning: <y> < delta <x>, <x-y> < delta <x>,
    |x| <= R, <x-y> <= <y>, else 5."""
    x = np.asarray(axis, dtype=float)[:, None]
    y = np.asarray(axis, dtype=float)[None, :]
    bx = np.sqrt(1.0 + x * x)
    by = np.sqrt(1.0 + y * y)
    bxy = np.sqrt(1.0 + (x - y) ** 2)
    clauses = [by < delta * bx, bxy < delta * bx, np.abs(x) <= radius, bxy <= by]
    shape = (x.size, y.size)
    return np.select([np.broadcast_to(c, shape) for c in clauses], [1, 2, 3, 4], 5)


def naive_gauss_sum_2d(terms, x, y):
    """sum of amp e^{-a ((x - u)^2 + (y - v)^2)} over (amp, a, u, v), every
    term evaluated on the whole outer grid x by y."""
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[None, :]
    out = np.zeros((x.shape[0], y.shape[1]))
    for amp, a, u, v in terms:
        out = out + amp * np.exp(-a * ((x - u) ** 2 + (y - v) ** 2))
    return out


# Relative floor of the comparison of a grid T_F with the closed form:
# rounding only, since the rectangle rule's aliasing error on the operator
# check's lattices (h = 1/16, Gaussian widths up to 24) is near e^{-100}.
GAUSSIAN_TF_FLOOR = 1e-12


def _gauss_tail(terms, extent, h):
    """A bound on h times the sum of |sum amp e^{-c (y - p)^2}| over the
    lattice points y of step h outside [-extent, extent), for centers
    inside the box: per term, its mass outside the box plus h times its
    two edge values (a decreasing tail's lattice sum exceeds its integral
    by at most the first sample)."""
    out = 0.0
    for amp, c, p in terms:
        root = math.sqrt(c)
        mass = math.sqrt(math.pi / c) / 2.0 * (
            math.erfc(root * (extent - p)) + math.erfc(root * (extent + p))
        )
        edges = math.exp(-c * (extent - p) ** 2) + math.exp(-c * (extent + p) ** 2)
        out += abs(amp) * (mass + h * edges)
    return out


def gaussian_tf(kernel_terms, f_terms, g_terms, n, extent):
    """T_F(f, g)(x) = int F(x, y) f(y) g(x - y) dy in closed form at the n
    grid points of [-extent, extent), and the tolerance within which the
    grid's T_F must reproduce it.

    F = sum A e^{-a ((x - u)^2 + (y - v)^2)} over (A, a, u, v), f = sum
    b e^{-c (y - p)^2} over (b, c, p) and g = sum d e^{-e (z - q)^2} over
    (d, e, q).  Each (kernel, f, g) term is A b d e^{-a (x - u)^2} times the
    integral of e^{-a (y - v)^2 - c (y - p)^2 - e (y - (x - q))^2}, which is
    sqrt(pi / W) e^{-S / W} with W = a + c + e and S the sum over the three
    pairs of weights of w_i w_j (m_i - m_j)^2, centers m = (v, p, x - q).

    The grid sums only y in the box with x - y in the box (g is zero off
    the grid).  What it leaves out is at most sup|F| (sup|g| T_f +
    sup|f| T_g), with T the :func:`_gauss_tail` bound of each factor and
    the sups bounded by the sums of the amplitudes' moduli.  That, plus
    GAUSSIAN_TF_FLOOR of the largest |T_F|, is the tolerance."""
    h = 2.0 * extent / n
    x = (np.arange(n) - n // 2) * h
    values = np.zeros(n)
    for big_a, a, u, v in kernel_terms:
        for b, c, p in f_terms:
            for d, e, q in g_terms:
                w = a + c + e
                m3 = x - q
                spread = a * c * (v - p) ** 2 + a * e * (v - m3) ** 2 + c * e * (p - m3) ** 2
                values += big_a * b * d * math.sqrt(math.pi / w) * np.exp(
                    -a * (x - u) ** 2 - spread / w
                )
    sup = [sum(abs(t[0]) for t in terms) for terms in (kernel_terms, f_terms, g_terms)]
    tails = _gauss_tail(f_terms, extent, h), _gauss_tail(g_terms, extent, h)
    tol = sup[0] * (sup[2] * tails[0] + sup[1] * tails[1])
    return values, tol + GAUSSIAN_TF_FLOOR * float(np.max(np.abs(values)))


def numpy_uniforms(seed, shapes):
    """numpy.random.default_rng(seed).uniform(low, high, k) for each
    (low, high, k) of ``shapes`` in turn, one list of floats per call."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(low, high, k).tolist() for low, high, k in shapes]


# ---------------------------------------------------------------------------
# Log-log regression
# ---------------------------------------------------------------------------

def fit_power_law(xs, ys):
    """Least-squares slope of log y against log x via numpy.polyfit."""
    coeffs = np.polyfit(np.log(np.asarray(xs, dtype=float)),
                        np.log(np.asarray(ys, dtype=float)), 1)
    return float(coeffs[0])


def synthetic_power_samples(exponent, constant=3.0, noise=0.0, seed=7, count=13):
    """y = c x^m with optional multiplicative noise, for regressor soundness."""
    rng = np.random.default_rng(seed)
    xs = np.geomspace(1.0, 64.0, count)
    ys = constant * xs ** exponent
    if noise:
        ys = ys * (1.0 + noise * (2.0 * rng.random(count) - 1.0))
    return xs, ys


# ---------------------------------------------------------------------------
# Exact threshold functionals, coded a second time
# ---------------------------------------------------------------------------

def ref_threshold_maxmin(x):
    """max over orderings (a,b,c) of min(x_a, max(1/2, min(x_b, x_c))).

    Spelled as explicit loops over index triples rather than a generator
    over itertools.permutations.
    """
    xs = tuple(Fraction(v) for v in x)
    best = None
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if len({a, b, c}) != 3:
                    continue
                inner = xs[b] if xs[b] <= xs[c] else xs[c]
                mid = inner if inner >= HALF else HALF
                cand = xs[a] if xs[a] <= mid else mid
                if best is None or cand > best:
                    best = cand
    return best


def ref_threshold_cases(x):
    """Case form through sorting: top below 1/2, bottom above 1/2, else 1/2."""
    xs = sorted(Fraction(v) for v in x)
    if xs[2] < HALF:
        return xs[2]
    if xs[0] > HALF:
        return xs[0]
    return HALF


def ref_threshold_floor(x):
    """max(1/2, min(x))."""
    xs = sorted(Fraction(v) for v in x)
    return xs[0] if xs[0] > HALF else HALF


def ref_gap_functional(x):
    """2 - x0 - x1 - x2 as an exact rational."""
    xs = tuple(Fraction(v) for v in x)
    return Fraction(2) - xs[0] - xs[1] - xs[2]


# ---------------------------------------------------------------------------
# Exact decision rules, coded a second time
# ---------------------------------------------------------------------------
#
# Read off the checker docstrings and the README, not the checker code.  An
# exponent is a Fraction in [1, oo) or None for oo; a block is (exponents,
# weights).  Each rule lists its conditions as rows in the order a trace
# shows them: the necessary rows (id, holds), then the sufficient rows
# (id, holds, strict), where a strict row is the strict total floor.

@functools.cache
def ref_young(exps):
    """R = 2 - 1/e0 - 1/e1 - 1/e2 with 1/oo = 0."""
    return Fraction(2) - sum(Fraction(0) if e is None else 1 / Fraction(e) for e in exps)


_REF_PAIRS = ((0, 1), (0, 2), (1, 2))
# The index of the block each flavor reads, and the names of each block.
_REF_BLOCKS = {"convolution": 0, "multiplication": 1}
_REF_NAMES = (("p", "t"), ("q", "s"))


def _ref_necessary(weights, wname, floor):
    """Every pairwise sum w_j + w_k >= 0, then sum(w) >= floor."""
    rows = [(f"pair_{wname}{j}{k}", weights[j] + weights[k] >= 0) for j, k in _REF_PAIRS]
    return rows + [(f"total_{wname}", sum(weights) >= floor)]


def _ref_sufficient(weights, ename, wname, r, floor):
    """0 <= R <= 1/2, and sum(w) > floor strictly once R > 0 and some w_j
    equals floor."""
    rows = [(f"young_range_{ename}_lo", r >= 0, False),
            (f"young_range_{ename}_hi", r <= HALF, False)]
    if r > 0 and any(w == floor for w in weights):
        rows.append((f"total_{wname}_strict", sum(weights) > floor, True))
    return rows


def _ref_lebesgue(flavor):
    def rule(d, blocks):
        i = _REF_BLOCKS[flavor]
        (ename, wname), (exps, weights) = _REF_NAMES[i], blocks[i]
        r = ref_young(exps)
        return (_ref_necessary(weights, wname, d * r),
                _ref_sufficient(weights, ename, wname, r, d * r))
    return rule


def _ref_modulation(flavor):
    """Both necessity families on (p, t) and (q, s); then the flavor's
    block in range with the strictness clause, R of the other block at
    most 1, and the other block's weights summing to at least 0."""
    def rule(d, blocks):
        (p, t), (q, s) = blocks
        necessary = (_ref_necessary(t, "t", d * ref_young(p))
                     + _ref_necessary(s, "s", d * ref_young(q)))
        i = _REF_BLOCKS[flavor]
        (ename, wname), (other_e, other_w) = _REF_NAMES[i], _REF_NAMES[1 - i]
        (exps, weights), (other_exps, other_weights) = blocks[i], blocks[1 - i]
        r = ref_young(exps)
        lo, hi, *strict = _ref_sufficient(weights, ename, wname, r, d * r)
        sufficient = [
            lo, hi,
            (f"holder_cap_{other_e}", ref_young(other_exps) <= 1, False),
            (f"total_{other_w}_nonneg", sum(other_weights) >= 0, False),
            *strict,
        ]
        return necessary, sufficient
    return rule


def _ref_weak(d, blocks):
    """Sufficient only: 0 < R <= 1/2, every pairwise sum >= 0 and at least
    two of them > 0, and sum(t) > d R."""
    p, t = blocks[0]
    r = ref_young(p)
    pairs = [t[j] + t[k] for j, k in _REF_PAIRS]
    return [], [
        ("young_range_p_lo_strict", r > 0, False),
        ("young_range_p_hi", r <= HALF, False),
        *((f"pair_t{j}{k}", v >= 0, False) for (j, k), v in zip(_REF_PAIRS, pairs)),
        ("weak_strict_count", len([v for v in pairs if v > 0]) >= 2, False),
        ("total_t_strict", sum(t) > d * r, True),
    ]


REF_RULES = {
    ("lebesgue", "convolution"): _ref_lebesgue("convolution"),
    ("lebesgue", "multiplication"): _ref_lebesgue("multiplication"),
    ("weak", "convolution"): _ref_weak,
    ("modulation", "convolution"): _ref_modulation("convolution"),
    ("modulation", "multiplication"): _ref_modulation("multiplication"),
}


def ref_verdict(setting, flavor, d, p, t, q=None, s=None):
    """(classification, binding condition id) of a tuple by REF_RULES.

    Unbounded when a necessary row fails, citing the first failed pairwise
    sum if any, else the first failed total floor; otherwise Undetermined
    citing the first failed sufficient row; otherwise Bounded, citing the
    strict total floor when the rule engaged one and nothing otherwise.
    """
    necessary, sufficient = REF_RULES[setting, flavor](d, ((p, t), (q, s)))
    for family in ("pair_", "total_"):
        broken = [cid for cid, holds in necessary if cid.startswith(family) and not holds]
        if broken:
            return "Unbounded", broken[0]
    broken = [cid for cid, holds, _ in sufficient if not holds]
    if broken:
        return "Undetermined", broken[0]
    strict = [cid for cid, _, is_strict in sufficient if is_strict]
    return "Bounded", strict[0] if strict else ""
