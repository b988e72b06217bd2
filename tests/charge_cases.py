"""The memory-charge cases, and how a charge and a traced peak are read.

A case is a request (command, scenario text, box half-width) that runs at
a grid size n through its command's handler, in-process and with no file,
as ``cli.main`` runs it; or, with the command "library", a whole-table
library function named by the text, called on inputs made before it is
charged or traced.  Its charge is what its routine hands its own refusal
call, ``_refuse_above_cap``, which is patched to record the bytes and stop
the run.  Its traced peak is what tracemalloc sees above the start
of a run.  A routine whose jobs run two at a time runs them one after
another instead, each traced on its own, asking for fresh buffers and under
the ufunc buffer size of ``grids._two_at_a_time``, and its peak is the sum
of the two largest job peaks: the most that two threads can hold at once,
whatever their timing.

``tests/test_scenario_cli.py`` checks every case, and
``tools/charge_readings.py`` prints their readings.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np

from youngbound import cli, grids, kernels, probes
from youngbound.grids import (
    Grid,
    SampledFunction,
    SampledKernel2d,
    mixed_norm_2d,
    modulation_norm,
    stft,
    stft_magnitudes,
)
from youngbound.kernels import KernelParams, kernel_table
from youngbound.scenario import parse_scenario_text, resolve_scenario

# Every probe that is not a modulation ladder, with a box it resolves; the
# "-distinct" ones keep the most factors and weights their kind can hold.
POINT_CHARGED_PROBES = {
    name: ("probe", text, extent)
    for name, text, extent in [
        ("gaussian", "kind = gaussian\np = 2, 2, 2\n", 48.0),
        ("translation", "kind = translation\np = 2, 1, 1\nt = 0, 1, -2\n", 32.0),
        ("gaussian-distinct", "kind = gaussian\np = 2, 2, 2\nt = 1/8, 1/4, 1/2\n", 48.0),
        ("translation-distinct", "kind = translation\np = 2, 1, 1\nt = 1/2, 1, -2\n", 32.0),
        ("lower-bound", "kind = lower-bound\nt1 = 1\nt2 = 0\nalpha = 0.25\n", 18.0),
        ("norm-slope", "kind = norm-slope\nexponent = 2\nweight = 1\n", 48.0),
        (
            "convolution",
            "kind = boundedness\nflavor = convolution\np = 2, 2, 2\nt = 3/8, 3/8, 3/8\n",
            48.0,
        ),
        (
            "multiplication",
            "kind = boundedness\nflavor = multiplication\np = 2, 2, 2\nt = 3/8, 3/8, 3/8\n",
            48.0,
        ),
        (
            "convolution-distinct",
            "kind = boundedness\nflavor = convolution\np = 2, 2, 2\nt = 1/2, 1/4, 3/8\n",
            48.0,
        ),
        (
            "multiplication-distinct",
            "kind = boundedness\nflavor = multiplication\np = 2, 2, 2\nt = 0, 0, 0\n"
            "q = 2, 2, 2\ns = 1/2, 1/4, 3/8\n",
            48.0,
        ),
    ]
}
POINT_SIZES = (16384, 32768, 65536)

# The product-identity tuple of the benchmark's modulation operations, at
# a given flavor and stride.
MODULATION_LADDER = (
    "kind = boundedness\nflavor = {}\np = 2, 2, 2\nt = 1/4, 1/4, 0\n"
    "q = 2, 1, 2\ns = 0, 0, 0\nstride = {}\n"
)
MODULATION_FLAVORS = ("modulation-convolution", "modulation-multiplication")
# Two passes of a convolution ladder in flight, or the product identity
# and one pass of a multiplication ladder.
MODULATION_LADDERS = {
    f"{flavor}-{stride}": ("probe", MODULATION_LADDER.format(flavor, stride), 24.0)
    for flavor in MODULATION_FLAVORS
    for stride in (1, 4, 8)
}
OPERATOR_CHECK = "which = operator\ncase = {}\np = {}\nkernel = {}\ntrials = {}\n"
# Two (trial, scale) points in flight, or the one point of the flat
# kernel's single trial.
OPERATOR_CHECKS = {
    name: ("verify-lemmas", OPERATOR_CHECK.format(case, p, kernel, 1), 16.0)
    for name, case, p, kernel in [
        ("case1", 1, "2, 2, 2", "bumps"),
        ("case2", 2, "2, 2, 2", "bumps"),
        ("case3", 3, "2, 2, 2", "bumps"),
        ("r0", 1, "1, 2, 2", "bumps"),  # R(p) = 0
        ("ones", 2, "2, 2, 2", "ones"),
    ]
}
BLOCK_SIZES = (256, 512, 1024)


# Each whole-table library function on the box [-16, 16), at its default
# stride and order.
WHOLE_TABLES = {
    name: ("library", name, 16.0)
    for name in ("stft", "stft_magnitudes", "modulation_norm", "kernel_table", "mixed_norm_2d")
}
TABLE_SIZES = (256, 512, 1024)


def _library_call(name: str, grid: Grid):
    """The whole-table function ``name`` as a call on inputs on ``grid``,
    made here: Gaussian samples, the kernel weights (1, 1, 1), or a table
    of ones."""
    if name == "mixed_norm_2d":
        table = SampledKernel2d(grid, np.ones((grid.n, grid.n)))
        return lambda: mixed_norm_2d(table, 2, 2, 1)
    if name == "kernel_table":
        return lambda: kernel_table(grid, KernelParams((1, 1, 1)))
    ax = grid.axis()
    f = SampledFunction(grid, np.exp(-ax ** 2))
    w = SampledFunction(grid, np.exp(-ax ** 2 / 2.0))
    if name == "modulation_norm":
        return lambda: modulation_norm(f, w, 2, 2, 0, 0)
    return lambda: {"stft": stft, "stft_magnitudes": stft_magnitudes}[name](f, w)


def call(command: str, text: str, extent: float, n: int):
    """The request on the grid of n points on [-extent, extent), as a call
    of no arguments."""
    if command == "library":
        return _library_call(text, Grid(1, extent, n))
    return lambda: run(command, text, extent, n)


def run(command: str, text: str, extent: float, n: int):
    """Run the request on the grid of n points on [-extent, extent)."""
    entries = parse_scenario_text(text)
    entries.update(grid_n=str(n), grid_l=repr(float(extent)))
    values = resolve_scenario(command, entries)
    return cli._COMMANDS[command][0](values, SimpleNamespace(seed=None))


class _Charged(Exception):
    """Stops a run at its refusal call."""


def charge(command: str, text: str, extent: float, n: int) -> int:
    """The bytes the request's routine hands its refusal call at grid size
    n; the routine stops there, so nothing grid-sized is made."""
    charged = []
    request = call(command, text, extent, n)

    def record(nbytes: int) -> None:
        charged.append(nbytes)
        raise _Charged

    with contextlib.ExitStack() as stack:
        for module in (grids, probes, kernels):
            stack.enter_context(mock.patch.object(module, "_refuse_above_cap", record))
        with contextlib.suppress(_Charged):
            request()
    (nbytes,) = charged
    return nbytes


def largest_admitted(command: str, text: str, extent: float) -> int:
    """The largest power-of-two grid size from 2^10 to 2^30 whose charge
    the memory cap admits (every charge grows with n)."""
    return max(
        2 ** k for k in range(10, 31)
        if charge(command, text, extent, 2 ** k) <= grids.MAX_TABLE_BYTES
    )


def traced_peak(command: str, text: str, extent: float, n: int) -> int:
    """The bytes the request holds at its peak at grid size n, traced."""
    job_peaks = []
    request = call(command, text, extent, n)

    def one_at_a_time(fn, items, layout):
        results = []
        with np.errstate():
            np.setbufsize(grids.UFUNC_BUFFER)
            for item in items:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                results.append(fn(item, lambda: grids._allocate(layout)))
                job_peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return results

    with contextlib.ExitStack() as stack:
        for module in (probes, kernels):
            stack.enter_context(mock.patch.object(module, "_two_at_a_time", one_at_a_time))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            request()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return sum(sorted(job_peaks)[-2:]) if job_peaks else peak


def readings(case: tuple, sizes) -> tuple[list[int], list[int]]:
    """The charges and the traced peaks of ``case`` at each grid size,
    after a run at half the smallest: one-time allocations (lazy imports,
    caches) are not per point."""
    call(*case, sizes[0] // 2)()
    return [charge(*case, n) for n in sizes], [traced_peak(*case, n) for n in sizes]


def fit(sizes, values) -> tuple[float, float]:
    """alpha and beta of the least-squares line alpha n + beta through
    ``values`` at the grid sizes ``sizes``."""
    alpha, beta = np.polyfit(np.asarray(sizes, dtype=float), np.asarray(values, dtype=float), 1)
    return float(alpha), float(beta)
