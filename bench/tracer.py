"""Outside-in tracer for the ``youngbound`` package.

The tracer wraps every public function of every ``youngbound.*`` module,
by identity: the package re-binds names across modules (``from .grids
import convolve`` in ``probes``, ``kernels``, ``cli`` and ``__init__``), so
each binding that holds the original function object is replaced by the
one wrapper made for it.  Patching the defining module's attribute also
covers names imported at call time, and a meta-path hook patches modules
that load after the tracer is installed, so lazy imports are caught too.

Each wrapper keeps, per function: calls, inclusive time (outermost call
only, so recursion is not counted twice), self time (inclusive time minus
the time of wrapped calls nested inside it), and the number of exceptions
that escaped the call.  Named groups of functions keep their own
inclusive time.  A few functions also feed work counts computed from
their arguments (see ``_HOOKS``); hook time is charged to no function.

No layer of the package has queues or threads, so there is no waiting
time to record: every span is busy time on the one calling thread.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.abc
import sys
import types
from time import perf_counter_ns

PACKAGE = "youngbound"

# Methods wrapped in addition to the module-level public functions.
_METHODS = {f"{PACKAGE}.scenario": (("RunRecord", "to_json"),)}

GROUPS = {
    "scenario.parse": ("scenario.parse_scenario_text", "scenario.resolve_scenario"),
    "exponents.check": (
        "exponents.check_convolution",
        "exponents.check_multiplication",
        "exponents.check_modulation",
        "exponents.check_weak_proposition",
    ),
    "grids.fft": ("grids.fourier_transform", "grids.inverse_fourier_transform"),
    "grids.norms": (
        "grids.weighted_lebesgue_norm",
        "grids.fourier_lebesgue_norm",
        "grids.mixed_norm_2d",
    ),
    "probes.probe": (
        "probes.gaussian_norm_slope",
        "probes.gaussian_necessity_probe",
        "probes.translation_necessity_probe",
        "probes.gaussian_lower_bound_check",
        "probes.boundedness_sweep",
    ),
}


class FnStats:
    __slots__ = ("calls", "incl_ns", "self_ns", "exceptions", "depth")

    def __init__(self):
        self.calls = self.incl_ns = self.self_ns = self.exceptions = self.depth = 0


class GroupStats:
    __slots__ = ("calls", "incl_ns", "depth")

    def __init__(self):
        self.calls = self.incl_ns = self.depth = 0


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self):
        self.fns: dict[str, FnStats] = {}
        self.groups = {g: GroupStats() for g in GROUPS}
        self._group_of: dict[str, list[GroupStats]] = {}
        for g, members in GROUPS.items():
            for m in members:
                self._group_of.setdefault(m, []).append(self.groups[g])
        self.counts: dict[str, int] = {
            "grids.convolve.fft_points": 0,
            "grids.stft.table_bytes": 0,
            "grids.stft.unique_inputs": 0,
            "kernels.t_f.madds": 0,
            "scenario.record_bytes": 0,
        }
        self._stft_seen: set[bytes] = set()
        self._stack: list[int] = []  # child time accumulated per open span
        self._wrappers: dict[int, types.FunctionType] = {}  # id(original) -> wrapper
        self._originals: list[types.FunctionType] = []  # keeps ids valid
        self._wrapper_ids: set[int] = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch loaded modules now and every ``youngbound`` module loaded later."""
        sys.meta_path.insert(0, _PatchingFinder(self))
        self.patch_all()

    def begin_op(self) -> None:
        """Start a new operation: STFT inputs are deduplicated within one op."""
        self._stft_seen.clear()

    def patch_all(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if id(value) in self._wrapper_ids:
                    continue
                if not value.__module__.startswith(PACKAGE):
                    continue
                setattr(module, attr, self._wrapper_for(value))
            for cls_name, meth in _METHODS.get(module.__name__, ()):
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if isinstance(fn, types.FunctionType) and id(fn) not in self._wrapper_ids:
                    setattr(cls, meth, self._wrapper_for(fn))

    def _wrapper_for(self, fn: types.FunctionType) -> types.FunctionType:
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            module = fn.__module__.rpartition(".")[2]
            wrapper = self._make_wrapper(fn, f"{module}.{fn.__qualname__}")
            self._wrappers[id(fn)] = wrapper
            self._originals.append(fn)
            self._wrapper_ids.add(id(wrapper))
        return wrapper

    def _make_wrapper(self, fn, name: str):
        stats = self.fns.setdefault(name, FnStats())
        groups = self._group_of.get(name, [])
        hook = _HOOKS.get(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.depth += 1
            for g in groups:
                g.depth += 1
            stack.append(0)
            raised = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = perf_counter_ns() - t0
                stats.calls += 1
                stats.self_ns += elapsed - stack.pop()
                stats.depth -= 1
                if stats.depth == 0:
                    stats.incl_ns += elapsed
                for g in groups:
                    g.calls += 1
                    g.depth -= 1
                    if g.depth == 0:
                        g.incl_ns += elapsed
                if raised:
                    stats.exceptions += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                h0 = perf_counter_ns()
                hook(tracer, args, kwargs, result)
                if stack:
                    stack[-1] += perf_counter_ns() - h0
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data totals, for summing across processes."""
        return {
            "fns": {
                n: [s.calls, s.incl_ns, s.self_ns, s.exceptions]
                for n, s in self.fns.items() if s.calls
            },
            "groups": {g: [s.calls, s.incl_ns] for g, s in self.groups.items()},
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# Work counts, computed from argument shapes
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _convolve_hook(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "f").grid
    # Two forward transforms and one inverse, each of (2n)^d points.
    tracer.counts["grids.convolve.fft_points"] += 3 * (2 * grid.n) ** grid.d


def _stft_hook(tracer, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    window = _arg(args, kwargs, 1, "window")
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    tracer.counts["grids.stft.table_bytes"] += result.values.nbytes
    key = hashlib.blake2b(
        f.values.tobytes() + window.values.tobytes() + str(stride).encode(),
        digest_size=16,
    ).digest()
    if key not in tracer._stft_seen:
        tracer._stft_seen.add(key)
        tracer.counts["grids.stft.unique_inputs"] += 1


def _t_f_hook(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 1, "f").grid.n
    tracer.counts["kernels.t_f.madds"] += n * n


def _to_json_hook(tracer, args, kwargs, result):
    tracer.counts["scenario.record_bytes"] += len(result.encode())


_HOOKS = {
    "grids.convolve": _convolve_hook,
    "grids.stft": _stft_hook,
    "kernels.t_f": _t_f_hook,
    "scenario.RunRecord.to_json": _to_json_hook,
}


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds ``youngbound`` modules with the other finders and patches
    every binding once each module has executed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        original = loader.exec_module

        def exec_module(module):
            original(module)
            self.tracer.patch_all()

        loader.exec_module = exec_module
        return spec
