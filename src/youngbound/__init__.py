"""Exact checkers and numerical witnesses for weighted Young-type bounds.

The package asks one question in several guises: for which Lebesgue
exponents and polynomial weights is a convolution- or multiplication-type
trilinear form bounded?  The exact side answers with rational arithmetic
and an auditable condition trace; the numerical side backs the answers with
Gaussian and translation ladders on periodic grids, kernel decompositions,
and short-time Fourier machinery.

Layout:

- :mod:`youngbound.exponents`: exact exponent calculus and the checkers;
- :mod:`youngbound.grids`: periodic grids, transforms, norms;
- :mod:`youngbound.kernels`: the bracket-weight kernel, its five-region
  decomposition, and the envelope/operator verifiers;
- :mod:`youngbound.probes`: necessity probes, lower bounds, boundedness
  sweeps;
- :mod:`youngbound.corpus`: a classified corpus of parameter tuples;
- :mod:`youngbound.scenario` / :mod:`youngbound.cli`: scenario files, run
  records, and the command line front end.

The names below are loaded on first use (PEP 562), so ``import youngbound``
and the exact layer never import numpy; ``from youngbound import convolve``
loads ``grids`` and numpy then.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exponents": (
        "INF", "Classification", "ConditionRecord", "Exponent", "ExponentError",
        "ParamTuple", "PreconditionError", "Verdict", "binding_condition",
        "check_convolution", "check_modulation", "check_multiplication",
        "check_weak_proposition", "classify", "conjugate", "g_functional", "h0",
        "h1", "h2", "lemma_equivalence_holds", "remark_bound", "young_functional",
    ),
    "grids": (
        "Grid", "GridMismatchError", "ResolutionError", "ResolutionWarning",
        "SampledFunction", "SampledKernel2d", "StftTable", "bracket", "convolve",
        "fourier_lebesgue_norm", "fourier_transform", "gaussian_resolution_guard",
        "inverse_fourier_transform", "mixed_norm_2d", "modulation_norm", "stft",
        "weighted_lebesgue_norm",
    ),
    "kernels": (
        "KernelParams", "PropReport", "RegionParams", "SliceReport",
        "decomposition_residual", "kernel_f", "kernel_table", "region_codes",
        "region_of", "t_f", "t_theta_f", "verify_lemma_intestimates",
        "verify_prop_tf_bounds",
    ),
    "probes": (
        "BoundReport", "BumpFamily", "GaussianFamily", "ProbeReport",
        "SweepReport", "TranslationReport", "boundedness_sweep", "fit_power_law",
        "gaussian_lower_bound_check", "gaussian_necessity_probe",
        "gaussian_norm_slope", "translation_necessity_probe",
    ),
    "corpus": ("CORPUS", "CorpusEntry", "shadow_tuple", "verdict_for"),
    "scenario": ("RunRecord", "ScenarioError", "parse_scenario_text", "resolve_scenario"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: ``youngbound.grids`` needs no import first
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
