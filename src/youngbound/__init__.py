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
"""

from .exponents import (
    INF,
    Classification,
    ConditionRecord,
    Exponent,
    ExponentError,
    ParamTuple,
    Verdict,
    binding_condition,
    check_convolution,
    check_modulation,
    check_multiplication,
    check_weak_proposition,
    conjugate,
    g_functional,
    h0,
    h1,
    h2,
    lemma_equivalence_holds,
    remark_bound,
    young_functional,
)
from .grids import (
    Grid,
    GridMismatchError,
    ResolutionError,
    ResolutionWarning,
    SampledFunction,
    SampledKernel2d,
    StftTable,
    bracket,
    convolve,
    fourier_lebesgue_norm,
    fourier_transform,
    gaussian_resolution_guard,
    inverse_fourier_transform,
    mixed_norm_2d,
    modulation_norm,
    stft,
    weighted_lebesgue_norm,
)
from .kernels import (
    KernelParams,
    PreconditionError,
    PropReport,
    RegionParams,
    SliceReport,
    decomposition_residual,
    kernel_f,
    kernel_table,
    region_codes,
    region_of,
    region_table,
    t_f,
    t_theta_f,
    theta_kernel,
    verify_lemma_intestimates,
    verify_prop_tf_bounds,
)
from .probes import (
    BoundReport,
    BumpFamily,
    GaussianFamily,
    ProbeReport,
    SweepReport,
    TranslationReport,
    boundedness_sweep,
    fit_power_law,
    gaussian_lower_bound_check,
    gaussian_necessity_probe,
    gaussian_norm_slope,
    translation_necessity_probe,
)
from .corpus import CORPUS, CorpusEntry, shadow_tuple, verdict_for
from .scenario import RunRecord, ScenarioError, parse_scenario_text, resolve_scenario

__version__ = "0.1.0"
