"""A curated corpus of parameter tuples with known classifications.

The table spans all three verdicts for both the convolution and the
multiplication flavor.  Bounded entries come in two kinds.  Unweighted
ones (all t = 0, functional zero) produce a ratio ladder that is exactly
flat, because dilation acts on every norm by the same power.  Weighted
ones sit strictly inside the sufficient region: inhomogeneous weights add
a finite-scale transient to the ratio that only dies off like a small
fractional power of the scale, so each weighted entry carries enough
interior margin for the measured slope to clear the sweep tolerance on
the default ladder.  (Tuples that meet the total-weight floor with
equality are genuinely bounded too, but their transient is still around
0.13 decades per decade at the default scales; they make poor sweep
residents and live in the Undetermined/Unbounded sections instead, where
no flatness obligation applies.)

Unbounded entries violate a necessary condition; ``margin`` records the
size of the largest violation, and entries whose margin reaches 1/4 carry
a probe assignment that can witness the violation numerically.

Multiplication-flavor witnesses run on the shadow tuple (p, t) := (q, s):
the transform exchanges products with convolutions, so the transform-side
norms that define the multiplication question are measured by the
convolution probes on that shadow.  The checkers themselves never take
this shortcut; only the numerical witnesses do.

Notes on two deliberately awkward residents:

- ``conv-undet-111`` (all exponents 1, zero weights) is classically fine,
  but it sits outside the sufficient range covered here, so the honest
  verdict is Undetermined rather than Bounded.
- ``conv-undet-trigger`` meets the total-weight floor with equality while a
  single weight triggers the strictness clause, which is exactly the gap
  between the necessary and sufficient families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exponents import Classification, ParamTuple, Verdict, classify

__all__ = ["CorpusEntry", "CORPUS", "verdict_for", "shadow_tuple"]

F = Fraction


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    flavor: str  # "convolution" | "multiplication"
    params: ParamTuple
    expected: Classification
    margin: Fraction = F(0)
    probe: str | None = None  # "gaussian" | "translation"
    probe_pair: tuple[int, int] | None = None
    probe_offsets: tuple[float, ...] | None = None
    note: str = ""


def _conv(name, p, t, *rest, **kw):
    return CorpusEntry(name, "convolution", ParamTuple(d=1, p=p, t=t), *rest, **kw)


def _mult(name, q, s, *rest, **kw):
    return CorpusEntry(
        name, "multiplication", ParamTuple(d=1, p=q, t=s, q=q, s=s), *rest, **kw
    )


B = Classification.BOUNDED
U = Classification.UNBOUNDED
X = Classification.UNDETERMINED

CORPUS: tuple[CorpusEntry, ...] = (
    # -- convolution, Bounded ----------------------------------------------
    _conv("conv-flat-212", (2, 1, 2), (0, 0, 0), B,
          note="functional vanishes; unweighted sharp line"),
    _conv("conv-flat-122", (1, 2, 2), (0, 0, 0), B),
    _conv("conv-flat-inf11", (None, 1, 1), (0, 0, 0), B,
          note="infinite target exponent exercises the sup-norm path"),
    _conv("conv-interior-222", (2, 2, 2), (F(3, 8), F(3, 8), F(3, 8)), B,
          note="total weight 9/8 against a floor of 1/2"),
    _conv("conv-interior-4324", (F(4, 3), 2, 4), (F(3, 8), F(3, 8), F(3, 8)), B),
    _conv("conv-interior-5424", (F(5, 4), 2, 4), (F(3, 8), F(3, 8), F(3, 8)), B),
    _conv("conv-asym-2434", (2, F(4, 3), 4), (F(3, 8), F(3, 8), F(1, 4)), B,
          note="asymmetric interior weights, no strictness trigger"),
    _conv("conv-mixed-212", (2, 1, 2), (F(-1, 16), F(1, 16), F(1, 8)), B,
          note="one negative weight; functional zero, pairwise sums bind"),
    # -- convolution, Unbounded -------------------------------------------
    _conv("conv-total-222", (2, 2, 2), (0, 0, 0), U, F(1, 2), "gaussian"),
    _conv("conv-pair-222", (2, 2, 2), (1, 1, -2), U, F(1), "translation", (1, 2),
          probe_offsets=(8, 16, 24),
          note="steep weight needs distant offsets for a clean power fit"),
    _conv("conv-pair-211", (2, 1, 1), (0, 1, -2), U, F(2), "translation", (1, 2)),
    _conv("conv-total-444", (4, 4, 4), (0, 0, 0), U, F(5, 4), "gaussian"),
    _conv("conv-pair-111", (1, 1, 1), (-1, -1, 1), U, F(2), "translation", (0, 1)),
    _conv("conv-pair-212", (2, 1, 2), (0, 0, F(-1, 2)), U, F(1, 2),
          "translation", (0, 2)),
    _conv("conv-total-infinf", (None, None, None), (0, 0, 0), U, F(2), "gaussian"),
    _conv("conv-total-thin", (2, 2, 2), (F(1, 3), F(1, 12), 0), U, F(1, 12),
          note="margin below 1/4: no witness obligation"),
    # -- convolution, Undetermined -----------------------------------------
    _conv("conv-undet-333", (3, 3, 3), (1, 1, 1), X,
          note="functional above the covered range, necessity intact"),
    _conv("conv-undet-trigger", (2, 2, 2), (F(1, 2), 0, 0), X,
          note="floor met with equality while a weight triggers strictness"),
    _conv("conv-undet-111", (1, 1, 1), (0, 0, 0), X,
          note="classical endpoint below the covered range"),
    _conv("conv-undet-422", (4, 2, 2), (1, 1, 1), X),
    # -- multiplication, Bounded -------------------------------------------
    _mult("mult-flat-212", (2, 1, 2), (0, 0, 0), B),
    _mult("mult-flat-122", (1, 2, 2), (0, 0, 0), B),
    _mult("mult-interior-222", (2, 2, 2), (F(3, 8), F(3, 8), F(3, 8)), B),
    _mult("mult-interior-4324", (F(4, 3), 2, 4), (F(3, 8), F(3, 8), F(3, 8)), B),
    _mult("mult-asym-222", (2, 2, 2), (F(7, 16), F(1, 4), F(1, 4)), B,
          note="asymmetric interior weights on the transform side"),
    # -- multiplication, Unbounded ------------------------------------------
    _mult("mult-pair-222", (2, 2, 2), (1, -2, 0), U, F(2), "translation", (1, 2)),
    _mult("mult-total-222", (2, 2, 2), (0, 0, 0), U, F(1, 2), "gaussian"),
    _mult("mult-total-444", (4, 4, 4), (0, 0, 0), U, F(5, 4), "gaussian"),
    _mult("mult-pair-122", (1, 2, 2), (0, -1, 1), U, F(1), "translation", (0, 1)),
    _mult("mult-pair-212", (2, 1, 2), (F(-1, 4), 0, 0), U, F(1, 4),
          "translation", (0, 1),
          note="margin exactly 1/4 sits on the witness obligation line"),
    # -- multiplication, Undetermined ----------------------------------------
    _mult("mult-undet-422", (4, 2, 2), (1, 1, 1), X),
    _mult("mult-undet-trigger", (2, 2, 2), (F(1, 2), 0, 0), X),
    _mult("mult-undet-111", (1, 1, 1), (0, 0, 0), X),
)


def verdict_for(entry: CorpusEntry) -> Verdict:
    return classify(entry.params, entry.flavor)


def shadow_tuple(entry: CorpusEntry) -> ParamTuple:
    """The tuple the numerical witnesses probe.

    Convolution entries are probed as they stand; multiplication entries
    are probed through their transform shadow (p, t) := (q, s).
    """
    if entry.flavor == "convolution":
        return ParamTuple(d=entry.params.d, p=entry.params.p, t=entry.params.t)
    assert entry.params.q is not None and entry.params.s is not None
    return ParamTuple(d=entry.params.d, p=entry.params.q, t=entry.params.s)
