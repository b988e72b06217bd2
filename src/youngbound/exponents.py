"""Exact exponent arithmetic for Young-type boundedness questions.

Everything in this module is symbolic: Lebesgue exponents are rationals in
[1, oo] with oo a first-class value, weights are rationals, and every
comparison is exact. The floating-point numerics live elsewhere; this module
is the part that must never be wrong by a rounding error.

Notation used throughout (x denotes a triple of reciprocals, x_j = 1/p_j):

    R(p)  = 2 - 1/p0 - 1/p1 - 1/p2
    G(x)  = 2 - x0 - x1 - x2
    H0(x) = max over permutations (a,b,c) of min(x_a, max(1/2, min(x_b, x_c)))
    H1(x) = max(x) if all x_j < 1/2;  min(x) if all x_j > 1/2;  else 1/2
    H2(x) = max(1/2, min(x))

The checkers classify a parameter tuple as Bounded, Unbounded, or
Undetermined and return a trace of every comparison performed, so a caller
can always reconstruct why a verdict was reached.  Sufficient and necessary
conditions are kept separate on purpose: a verdict of Undetermined means the
sufficient conditions failed while no necessary condition was violated.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import Sequence

__all__ = [
    "Exponent",
    "INF",
    "ExponentError",
    "PreconditionError",
    "Classification",
    "ConditionRecord",
    "Verdict",
    "ParamTuple",
    "conjugate",
    "young_functional",
    "g_functional",
    "h0",
    "h1",
    "h2",
    "lemma_equivalence_holds",
    "remark_bound",
    "check_convolution",
    "check_multiplication",
    "check_modulation",
    "check_weak_proposition",
    "classify",
    "binding_condition",
]

HALF = Fraction(1, 2)
ZERO = Fraction(0)

MODULATION_FLAVORS = ("convolution", "multiplication")
# The flavors of a boundedness sweep: each flavor in the Lebesgue settings,
# then in the modulation setting.
SWEEP_FLAVORS = MODULATION_FLAVORS + tuple(f"modulation-{f}" for f in MODULATION_FLAVORS)
MODULATION_SPACES = ("M", "W")


class ExponentError(ValueError):
    """Raised when a value cannot be interpreted as an exponent in [1, oo]."""


class PreconditionError(ValueError):
    """A verifier was asked to run outside its standing hypotheses.

    Defined here, in the numpy-free layer, so that the command line can
    catch it without importing the numerics; ``kernels`` re-exports it.
    """


class Exponent:
    """A Lebesgue exponent: a rational in [1, oo) or infinity.

    ``value`` is ``None`` exactly when the exponent is infinite.  Use the
    module constant ``INF`` rather than spelling ``Exponent(None)``.
    """

    def __init__(self, value: Fraction | int | None) -> None:
        if isinstance(value, float):
            raise ExponentError(f"exponents must be exact rationals, got float {value!r}")
        if value is not None:
            try:
                value = Fraction(value)
            except (TypeError, ValueError) as exc:
                raise ExponentError(f"not a rational exponent: {value!r}") from exc
            if value < 1:
                raise ExponentError(f"exponent must lie in [1, oo], got {value}")
        self.value: Fraction | None = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Exponent) and self.value == other.value

    @classmethod
    def of(cls, value: "Exponent | Fraction | int | str | None") -> "Exponent":
        """Coerce ints, Fractions, strings, or None (= oo) to an Exponent."""
        if isinstance(value, Exponent):
            return value
        if value is None:
            return INF
        if isinstance(value, str):
            return cls.parse(value)
        return cls(Fraction(value))

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse ``"inf"``, an integer literal, or ``"a/b"``.

        Decimal literals are rejected; exponents are exact by contract.
        """
        text = text.strip()
        if text in ("inf", "oo"):
            return INF
        if "." in text:
            raise ExponentError(f"decimal exponents are not accepted: {text!r}")
        try:
            return cls(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ExponentError(f"bad exponent literal: {text!r}") from exc

    def reciprocal(self) -> Fraction:
        """1/p as an exact rational; the reciprocal of oo is 0."""
        return ZERO if self.value is None else 1 / self.value

    def conjugate(self) -> "Exponent":
        """Hoelder conjugate p' with 1/p + 1/p' = 1 (1' = oo, oo' = 1)."""
        if self.value is None:
            return Exponent(Fraction(1))
        if self.value == 1:
            return INF
        return Exponent(1 / (1 - 1 / self.value))

    def __float__(self) -> float:
        return float("inf") if self.value is None else float(self.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"Exponent({self})"


INF = Exponent(None)

ExponentTriple = tuple[Exponent, Exponent, Exponent]
WeightTriple = tuple[Fraction, Fraction, Fraction]


def _exponent_triple(values: Sequence) -> ExponentTriple:
    items = tuple(Exponent.of(v) for v in values)
    if len(items) != 3:
        raise ValueError(f"expected an exponent triple, got {len(items)} entries")
    return items  # type: ignore[return-value]


def _weight_triple(values: Sequence) -> WeightTriple:
    out = []
    for v in values:
        if isinstance(v, float):
            raise TypeError(f"weights must be exact rationals, got float {v!r}")
        out.append(Fraction(v))
    if len(out) != 3:
        raise ValueError(f"expected a weight triple, got {len(out)} entries")
    return tuple(out)  # type: ignore[return-value]


class ParamTuple:
    """Parameters of a trilinear boundedness question.

    ``p`` and ``t`` are always present (exponent and weight blocks for the
    convolution side); ``q`` and ``s`` may be omitted for pure convolution
    checks and are required by the multiplication and modulation checkers.
    """

    def __init__(
        self, d: int, p: Sequence, t: Sequence = (ZERO, ZERO, ZERO),
        q: Sequence | None = None, s: Sequence | None = None,
    ) -> None:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"dimension must be a positive integer, got {d!r}")
        vars(self).update(
            d=d, p=_exponent_triple(p), t=_weight_triple(t),
            q=None if q is None else _exponent_triple(q),
            s=None if s is None else _weight_triple(s),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class Classification(str, Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    UNDETERMINED = "Undetermined"


class ConditionRecord:
    """One comparison performed by a checker.

    ``relation`` is the relation that was *tested* ('>=', '>', '<=', or '='
    for strictness triggers).  ``satisfied`` says whether it held.
    """

    def __init__(
        self, condition_id: str, lhs: Fraction, relation: str, rhs: Fraction,
        satisfied: bool, strictness_required: bool = False,
    ) -> None:
        self.condition_id = condition_id
        self.lhs = lhs
        self.relation = relation
        self.rhs = rhs
        self.satisfied = satisfied
        self.strictness_required = strictness_required

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConditionRecord) and vars(self) == vars(other)

    @property
    def informational(self) -> bool:
        """A strictness trigger row (``strict_trigger_*``, or its alternate
        reading ``alt_strict_*``): it records whether the clause fires, and
        never decides or binds a verdict."""
        return self.condition_id.startswith(("strict_trigger_", "alt_strict_"))


class Verdict:
    def __init__(self, classification: Classification, theorem_used: str, trace: tuple):
        self.classification = classification
        self.theorem_used = theorem_used
        self.trace = trace

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Verdict) and vars(self) == vars(other)


def conjugate(p: Exponent) -> Exponent:
    """Hoelder conjugate of ``p``."""
    return Exponent.of(p).conjugate()


def young_functional(p: Sequence) -> Fraction:
    """R(p) = 2 - 1/p0 - 1/p1 - 1/p2, an exact rational in [-1, 2]."""
    triple = _exponent_triple(p)
    return Fraction(2) - sum(e.reciprocal() for e in triple)


def g_functional(x: Sequence) -> Fraction:
    """G(x) = 2 - x0 - x1 - x2 on reciprocal coordinates."""
    xs = _weight_triple(x)
    return Fraction(2) - sum(xs)


def h0(x: Sequence) -> Fraction:
    """max over permutations (a,b,c) of min(x_a, max(1/2, min(x_b, x_c)))."""
    xs = _weight_triple(x)
    return max(
        min(xs[a], max(HALF, min(xs[b], xs[c])))
        for a, b, c in permutations(range(3))
    )


def h1(x: Sequence) -> Fraction:
    """Case form: max(x) below 1/2, min(x) above 1/2, else exactly 1/2."""
    xs = _weight_triple(x)
    if all(v < HALF for v in xs):
        return max(xs)
    if all(v > HALF for v in xs):
        return min(xs)
    return HALF


def h2(x: Sequence) -> Fraction:
    """H2(x) = max(1/2, min(x))."""
    xs = _weight_triple(x)
    return max(HALF, min(xs))


def lemma_equivalence_holds(x: Sequence) -> bool:
    """Exact check of the threshold equivalence at a reciprocal triple.

    Returns True iff H0(x) == H1(x) and, for each H in (H0, H1, H2), the
    condition 0 <= G(x) <= 1/2 holds exactly when 0 <= G(x) <= H(x) holds.
    """
    xs = _weight_triple(x)
    g = g_functional(xs)
    candidates = (h0(xs), h1(xs), h2(xs))
    if candidates[0] != candidates[1]:
        return False
    base = ZERO <= g <= HALF
    return all((ZERO <= g <= h) == base for h in candidates)


def remark_bound(p: Sequence) -> Fraction:
    """The sharp replacement for the 1/2 threshold: H2 of the reciprocals."""
    triple = _exponent_triple(p)
    return h2(tuple(e.reciprocal() for e in triple))


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (1, 2))


def _pairwise_records(weights: WeightTriple, wname: str) -> list[ConditionRecord]:
    recs = []
    for j, k in _PAIRS:
        lhs = weights[j] + weights[k]
        recs.append(
            ConditionRecord(f"pair_{wname}{j}{k}", lhs, ">=", ZERO, lhs >= ZERO)
        )
    return recs


def _necessity(
    trace: list[ConditionRecord], blocks: list[tuple[WeightTriple, str, Fraction]]
) -> Verdict | None:
    """Trace the pairwise sums and the total floor of each (weights, name,
    d R) block in turn into the empty ``trace``.  Unbounded when a pairwise
    sum fails, else when a floor fails; None when all hold."""
    for weights, wname, dr in blocks:
        total = sum(weights)
        trace += _pairwise_records(weights, wname)
        trace.append(ConditionRecord(f"total_{wname}", total, ">=", dr, total >= dr))
    families = (("necessity_pairwise", "pair_"), ("necessity_total", "total_"))
    for theorem, family in families:
        if any(not rec.satisfied for rec in trace if rec.condition_id.startswith(family)):
            return Verdict(Classification.UNBOUNDED, theorem, tuple(trace))
    return None


def _range_records(r: Fraction, ename: str, upper: Fraction) -> tuple:
    """The records (lo, hi) of 0 <= R <= ``upper``, R of the exponents ``ename``."""
    return (
        ConditionRecord(f"young_range_{ename}_lo", r, ">=", ZERO, r >= ZERO),
        ConditionRecord(f"young_range_{ename}_hi", r, "<=", upper, r <= upper),
    )


def _strictness_clause(
    trace: list[ConditionRecord],
    weights: WeightTriple,
    wname: str,
    r: Fraction,
    dr: Fraction,
    alt_weights: WeightTriple | None = None,
    alt_wname: str = "",
) -> None:
    """Trace the strictness trigger and, when it binds, the strict total.

    The trigger fires when some weight equals d R; if it fires and R > 0,
    the total-weight floor must hold strictly.  ``alt_weights`` adds the
    informational alternate reading of the trigger after the trigger rows.
    """
    triggers = [
        ConditionRecord(f"strict_trigger_{wname}{j}", w, "=", dr, w == dr)
        for j, w in enumerate(weights)
    ]
    trace.extend(triggers)
    if alt_weights is not None:
        # Informational only: the alternate (textual) reading of the trigger
        # compares the other weight block against the same threshold.
        trace.extend(
            ConditionRecord(f"alt_strict_{alt_wname}{j}", w, "=", dr, w == dr)
            for j, w in enumerate(alt_weights)
        )
    if r > ZERO and any(rec.satisfied for rec in triggers):
        total = sum(weights)
        trace.append(ConditionRecord(
            f"total_{wname}_strict", total, ">", dr, total > dr,
            strictness_required=True,
        ))


def _sufficient(trace: list[ConditionRecord], theorem: str) -> Verdict:
    """Bounded citing ``theorem`` when every row of ``trace`` that is not
    informational holds; Undetermined citing "none" otherwise."""
    if all(rec.satisfied or rec.informational for rec in trace):
        return Verdict(Classification.BOUNDED, theorem, tuple(trace))
    return Verdict(Classification.UNDETERMINED, "none", tuple(trace))


def _blocks(params: ParamTuple, flavor: str) -> tuple[tuple, tuple]:
    """The (exponents, weights, exponent name, weight name) block that
    ``flavor`` reads, (p, t) for convolution and (q, s) for multiplication,
    then the other block."""
    pt = (params.p, params.t, "p", "t")
    qs = (params.q, params.s, "q", "s")
    return (pt, qs) if flavor == "convolution" else (qs, pt)


def _young_check(
    params: ParamTuple, flavor: str, theorem: str, range_upper: Fraction
) -> Verdict:
    """Shared engine behind the convolution and multiplication checkers, on
    the block that ``flavor`` reads.

    Necessity first (pairwise sums and the total-weight floor hold whenever
    the map is bounded, with no side hypotheses), then the sufficient
    conditions with the strictness clause.  The other weight block, when
    present, gives the informational alternate reading of the trigger.
    """
    (exps, weights, ename, wname), (_, alt_weights, _, alt_wname) = _blocks(
        params, flavor
    )
    r = young_functional(exps)
    dr = params.d * r
    trace: list[ConditionRecord] = []
    unbounded = _necessity(trace, [(weights, wname, dr)])
    if unbounded is not None:
        return unbounded

    trace.extend(_range_records(r, ename, range_upper))
    _strictness_clause(trace, weights, wname, r, dr, alt_weights, alt_wname)
    return _sufficient(trace, theorem)


def check_convolution(
    params: ParamTuple, *, range_bound: Fraction | None = None
) -> Verdict:
    """Classify weighted convolution L^{p1}_{t1} x L^{p2}_{t2} -> L^{p0'}_{-t0}.

    Bounded when 0 <= R(p) <= 1/2, all pairwise sums t_j + t_k are
    nonnegative, and sum(t) >= d R(p), strictly whenever R(p) > 0 and some
    t_j equals d R(p).  Unbounded when a pairwise sum is negative or
    sum(t) < d R(p); these are necessary regardless of any range condition.
    Everything else is Undetermined.

    The strictness trigger is evaluated on the t_j (the reading used by the
    proof); when ``params.s`` is present the alternate textual reading
    (trigger on s_j) is recorded in the trace as informational
    ``alt_strict_`` entries.  ``range_bound`` replaces the 1/2 threshold;
    the documented equivalence with ``remark_bound(p)`` is exercised by the
    test suite.
    """
    upper = HALF if range_bound is None else Fraction(range_bound)
    return _young_check(params, "convolution", "weighted_young_convolution", upper)


def check_multiplication(params: ParamTuple) -> Verdict:
    """Classify weighted multiplication on Fourier-Lebesgue spaces.

    Mirrors :func:`check_convolution` with the roles of (p, t) taken by
    (q, s): the transform swaps pointwise products and convolutions, so the
    same inequalities decide both questions.
    """
    if params.q is None or params.s is None:
        raise ValueError("multiplication check requires the q and s blocks")
    return _young_check(
        params, "multiplication", "fourier_lebesgue_multiplication", HALF
    )


def check_modulation(params: ParamTuple, flavor: str, space: str) -> Verdict:
    """Classify convolution or multiplication on modulation-type spaces.

    Both necessity families are evaluated first, regardless of flavor: the
    pairwise and total conditions on (p, t) and on (q, s).  Any violation
    gives Unbounded citing that condition.  Otherwise the flavor-matched
    sufficient conditions are checked:

    - convolution: 0 <= R(p) <= 1/2, R(q) <= 1, total t floor with the
      strictness clause on the t_j, and sum(s) >= 0;
    - multiplication: the mirror image (roles of (p, t) and (q, s) swapped).

    ``space`` ("M" or "W") selects the label only; the conditions are
    identical for both space families.
    """
    if flavor not in MODULATION_FLAVORS:
        raise ValueError(f"flavor must be one of {MODULATION_FLAVORS}, got {flavor!r}")
    if space not in MODULATION_SPACES:
        raise ValueError(f"space must be one of {MODULATION_SPACES}, got {space!r}")
    if params.q is None or params.s is None:
        raise ValueError("modulation check requires the q and s blocks")

    d = params.d
    rp = young_functional(params.p)
    rq = young_functional(params.q)
    trace: list[ConditionRecord] = []
    unbounded = _necessity(trace, [(params.t, "t", d * rp), (params.s, "s", d * rq)])
    if unbounded is not None:
        return unbounded

    (_, weights, ename, wname), (_, other_weights, cap_name, other_w) = _blocks(
        params, flavor
    )
    r, cap_r = (rp, rq) if flavor == "convolution" else (rq, rp)
    other_total = sum(other_weights)
    trace.extend(_range_records(r, ename, HALF))
    trace.append(ConditionRecord(
        f"holder_cap_{cap_name}", cap_r, "<=", Fraction(1), cap_r <= 1
    ))
    trace.append(ConditionRecord(
        f"total_{other_w}_nonneg", other_total, ">=", ZERO, other_total >= ZERO
    ))
    _strictness_clause(trace, weights, wname, r, d * r)
    return _sufficient(trace, f"modulation_{flavor}_{space}")


def check_weak_proposition(params: ParamTuple) -> Verdict:
    """Classify via the weaker sufficient conditions (strict pair form).

    Bounded when 0 < R(p) <= 1/2, all pairwise sums are nonnegative with at
    least two of them strictly positive, and sum(t) > d R(p) strictly.
    Anything else is Undetermined: these hypotheses are sufficient only, so
    their failure proves nothing.
    """
    r = young_functional(params.p)
    dr = params.d * r
    strict_count = sum(
        1 for (j, k) in _PAIRS if params.t[j] + params.t[k] > ZERO
    )
    total = sum(params.t)
    trace = [
        ConditionRecord("young_range_p_lo_strict", r, ">", ZERO, r > ZERO),
        ConditionRecord("young_range_p_hi", r, "<=", HALF, r <= HALF),
        *_pairwise_records(params.t, "t"),
        ConditionRecord(
            "weak_strict_count", Fraction(strict_count), ">=", Fraction(2),
            strict_count >= 2,
        ),
        ConditionRecord(
            "total_t_strict", total, ">", dr, total > dr, strictness_required=True
        ),
    ]
    return _sufficient(trace, "weak_young_convolution")


# (flavor, setting) -> its checker, in every setting but the modulation one.
CHECKERS = {
    ("convolution", "lebesgue"): check_convolution,
    ("multiplication", "lebesgue"): check_multiplication,
    ("convolution", "weak"): check_weak_proposition,
}


def classify(
    params: ParamTuple, flavor: str, setting: str = "lebesgue", space: str = "M"
) -> Verdict:
    """The verdict of the one checker that answers ``flavor`` in ``setting``.

    ``space`` ("M" or "W") applies to the modulation setting only.
    """
    if setting == "modulation":
        return check_modulation(params, flavor, space)
    if (flavor, setting) not in CHECKERS:
        raise ValueError(f"no checker for flavor {flavor!r} in setting {setting!r}")
    return CHECKERS[flavor, setting](params)


def binding_condition(verdict: Verdict) -> str:
    """The condition id that decided the verdict, for report tables.

    For Unbounded verdicts: the first violated condition of the cited
    family (a pairwise sum for ``necessity_pairwise``).  For Undetermined
    verdicts: the first failed condition that is not informational.  For
    Bounded verdicts whose trace carries a strictness requirement: that
    condition id (so strict rows can be marked).  Otherwise the empty
    string.
    """
    if verdict.classification is Classification.BOUNDED:
        rows = (rec for rec in verdict.trace if rec.strictness_required)
    else:
        family = "pair_" if verdict.theorem_used == "necessity_pairwise" else ""
        rows = (
            rec for rec in verdict.trace
            if not (rec.satisfied or rec.informational)
            and rec.condition_id.startswith(family)
        )
    return next((rec.condition_id for rec in rows), "")
