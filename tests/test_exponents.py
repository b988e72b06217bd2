"""Exact-arithmetic layer: exponents, threshold functionals, checkers."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from youngbound.exponents import (
    INF,
    Classification,
    Exponent,
    ExponentError,
    ParamTuple,
    binding_condition,
    check_convolution,
    check_modulation,
    check_multiplication,
    check_weak_proposition,
    classify,
    conjugate,
    g_functional,
    h0,
    h1,
    h2,
    lemma_equivalence_holds,
    remark_bound,
    _exponent_triple,
    _weight_triple,
    young_functional,
)
from youngbound.scenario import parse_scenario_text, resolve_scenario

from oracles import (
    ref_gap_functional,
    ref_threshold_cases,
    ref_threshold_floor,
    ref_threshold_maxmin,
    ref_verdict,
)

# Small-denominator rationals keep hypothesis shrinking readable and the
# arithmetic exact.
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)
wide_fractions = st.fractions(min_value=0, max_value=3, max_denominator=8)
weights = st.fractions(min_value=-2, max_value=2, max_denominator=8)


def exponents_strategy():
    """Exponents in [1, oo] built through their reciprocals."""
    return unit_fractions.map(lambda x: INF if x == 0 else Exponent(1 / x))


# ---------------------------------------------------------------------------
# Exponent arithmetic
# ---------------------------------------------------------------------------

def test_conjugate_frozen_values():
    assert conjugate(1) == INF
    assert conjugate(2) == Exponent(F(2))
    assert conjugate(4) == Exponent(F(4, 3))
    assert conjugate(INF) == Exponent(F(1))


def test_parse_accepts_rationals_and_infinity():
    assert Exponent.parse("inf") == INF
    assert Exponent.parse("oo") == INF
    assert Exponent.parse("3/2") == Exponent(F(3, 2))
    assert Exponent.parse(" 2 ") == Exponent(F(2))


def test_parse_rejects_decimals_and_junk():
    with pytest.raises(ExponentError):
        Exponent.parse("1.5")
    with pytest.raises(ExponentError):
        Exponent.parse("p")
    with pytest.raises(ExponentError):
        Exponent.parse("1/0")


def test_exponent_range_enforced():
    with pytest.raises(ExponentError):
        Exponent(F(1, 2))
    with pytest.raises(ExponentError):
        Exponent.of(0)


def test_exponent_rejects_floats():
    with pytest.raises(ExponentError):
        Exponent(1.5)  # type: ignore[arg-type]


def test_infinity_prints_and_compares():
    assert str(INF) == "inf"
    assert str(Exponent(F(3, 2))) == "3/2"
    assert Exponent.parse("inf") == INF != Exponent(F(7))


@given(exponents_strategy())
def test_prop_conjugate_is_an_involution(p):
    assert p.conjugate().conjugate() == p


@given(exponents_strategy())
def test_prop_conjugate_reciprocals_sum_to_one(p):
    assert p.reciprocal() + p.conjugate().reciprocal() == 1


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

def test_young_functional_frozen_values():
    assert young_functional((1, 1, 1)) == F(-1)
    assert young_functional((2, 2, 2)) == F(1, 2)
    assert young_functional((INF, INF, INF)) == F(2)
    assert young_functional((2, 1, 2)) == F(0)


def test_gap_functional_matches_reference():
    for triple in [(0, 0, 0), (F(1, 2),) * 3, (1, 1, 0), (F(1, 3), F(2, 3), 1)]:
        assert g_functional(triple) == ref_gap_functional(triple)


@given(st.tuples(unit_fractions, unit_fractions, unit_fractions))
def test_prop_young_equals_gap_on_reciprocals(x):
    ps = tuple(INF if v == 0 else Exponent(1 / v) for v in x)
    assert young_functional(ps) == g_functional(x)


def test_threshold_functionals_frozen_values():
    table = [
        ((F(1, 3), F(1, 4), F(1, 5)), F(1, 3)),
        ((F(3, 5), F(7, 10), F(4, 5)), F(3, 5)),
        ((F(1, 4), F(1, 2), F(3, 4)), F(1, 2)),
    ]
    for triple, expected in table:
        assert h0(triple) == expected
        assert h1(triple) == expected
    assert h2((F(1, 3), F(1, 4), F(1, 5))) == F(1, 2)
    assert h2((F(3, 5), F(7, 10), F(4, 5))) == F(3, 5)
    assert h2((F(1, 4), F(1, 2), F(3, 4))) == F(1, 2)


@given(st.tuples(wide_fractions, wide_fractions, wide_fractions))
def test_prop_thresholds_match_independent_coding(x):
    assert h0(x) == ref_threshold_maxmin(x)
    assert h1(x) == ref_threshold_cases(x)
    assert h2(x) == ref_threshold_floor(x)


@given(st.tuples(wide_fractions, wide_fractions, wide_fractions))
def test_prop_maxmin_and_case_forms_agree(x):
    assert h0(x) == h1(x)


@given(st.tuples(unit_fractions, unit_fractions, unit_fractions))
def test_prop_lemma_equivalence_on_random_rationals(x):
    assert lemma_equivalence_holds(x)


@given(st.permutations([F(1, 3), F(2, 3), F(1, 5)]))
def test_prop_thresholds_are_symmetric(perm):
    base = (F(1, 3), F(2, 3), F(1, 5))
    assert h0(tuple(perm)) == h0(base)
    assert h1(tuple(perm)) == h1(base)
    assert h2(tuple(perm)) == h2(base)


def test_remark_bound_frozen_values():
    assert remark_bound((2, 2, 2)) == F(1, 2)
    assert remark_bound((F(3, 2), F(3, 2), F(3, 2))) == F(2, 3)
    assert remark_bound((INF, 1, 1)) == F(1, 2)


# ---------------------------------------------------------------------------
# ParamTuple
# ---------------------------------------------------------------------------

def test_param_tuple_coerces_and_freezes():
    params = ParamTuple(d=1, p=(2, "inf", "3/2"), t=(0, F(1, 2), -1))
    assert params.p[1] == INF
    assert params.t == (F(0), F(1, 2), F(-1))
    with pytest.raises(AttributeError):
        params.d = 2  # type: ignore[misc]


def test_param_tuple_rejects_float_weights():
    with pytest.raises((TypeError, ValueError)):
        ParamTuple(d=1, p=(2, 2, 2), t=(0.5, 0, 0))


def test_param_tuple_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ParamTuple(d=0, p=(2, 2, 2), t=(0, 0, 0))
    with pytest.raises(ValueError):
        ParamTuple(d=-1, p=(2, 2, 2), t=(0, 0, 0))


def test_exponent_refuses_a_value_that_is_not_rational():
    with pytest.raises(ExponentError, match="not a rational exponent"):
        Exponent(object())


@pytest.mark.parametrize("entries", [(2, 2), (2, 2, 2, 2)])
def test_triples_refuse_the_wrong_length(entries):
    with pytest.raises(ValueError, match=f"expected an exponent triple, got {len(entries)} entries"):
        _exponent_triple(entries)
    with pytest.raises(ValueError, match=f"expected a weight triple, got {len(entries)} entries"):
        _weight_triple(entries)


def test_modulation_check_refuses_a_tuple_without_q_and_s():
    with pytest.raises(ValueError, match="modulation check requires the q and s blocks"):
        check_modulation(ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0)), "convolution", "M")


def test_param_tuple_allows_higher_dimensions():
    """The exact layer takes any dimension; only the numerics stop at d = 1."""
    v = check_convolution(ParamTuple(d=3, p=(2, 2, 2), t=(F(1, 2),) * 3))
    assert v.classification is Classification.BOUNDED


# ---------------------------------------------------------------------------
# Convolution checker
# ---------------------------------------------------------------------------

def test_convolution_classical_control_case():
    v = check_convolution(ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0)))
    assert v.classification is Classification.BOUNDED
    assert v.theorem_used == "weighted_young_convolution"


def test_convolution_boundary_weights_bounded():
    v = check_convolution(ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 6),) * 3))
    assert v.classification is Classification.BOUNDED


def test_convolution_zero_weights_fail_total_floor():
    v = check_convolution(ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0)))
    assert v.classification is Classification.UNBOUNDED
    assert v.theorem_used == "necessity_total"
    assert binding_condition(v) == "total_t"


def test_convolution_negative_pair_unbounded():
    v = check_convolution(ParamTuple(d=1, p=(2, 2, 2), t=(1, 1, -2)))
    assert v.classification is Classification.UNBOUNDED
    assert v.theorem_used == "necessity_pairwise"
    assert binding_condition(v) in ("pair_t02", "pair_t12")


def test_convolution_strict_clause_satisfied():
    v = check_convolution(ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 2),) * 3))
    assert v.classification is Classification.BOUNDED
    strict = [r for r in v.trace if r.strictness_required]
    assert strict and all(r.satisfied for r in strict)
    assert binding_condition(v) == strict[0].condition_id


def test_convolution_strict_clause_gap_is_undetermined():
    v = check_convolution(ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 2), 0, 0)))
    assert v.classification is Classification.UNDETERMINED
    assert binding_condition(v) == "total_t_strict"


def test_convolution_above_range_undetermined():
    v = check_convolution(ParamTuple(d=1, p=(3, 3, 3), t=(1, 1, 1)))
    assert v.classification is Classification.UNDETERMINED
    assert binding_condition(v) == "young_range_p_hi"


def test_trace_condition_ids_are_unique():
    v = check_convolution(ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 2),) * 3))
    ids = [r.condition_id for r in v.trace]
    assert len(ids) == len(set(ids))


def test_verdict_serializes_to_plain_data():
    import json

    from youngbound.scenario import RunRecord

    v = check_convolution(ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0)))
    record = RunRecord("check", {}, {"verdict": v}, 0, None, "", "", {})
    payload = json.loads(record.to_json())["results"]["verdict"]
    assert json.dumps(payload)
    assert payload["classification"] == v.classification.value
    assert [row["lhs"] for row in payload["trace"]] == [
        str(rec.lhs) for rec in v.trace
    ]


def params_strategy():
    return st.builds(
        lambda p, t: ParamTuple(d=1, p=p, t=t),
        st.tuples(*[exponents_strategy()] * 3),
        st.tuples(weights, weights, weights),
    )


@given(params_strategy())
def test_prop_remark_bound_never_changes_the_verdict(params):
    base = check_convolution(params)
    widened = check_convolution(params, range_bound=remark_bound(params.p))
    assert widened.classification is base.classification


@given(params_strategy())
def test_prop_bounded_implies_necessity_rows_hold(params):
    v = check_convolution(params)
    if v.classification is Classification.BOUNDED:
        for rec in v.trace:
            if rec.condition_id.startswith(("pair_t", "total_t")):
                assert rec.satisfied


@given(params_strategy())
def test_prop_input_slots_commute(params):
    """Convolution is symmetric in its two inputs; slot 0 is the output."""
    swapped = ParamTuple(
        d=params.d,
        p=(params.p[0], params.p[2], params.p[1]),
        t=(params.t[0], params.t[2], params.t[1]),
    )
    assert (
        check_convolution(swapped).classification
        is check_convolution(params).classification
    )


@given(params_strategy())
def test_prop_binding_condition_names_a_trace_row(params):
    v = check_convolution(params)
    name = binding_condition(v)
    if name:
        assert name in {r.condition_id for r in v.trace}


# ---------------------------------------------------------------------------
# Multiplication checker
# ---------------------------------------------------------------------------

def _mult_params(q, s):
    return ParamTuple(d=1, p=q, t=s, q=q, s=s)


def test_multiplication_frozen_verdicts():
    assert (
        check_multiplication(_mult_params((2, 1, 2), (0, 0, 0))).classification
        is Classification.BOUNDED
    )
    assert (
        check_multiplication(_mult_params((2, 2, 2), (F(1, 6),) * 3)).classification
        is Classification.BOUNDED
    )
    v = check_multiplication(_mult_params((2, 2, 2), (1, -2, 0)))
    assert v.classification is Classification.UNBOUNDED
    assert binding_condition(v) in ("pair_s01", "pair_s12")


def test_multiplication_requires_transform_blocks():
    with pytest.raises(ValueError):
        check_multiplication(ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0)))


def test_multiplication_theorem_label():
    v = check_multiplication(_mult_params((2, 1, 2), (0, 0, 0)))
    assert v.theorem_used == "fourier_lebesgue_multiplication"


# ---------------------------------------------------------------------------
# Modulation checker
# ---------------------------------------------------------------------------

def test_modulation_convolution_bounded_case():
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(1, 1, 1), s=(0, 0, 0))
    v = check_modulation(params, "convolution", "M")
    assert v.classification is Classification.BOUNDED
    assert v.theorem_used == "modulation_convolution_M"


def test_modulation_w_space_refutation_tuple():
    params = ParamTuple(
        d=1, p=(2, 4, 4), t=(0, 1, -1), q=(2, 1, 2), s=(0, 0, 0)
    )
    v = check_modulation(params, "multiplication", "W")
    assert v.classification is Classification.UNBOUNDED
    assert binding_condition(v) == "pair_t02"


def test_modulation_necessity_spans_both_weight_blocks():
    params = ParamTuple(
        d=1, p=(2, 1, 2), t=(0, 0, 0), q=(2, 2, 2), s=(1, -2, 0)
    )
    v = check_modulation(params, "convolution", "M")
    assert v.classification is Classification.UNBOUNDED


def test_pairwise_verdict_binds_a_pairwise_row():
    """The total floor of t fails before the pairwise sums of s in the
    trace, but the verdict cites the pairwise family, so a pair row binds."""
    params = ParamTuple(
        d=1, p=(2, 2, 2), t=(0, 0, 0), q=(2, 2, 2), s=(1, -2, 0)
    )
    v = check_modulation(params, "convolution", "M")
    assert v.theorem_used == "necessity_pairwise"
    assert binding_condition(v) == "pair_s01"


def test_modulation_validates_flavor_and_space():
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(1, 1, 1), s=(0, 0, 0))
    with pytest.raises(ValueError):
        check_modulation(params, "division", "M")
    with pytest.raises(ValueError):
        check_modulation(params, "convolution", "Z")


# ---------------------------------------------------------------------------
# Frozen traces
# ---------------------------------------------------------------------------

H = F(1, 2)

# One tuple per branch of each checker (pairwise and total necessity, with a
# violation on each weight block for the modulation flavors, then Bounded
# and Undetermined), with the whole trace frozen: condition id, lhs,
# relation, rhs, satisfied and strictness, in order.  A space of None
# selects check_convolution or check_multiplication.
_FROZEN_TRACES = [
    (
        "convolution", None,
        dict(p=(2, 2, 2), t=(1, 1, -2)),
        "Unbounded", "necessity_pairwise",
        [
            ("pair_t01", "2", ">=", "0", True, False),
            ("pair_t02", "-1", ">=", "0", False, False),
            ("pair_t12", "-1", ">=", "0", False, False),
            ("total_t", "0", ">=", "1/2", False, False),
        ],
    ),
    (
        "convolution", None,
        dict(p=(2, 2, 2), t=(0, 0, 0)),
        "Unbounded", "necessity_total",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "1/2", False, False),
        ],
    ),
    (
        "convolution", None,
        dict(p=(2, 2, 2), t=(H, H, H), q=(2, 2, 2), s=(H, 0, 0)),
        "Bounded", "weighted_young_convolution",
        [
            ("pair_t01", "1", ">=", "0", True, False),
            ("pair_t02", "1", ">=", "0", True, False),
            ("pair_t12", "1", ">=", "0", True, False),
            ("total_t", "3/2", ">=", "1/2", True, False),
            ("young_range_p_lo", "1/2", ">=", "0", True, False),
            ("young_range_p_hi", "1/2", "<=", "1/2", True, False),
            ("strict_trigger_t0", "1/2", "=", "1/2", True, False),
            ("strict_trigger_t1", "1/2", "=", "1/2", True, False),
            ("strict_trigger_t2", "1/2", "=", "1/2", True, False),
            ("alt_strict_s0", "1/2", "=", "1/2", True, False),
            ("alt_strict_s1", "0", "=", "1/2", False, False),
            ("alt_strict_s2", "0", "=", "1/2", False, False),
            ("total_t_strict", "3/2", ">", "1/2", True, True),
        ],
    ),
    (
        "convolution", None,
        dict(p=(2, 2, 2), t=(H, 0, 0)),
        "Undetermined", "none",
        [
            ("pair_t01", "1/2", ">=", "0", True, False),
            ("pair_t02", "1/2", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "1/2", ">=", "1/2", True, False),
            ("young_range_p_lo", "1/2", ">=", "0", True, False),
            ("young_range_p_hi", "1/2", "<=", "1/2", True, False),
            ("strict_trigger_t0", "1/2", "=", "1/2", True, False),
            ("strict_trigger_t1", "0", "=", "1/2", False, False),
            ("strict_trigger_t2", "0", "=", "1/2", False, False),
            ("total_t_strict", "1/2", ">", "1/2", False, True),
        ],
    ),
    (
        "multiplication", None,
        dict(p=(2, 2, 2), t=(H, 0, 0), q=(2, 2, 2), s=(1, -2, 0)),
        "Unbounded", "necessity_pairwise",
        [
            ("pair_s01", "-1", ">=", "0", False, False),
            ("pair_s02", "1", ">=", "0", True, False),
            ("pair_s12", "-2", ">=", "0", False, False),
            ("total_s", "-1", ">=", "1/2", False, False),
        ],
    ),
    (
        "multiplication", None,
        dict(p=(2, 2, 2), t=(H, 0, 0), q=(2, 2, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_total",
        [
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "1/2", False, False),
        ],
    ),
    (
        "multiplication", None,
        dict(p=(2, 2, 2), t=(H, 0, 0), q=(2, 2, 2), s=(H, H, H)),
        "Bounded", "fourier_lebesgue_multiplication",
        [
            ("pair_s01", "1", ">=", "0", True, False),
            ("pair_s02", "1", ">=", "0", True, False),
            ("pair_s12", "1", ">=", "0", True, False),
            ("total_s", "3/2", ">=", "1/2", True, False),
            ("young_range_q_lo", "1/2", ">=", "0", True, False),
            ("young_range_q_hi", "1/2", "<=", "1/2", True, False),
            ("strict_trigger_s0", "1/2", "=", "1/2", True, False),
            ("strict_trigger_s1", "1/2", "=", "1/2", True, False),
            ("strict_trigger_s2", "1/2", "=", "1/2", True, False),
            ("alt_strict_t0", "1/2", "=", "1/2", True, False),
            ("alt_strict_t1", "0", "=", "1/2", False, False),
            ("alt_strict_t2", "0", "=", "1/2", False, False),
            ("total_s_strict", "3/2", ">", "1/2", True, True),
        ],
    ),
    (
        "multiplication", None,
        dict(p=(2, 2, 2), t=(H, 0, 0), q=(3, 3, 3), s=(1, 1, 1)),
        "Undetermined", "none",
        [
            ("pair_s01", "2", ">=", "0", True, False),
            ("pair_s02", "2", ">=", "0", True, False),
            ("pair_s12", "2", ">=", "0", True, False),
            ("total_s", "3", ">=", "1", True, False),
            ("young_range_q_lo", "1", ">=", "0", True, False),
            ("young_range_q_hi", "1", "<=", "1/2", False, False),
            ("strict_trigger_s0", "1", "=", "1", True, False),
            ("strict_trigger_s1", "1", "=", "1", True, False),
            ("strict_trigger_s2", "1", "=", "1", True, False),
            ("alt_strict_t0", "1/2", "=", "1", False, False),
            ("alt_strict_t1", "0", "=", "1", False, False),
            ("alt_strict_t2", "0", "=", "1", False, False),
            ("total_s_strict", "3", ">", "1", True, True),
        ],
    ),
    (
        "convolution", "M",
        dict(p=(2, 1, 2), t=(1, -2, 0), q=(2, 1, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_pairwise",
        [
            ("pair_t01", "-1", ">=", "0", False, False),
            ("pair_t02", "1", ">=", "0", True, False),
            ("pair_t12", "-2", ">=", "0", False, False),
            ("total_t", "-1", ">=", "0", False, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "0", True, False),
        ],
    ),
    (
        "convolution", "M",
        dict(p=(2, 1, 2), t=(0, 0, 0), q=(2, 1, 2), s=(1, -2, 0)),
        "Unbounded", "necessity_pairwise",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "0", True, False),
            ("pair_s01", "-1", ">=", "0", False, False),
            ("pair_s02", "1", ">=", "0", True, False),
            ("pair_s12", "-2", ">=", "0", False, False),
            ("total_s", "-1", ">=", "0", False, False),
        ],
    ),
    (
        "convolution", "M",
        dict(p=(2, 2, 2), t=(0, 0, 0), q=(2, 1, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_total",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "1/2", False, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "0", True, False),
        ],
    ),
    (
        "convolution", "M",
        dict(p=(2, 1, 2), t=(0, 0, 0), q=(2, 2, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_total",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "0", True, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "1/2", False, False),
        ],
    ),
    (
        "multiplication", "W",
        dict(p=(2, 1, 2), t=(1, -2, 0), q=(2, 1, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_pairwise",
        [
            ("pair_t01", "-1", ">=", "0", False, False),
            ("pair_t02", "1", ">=", "0", True, False),
            ("pair_t12", "-2", ">=", "0", False, False),
            ("total_t", "-1", ">=", "0", False, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "0", True, False),
        ],
    ),
    (
        "multiplication", "W",
        dict(p=(2, 1, 2), t=(0, 0, 0), q=(2, 1, 2), s=(1, -2, 0)),
        "Unbounded", "necessity_pairwise",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "0", True, False),
            ("pair_s01", "-1", ">=", "0", False, False),
            ("pair_s02", "1", ">=", "0", True, False),
            ("pair_s12", "-2", ">=", "0", False, False),
            ("total_s", "-1", ">=", "0", False, False),
        ],
    ),
    (
        "multiplication", "W",
        dict(p=(2, 2, 2), t=(0, 0, 0), q=(2, 1, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_total",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "1/2", False, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "0", True, False),
        ],
    ),
    (
        "multiplication", "W",
        dict(p=(2, 1, 2), t=(0, 0, 0), q=(2, 2, 2), s=(0, 0, 0)),
        "Unbounded", "necessity_total",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "0", True, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "1/2", False, False),
        ],
    ),
    (
        "convolution", "M",
        dict(p=(2, 2, 2), t=(H, H, H), q=(1, 1, 1), s=(0, 0, 0)),
        "Bounded", "modulation_convolution_M",
        [
            ("pair_t01", "1", ">=", "0", True, False),
            ("pair_t02", "1", ">=", "0", True, False),
            ("pair_t12", "1", ">=", "0", True, False),
            ("total_t", "3/2", ">=", "1/2", True, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "-1", True, False),
            ("young_range_p_lo", "1/2", ">=", "0", True, False),
            ("young_range_p_hi", "1/2", "<=", "1/2", True, False),
            ("holder_cap_q", "-1", "<=", "1", True, False),
            ("total_s_nonneg", "0", ">=", "0", True, False),
            ("strict_trigger_t0", "1/2", "=", "1/2", True, False),
            ("strict_trigger_t1", "1/2", "=", "1/2", True, False),
            ("strict_trigger_t2", "1/2", "=", "1/2", True, False),
            ("total_t_strict", "3/2", ">", "1/2", True, True),
        ],
    ),
    (
        "convolution", "M",
        dict(p=(2, 1, 2), t=(0, 0, 0), q=("inf", "inf", "inf"), s=(1, 1, 1)),
        "Undetermined", "none",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "0", True, False),
            ("pair_s01", "2", ">=", "0", True, False),
            ("pair_s02", "2", ">=", "0", True, False),
            ("pair_s12", "2", ">=", "0", True, False),
            ("total_s", "3", ">=", "2", True, False),
            ("young_range_p_lo", "0", ">=", "0", True, False),
            ("young_range_p_hi", "0", "<=", "1/2", True, False),
            ("holder_cap_q", "2", "<=", "1", False, False),
            ("total_s_nonneg", "3", ">=", "0", True, False),
            ("strict_trigger_t0", "0", "=", "0", True, False),
            ("strict_trigger_t1", "0", "=", "0", True, False),
            ("strict_trigger_t2", "0", "=", "0", True, False),
        ],
    ),
    (
        "multiplication", "W",
        dict(p=(1, 1, 1), t=(0, 0, 0), q=(2, 2, 2), s=(H, H, H)),
        "Bounded", "modulation_multiplication_W",
        [
            ("pair_t01", "0", ">=", "0", True, False),
            ("pair_t02", "0", ">=", "0", True, False),
            ("pair_t12", "0", ">=", "0", True, False),
            ("total_t", "0", ">=", "-1", True, False),
            ("pair_s01", "1", ">=", "0", True, False),
            ("pair_s02", "1", ">=", "0", True, False),
            ("pair_s12", "1", ">=", "0", True, False),
            ("total_s", "3/2", ">=", "1/2", True, False),
            ("young_range_q_lo", "1/2", ">=", "0", True, False),
            ("young_range_q_hi", "1/2", "<=", "1/2", True, False),
            ("holder_cap_p", "-1", "<=", "1", True, False),
            ("total_t_nonneg", "0", ">=", "0", True, False),
            ("strict_trigger_s0", "1/2", "=", "1/2", True, False),
            ("strict_trigger_s1", "1/2", "=", "1/2", True, False),
            ("strict_trigger_s2", "1/2", "=", "1/2", True, False),
            ("total_s_strict", "3/2", ">", "1/2", True, True),
        ],
    ),
    (
        "multiplication", "W",
        dict(p=("inf", "inf", "inf"), t=(1, 1, 1), q=(2, 1, 2), s=(0, 0, 0)),
        "Undetermined", "none",
        [
            ("pair_t01", "2", ">=", "0", True, False),
            ("pair_t02", "2", ">=", "0", True, False),
            ("pair_t12", "2", ">=", "0", True, False),
            ("total_t", "3", ">=", "2", True, False),
            ("pair_s01", "0", ">=", "0", True, False),
            ("pair_s02", "0", ">=", "0", True, False),
            ("pair_s12", "0", ">=", "0", True, False),
            ("total_s", "0", ">=", "0", True, False),
            ("young_range_q_lo", "0", ">=", "0", True, False),
            ("young_range_q_hi", "0", "<=", "1/2", True, False),
            ("holder_cap_p", "2", "<=", "1", False, False),
            ("total_t_nonneg", "3", ">=", "0", True, False),
            ("strict_trigger_s0", "0", "=", "0", True, False),
            ("strict_trigger_s1", "0", "=", "0", True, False),
            ("strict_trigger_s2", "0", "=", "0", True, False),
        ],
    ),
]


@pytest.mark.parametrize(
    "flavor, space, params, classification, theorem, trace", _FROZEN_TRACES
)
def test_checker_traces_are_frozen(
    flavor, space, params, classification, theorem, trace
):
    params = ParamTuple(d=1, **params)
    if space is None:
        checker = {
            "convolution": check_convolution,
            "multiplication": check_multiplication,
        }[flavor]
        verdict = checker(params)
    else:
        verdict = check_modulation(params, flavor, space)
    assert verdict.classification.value == classification
    assert verdict.theorem_used == theorem
    assert [
        (r.condition_id, str(r.lhs), r.relation, str(r.rhs), r.satisfied,
         r.strictness_required)
        for r in verdict.trace
    ] == trace


# ---------------------------------------------------------------------------
# Weak-type checker
# ---------------------------------------------------------------------------

def test_weak_checker_requires_strict_interior():
    boundary = check_weak_proposition(
        ParamTuple(d=1, p=(2, 2, 2), t=(F(1, 6),) * 3)
    )
    assert boundary.classification is Classification.UNDETERMINED
    interior = check_weak_proposition(ParamTuple(d=1, p=(2, 2, 2), t=(1, 1, 1)))
    assert interior.classification is Classification.BOUNDED
    assert interior.theorem_used == "weak_young_convolution"


def test_weak_checker_never_refutes():
    v = check_weak_proposition(ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0)))
    assert v.classification is Classification.UNDETERMINED


@given(params_strategy())
def test_prop_weak_checker_never_reports_unbounded(params):
    v = check_weak_proposition(params)
    assert v.classification is not Classification.UNBOUNDED


# ---------------------------------------------------------------------------
# The checkers against an independent coding of their rules
# ---------------------------------------------------------------------------

# (setting, flavor, space) of every checker; the space only labels the
# modulation verdict, so both are compared.
_SETTINGS = [
    ("lebesgue", "convolution", "M"),
    ("lebesgue", "multiplication", "M"),
    ("weak", "convolution", "M"),
    *(("modulation", f, space) for f in ("convolution", "multiplication")
      for space in ("M", "W")),
]


def _assert_matches_rules(params, settings):
    p, q = (
        None if e is None else tuple(x.value for x in e) for e in (params.p, params.q)
    )
    for setting, flavor, space in settings:
        verdict = classify(params, flavor, setting, space)
        got = (verdict.classification.value, binding_condition(verdict))
        want = ref_verdict(setting, flavor, params.d, p, params.t, q, params.s)
        assert got == want, (setting, flavor, params)


def test_weight_sweep_grid_matches_the_independent_rules():
    """Every row of the shipped weight sweep, in every setting that admits
    its flavor; the modulation settings mirror (p, t) into (q, s)."""
    path = Path(__file__).resolve().parent.parent / "scenarios/weight_sweep.txt"
    values = resolve_scenario("sweep", parse_scenario_text(path.read_text()))
    count = (values["t_max"] - values["t_min"]) // values["t_step"] + 1
    ladder = [values["t_min"] + k * values["t_step"] for k in range(count)]
    admitted = [s for s in _SETTINGS if s[1] == values["flavor"]]
    p = values["p"]
    for w in product(ladder, repeat=3):
        _assert_matches_rules(ParamTuple(d=values["d"], p=p, t=w, q=p, s=w), admitted)


_RECIPROCALS = st.sampled_from(
    [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
)
_MOVES = st.tuples(st.sampled_from([None, "trigger", "pair", "total"]), st.integers(0, 2))
# One block's draws, flat because hypothesis pays per draw: two reciprocals,
# an R to aim the third at, a fallback third, weights in quarters and two
# boundary moves.
_BLOCK_DRAWS = st.tuples(
    _RECIPROCALS, _RECIPROCALS, st.sampled_from([None, F(0), F(1, 2)]), _RECIPROCALS,
    st.tuples(*[st.integers(-4, 4)] * 3), _MOVES, _MOVES,
)


def _boundary_block(d, x0, x1, target, fallback, quarters, *moves):
    """An (exponents, weights) block pushed to the rules' boundaries: R
    often 0 or 1/2, and weights that hit the trigger (w_j = d R), a zero
    pairwise sum or a total of exactly d R."""
    last = None if target is None else 2 - target - x0 - x1
    x = (x0, x1, last if last is not None and 0 <= last <= 1 else fallback)
    dr = d * (2 - sum(x))
    w = [F(k, 4) for k in quarters]
    for mode, j in moves:
        if mode == "trigger":
            w[j] = dr
        elif mode == "pair":
            w[(j + 1) % 3] = -w[j]
        elif mode == "total":
            w[(j + 2) % 3] = dr - w[j] - w[(j + 1) % 3]
    return tuple(INF if v == 0 else Exponent(1 / v) for v in x), tuple(w)


def _boundary_params(d, pt, qs, mirror):
    p, t = _boundary_block(d, *pt)
    q, s = (p, t) if mirror else _boundary_block(d, *qs)
    return ParamTuple(d=d, p=p, t=t, q=q, s=s)


@settings(max_examples=200)
@given(st.builds(
    _boundary_params, st.sampled_from([1, 2, 3]), _BLOCK_DRAWS, _BLOCK_DRAWS,
    st.booleans(),
))
@example(ParamTuple(d=1, p=(2, 2, "inf"), t=(1, 1, 1), q=(2, 2, "inf"), s=(1, 1, 1)))
@example(ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(1, 1, 1), s=(0, 0, 0)))
@example(ParamTuple(d=2, p=(2, 1, 2), t=(1, 0, 0), q=(2, 2, 2), s=(1, 1, -1)))
@example(ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0), q=(2, 2, 2), s=(1, -2, 0)))
def test_prop_checkers_match_the_independent_rules(params):
    _assert_matches_rules(params, _SETTINGS)
