"""Structural invariants of the shipped classification corpus.

The expensive cross-validation (sweeps and witness probes for every row)
runs in the acceptance module; these checks are the cheap bookkeeping that
keeps the table honest: names, spanning, margins, probe assignments.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from youngbound.corpus import CORPUS, CorpusEntry, shadow_tuple, verdict_for
from youngbound.exponents import (
    Classification,
    ParamTuple,
    check_convolution,
    check_modulation,
    check_multiplication,
    check_weak_proposition,
    classify,
    young_functional,
)

B = Classification.BOUNDED
U = Classification.UNBOUNDED
X = Classification.UNDETERMINED


def weight_block(entry: CorpusEntry):
    if entry.flavor == "convolution":
        return entry.params.p, entry.params.t
    return entry.params.q, entry.params.s


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 30


def test_corpus_names_are_unique():
    names = [e.name for e in CORPUS]
    assert len(names) == len(set(names))


def test_corpus_spans_flavors_and_verdicts():
    seen = {(e.flavor, e.expected) for e in CORPUS}
    for flavor in ("convolution", "multiplication"):
        for verdict in (B, U, X):
            assert (flavor, verdict) in seen, (flavor, verdict)


def test_every_entry_matches_its_expected_verdict():
    for entry in CORPUS:
        assert verdict_for(entry).classification is entry.expected, entry.name


def test_margins_record_the_largest_violation():
    for entry in CORPUS:
        exps, weights = weight_block(entry)
        if entry.expected is not U:
            assert entry.margin == 0, entry.name
            continue
        pair_viol = max(
            (-(weights[j] + weights[k]) for j in range(3) for k in range(j + 1, 3)),
            default=F(0),
        )
        total_viol = entry.params.d * young_functional(exps) - sum(weights)
        assert entry.margin == max(pair_viol, total_viol, F(0)), entry.name


def test_unbounded_rows_with_large_margin_carry_a_probe():
    for entry in CORPUS:
        if entry.expected is U and entry.margin >= F(1, 4):
            assert entry.probe in ("gaussian", "translation"), entry.name
            if entry.probe == "translation":
                assert entry.probe_pair is not None, entry.name


def test_probe_fields_only_on_unbounded_rows():
    for entry in CORPUS:
        if entry.expected is not U:
            assert entry.probe is None and entry.probe_pair is None, entry.name


def test_translation_pairs_name_the_violated_pair():
    for entry in CORPUS:
        if entry.probe != "translation":
            continue
        _, weights = weight_block(entry)
        j, k = entry.probe_pair
        assert weights[j] + weights[k] < 0, entry.name


def test_shadow_tuple_mirrors_the_transform_blocks():
    for entry in CORPUS:
        shadow = shadow_tuple(entry)
        if entry.flavor == "convolution":
            assert shadow.p == entry.params.p and shadow.t == entry.params.t
        else:
            assert shadow.p == entry.params.q and shadow.t == entry.params.s
        assert shadow.q is None and shadow.s is None


def test_multiplication_rows_mirror_p_into_q():
    for entry in CORPUS:
        if entry.flavor == "multiplication":
            assert entry.params.q == entry.params.p
            assert entry.params.s == entry.params.t


def _direct_verdicts(entry: CorpusEntry):
    """(setting, space, verdict of the checker called directly) for every
    setting the entry's blocks allow."""
    params = entry.params
    if entry.flavor == "convolution":
        out = [
            ("lebesgue", "M", check_convolution(params)),
            ("weak", "M", check_weak_proposition(params)),
        ]
    else:
        out = [("lebesgue", "M", check_multiplication(params))]
    if params.q is not None and params.s is not None:
        out += [
            ("modulation", space, check_modulation(params, entry.flavor, space))
            for space in ("M", "W")
        ]
    return out


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
def test_classify_matches_the_direct_checker(entry):
    cases = _direct_verdicts(entry)
    for setting, space, want in cases:
        assert classify(entry.params, entry.flavor, setting, space) == want, setting
    assert verdict_for(entry) == cases[0][2]


@pytest.mark.parametrize(
    "flavor, setting, space",
    [
        ("division", "lebesgue", "M"),
        ("division", "modulation", "M"),
        ("multiplication", "weak", "M"),
        ("convolution", "besov", "M"),
        ("convolution", "modulation", "Z"),
    ],
)
def test_classify_rejects_questions_without_a_checker(flavor, setting, space):
    params = ParamTuple(d=1, p=(2, 1, 2), t=(0, 0, 0), q=(2, 1, 2), s=(0, 0, 0))
    with pytest.raises(ValueError):
        classify(params, flavor, setting, space)
