"""Scenario parsing and the command-line entry points."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy
import pytest

import charge_cases
import youngbound
from youngbound import cli, exponents, grids, kernels, probes
from youngbound.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_MALFORMED,
    EXIT_PASS,
    EXIT_WITNESS,
    main,
)
from youngbound.exponents import ParamTuple
from youngbound.scenario import (
    RunRecord,
    ScenarioError,
    package_versions,
    parse_scenario_text,
    resolve_scenario,
    scenario_echo,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path, text):
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_comments_blank_lines_and_case():
    entries = parse_scenario_text(
        "# a comment\n"
        "\n"
        "Flavor = convolution\n"
        "grid-N = 256\n"
    )
    assert entries == {"flavor": "convolution", "grid_n": "256"}


def test_parse_rejects_duplicates_and_junk():
    with pytest.raises(ScenarioError):
        parse_scenario_text("p = 2,2,2\np = 4,4,4\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("just some words\n")


def test_resolve_check_applies_defaults():
    cfg = resolve_scenario("check", {"flavor": "convolution", "p": "2, 1, 2"})
    assert cfg["t"] == (F(0), F(0), F(0))
    assert cfg["setting"] == "lebesgue"
    assert cfg["d"] == 1


def test_resolve_check_requires_flavor_and_p():
    with pytest.raises(ScenarioError):
        resolve_scenario("check", {"p": "2,2,2"})
    with pytest.raises(ScenarioError):
        resolve_scenario("check", {"flavor": "convolution"})


def test_resolve_rejects_an_unknown_command():
    with pytest.raises(ScenarioError, match="unknown command 'bogus'"):
        resolve_scenario("bogus", {})


def test_resolve_rejects_unknown_keys_and_names_the_accepted_ones():
    with pytest.raises(ScenarioError) as err:
        resolve_scenario(
            "check", {"flavor": "convolution", "p": "2,2,2", "colour": "red"}
        )
    assert "colour" in str(err.value)
    assert "flavor" in str(err.value)  # the message lists accepted keys


def test_resolve_multiplication_requires_transform_blocks():
    with pytest.raises(ScenarioError):
        resolve_scenario("check", {"flavor": "multiplication", "p": "2,2,2"})
    cfg = resolve_scenario(
        "check",
        {"flavor": "multiplication", "q": "2,2,2", "s": "0,0,0", "p": "2,2,2"},
    )
    assert cfg["s"] == (F(0), F(0), F(0))


def test_resolve_rejects_decimal_weights():
    with pytest.raises(ScenarioError):
        resolve_scenario(
            "check", {"flavor": "convolution", "p": "2,2,2", "t": "0.5, 0, 0"}
        )


def test_resolve_rejects_bad_exponents():
    with pytest.raises(ScenarioError):
        resolve_scenario("check", {"flavor": "convolution", "p": "2, zero, 2"})


def test_scenario_echo_is_sorted_and_complete():
    cfg = resolve_scenario("check", {"flavor": "convolution", "p": "2, 1, 2"})
    echo = scenario_echo(cfg)
    assert list(echo) == sorted(echo)
    assert echo["setting"] == "lebesgue"  # defaults are echoed back
    assert all(isinstance(v, str) for v in echo.values())


def test_package_versions_reports_the_stack():
    """This process has loaded numpy, so the block names it."""
    assert package_versions() == {
        "artifact": youngbound.__version__,
        "numpy": numpy.__version__,
        "python": "{}.{}.{}".format(*sys.version_info),
    }


def test_the_package_version_is_the_project_version():
    """Records name ``youngbound.__version__``, the one version constant."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SCENARIOS.parent / "pyproject.toml").read_text())["project"]
    assert youngbound.__version__ == project["version"]


def test_run_record_round_trip():
    record = RunRecord(
        command="check",
        scenario={"flavor": "convolution"},
        results={"classification": "Bounded"},
        exit_code=0,
        seed=0,
        started_at="2026-01-01T00:00:00",
        finished_at="2026-01-01T00:00:01",
        versions=package_versions(),
    )
    text = record.to_json()
    back = RunRecord.from_json(text)
    assert back == record


def test_run_record_rejects_unknown_versions():
    record = RunRecord(
        command="check",
        scenario={},
        results={},
        exit_code=0,
        seed=0,
        started_at="",
        finished_at="",
        versions={},
    )
    payload = json.loads(record.to_json())
    payload["record_version"] = 99
    with pytest.raises(ScenarioError):
        RunRecord.from_json(json.dumps(payload))


@pytest.mark.parametrize("version", [True, 1.0])
def test_run_record_rejects_a_version_of_another_type(version):
    record = RunRecord("check", {}, {}, 0, 0, "", "", {})
    payload = json.loads(record.to_json())
    payload["record_version"] = version
    with pytest.raises(ScenarioError, match="unsupported record version"):
        RunRecord.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "field, value",
    [
        ("scenario", 5),
        ("versions", [1]),
        ("exit_code", "x"),
        ("exit_code", None),
        ("exit_code", 1.5),
        ("exit_code", True),
        ("results", 5),
        ("command", 7),
        ("seed", "x"),
    ],
)
def test_run_record_rejects_malformed_fields(field, value):
    """A field of the wrong JSON type is a malformed record: not a raw
    TypeError or ValueError, and not a value that int() coerces or that
    loads unchanged."""
    record = RunRecord("check", {}, {}, 0, 0, "", "", {})
    payload = json.loads(record.to_json())
    payload[field] = value
    with pytest.raises(ScenarioError, match="malformed"):
        RunRecord.from_json(json.dumps(payload))


def _record_without_command() -> str:
    payload = json.loads(RunRecord("check", {}, {}, 0, 0, "", "", {}).to_json())
    del payload["command"]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "text, match",
    [
        ("{", "not a run record: Expecting"),
        ("[1]", "not a run record: top level must be an object"),
        (_record_without_command(), "run record is missing field 'command'"),
    ],
    ids=["not-json", "not-an-object", "missing-field"],
)
def test_run_record_rejects_what_is_not_a_record(text, match):
    with pytest.raises(ScenarioError, match=match):
        RunRecord.from_json(text)


_BOUNDEDNESS = "kind = boundedness\nflavor = convolution\np = 2,2,2\n"


@pytest.mark.parametrize(
    "command, text, named",
    [
        pytest.param("probe", _BOUNDEDNESS + "stride = two\n", "stride: expected an integer",
                     id="not-an-integer"),
        pytest.param("probe", _BOUNDEDNESS + "tol = x\n", "tol: expected a number",
                     id="not-a-number"),
        pytest.param("probe", _BOUNDEDNESS + "tol = inf\n", "tol: expected a finite number",
                     id="not-finite"),
        pytest.param("check", "flavor = convolution\np = 2,,2\n", "p: empty entry",
                     id="empty-list-entry"),
        pytest.param("check", "flavor = convolution\np = 2,2\n",
                     "p: expected 3 comma-separated entries", id="short-list"),
        pytest.param("check", "flavor = convolution\n= 2\n", "line 2: missing key",
                     id="missing-key"),
        pytest.param("check", "flavor = convolution\np =\n", "missing value for 'p'",
                     id="missing-value"),
        pytest.param("check", "flavor = convolution\nsetting = strong\np = 2,2,2\n",
                     "setting: must be one of", id="not-a-choice"),
        pytest.param("check", "flavor = convolution\nspace = M\np = 2,2,2\n",
                     "'space' applies only", id="space-outside-modulation"),
        pytest.param("check", "flavor = multiplication\np = 2,2,2\nq = 2,2,2\n",
                     "transform weights 's'", id="multiplication-without-s"),
        pytest.param("check", "flavor = convolution\np = 2,2,2\nq = 2,2,2\n",
                     "'q'/'s' apply only", id="q-for-convolution"),
        pytest.param("sweep", "flavor = multiplication\nt_min = 0\nt_max = 1\nt_step = 1\n",
                     "require 'q'", id="sweep-without-q"),
        pytest.param("sweep", "flavor = convolution\nt_min = 0\nt_max = 1\nt_step = 1\n",
                     "require 'p'", id="sweep-without-p"),
        pytest.param("sweep",
                     "flavor = convolution\np = 2,2,2\nq = 2,2,2\nt_min = 0\nt_max = 1\n"
                     "t_step = 1\n", "'q' applies only", id="sweep-q-for-convolution"),
        pytest.param("probe", "p = 2,2,2\n", "missing required key 'kind'",
                     id="probe-without-kind"),
    ],
)
def test_malformed_scenario_names_its_key(tmp_path, capsys, command, text, named):
    """Each scenario refusal exits 2, prints nothing on stdout and one
    error line that names the key (or line) at fault."""
    code = main([command, "--scenario", write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and named in line, line


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

def test_check_bounded_exits_zero(capsys):
    code = main(["check", "--scenario", str(SCENARIOS / "convolution_boundary.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "Bounded" in out


def test_check_undetermined_exits_three(capsys):
    code = main(
        ["check", "--scenario", str(SCENARIOS / "convolution_undetermined.txt")]
    )
    assert code == EXIT_INCONCLUSIVE
    assert "Undetermined" in capsys.readouterr().out


def test_check_refutation_scenario(capsys):
    code = main(
        ["check", "--scenario", str(SCENARIOS / "modulation_w_refutation.txt")]
    )
    out = capsys.readouterr().out
    assert code == EXIT_WITNESS
    assert "Unbounded" in out
    assert "pair_t02" in out


def test_check_missing_file_is_malformed(capsys):
    code = main(["check", "--scenario", "/nonexistent/scenario.txt"])
    assert code == EXIT_MALFORMED
    assert capsys.readouterr().err


def test_check_unknown_key_is_malformed(tmp_path, capsys):
    path = write(tmp_path, "flavor = convolution\np = 2,2,2\nwhat = ever\n")
    code = main(["check", "--scenario", path])
    assert code == EXIT_MALFORMED
    assert "what" in capsys.readouterr().err


def test_check_rejects_grid_flags(tmp_path, capsys):
    # The exact-arithmetic checker takes no grid; the flags must not be
    # silently ignored.
    path = write(tmp_path, "flavor = convolution\np = 2,2,2\nt = 1/2,1/2,1/2\n")
    code = main(["check", "--scenario", path, "--grid-n", "256", "--grid-L", "16"])
    assert code == EXIT_MALFORMED


def test_check_writes_run_record(tmp_path):
    out_path = tmp_path / "record.json"
    code = main(
        [
            "check",
            "--scenario",
            str(SCENARIOS / "convolution_boundary.txt"),
            "--out",
            str(out_path),
        ]
    )
    assert code == EXIT_PASS
    record = RunRecord.from_json(out_path.read_text())
    assert record.command == "check"
    assert record.exit_code == EXIT_PASS
    assert record.results["verdict"]["classification"] == "Bounded"


def test_check_results_are_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        main(
            [
                "check",
                "--scenario",
                str(SCENARIOS / "convolution_boundary.txt"),
                "--out",
                str(p),
            ]
        )
    a = RunRecord.from_json(paths[0].read_text())
    b = RunRecord.from_json(paths[1].read_text())
    assert a.results == b.results
    assert a.scenario == b.scenario


def test_check_json_format(tmp_path, capsys):
    path = write(tmp_path, "flavor = convolution\np = 2,1,2\n")
    code = main(["check", "--scenario", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["results"]["verdict"]["classification"] == "Bounded"


def test_check_csv_format(tmp_path, capsys):
    path = write(tmp_path, "flavor = convolution\np = 2,1,2\n")
    code = main(["check", "--scenario", path, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    header = out.splitlines()[0]
    assert "condition_id" in header


# ---------------------------------------------------------------------------
# probe command
# ---------------------------------------------------------------------------

def test_probe_gaussian_witness_exits_one(capsys):
    code = main(["probe", "--scenario", str(SCENARIOS / "gaussian_necessity.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_WITNESS
    assert "witness" in out.lower()


def test_probe_translation_witness_scenario(capsys):
    code = main(
        ["probe", "--scenario", str(SCENARIOS / "modulation_w_witness.txt")]
    )
    assert code == EXIT_WITNESS


def test_probe_norm_slope_passes(tmp_path, capsys):
    path = write(tmp_path, "kind = norm-slope\nexponent = 2\nweight = 0\n")
    code = main(["probe", "--scenario", path])
    assert code == EXIT_PASS


def test_probe_boundedness_scenario_passes(capsys):
    code = main(["probe", "--scenario", str(SCENARIOS / "boundedness_sweep.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "PASS" in out


def test_probe_lower_bound(tmp_path):
    path = write(tmp_path, "kind = lower-bound\nt1 = 1\nt2 = 0\nalpha = 0.25\n")
    assert main(["probe", "--scenario", path]) == EXIT_PASS


def test_probe_grid_flags_are_injected(tmp_path):
    path = write(
        tmp_path,
        "kind = gaussian\nd = 1\np = 2, 2, 2\nt = 0, 0, 0\n",
    )
    code = main(["probe", "--scenario", path, "--grid-n", "2048", "--grid-L", "48"])
    assert code == EXIT_WITNESS  # still witnessed on the smaller grid


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    path = str(SCENARIOS / "convolution_boundary.txt")
    try:
        outs = []
        for _ in range(2):
            assert main(["check", "--scenario", path]) == EXIT_PASS
            outs.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert outs[0] == outs[1]
    assert "Bounded" in outs[0]
    assert len(built) == 1
    assert build() is not build()  # the public builder still builds afresh


def test_probe_bad_kind_is_malformed(tmp_path, capsys):
    path = write(tmp_path, "kind = seismograph\n")
    assert main(["probe", "--scenario", path]) == EXIT_MALFORMED


# kind -> (scenario text, probes function that runs it)
PROBE_KINDS = {
    "gaussian": ("kind = gaussian\np = 2, 2, 2\n", "gaussian_necessity_probe"),
    "translation": ("kind = translation\np = 2, 2, 2\n", "translation_necessity_probe"),
    "lower-bound": (
        "kind = lower-bound\nt1 = 1\nt2 = 0\nalpha = 0.25\n",
        "gaussian_lower_bound_check",
    ),
    "norm-slope": ("kind = norm-slope\nexponent = 2\n", "gaussian_norm_slope"),
    "boundedness": (
        "kind = boundedness\nflavor = convolution\np = 2, 1, 2\n",
        "boundedness_sweep",
    ),
}


def _canned_report(kind, passed, witnessed=False, slope=0.0):
    from youngbound import probes

    if kind in ("gaussian", "norm-slope"):
        return probes.ProbeReport(
            kind, [1.0, 2.0], [1.0, 1.0], slope, 0.0, 1.0, 0.05, passed, witnessed
        )
    if kind == "translation":
        return probes.TranslationReport(
            [2.0, 4.0], [1.0, 1.0], [1.0, 1.0], slope, 0.0, 1.0, 0.0, (0, 1, 2),
            passed, witnessed,
        )
    if kind == "lower-bound":  # a floor check has no witness field
        return probes.BoundReport("1", "0", 0.25, 8.0, 1.0, 1.0, passed)
    return probes.SweepReport(
        "convolution", None, "Bounded", "weighted_young_convolution",
        [1.0, 0.5], [1.0, 1.0], slope, 1.0, passed,
    )


@pytest.mark.parametrize(
    "kind, passed, witnessed, slope, expected",
    [
        ("gaussian", True, True, 0.0, EXIT_WITNESS),
        ("gaussian", True, False, 0.0, EXIT_PASS),
        ("gaussian", False, False, 0.0, EXIT_INCONCLUSIVE),
        ("translation", True, True, 0.0, EXIT_WITNESS),
        ("translation", True, False, 0.0, EXIT_PASS),
        ("translation", False, False, 0.0, EXIT_INCONCLUSIVE),
        # Calibrations witness nothing: a set witness flag is ignored.
        ("norm-slope", True, True, 0.0, EXIT_PASS),
        ("norm-slope", True, False, 0.0, EXIT_PASS),
        ("norm-slope", False, False, 0.0, EXIT_INCONCLUSIVE),
        ("lower-bound", True, False, 0.0, EXIT_PASS),
        ("lower-bound", False, False, 0.0, EXIT_INCONCLUSIVE),
        # A boundedness ladder witnesses by rising faster than tol = 0.05.
        ("boundedness", True, False, 0.0, EXIT_PASS),
        ("boundedness", True, False, 0.2, EXIT_PASS),
        ("boundedness", False, False, 0.2, EXIT_WITNESS),
        ("boundedness", False, False, 0.05, EXIT_INCONCLUSIVE),
        ("boundedness", False, False, -0.2, EXIT_INCONCLUSIVE),
    ],
)
def test_probe_exit_rule(
    tmp_path, capsys, monkeypatch, kind, passed, witnessed, slope, expected
):
    """Each probe kind maps a report to its exit code; the runners return
    canned reports, so no numerics run."""
    text, runner = PROBE_KINDS[kind]
    report = _canned_report(kind, passed, witnessed, slope)
    for name in {r for _, r in PROBE_KINDS.values()}:
        canned = report if name == runner else None
        monkeypatch.setattr(f"youngbound.probes.{name}", lambda *a, _r=canned, **k: _r)
    assert main(["probe", "--scenario", write(tmp_path, text)]) == expected
    assert capsys.readouterr().out.startswith("=" * 70 + f"\nprobe: {kind}\n")


# ---------------------------------------------------------------------------
# verify-lemmas command
# ---------------------------------------------------------------------------

def test_verify_slices_fast_case(tmp_path, capsys):
    path = write(
        tmp_path,
        "which = slices\nregion = 1\np = 2\nt = 1, 1, 1\n"
        "scan_hi = 16\n",
    )
    code = main(["verify-lemmas", "--scenario", path])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "PASS" in out


def test_verify_operator_fast_case(tmp_path, capsys):
    path = write(
        tmp_path,
        "which = operator\ncase = 1\np = 2, 1, 2\ntrials = 2\n",
    )
    code = main(["verify-lemmas", "--scenario", path])
    assert code == EXIT_PASS


def test_verify_operator_precondition_is_malformed(tmp_path, capsys):
    path = write(tmp_path, "which = operator\ncase = 1\np = 1, 1, 1\n")
    code = main(["verify-lemmas", "--scenario", path])
    assert code == EXIT_MALFORMED
    assert capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def test_sweep_scenario_runs_and_reports(tmp_path, capsys):
    code = main(["sweep", "--scenario", str(SCENARIOS / "weight_sweep.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "Bounded" in out and "Unbounded" in out


def test_sweep_csv_rows(tmp_path, capsys):
    path = write(
        tmp_path,
        "flavor = convolution\np = 2, 2, 2\n"
        "t_min = 0\nt_max = 1/2\nt_step = 1/2\n",
    )
    code = main(["sweep", "--scenario", path, "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_PASS
    assert "classification" in out[0]
    assert len(out) == 1 + 2 ** 3  # header plus the 2x2x2 weight grid


def test_sweep_row_cap_is_malformed(tmp_path, capsys):
    path = write(
        tmp_path,
        "flavor = convolution\np = 2, 2, 2\n"
        "t_min = 0\nt_max = 1\nt_step = 1/25\n",
    )
    code = main(["sweep", "--scenario", path])
    assert code == EXIT_MALFORMED
    assert "10000" in capsys.readouterr().err.replace(",", "")


def test_sweep_row_cap_is_checked_before_the_ladder_is_built(
    tmp_path, capsys, monkeypatch
):
    """2,000,001 weights a side: the cap refuses the sweep from the ladder's
    length alone, before any weight is built."""

    def build(*args):
        raise AssertionError("the weight ladder was built")

    monkeypatch.setattr(cli, "_weight_ladder", build)
    path = write(
        tmp_path,
        "flavor = convolution\np = 2, 2, 2\n"
        "t_min = -1\nt_max = 1\nt_step = 1/1000000\n",
    )
    code = main(["sweep", "--scenario", path])
    assert code == EXIT_MALFORMED
    assert f"rows, above the cap of {cli.MAX_SWEEP_ROWS}" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("check", "flavor = convolution\nd = 0\np = 2, 2, 2\n"),
    ("sweep", "flavor = convolution\nd = 0\np = 2, 2, 2\n"
              "t_min = 0\nt_max = 1\nt_step = 1\n"),
])
def test_nonpositive_dimension_is_malformed(tmp_path, capsys, command, text):
    code = main([command, "--scenario", write(tmp_path, text)])
    assert code == EXIT_MALFORMED
    assert capsys.readouterr().err == (
        "error: dimension must be a positive integer, got 0\n"
    )


def test_gaussian_probe_in_two_dimensions_is_malformed(tmp_path, capsys):
    path = write(tmp_path, "kind = gaussian\nd = 2\np = 2, 2, 2\nt = 1, 1, 1\n")
    code = main(["probe", "--scenario", path])
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the numerics are one-dimensional, got d = 2"
    ]


# A scenario is checked for its keys, types and choices when it is read;
# the range of each value is checked by the routine that uses it.
@pytest.mark.parametrize("command, text, message", [
    pytest.param(
        "check",
        "flavor = multiplication\nsetting = weak\np = 2,2,2\nq = 2,2,2\ns = 0,0,0\n",
        "no checker for flavor 'multiplication' in setting 'weak'",
        id="weak-multiplication",
    ),
    pytest.param(
        "check", "flavor = multiplication\nsetting = weak\np = 2,2,2\n",
        "no checker for flavor 'multiplication' in setting 'weak'",
        id="weak-multiplication-without-q",
    ),
    pytest.param(
        "probe", "kind = translation\np = 2,2,2\npair = 1, 1\n",
        "pair must name two distinct slots, got (1, 1)", id="pair-repeated",
    ),
    pytest.param(
        "probe", "kind = translation\np = 2,2,2\npair = 0, 3\n",
        "pair must name two distinct slots, got (0, 3)", id="pair-out-of-range",
    ),
    pytest.param(
        "probe", "kind = translation\np = 2,2,2\noffsets = 0, 2\n",
        "offsets must be positive", id="offsets-not-positive",
    ),
    pytest.param(
        "probe", "kind = gaussian\np = 2,2,2\nt = -1,-1,-1\n",
        "precondition not met: all weights are negative; no slot permutation puts a "
        "nonnegative weight in position 1, which the spreading lower bound requires",
        id="gaussian-all-weights-negative",
    ),
    pytest.param(
        "probe", "kind = lower-bound\nt1 = 0\nt2 = 0\nalpha = 0\n",
        "alpha must lie in (0, 1], got 0.0", id="alpha-zero",
    ),
    pytest.param(
        "probe", "kind = lower-bound\nt1 = 0\nt2 = 0\nalpha = -1\n",
        "alpha must lie in (0, 1], got -1.0", id="alpha-negative",
    ),
    pytest.param(
        "verify-lemmas", "which = slices\nregion = 7\np = 2\nt = 0,0,0\n",
        "region must be in 1..5, got 7", id="region",
    ),
    pytest.param(
        "verify-lemmas", "which = slices\nregion = 1\np = 2\nt = 0,0,0\ndelta = 1.5\n",
        "delta must lie in (0, 1), got 3/2", id="delta",
    ),
    pytest.param(
        "verify-lemmas",
        "which = slices\nregion = 1\np = 2\nt = 0,0,0\nscan_lo = 5\nscan_hi = 2\n",
        "scan range must satisfy 0 < lo < hi, got (5.0, 2.0)", id="scan-range",
    ),
    pytest.param(
        "verify-lemmas", "which = operator\ncase = 4\np = 2,2,2\n",
        "case must be 1, 2, or 3, got 4", id="case",
    ),
    pytest.param(
        "verify-lemmas", "which = operator\ncase = 1\np = 2,2,2\ntrials = 0\n",
        "trials must be at least 1, got 0", id="trials",
    ),
    pytest.param(
        "sweep", "flavor = convolution\np = 2,2,2\nt_min = 0\nt_max = 1\nt_step = 0\n",
        "t_step must be positive, got 0", id="t-step",
    ),
    pytest.param(
        "sweep", "flavor = convolution\np = 2,2,2\nt_min = 1\nt_max = 0\nt_step = 1\n",
        "t_min must not exceed t_max", id="t-order",
    ),
])
def test_out_of_range_value_is_refused_by_the_routine_using_it(
    tmp_path, capsys, command, text, message
):
    code = main([command, "--scenario", write(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


_BEYOND_BINARY64 = "1" + "0" * 400  # an exact value that no float can hold
# R(1, 2, p2) = 10^-400, so the dual scale r = 1/R(p) is beyond binary64.
_P2_BEYOND_DUAL_SCALE = 1 / (F(1, 2) - F(1, 10 ** 400))


@pytest.mark.parametrize("command, text, flags", [
    pytest.param("check", b"flavor = convolution\np = 2,2,2\n# \xff\n", [], id="not-utf8"),
    pytest.param(
        "check", (SCENARIOS / "convolution_boundary.txt").read_bytes(),
        ["--out", "{tmp}/missing/record.json"], id="unwritable-out",
    ),
    pytest.param(
        "probe", f"kind = gaussian\np = 2,2,2\nt = {_BEYOND_BINARY64},0,0\n".encode(),
        [], id="gaussian-huge-weight",
    ),
    pytest.param(
        "probe",
        f"kind = boundedness\nflavor = convolution\np = 2,2,2\n"
        f"t = 1,{_BEYOND_BINARY64},{_BEYOND_BINARY64}\n".encode(),
        [], id="boundedness-huge-weight",
    ),
    pytest.param(
        "probe", f"kind = lower-bound\nt1 = {_BEYOND_BINARY64}\nt2 = 0\nalpha = 0.5\n".encode(),
        [], id="lower-bound-huge-weight",
    ),
    pytest.param(
        "probe", f"kind = norm-slope\nexponent = 2\nweight = {_BEYOND_BINARY64}\n".encode(),
        [], id="norm-slope-huge-weight",
    ),
    pytest.param(
        "verify-lemmas",
        f"which = slices\nregion = 1\np = 2\nt = {_BEYOND_BINARY64},0,0\n".encode(),
        [], id="slices-huge-weight",
    ),
    pytest.param(
        "probe", b"kind = gaussian\np = 2,2,2\nalphas = 0.5, 0.5\n", [],
        id="one-point-ladder",
    ),
])
def test_refused_request_exits_two_with_one_error_line(
    tmp_path, capsys, command, text, flags
):
    path = tmp_path / "scenario.txt"
    path.write_bytes(text)
    code = main(
        [command, "--scenario", str(path), *(f.format(tmp=tmp_path) for f in flags)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:")


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(youngbound.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


# (command, scenario bytes or None for a missing file, flags, text of the
# error line).  pytest records warnings in-process, so only a fresh
# process shows whether numpy's warnings reach stderr before the refusal.
_FRESH_REFUSALS = {
    "unreadable": ("check", None, [], "cannot read scenario file"),
    "not-utf8": ("check", b"flavor = convolution\np = 2,2,2\n# \xff\n", [], "cannot read"),
    "unknown-key": ("check", b"flavor = convolution\np = 2,2,2\nbogus = 1\n", [], "bogus"),
    "grid-n-alone": (
        "probe", b"kind = gaussian\np = 2,2,2\n", ["--grid-n", "512"],
        "grid_n and grid_l must be given together",
    ),
    "grid-n-over-cap": (
        "probe", b"kind = gaussian\np = 2,2,2\n", ["--grid-n", str(2 ** 24), "--grid-L", "48"],
        "above the cap",
    ),
    "precondition": (
        "probe", b"kind = lower-bound\nt1 = -1\nt2 = 0\nalpha = 0.5\n", [],
        "precondition not met",
    ),
    "weight-overflows-grid": (
        "probe", b"kind = norm-slope\nexponent = 2\nweight = 400\n", [], "overflows binary64",
    ),
    "weight-beyond-binary64": (
        "probe", f"kind = gaussian\np = 2,2,2\nt = {_BEYOND_BINARY64},0,0\n".encode(), [],
        f"the weight -{_BEYOND_BINARY64} is beyond binary64",
    ),
    "weak-multiplication-without-q": (
        "check", b"flavor = multiplication\nsetting = weak\np = 2,2,2\n", [],
        "no checker for flavor 'multiplication' in setting 'weak'",
    ),
    "gaussian-member-overflows": (
        "probe",
        f"kind = lower-bound\nt1 = {10 ** 307}\nt2 = -{10 ** 307}\nalpha = 0.5\n".encode(), [],
        f"the weight -{10 ** 307} makes <x>^(-t) e^(-0.5 x^2) overflow binary64",
    ),
    "slice-envelope-overflows": (
        "verify-lemmas",
        f"which = slices\nregion = 4\np = 2\nt = -{10 ** 307}, -{10 ** 307}, 0\n".encode(), [],
        "the slice envelope of region 4 at scan value 1 overflows binary64",
    ),
    "norm-slope-exponent-beyond-binary64": (
        "probe", f"kind = norm-slope\nexponent = {_BEYOND_BINARY64}\n".encode(), [],
        f"the exponent {_BEYOND_BINARY64} is beyond binary64",
    ),
    "slice-exponent-beyond-binary64": (
        "verify-lemmas",
        f"which = slices\nregion = 1\nt = 1, 1, 1\np = {_BEYOND_BINARY64}\n".encode(), [],
        f"the exponent {_BEYOND_BINARY64} is beyond binary64",
    ),
    "operator-dual-scale-beyond-binary64": (
        "verify-lemmas",
        f"which = operator\ncase = 1\ntrials = 1\np = 1, 2, {_P2_BEYOND_DUAL_SCALE}\n".encode(),
        ["--grid-n", "64", "--grid-L", "8"],
        f"the dual scale r = 1/R(p) = {_BEYOND_BINARY64} is beyond binary64",
    ),
    "slice-scan-to-the-largest-float": (
        "verify-lemmas",
        b"which = slices\nregion = 1\np = 2\nt = 0,0,0\nscan_hi = 1.7976931348623157e308\n",
        [], "would take 4097 points of 20001-point quadrature, above the limit of 1000",
    ),
    "slice-scan-from-the-smallest-subnormal": (
        "verify-lemmas", b"which = slices\nregion = 1\np = 2\nt = 0,0,0\nscan_lo = 5e-324\n",
        [], "the scan from 5e-324 to 100.0 would take 4323 points",
    ),
    "negative-operator-seed": (
        "verify-lemmas", b"which = operator\ncase = 1\np = 2,2,2\n", ["--seed", "-1"],
        "the seed must be a non-negative integer, got -1",
    ),
}


def test_check_accepts_a_negative_seed(capsys):
    """Nothing in `check` draws at random, so its seed is only recorded."""
    path = str(SCENARIOS / "convolution_boundary.txt")
    assert main(["check", "--scenario", path, "--seed", "-1", "--format", "json"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["seed"] == -1


@pytest.mark.parametrize("case", sorted(_FRESH_REFUSALS))
def test_refusal_in_a_fresh_process_is_one_error_line(tmp_path, case):
    """A refused request exits 2, prints nothing on stdout and exactly one
    `error: ` line on stderr, with no warning before it."""
    command, text, flags, message = _FRESH_REFUSALS[case]
    path = tmp_path / "scenario.txt"
    if text is not None:
        path.write_bytes(text)
    proc = subprocess.run(
        [sys.executable, "-m", "youngbound.cli", command, "--scenario", str(path), *flags],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_MALFORMED, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert message in line


def test_sweep_multiplication_defaults_p_to_q(tmp_path, capsys):
    path = write(
        tmp_path,
        "flavor = multiplication\nq = 2, 2, 2\n"
        "t_min = 0\nt_max = 1/2\nt_step = 1/2\n",
    )
    code = main(["sweep", "--scenario", path])
    assert code == EXIT_PASS


def test_sweep_polytope_counts_match_exact_arithmetic(tmp_path, capsys):
    """Dual-route check on the 9^3 weight grid over p = (2,2,2).

    The sweep's verdict table must agree with the polytope description:
    Bounded iff all pairwise sums are nonnegative and the total clears 1/2,
    with the strictness gap (a weight exactly 1/2 while the total sits on
    the floor) carved out as Undetermined.
    """
    path = write(
        tmp_path,
        "flavor = convolution\np = 2, 2, 2\n"
        "t_min = -1/2\nt_max = 1/2\nt_step = 1/8\n",
    )
    code = main(["sweep", "--scenario", path, "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_PASS
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 9 ** 3

    counts = {"Bounded": 0, "Unbounded": 0, "Undetermined": 0}
    for row in rows:
        t = tuple(F(row[k]) for k in ("t0", "t1", "t2"))
        pairs_ok = all(
            t[j] + t[k] >= 0 for j in range(3) for k in range(j + 1, 3)
        )
        total = sum(t)
        if not pairs_ok or total < F(1, 2):
            expected = "Unbounded"
        elif total == F(1, 2) and any(v == F(1, 2) for v in t):
            expected = "Undetermined"
        else:
            expected = "Bounded"
        assert row["classification"] == expected, row
        counts[row["classification"]] += 1
    assert counts == {"Bounded": 141, "Unbounded": 564, "Undetermined": 24}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def test_missing_scenario_flag_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["check"])


def test_grid_flags_must_come_together(tmp_path, capsys):
    path = write(tmp_path, "kind = gaussian\nd = 1\np = 2,2,2\nt = 0,0,0\n")
    code = main(["probe", "--scenario", path, "--grid-n", "2048"])
    assert code == EXIT_MALFORMED


# ---------------------------------------------------------------------------
# Strict JSON and loud numerics
# ---------------------------------------------------------------------------

SHIPPED_COMMANDS = {
    "boundedness_sweep": "probe",
    "convolution_boundary": "check",
    "convolution_undetermined": "check",
    "gaussian_necessity": "probe",
    "modulation_w_refutation": "check",
    "modulation_w_witness": "probe",
    "operator_bounds": "verify-lemmas",
    "slice_envelope": "verify-lemmas",
    "translation_necessity": "probe",
    "weight_sweep": "sweep",
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_record(argv, capsys):
    code = main([*argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["exit_code"] == code
    return payload


GOLDEN = Path(__file__).resolve().parent / "golden"
# Fields that differ between two runs of the same scenario.
MASKED_FIELDS = ("started_at", "finished_at", "versions")


def _assert_record_close(got, want, where="record"):
    """Structure, strings, ints and bools equal; floats to 1e-12 relative.

    The absolute floor keeps rounding-level values (slopes near 1e-16)
    comparable across machines.
    """
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_record_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_record_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _assert_matches_golden(payload, stem):
    """Compare a run record with ``tests/golden/<stem>.json``, whose masked
    fields hold "<masked>"."""
    want = json.loads((GOLDEN / f"{stem}.json").read_text())
    got = {**payload, **{key: "<masked>" for key in MASKED_FIELDS}}
    _assert_record_close(got, want)


def test_shipped_scenarios_cover_every_file():
    assert set(SHIPPED_COMMANDS) == {p.stem for p in SCENARIOS.glob("*.txt")}


@pytest.mark.parametrize("stem", sorted(SHIPPED_COMMANDS))
def test_shipped_scenario_records_are_strict_json(stem, capsys):
    path = str(SCENARIOS / f"{stem}.txt")
    payload = _strict_record([SHIPPED_COMMANDS[stem], "--scenario", path], capsys)
    _assert_matches_golden(payload, stem)


R0_OPERATOR = "which = operator\ncase = 1\np = 1, 2, 2\ntrials = 1\n"


def test_infinite_results_are_spelled_as_strings(tmp_path, capsys):
    """R(p) = 0 makes the kernel exponent r infinite; the record says "inf"
    rather than the non-JSON literal Infinity."""
    path = write(tmp_path, R0_OPERATOR)
    payload = _strict_record(["verify-lemmas", "--scenario", path], capsys)
    assert payload["results"]["report"]["r"] == "inf"
    _assert_matches_golden(payload, "operator_r0")


# The probe kinds and ladder flavors no shipped scenario runs.  Their texts
# live here, not under scenarios/, because every file there is a benchmark
# operation.  The modulation ladders use the product-identity tuple of the
# benchmark's modulation operations, at stride 8 on the default grid.
_MODULATION_LADDER = charge_cases.MODULATION_LADDER
EXTRA_PROBES = {
    "probe_lower_bound": "kind = lower-bound\nt1 = 1/2\nt2 = -1/4\nalpha = 0.25\n",
    "probe_norm_slope": "kind = norm-slope\nexponent = 3\nweight = 1/2\n",
    "probe_modulation_convolution": _MODULATION_LADDER.format("modulation-convolution", 8),
    "probe_modulation_multiplication": _MODULATION_LADDER.format(
        "modulation-multiplication", 8
    ),
}


def _golden_argv(stem, tmp_path):
    if stem in SHIPPED_COMMANDS:
        return [SHIPPED_COMMANDS[stem], "--scenario", str(SCENARIOS / f"{stem}.txt")]
    if stem == "operator_r0":
        return ["verify-lemmas", "--scenario", write(tmp_path, R0_OPERATOR)]
    return ["probe", "--scenario", write(tmp_path, EXTRA_PROBES[stem])]


def _csv_cells(text):
    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value

    return [[cell(value) for value in row] for row in csv.reader(io.StringIO(text))]


@pytest.mark.parametrize("stem", sorted(EXTRA_PROBES))
def test_extra_probe_records_match_golden(stem, tmp_path, capsys):
    _assert_matches_golden(_strict_record(_golden_argv(stem, tmp_path), capsys), stem)


@pytest.mark.parametrize("stem", [*sorted(SHIPPED_COMMANDS), *sorted(EXTRA_PROBES)])
def test_scenario_echo_reads_back_as_itself(stem):
    """Each field's parser reads the canonical text of its own values, so
    the echo of a record resolves to the same values and the same echo."""
    if stem in SHIPPED_COMMANDS:
        command, text = SHIPPED_COMMANDS[stem], (SCENARIOS / f"{stem}.txt").read_text()
    else:
        command, text = "probe", EXTRA_PROBES[stem]
    values = resolve_scenario(command, parse_scenario_text(text))
    echo = scenario_echo(values)
    again = resolve_scenario(command, echo)
    assert again == values
    assert scenario_echo(again) == echo


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize(
    "stem", [*sorted(SHIPPED_COMMANDS), "operator_r0", *sorted(EXTRA_PROBES)]
)
def test_stdout_matches_golden(stem, fmt, tmp_path, capsys):
    """Table text is compared exactly; csv cells as the records are, floats
    to 1e-12 relative."""
    main([*_golden_argv(stem, tmp_path), "--format", fmt])
    got = capsys.readouterr().out
    want = (GOLDEN / f"{stem}.{fmt}").read_text()
    if fmt == "table":
        assert got == want
    else:
        _assert_record_close(_csv_cells(got), _csv_cells(want), stem)


def test_run_record_spells_every_non_finite_float():
    record = RunRecord(
        command="probe",
        scenario={},
        results={"values": [math.inf, -math.inf, math.nan, 1.5], "pair": (math.inf,)},
        exit_code=0,
        seed=None,
        started_at="",
        finished_at="",
        versions={},
    )
    payload = json.loads(record.to_json(), parse_constant=_reject_constant)
    assert payload["results"] == {"values": ["inf", "-inf", "nan", 1.5], "pair": ["inf"]}


@pytest.mark.parametrize(
    "command, text",
    [
        (
            "probe",
            "kind = boundedness\nflavor = modulation-convolution\n"
            "p = 2, 2, 2\nt = 3/8, 3/8, 3/8\nstride = 1\n"
            "grid_n = 1048576\ngrid_l = 24\n",
        ),
        (
            "verify-lemmas",
            "which = operator\ncase = 1\np = 2, 2, 2\nkernel = bumps\n"
            "grid_n = 1048576\ngrid_l = 16\n",
        ),
    ],
)
def test_oversized_tables_are_refused_before_allocation(
    tmp_path, capsys, monkeypatch, command, text
):
    """At grid_n = 2**20 one block of 64 rows of a short-time or kernel
    table, with the per-point arrays, is charged over 1 GiB, so the run
    exits 2 before any block is built; the builders are patched to fail
    loudly if reached."""

    def allocates(*args, **kwargs):
        raise AssertionError("a table was allocated before the budget check")

    monkeypatch.setattr("youngbound.grids._stft_rows", allocates)
    monkeypatch.setattr("youngbound.probes._stft_magnitude_norms", allocates)
    monkeypatch.setattr("youngbound.kernels._GaussSum2d.sampler", allocates)
    code = main([command, "--scenario", write(tmp_path, text)])
    assert code == EXIT_MALFORMED
    assert "above the cap" in capsys.readouterr().err


def test_operator_tables_count_against_the_cap(tmp_path, capsys, monkeypatch):
    """At grid_n = 2**19 an operator check holds no kernel table, but each
    of the two points in flight is charged its declared blocks of 64 kernel
    rows (8 bytes a point) and products (16), 176 bytes a grid point, 8 KiB
    of small objects and its float64 ufunc buffers of 1024 elements
    (1.67 GiB in all), so it exits 2 before sampling."""

    def allocates(*args, **kwargs):
        raise AssertionError("a table was allocated before the budget check")

    monkeypatch.setattr("youngbound.kernels._GaussSum2d.sampler", allocates)
    path = write(
        tmp_path,
        "which = operator\ncase = 1\np = 2, 2, 2\nkernel = bumps\n"
        "grid_n = 524288\ngrid_l = 16\n",
    )
    assert main(["verify-lemmas", "--scenario", path]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "above the cap" in err
    n = 2 ** 19
    assert str(2 * (24 * 64 * n + 176 * n + 8192 + 3 * 1024 * 8)) in err


class _Admitted(Exception):
    """The first grid-sized array of a request that its charge admitted."""


def _admitted(self):
    raise _Admitted


def _makes_no_grid_array(self):
    raise AssertionError("a grid array was made before the budget check")


def test_operator_check_at_8192_is_admitted(tmp_path, capsys, monkeypatch):
    """At grid_n = 8192 one kernel table would take 512 MiB, but the check
    samples 64 rows at a time, two points at once, and is charged 26.8 MiB,
    so it passes its refusal call and makes its first grid array."""
    monkeypatch.setattr(grids.Grid, "axis", _admitted)
    path = write(
        tmp_path,
        "which = operator\ncase = 1\np = 2, 2, 2\nkernel = bumps\n"
        "grid_n = 8192\ngrid_l = 16\n",
    )
    with pytest.raises(_Admitted):
        main(["verify-lemmas", "--scenario", path])
    assert "above the cap" not in capsys.readouterr().err


_IDENTITY_LADDER = (
    _MODULATION_LADDER.format("modulation-multiplication", 1) + "grid_n = {}\ngrid_l = 24\n"
)


def test_product_identity_tables_count_against_the_cap(tmp_path, capsys, monkeypatch):
    """At grid_n = 2**19, stride 1, the product identity is charged its
    declared 32-row blocks (a 2n-wide padded spectrum and a factor table,
    complex) and two padded windows, 88 bytes a grid point, 8 KiB of
    Python objects and its ufunc buffers, and the norm pass beside it its
    64-row blocks (float64 rows, half-width complex spectra) and its
    padded window, 112 bytes a grid point and its ufunc buffers, each of
    1024 elements (1.39 GiB in all), so the ladder exits 2 before any
    block is built."""

    def allocates(*args, **kwargs):
        raise AssertionError("a table was allocated before the budget check")

    monkeypatch.setattr("youngbound.grids._stft_rows", allocates)
    monkeypatch.setattr("youngbound.probes._stft_magnitude_norms", allocates)
    path = write(tmp_path, _IDENTITY_LADDER.format(2 ** 19))
    assert main(["probe", "--scenario", path]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "above the cap" in err
    n = 2 ** 19
    identity = 48 * 32 * n + 2 * 32 * n + 88 * n + 8192
    norm_pass = 8 * 64 * n + 16 * 64 * (n // 2 + 1) + 16 * n + 112 * n
    assert str(identity + norm_pass + 3 * 1024 * (16 + 8)) in err


def test_stride_one_identity_ladder_at_4096_is_admitted(tmp_path, capsys, monkeypatch):
    """At grid_n = 4096, stride 1, one whole short-time table would take
    256 MiB, but the ladder is charged one 32-row block of the product
    identity and one 64-row block of a norm pass, plus their points and
    ufunc buffers (11.17 MiB), so it passes its refusal call and makes its
    first grid array."""
    monkeypatch.setattr(grids.Grid, "axis", _admitted)
    path = write(tmp_path, _IDENTITY_LADDER.format(4096))
    with pytest.raises(_Admitted):
        main(["probe", "--scenario", path])
    assert "above the cap" not in capsys.readouterr().err


def test_probe_points_count_against_the_cap(tmp_path, capsys, monkeypatch):
    """At grid_n = 2**24 a gaussian probe with equal zero weights is charged
    96 bytes a point (1.5 GiB): 80 for a point, 8 for its one family factor
    (t1 = t2), none for memo weights (every weight is 0), and 8 for its
    small objects.  So it exits 2 before it makes a grid array."""
    monkeypatch.setattr(grids.Grid, "axis", _makes_no_grid_array)
    path = write(
        tmp_path, "kind = gaussian\np = 2, 2, 2\ngrid_n = 16777216\ngrid_l = 48\n"
    )
    assert main(["probe", "--scenario", path]) == EXIT_MALFORMED
    err = capsys.readouterr().err
    assert "above the cap" in err
    assert str(96 * 2 ** 24) in err


# The library call of each request kind on a given grid: every probe kind,
# the four ladder flavors and the operator check.
_MODULATION_TUPLE = ParamTuple(
    d=1, p=(2, 2, 2), t=(F(1, 4), F(1, 4), 0), q=(2, 1, 2), s=(0, 0, 0)
)
_LIBRARY_CALLS = {
    "gaussian": lambda grid: probes.gaussian_necessity_probe(
        ParamTuple(d=1, p=(2, 2, 2), t=(0, 0, 0)), grid=grid
    ),
    "translation": lambda grid: probes.translation_necessity_probe(
        ParamTuple(d=1, p=(2, 1, 1), t=(0, 1, -2)), grid=grid
    ),
    "lower-bound": lambda grid: probes.gaussian_lower_bound_check(1, 0, 0.25, grid=grid),
    "norm-slope": lambda grid: probes.gaussian_norm_slope(2, 1, grid=grid),
    "convolution": lambda grid: probes.boundedness_sweep(
        ParamTuple(d=1, p=(2, 2, 2), t=(F(3, 8),) * 3), "convolution", grid=grid
    ),
    "multiplication": lambda grid: probes.boundedness_sweep(
        ParamTuple(d=1, p=(2, 2, 2), t=(F(3, 8),) * 3, q=(2, 2, 2), s=(F(3, 8),) * 3),
        "multiplication", grid=grid,
    ),
    "modulation-convolution": lambda grid: probes.boundedness_sweep(
        _MODULATION_TUPLE, "modulation-convolution", grid=grid
    ),
    "modulation-multiplication": lambda grid: probes.boundedness_sweep(
        _MODULATION_TUPLE, "modulation-multiplication", grid=grid
    ),
    "operator": lambda grid: kernels.verify_prop_tf_bounds(1, (2, 2, 2), grid=grid),
}
# The same requests through the command line, with the box of each.
_CLI_REQUESTS = {
    **{name: charge_cases.POINT_CHARGED_PROBES[name] for name in (
        "gaussian", "translation", "lower-bound", "norm-slope", "convolution", "multiplication"
    )},
    **{
        flavor: charge_cases.MODULATION_LADDERS[f"{flavor}-8"]
        for flavor in charge_cases.MODULATION_FLAVORS
    },
    "operator": charge_cases.OPERATOR_CHECKS["case1"],
}


@pytest.mark.parametrize("name", sorted(_LIBRARY_CALLS))
def test_over_cap_requests_are_refused_before_any_grid_array(name, tmp_path, capsys, monkeypatch):
    """At grid_n = 2**26 every request is charged above the cap, and its
    routine refuses it before it makes a grid array: from the command line
    with exit 2, and from a library call with a ValueError."""
    monkeypatch.setattr(grids.Grid, "axis", _makes_no_grid_array)
    command, text, extent = _CLI_REQUESTS[name]
    path = write(tmp_path, text)
    argv = [command, "--scenario", path, "--grid-n", str(2 ** 26), "--grid-L", str(extent)]
    assert main(argv) == EXIT_MALFORMED
    assert "above the cap" in capsys.readouterr().err
    with pytest.raises(ValueError, match="above the cap"):
        _LIBRARY_CALLS[name](grids.Grid(1, extent, 2 ** 26))


def _assert_charge_covers_the_traced_peak(case, sizes):
    """At each grid size of ``sizes`` the charge of ``case`` is at least
    its traced peak and at most 1.5 times it, and its per-point term is at
    least the alpha of the line alpha n + beta fitted to the peaks: a
    constant term such as numpy's buffers cannot hide a per-point
    shortfall that grows past the charge at the sizes the cap admits."""
    charges, peaks = charge_cases.readings(case, sizes)
    for n, charge, peak in zip(sizes, charges, peaks):
        assert peak <= charge <= 1.5 * peak, (n, peak, charge)
    per_point, _ = charge_cases.fit(sizes, charges)
    alpha, beta = charge_cases.fit(sizes, peaks)
    assert per_point >= alpha, (per_point, alpha, beta)


@pytest.mark.parametrize("name", sorted(charge_cases.POINT_CHARGED_PROBES))
def test_probe_charge_covers_the_traced_peak(name):
    _assert_charge_covers_the_traced_peak(
        charge_cases.POINT_CHARGED_PROBES[name], charge_cases.POINT_SIZES
    )


@pytest.mark.parametrize("name", sorted(charge_cases.MODULATION_LADDERS))
def test_modulation_ladder_charge_covers_the_traced_peak(name):
    _assert_charge_covers_the_traced_peak(
        charge_cases.MODULATION_LADDERS[name], charge_cases.BLOCK_SIZES
    )


@pytest.mark.parametrize("name", sorted(charge_cases.OPERATOR_CHECKS))
def test_operator_charge_covers_the_traced_peak(name):
    _assert_charge_covers_the_traced_peak(
        charge_cases.OPERATOR_CHECKS[name], charge_cases.BLOCK_SIZES
    )


@pytest.mark.parametrize("name", sorted(charge_cases.WHOLE_TABLES))
def test_whole_table_charge_covers_the_traced_peak(name):
    """A whole-table function's charge counts its table, its n-point
    arrays and numpy's buffers beside them."""
    _assert_charge_covers_the_traced_peak(
        charge_cases.WHOLE_TABLES[name], charge_cases.TABLE_SIZES
    )


def test_memory_cap_admits_at_least_the_grids_it_always_has():
    """The cap admits a grid at least as large as it did under the fitted
    per-block charges that the declared buffers replaced, so no request
    that it once admitted is refused: 2**18 for the modulation ladders at
    every power-of-two stride to 1024, 2**23 for the other probes (each
    with the most factors and weights its kind can hold among the charge
    cases), 2**24 for norm-slope, 2**17 for an operator check of two
    points or more, and 2**18 for the single point of one trial of the
    flat kernel."""
    largest = charge_cases.largest_admitted
    for stride in (2 ** k for k in range(11)):
        for flavor in charge_cases.MODULATION_FLAVORS:
            text = _MODULATION_LADDER.format(flavor, stride)
            assert largest("probe", text, 24.0) >= 2 ** 18, (flavor, stride)
    for name, case in charge_cases.POINT_CHARGED_PROBES.items():
        assert largest(*case) >= 2 ** (24 if name == "norm-slope" else 23), name
    for kernel, trials, floor in [("bumps", 1, 17), ("bumps", 4, 17), ("ones", 4, 17),
                                  ("ones", 1, 18)]:
        text = charge_cases.OPERATOR_CHECK.format(1, "2, 2, 2", kernel, trials)
        assert largest("verify-lemmas", text, 16.0) >= 2 ** floor, (kernel, trials)


@pytest.mark.parametrize(
    "text",
    [
        "kind = norm-slope\nexponent = 2\nweight = 400\n",
        "kind = gaussian\nd = 1\np = 2, 2, 2\nt = 300, 300, 300\n",
    ],
)
def test_overflowing_weights_are_malformed_not_nan(tmp_path, capsys, text):
    """<x>^t overflows binary64 on the probe box; the probe refuses with
    exit 2 and names the overflow instead of fitting a NaN slope."""
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no warning before the refusal
        code = main(["probe", "--scenario", path])
    captured = capsys.readouterr()
    assert code == EXIT_MALFORMED
    assert "overflows" in captured.err
    assert "nan" not in captured.out


# ---------------------------------------------------------------------------
# Lazy numerical layer
# ---------------------------------------------------------------------------

# Every name the package namespace offered when it imported its submodules
# eagerly, with the submodule it came from, less `region_table` and
# `theta_kernel`: only tests used them, and they moved to tests/oracles.py.
PACKAGE_NAMES = {
    "exponents": "INF Classification ConditionRecord Exponent ExponentError "
    "ParamTuple Verdict binding_condition check_convolution check_modulation "
    "check_multiplication check_weak_proposition classify conjugate g_functional "
    "h0 h1 h2 "
    "lemma_equivalence_holds remark_bound young_functional",
    "grids": "Grid GridMismatchError ResolutionError ResolutionWarning "
    "SampledFunction SampledKernel2d StftTable bracket convolve "
    "fourier_lebesgue_norm fourier_transform gaussian_resolution_guard "
    "inverse_fourier_transform mixed_norm_2d modulation_norm stft "
    "weighted_lebesgue_norm",
    "kernels": "KernelParams PreconditionError PropReport RegionParams SliceReport "
    "decomposition_residual kernel_f kernel_table region_codes region_of "
    "t_f t_theta_f verify_lemma_intestimates verify_prop_tf_bounds",
    "probes": "BoundReport BumpFamily GaussianFamily ProbeReport SweepReport "
    "TranslationReport boundedness_sweep fit_power_law gaussian_lower_bound_check "
    "gaussian_necessity_probe gaussian_norm_slope translation_necessity_probe",
    "corpus": "CORPUS CorpusEntry shadow_tuple verdict_for",
    "scenario": "RunRecord ScenarioError parse_scenario_text resolve_scenario",
}


def test_package_names_resolve_to_their_submodule_objects():
    listed = set(dir(youngbound))
    for module_name, names in PACKAGE_NAMES.items():
        module = getattr(youngbound, module_name)
        assert module.__name__ == f"youngbound.{module_name}"
        assert module_name in listed
        for name in names.split():
            assert getattr(youngbound, name) is getattr(module, name), name
            assert name in listed, name
    with pytest.raises(AttributeError):
        youngbound.no_such_name
    from youngbound import probes

    assert probes is youngbound.probes
    assert kernels.PreconditionError is exponents.PreconditionError


def test_export_table_names_are_in_each_submodule_all():
    for module_name, names in youngbound._EXPORTS.items():
        public = getattr(youngbound, module_name).__all__
        assert [n for n in names if n not in public] == [], module_name


_ISOLATION_PROBE = """
import contextlib, io, json, sys

NUMERICAL = ("youngbound.grids", "youngbound.kernels", "youngbound.probes")


def numerical():
    return sorted(
        m for m in sys.modules
        if m == "numpy" or m.startswith("numpy.") or m in NUMERICAL
    )


seen = {}
import youngbound
seen["import youngbound"] = numerical()
import youngbound.cli as cli
seen["import youngbound.cli"] = numerical()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["check", "--scenario", sys.argv[1]]))
    seen["check"] = numerical()
    codes.append(cli.main(["sweep", "--scenario", sys.argv[2]]))
    seen["sweep"] = numerical()
    codes.append(cli.main(["probe", "--scenario", sys.argv[3]]))
print(json.dumps({"seen": seen, "codes": codes, "kernels": "youngbound.kernels" in sys.modules}))
"""


def test_exact_commands_never_load_the_numerical_layer():
    """A fresh interpreter runs `check` and `sweep` without importing numpy,
    grids, kernels or probes; a probe then loads probes but not kernels."""
    argv = [
        str(SCENARIOS / f"{stem}.txt")
        for stem in ("convolution_boundary", "weight_sweep", "gaussian_necessity")
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATION_PROBE, *argv],
        env=_fresh_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["seen"] == {
        "import youngbound": [],
        "import youngbound.cli": [],
        "check": [],
        "sweep": [],
    }
    assert result["codes"] == [EXIT_PASS, EXIT_PASS, EXIT_WITNESS]
    assert not result["kernels"]


_RECORD_PROBE = """
import contextlib, io, json, sys

names = json.loads(sys.argv[1])
before = {m for m in names if m in sys.modules}
import youngbound.cli as cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[2:])
print(json.dumps([code, sorted({m for m in names if m in sys.modules} - before), out.getvalue()]))
"""


def _record_probe(names: list[str], argv: list[str]) -> tuple[int, list[str], str]:
    """The exit code of ``argv`` run by ``cli.main`` in a fresh interpreter,
    which of ``names`` it loaded that were not loaded before the command
    line was imported, and its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", _RECORD_PROBE, json.dumps(names), *argv],
        env=_fresh_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(proc.stdout))


def test_table_check_builds_no_run_record():
    """A table-format `check` writes no run record, so a fresh interpreter
    running it loads neither importlib.metadata nor platform, unless they
    were loaded before the command line was imported."""
    argv = ["check", "--scenario", str(SCENARIOS / "convolution_boundary.txt")]
    assert _record_probe(["importlib.metadata", "platform"], argv)[:2] == (EXIT_PASS, [])


# Modules that a run writing a record must not load, each of which costs a
# cold process more than an exact command's own work.  A probe loads numpy
# and the dataclasses of its report anyway.  The operator check draws its
# bumps without numpy.random (11-16 ms and 6 MB of a cold process), and
# `kernels` takes its slice medians without statistics.
_EXACT_RUN_MODULES = ["numpy", "importlib.metadata", "email", "dataclasses", "inspect"]
_RECORD_RUNS = {
    "check": ("convolution_boundary", EXIT_PASS, _EXACT_RUN_MODULES),
    "sweep": ("weight_sweep", EXIT_PASS, _EXACT_RUN_MODULES),
    "probe": ("gaussian_necessity", EXIT_WITNESS, ["importlib.metadata", "email"]),
    "verify-lemmas": (
        "operator_bounds",
        EXIT_PASS,
        ["numpy.random", "statistics", "importlib.metadata", "email"],
    ),
}


@pytest.mark.parametrize("command", sorted(_RECORD_RUNS))
@pytest.mark.parametrize("sink", ["json", "out"])
def test_record_runs_load_no_startup_modules(tmp_path, command, sink):
    """A run that writes its record to stdout or to --out loads none of its
    row's modules, and its versions block names the code that ran: this
    package and python, and numpy only where the run loaded it."""
    stem, code, names = _RECORD_RUNS[command]
    out = tmp_path / "r.json"
    flags = ["--format", "json"] if sink == "json" else ["--out", str(out)]
    argv = [command, "--scenario", str(SCENARIOS / f"{stem}.txt"), *flags]
    exit_code, loaded, stdout = _record_probe(names, argv)
    assert (exit_code, loaded) == (code, [])
    versions = json.loads(stdout if sink == "json" else out.read_text())["versions"]
    expected = {"artifact": youngbound.__version__, "python": "{}.{}.{}".format(*sys.version_info)}
    if "numpy" not in names:  # a numerical run loads numpy and names it
        expected["numpy"] = numpy.__version__
    assert versions == expected
