"""Scenario files and reproducible run records.

A scenario is a small ``key = value`` text file that pins every input of a
command: the flavor, the exponent and weight triples, probe settings, grid
overrides.  Values that enter the exact checkers are written as integers,
fractions (``4/3``), or ``inf``; decimal literals are rejected there so a
scenario can never silently lose exactness.  Grid sizes, tolerances, and
ladder values are ordinary floats.

Every command run is summarised in a :class:`RunRecord`: the resolved
scenario (defaults included, canonically stringified), the results
(reports and verdicts, written out field by field), the exit code, and
enough version information to replay the run.
Two records of the same run differ only in their timestamps.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from . import __version__
from .exponents import (
    CHECKERS, MODULATION_FLAVORS, SWEEP_FLAVORS, ConditionRecord, Exponent, ExponentError,
    Verdict,
)

__all__ = [
    "ScenarioError",
    "RunRecord",
    "RECORD_VERSION",
    "parse_scenario_text",
    "resolve_scenario",
    "canonical_value",
    "package_versions",
]

RECORD_VERSION = 1

_WEIGHT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class ScenarioError(ValueError):
    """A scenario file or resolved scenario is malformed."""


# ---------------------------------------------------------------------------
# Token parsing
# ---------------------------------------------------------------------------

def _parse_exponent(tok: str, key: str) -> Exponent:
    try:
        return Exponent.parse(tok)
    except ExponentError as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


def _parse_weight(tok: str, key: str) -> Fraction:
    tok = tok.strip()
    if not _WEIGHT_RE.match(tok):
        raise ScenarioError(
            f"{key}: weights must be integers or fractions like -1/2, "
            f"got {tok!r} (decimals are not accepted)"
        )
    return Fraction(tok)


def _parse_int(tok: str, key: str) -> int:
    try:
        return int(tok.strip())
    except ValueError as exc:
        raise ScenarioError(f"{key}: expected an integer, got {tok!r}") from exc


def _parse_float(tok: str, key: str) -> float:
    try:
        value = float(tok.strip())
    except ValueError as exc:
        raise ScenarioError(f"{key}: expected a number, got {tok!r}") from exc
    if value != value or value in (float("inf"), float("-inf")):
        raise ScenarioError(f"{key}: expected a finite number, got {tok!r}")
    return value


def _parse_str(tok: str, key: str) -> str:
    return tok.strip()


def _list(parse, length: int | None = None):
    """A parser of comma lists whose entries ``parse`` reads; ``length``
    entries unless that is None."""
    def parse_list(tok: str, key: str) -> tuple:
        parts = [part.strip() for part in tok.split(",")]
        if any(not part for part in parts):
            raise ScenarioError(f"{key}: empty entry in list {tok!r}")
        if length is not None and len(parts) != length:
            raise ScenarioError(
                f"{key}: expected {length} comma-separated entries, got {len(parts)}"
            )
        return tuple(parse(part, key) for part in parts)

    return parse_list


_EXPONENT_TRIPLE = _list(_parse_exponent, 3)
_WEIGHT_TRIPLE = _list(_parse_weight, 3)
_FLOAT_LIST = _list(_parse_float)


def canonical_value(value) -> str:
    """Render a resolved scenario value in its canonical text form."""
    if isinstance(value, (Exponent, Fraction, int, str)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(canonical_value(v) for v in value)
    raise AssertionError(f"cannot canonicalise {value!r}")


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def parse_scenario_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string map.

    ``#`` starts a comment, blank lines are skipped, keys are normalised to
    lower-case snake case, and duplicate keys are an error.
    """
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(
                f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key:
            raise ScenarioError(f"line {lineno}: missing key")
        if not value:
            raise ScenarioError(f"line {lineno}: missing value for {key!r}")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


class _Field:
    def __init__(self, parse, required=False, default=None, choices=None) -> None:
        self.parse = parse  # (token, key) -> value, or ScenarioError
        self.required = required
        self.default = default
        self.choices: tuple[str, ...] | None = choices


_GRID_FIELDS = {
    "grid_n": _Field(_parse_int),
    "grid_l": _Field(_parse_float),
}

_CHECK_FIELDS = {
    "flavor": _Field(_parse_str, required=True, choices=MODULATION_FLAVORS),
    "setting": _Field(
        _parse_str, default="lebesgue", choices=("lebesgue", "modulation", "weak")
    ),
    "space": _Field(_parse_str, choices=("M", "W")),
    "d": _Field(_parse_int, default=1),
    "p": _Field(_EXPONENT_TRIPLE, required=True),
    "t": _Field(_WEIGHT_TRIPLE, default=(Fraction(0), Fraction(0), Fraction(0))),
    "q": _Field(_EXPONENT_TRIPLE),
    "s": _Field(_WEIGHT_TRIPLE),
}

_PROBE_FIELDS: dict[str, dict[str, _Field]] = {
    "gaussian": {
        "d": _Field(_parse_int, default=1),
        "p": _Field(_EXPONENT_TRIPLE, required=True),
        "t": _Field(_WEIGHT_TRIPLE, default=(Fraction(0),) * 3),
        "alphas": _Field(_FLOAT_LIST),
        "tol": _Field(_parse_float, default=0.05),
        **_GRID_FIELDS,
    },
    "translation": {
        "d": _Field(_parse_int, default=1),
        "p": _Field(_EXPONENT_TRIPLE, required=True),
        "t": _Field(_WEIGHT_TRIPLE, default=(Fraction(0),) * 3),
        "pair": _Field(_list(_parse_int, 2), default=(1, 2)),
        "offsets": _Field(_FLOAT_LIST, default=(2.0, 4.0, 8.0, 16.0)),
        "tol": _Field(_parse_float, default=0.05),
        **_GRID_FIELDS,
    },
    "lower-bound": {
        "t1": _Field(_parse_weight, required=True),
        "t2": _Field(_parse_weight, required=True),
        "alpha": _Field(_parse_float, required=True),
        "window": _Field(_parse_float, default=8.0),
        **_GRID_FIELDS,
    },
    "norm-slope": {
        "exponent": _Field(_parse_exponent, required=True),
        "weight": _Field(_parse_weight, default=Fraction(0)),
        "alphas": _Field(_FLOAT_LIST),
        "tol": _Field(_parse_float, default=0.05),
        **_GRID_FIELDS,
    },
    "boundedness": {
        "d": _Field(_parse_int, default=1),
        "flavor": _Field(_parse_str, required=True, choices=SWEEP_FLAVORS),
        "space": _Field(_parse_str, default="M", choices=("M", "W")),
        "p": _Field(_EXPONENT_TRIPLE, required=True),
        "t": _Field(_WEIGHT_TRIPLE, default=(Fraction(0),) * 3),
        "q": _Field(_EXPONENT_TRIPLE),
        "s": _Field(_WEIGHT_TRIPLE),
        "stride": _Field(_parse_int, default=8),
        "tol": _Field(_parse_float, default=0.05),
        "spread_cap": _Field(_parse_float, default=4.0),
        **_GRID_FIELDS,
    },
}

_VERIFY_FIELDS: dict[str, dict[str, _Field]] = {
    "slices": {
        "region": _Field(_parse_int, required=True),
        "p": _Field(_parse_exponent, required=True),
        "t": _Field(_WEIGHT_TRIPLE, required=True),
        "delta": _Field(_parse_float, default=0.5),
        "radius": _Field(_parse_float, default=8.0),
        "scan_lo": _Field(_parse_float, default=1.0),
        "scan_hi": _Field(_parse_float, default=100.0),
        "ratio_cap": _Field(_parse_float, default=3.0),
    },
    "operator": {
        "case": _Field(_parse_int, required=True),
        "p": _Field(_EXPONENT_TRIPLE, required=True),
        "trials": _Field(_parse_int, default=4),
        "kernel": _Field(_parse_str, default="bumps", choices=("bumps", "ones")),
        "slope_tol": _Field(_parse_float, default=0.05),
        "spread_cap": _Field(_parse_float, default=10.0),
        **_GRID_FIELDS,
    },
}

_SWEEP_FIELDS = {
    "flavor": _Field(_parse_str, required=True, choices=MODULATION_FLAVORS),
    "d": _Field(_parse_int, default=1),
    "p": _Field(_EXPONENT_TRIPLE),
    "q": _Field(_EXPONENT_TRIPLE),
    "t_min": _Field(_parse_weight, required=True),
    "t_max": _Field(_parse_weight, required=True),
    "t_step": _Field(_parse_weight, required=True),
}


def _apply_schema(entries: dict[str, str], fields: dict[str, _Field], label: str):
    values: dict[str, object] = {}
    unknown = sorted(set(entries) - set(fields))
    if unknown:
        raise ScenarioError(
            f"{label}: unknown key(s) {', '.join(unknown)}; "
            f"accepted keys are {', '.join(sorted(fields))}"
        )
    for key, spec in fields.items():
        if key in entries:
            value = spec.parse(entries[key], key)
            if spec.choices is not None and value not in spec.choices:
                raise ScenarioError(
                    f"{key}: must be one of {', '.join(spec.choices)}, got {value!r}"
                )
            values[key] = value
        elif spec.required:
            raise ScenarioError(f"{label}: missing required key {key!r}")
        elif spec.default is not None:
            values[key] = spec.default
    return values


def _validate_check(values: dict[str, object]) -> None:
    flavor = values["flavor"]
    setting = values["setting"]
    if setting != "modulation" and "space" in values:
        raise ScenarioError("'space' applies only when setting = modulation")
    if setting != "modulation" and (flavor, setting) not in CHECKERS:
        return  # classify refuses the pair, whatever q and s are given
    needs_q = flavor == "multiplication" or setting == "modulation"
    if needs_q and "q" not in values:
        raise ScenarioError(f"flavor/setting {flavor}/{setting} requires 'q'")
    if flavor == "multiplication" and setting != "modulation" and "s" not in values:
        raise ScenarioError("multiplication requires the transform weights 's'")
    if not needs_q and ("q" in values or "s" in values):
        raise ScenarioError("'q'/'s' apply only to multiplication or modulation")
    if setting == "modulation":
        values.setdefault("space", "M")
        values.setdefault("s", (Fraction(0), Fraction(0), Fraction(0)))


def _validate_probe(values: dict[str, object]) -> None:
    if values["kind"] == "boundedness":
        # The transform-side family defaults to mirroring the x-side one.
        values.setdefault("q", values["p"])
        values.setdefault("s", values["t"])


def _validate_sweep(values: dict[str, object]) -> None:
    if values["flavor"] == "multiplication":
        if "q" not in values:
            raise ScenarioError("multiplication sweeps require 'q'")
        # The x-side block mirrors the transform side unless given explicitly.
        values.setdefault("p", values["q"])
    else:
        if "p" not in values:
            raise ScenarioError("convolution sweeps require 'p'")
        if "q" in values:
            raise ScenarioError("'q' applies only to multiplication sweeps")


# command -> (sub-kind key or None, schema, validator or None, label).  A
# command with a sub-kind key has one schema per sub-kind, and the label
# names it.  The validators check keys and fill key defaults; the range of
# each value is checked by the routine that uses it.
_COMMANDS = {
    "check": (None, _CHECK_FIELDS, _validate_check, "check"),
    "probe": ("kind", _PROBE_FIELDS, _validate_probe, "probe kind {!r}"),
    "verify-lemmas": ("which", _VERIFY_FIELDS, None, "verify {}"),
    "sweep": (None, _SWEEP_FIELDS, _validate_sweep, "sweep"),
}


def resolve_scenario(command: str, entries: dict[str, str]) -> dict[str, object]:
    """Validate raw entries against a command's schema and fill defaults.

    Returns the typed value map.  The canonical string echo for a record is
    produced separately by :func:`canonical_value` so that defaulted keys
    appear alongside explicit ones.
    """
    if command not in _COMMANDS:
        raise ScenarioError(f"unknown command {command!r}")
    key, fields, validate, label = _COMMANDS[command]
    if key is not None:
        sub = entries.get(key)
        if sub is None:
            raise ScenarioError(f"{command}: missing required key {key!r}")
        sub = sub.strip()
        if sub not in fields:
            raise ScenarioError(
                f"{key}: must be one of {', '.join(sorted(fields))}, got {sub!r}"
            )
        entries = {k: v for k, v in entries.items() if k != key}
        fields, label = fields[sub], label.format(sub)
    values = _apply_schema(entries, fields, label)
    if key is not None:
        values[key] = sub
    if validate is not None:
        validate(values)
    return values


def scenario_echo(values: dict[str, object]) -> dict[str, str]:
    """Canonical string form of a resolved scenario, defaults included."""
    return {key: canonical_value(value) for key, value in sorted(values.items())}


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def package_versions() -> dict[str, str]:
    """Versions of the code that ran: this package, python, and numpy when
    this process loaded it (`check` and `sweep` never do)."""
    versions = {"artifact": __version__, "python": "{}.{}.{}".format(*sys.version_info)}
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        versions["numpy"] = numpy.__version__
    return versions


def _encode(obj):
    """JSON form of what ``json`` cannot write itself: a report (a dataclass),
    a verdict or a trace row as its fields, a Fraction as a string."""
    if isinstance(obj, (Verdict, ConditionRecord)) or hasattr(obj, "__dataclass_fields__"):
        # Fraction fields are spelled here: each call of this hook costs the
        # pure-Python encoder two generator frames, and a trace row has two.
        return {
            k: str(v) if isinstance(v, Fraction) else v for k, v in vars(obj).items()
        }
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# Strict JSON has no NaN or Infinity: spell them as strings, as exponents
# already spell "inf".
_NONFINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


class RunRecord:
    """Everything needed to audit or replay one command invocation."""

    _JSON_TYPES = dict(
        command=str, scenario=dict, results=dict, exit_code=int,
        seed=(int, type(None)), started_at=str, finished_at=str, versions=dict,
    )

    def __init__(
        self, command: str, scenario: dict[str, str], results: dict, exit_code: int,
        seed: int | None, started_at: str, finished_at: str, versions: dict[str, str],
    ) -> None:
        vars(self).update(
            command=command, scenario=scenario, results=results, exit_code=exit_code,
            seed=seed, started_at=started_at, finished_at=finished_at, versions=versions,
            record_version=RECORD_VERSION,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunRecord) and vars(self) == vars(other)

    def to_json(self) -> str:
        payload = vars(self)
        try:
            return json.dumps(
                payload, indent=2, sort_keys=True, allow_nan=False,
                default=_encode,
            )
        except ValueError:
            plain = json.loads(
                json.dumps(payload, default=_encode),
                parse_constant=_NONFINITE.__getitem__,
            )
            return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not a run record: {exc}") from exc
        if not isinstance(data, dict):
            raise ScenarioError("not a run record: top level must be an object")
        version = data.get("record_version")
        if type(version) is not int or version != RECORD_VERSION:
            raise ScenarioError(
                f"unsupported record version {version!r} (expected {RECORD_VERSION})"
            )
        fields = {}
        for name, kind in cls._JSON_TYPES.items():
            if name not in data:
                raise ScenarioError(f"run record is missing field {name!r}")
            value = data[name]
            # bool is an int subclass, but true is no exit code or seed.
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ScenarioError(f"malformed run record field {name}: {value!r}")
            fields[name] = value
        return cls(**fields)
