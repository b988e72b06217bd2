"""Command line front end.

Four subcommands, each driven by a scenario file:

- ``check``: classify a parameter tuple with the exact checkers;
- ``probe``: run a numerical witness or calibration ladder;
- ``verify-lemmas``: stress the slice envelopes or the operator bounds;
- ``sweep``: tabulate verdicts over a cubic grid of weights.

Exit codes are part of the contract: 0 means Bounded or a clean PASS,
1 means Unbounded, a witnessed violation, or a failed verification,
2 means the request was malformed or refused, and 3 means Undetermined
or inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .exponents import (
    Classification,
    ParamTuple,
    PreconditionError,
    Verdict,
    binding_condition,
    classify,
)
from .scenario import (
    RunRecord,
    ScenarioError,
    canonical_value,
    package_versions,
    parse_scenario_text,
    resolve_scenario,
    scenario_echo,
)

# The numerical layer (grids, kernels, probes, and numpy under them) is
# imported inside the handlers that use it, so `check` and `sweep` never
# load it.
if TYPE_CHECKING:
    from .grids import Grid

__all__ = ["main", "build_parser"]

EXIT_PASS = 0
EXIT_WITNESS = 1
EXIT_MALFORMED = 2
EXIT_INCONCLUSIVE = 3

MAX_SWEEP_ROWS = 10_000

SEP = "=" * 70
SUBSEP = "-" * 70

_CLASS_EXIT = {
    Classification.BOUNDED: EXIT_PASS,
    Classification.UNBOUNDED: EXIT_WITNESS,
    Classification.UNDETERMINED: EXIT_INCONCLUSIVE,
}

_SETTING_LABEL = {
    "lebesgue": "weighted Lebesgue",
    "modulation": "modulation space",
    "weak": "weak-type extension",
}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _grid_override(values: dict) -> Grid | None:
    """The grid of grid_n and grid_l, None without them.  The routine that
    runs on it refuses it if what it would hold exceeds the memory cap."""
    n = values.get("grid_n")
    extent = values.get("grid_l")
    if n is None and extent is None:
        return None
    if n is None or extent is None:
        raise ScenarioError("grid_n and grid_l must be given together")
    from .grids import Grid

    return Grid(1, float(extent), int(n))


def _param_tuple(values: dict) -> ParamTuple:
    return ParamTuple(
        d=values["d"], p=values["p"], t=values["t"], q=values.get("q"), s=values.get("s")
    )


def _params_line(values: dict) -> str:
    parts = [f"d={values.get('d', 1)}"]
    for key in ("p", "t", "q", "s"):
        if key in values:
            parts.append(f"{key}={canonical_value(values[key])}")
    return "  ".join(parts)


def _trace_lines(verdict: Verdict) -> list[str]:
    lines = []
    for rec in verdict.trace:
        if rec.informational:  # whether the clause fires, not a pass/fail
            mark = "fired " if rec.satisfied else " idle "
        else:
            mark = "  ok  " if rec.satisfied else "BROKEN"
        strict = "  [strict]" if rec.strictness_required else ""
        lines.append(
            f"  [{mark}] {rec.condition_id}: "
            f"{rec.lhs} {rec.relation} {rec.rhs}{strict}"
        )
    return lines


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(values: dict, args) -> tuple[dict, int, list[str], list[list]]:
    flavor = values["flavor"]
    setting = values["setting"]
    verdict = classify(_param_tuple(values), flavor, setting, values.get("space", "M"))

    code = _CLASS_EXIT[verdict.classification]
    results = {"verdict": verdict, "binding_condition": binding_condition(verdict)}

    title = f"check: {flavor} in the {_SETTING_LABEL[setting]} setting"
    if setting == "modulation":
        title += f" ({values['space']})"
    lines = [SEP, title, _params_line(values), SEP]
    lines.extend(_trace_lines(verdict))
    lines.append(SUBSEP)
    lines.append(
        f"verdict: {verdict.classification.value}"
        f"   (theorem_used: {verdict.theorem_used})"
    )
    binding = results["binding_condition"]
    if binding:
        lines.append(f"binding condition: {binding}")
    lines.append(SEP)

    rows: list[list] = [
        ["condition_id", "lhs", "relation", "rhs", "satisfied", "strict"],
        *([rec.condition_id, str(rec.lhs), rec.relation, str(rec.rhs), rec.satisfied,
           rec.strictness_required] for rec in verdict.trace),
    ]
    return results, code, lines, rows


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def _ladder_rows(xs, ys, xname: str, yname: str) -> list:
    return [[xname, yname], *zip(xs, ys)]


def _fit_line(report, places: int, r2_places: int) -> str:
    return (
        f"fitted slope {report.fitted_slope:+.{places}f}  "
        f"predicted {report.predicted_slope:+.{places}f}  "
        f"r^2 {report.r_squared:.{r2_places}f}"
    )


def _witness_line(report, why: str) -> str:
    return "violation witnessed: " + (f"YES ({why})" if report.witnessed else "no")


def _show_gaussian(values: dict, report):
    return _params_line(values), [
        _fit_line(report, 4, 5),
        f"fit within tolerance: {'yes' if report.passed else 'NO'}",
        _witness_line(report, "ratio grows without bound"),
    ], _ladder_rows(report.ladder_x, report.ladder_y, "x", "ratio")


def _show_translation(values: dict, report):
    return _params_line(values) + f"  pair={canonical_value(values['pair'])}", [
        _fit_line(report, 4, 5),
        f"output-norm variation: {report.conv_variation:.3e}",
        _witness_line(report, "input norm product collapses"),
    ], [
        ["offset", "product", "conv_norm"],
        *zip(report.offsets, report.products, report.conv_norms),
    ]


def _show_lower_bound(values: dict, report):
    return f"t1={values['t1']}  t2={values['t2']}  alpha={values['alpha']}", [
        f"envelope constant: {report.constant:.6e}",
        f"minimum of the convolution on the window: {report.min_convolution:.6e}",
        f"positive floor holds: {'yes' if report.passed else 'NO'}",
    ], [
        ["t1", "t2", "alpha", "window", "constant", "passed"],
        [report.t1, report.t2, report.alpha, report.window, report.constant,
         report.passed],
    ]


def _show_norm_slope(values: dict, report):
    return f"exponent={values['exponent']}  weight={values['weight']}", [
        _fit_line(report, 6, 6),
        "calibration: " + ("PASS" if report.passed else "FAIL"),
    ], _ladder_rows(report.ladder_x, report.ladder_y, "x", "norm")


def _show_boundedness(values: dict, report):
    lines = [
        f"checker verdict: {report.classification} ({report.theorem_used})",
        f"ratio ladder slope {report.fitted_slope:+.4f}  spread {report.spread:.3f}",
    ]
    if report.identity_rel_error is not None:
        lines.append(f"product identity error: {report.identity_rel_error:.3e}")
    lines.append("flat and uniformly bounded: " + ("PASS" if report.passed else "FAIL"))
    return (
        _params_line(values) + f"  flavor={values['flavor']}",
        lines,
        _ladder_rows(report.scales, report.ratios, "alpha", "ratio"),
    )


class _ProbeKind(NamedTuple):
    # (probes module, values, grid override) -> report; the module is passed
    # in because it loads numpy, which `check` and `sweep` never import.
    run: Callable
    # (values, report) -> (parameter line, result lines, csv rows)
    show: Callable
    # (values, report) -> whether the report witnesses a violation (exit 1)
    witnessed: Callable


_PROBES = {
    "gaussian": _ProbeKind(
        lambda pr, v, grid: pr.gaussian_necessity_probe(
            _param_tuple(v), alphas=v.get("alphas"), grid=grid, tol=v["tol"]
        ),
        _show_gaussian,
        lambda v, report: report.witnessed,
    ),
    "translation": _ProbeKind(
        lambda pr, v, grid: pr.translation_necessity_probe(
            _param_tuple(v), v["offsets"], pair=tuple(v["pair"]), grid=grid, tol=v["tol"]
        ),
        _show_translation,
        lambda v, report: report.witnessed,
    ),
    "lower-bound": _ProbeKind(
        lambda pr, v, grid: pr.gaussian_lower_bound_check(
            v["t1"], v["t2"], v["alpha"], window=v["window"], grid=grid
        ),
        _show_lower_bound,
        lambda v, report: False,
    ),
    "norm-slope": _ProbeKind(
        lambda pr, v, grid: pr.gaussian_norm_slope(
            v["exponent"], v["weight"], alphas=v.get("alphas"), grid=grid, tol=v["tol"]
        ),
        _show_norm_slope,
        lambda v, report: False,
    ),
    "boundedness": _ProbeKind(
        lambda pr, v, grid: pr.boundedness_sweep(
            _param_tuple(v),
            v["flavor"],
            space=v["space"],
            grid=grid,
            stride=v["stride"],
            slope_tol=v["tol"],
            spread_cap=v["spread_cap"],
        ),
        _show_boundedness,
        # A ladder that rises faster than its tolerance: the ratio grows.
        lambda v, report: not report.passed and report.fitted_slope > v["tol"],
    ),
}


def _cmd_probe(values: dict, args) -> tuple[dict, int, list[str], list[list]]:
    from . import probes

    kind = values["kind"]
    entry = _PROBES[kind]
    report = entry.run(probes, values, _grid_override(values))
    if entry.witnessed(values, report):
        code = EXIT_WITNESS
    else:
        code = EXIT_PASS if report.passed else EXIT_INCONCLUSIVE
    params_line, body, rows = entry.show(values, report)
    lines = [SEP, f"probe: {kind}", params_line, SEP, *body, SEP]
    return {"report": report}, code, lines, rows


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------

def _cmd_verify(values: dict, args) -> tuple[dict, int, list[str], list[list]]:
    from .kernels import (
        KernelParams,
        RegionParams,
        verify_lemma_intestimates,
        verify_prop_tf_bounds,
    )

    if values["which"] == "slices":
        report = verify_lemma_intestimates(
            values["region"],
            KernelParams(t=values["t"], d=1),
            RegionParams(delta=values["delta"], R=values["radius"]),
            values["p"],
            scan_range=(values["scan_lo"], values["scan_hi"]),
            ratio_cap=values["ratio_cap"],
        )
        lines = [
            SEP,
            f"verify slice envelope: region {report.region} (item {report.item})",
            f"p={report.p}  t={','.join(report.t)}",
            SEP,
            f"scan points kept: {len([r for r in report.ratios if r is not None])}"
            f"  empty slices excluded: {len(report.excluded_empty)}"
            f"  under-resolved: {len(report.under_resolved)}",
            f"max ratio {report.max_ratio:.4f}  median {report.median_ratio:.4f}"
            f"  cap {values['ratio_cap']:.2f} x median",
            "envelope verdict: " + ("PASS" if report.passed else "FAIL"),
        ]
        rows = [
            ["scan_value", "slice_norm", "envelope", "ratio"],
            *zip(report.scan_values, report.slice_norms, report.envelopes, report.ratios),
        ]
    else:
        report = verify_prop_tf_bounds(
            values["case"],
            values["p"],
            trials=values["trials"],
            seed=args.seed if args.seed is not None else 0,
            grid=_grid_override(values),
            kernel=values["kernel"],
            slope_tol=values["slope_tol"],
            spread_cap=values["spread_cap"],
        )
        lines = [
            SEP,
            f"verify operator bound: case {report.case}  p={','.join(report.p)}"
            f"  kernel={report.kernel}",
            SEP,
            f"dual scale r = {report.r if report.r != float('inf') else 'inf'}",
            f"per-trial dilation slopes: "
            + ", ".join(f"{s:+.4f}" for s in report.slopes),
            f"ratio spread {report.spread:.3f} (max {report.max_ratio:.4e}, "
            f"min {report.min_ratio:.4e})",
            "operator bound verdict: " + ("PASS" if report.passed else "FAIL"),
        ]
        rows = [["trial", "scale", "ratio"]]
        for trial, trial_ratios in enumerate(report.ratios):
            for scale, ratio in zip(report.scales, trial_ratios):
                rows.append([trial, scale, ratio])
    if report.notes:
        lines.append(f"note: {report.notes}")
    lines.append(SEP)
    code = EXIT_PASS if report.passed else EXIT_WITNESS
    return {"report": report}, code, lines, rows


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _weight_ladder(lo: Fraction, step: Fraction, size: int) -> list[Fraction]:
    return [lo + k * step for k in range(size)]


def _cmd_sweep(values: dict, args) -> tuple[dict, int, list[str], list[list]]:
    lo, step = values["t_min"], values["t_step"]
    if step <= 0:
        raise ScenarioError(f"t_step must be positive, got {step}")
    if lo > values["t_max"]:
        raise ScenarioError("t_min must not exceed t_max")
    size = (values["t_max"] - lo) // step + 1
    count = size ** 3
    if count > MAX_SWEEP_ROWS:  # refused before any weight is built
        raise ScenarioError(
            f"sweep would emit {count} rows, above the cap of {MAX_SWEEP_ROWS}; "
            f"shrink the weight range or enlarge t_step"
        )
    ladder = _weight_ladder(lo, step, size)

    flavor = values["flavor"]
    d = values["d"]
    q = values.get("q")  # given exactly for multiplication sweeps
    weight_names = ("t0", "t1", "t2") if flavor == "convolution" else ("s0", "s1", "s2")
    rows: list[list] = [[*weight_names, "classification", "binding", "strict"]]
    counts = {c.value: 0 for c in Classification}
    for w in product(ladder, repeat=3):
        params = ParamTuple(d=d, p=values["p"], t=w, q=q, s=None if q is None else w)
        verdict = classify(params, flavor)
        weights = [str(v) for v in w]
        label = verdict.classification.value
        binding = binding_condition(verdict)
        strict = any(rec.strictness_required for rec in verdict.trace)
        counts[label] += 1
        rows.append([*weights, label, binding, strict])

    results = {
        "flavor": flavor,
        "ladder": [str(w) for w in ladder],
        "row_count": count,
        "counts": counts,
        "rows": [
            {"weights": [w0, w1, w2], "classification": label,
             "binding_condition": binding, "strictness_engaged": strict}
            for w0, w1, w2, label, binding, strict in rows[1:]
        ],
    }

    lines = [SEP, f"sweep: {flavor}  {_params_line(values)}", SEP]
    widths = [max(len(str(row[i])) for row in rows) for i in range(6)]
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
    lines.append(SUBSEP)
    lines.append(
        f"{count} rows: "
        + "  ".join(f"{name} {num}" for name, num in sorted(counts.items()))
    )
    lines.append(SEP)
    return results, EXIT_PASS, lines, rows


# subcommand -> (handler, --help text)
_COMMANDS = {
    "check": (_cmd_check, "classify a parameter tuple with the exact checkers"),
    "probe": (_cmd_probe, "run a numerical witness or calibration ladder"),
    "verify-lemmas": (
        _cmd_verify, "stress the slice envelopes or the mixed-norm operator bounds"
    ),
    "sweep": (_cmd_sweep, "tabulate verdicts over a cubic grid of weights"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngbound",
        description="Exact checkers and numerical witnesses for weighted "
        "Young-type boundedness questions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario", required=True, metavar="PATH",
        help="scenario file with key = value lines",
    )
    common.add_argument(
        "--out", metavar="PATH", help="write the JSON run record to this path"
    )
    common.add_argument("--seed", type=int, default=None, help="seed for randomised verifiers")
    common.add_argument(
        "--grid-n", type=int, default=None, dest="grid_n",
        help="override the grid point count (power of two)",
    )
    common.add_argument(
        "--grid-L", type=float, default=None, dest="grid_l",
        help="override the grid half-width",
    )
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="stdout format (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parsing does not change it, and building
    it costs an in-process `check` more than the checker does."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = _utc_now()

    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    try:
        entries = parse_scenario_text(text)
        if args.grid_n is not None:
            entries["grid_n"] = str(args.grid_n)
        if args.grid_l is not None:
            entries["grid_l"] = repr(args.grid_l)
        values = resolve_scenario(args.command, entries)
        results, code, lines, rows = _COMMANDS[args.command][0](values, args)
    except PreconditionError as exc:
        print(f"error: precondition not met: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    # A ScenarioError among them.  OverflowError is a backstop: each overflow
    # the numerics know of (an exact weight, exponent or dual scale beyond
    # binary64, a slice envelope) is already a ValueError that names it.
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    if args.format == "json" or args.out:
        record = RunRecord(
            command=args.command,
            scenario=scenario_echo(values),
            results=results,
            exit_code=code,
            seed=args.seed,
            started_at=started,
            finished_at=_utc_now(),
            versions=package_versions(),
        ).to_json()
    if args.out:  # written first, so that a refused write prints nothing
        try:
            Path(args.out).write_text(record + "\n")
        except OSError as exc:
            print(f"error: cannot write run record: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
    if args.format == "table":
        print("\n".join(lines))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(rows)
    else:
        print(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
