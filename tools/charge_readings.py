"""Print the memory-charge readings of every charge-test case.

Usage, from the root of a checkout::

    python3 tools/charge_readings.py [--only PREFIX ...]

The cases and the way they are read are those of ``tests/charge_cases.py``:
the Gaussian ladders and probes at its ``POINT_SIZES``, the modulation
ladders and the operator checks at its ``BLOCK_SIZES``, and the
whole-table library functions at its ``TABLE_SIZES``.  For each case and
size the report gives the charge (the bytes the routine hands its refusal
call), the traced peak and the reading, charge over peak, which the tests
hold within [1, 1.5]; then, for each case, the per-point term and intercept
of the charges and the fitted alpha n + beta of the peaks.  The tests also
require the charges' per-point term to be at least alpha.  ``--only`` keeps
the cases whose name starts with one of the prefixes.  Only the standard
library and numpy are needed, and nothing is written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import charge_cases  # noqa: E402  (importable once tests/ is on the path)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", nargs="*", default=[], metavar="PREFIX")
    args = ap.parse_args()
    groups = [
        (charge_cases.POINT_CHARGED_PROBES, charge_cases.POINT_SIZES),
        (charge_cases.MODULATION_LADDERS, charge_cases.BLOCK_SIZES),
        (charge_cases.OPERATOR_CHECKS, charge_cases.BLOCK_SIZES),
        (charge_cases.WHOLE_TABLES, charge_cases.TABLE_SIZES),
    ]
    print(f"{'case':28s} {'n':>6s} {'charge':>10s} {'peak':>10s} {'reading':>8s}")
    for cases, sizes in groups:
        for name, case in cases.items():
            if args.only and not name.startswith(tuple(args.only)):
                continue
            charges, peaks = charge_cases.readings(case, sizes)
            for n, c, p in zip(sizes, charges, peaks):
                print(f"{name:28s} {n:6d} {c:10d} {p:10d} {c / p:8.4f}")
            (a_c, b_c), (a_p, b_p) = charge_cases.fit(sizes, charges), charge_cases.fit(sizes, peaks)
            print(
                f"{'':28s} charge {a_c:.2f} n {round(b_c):+d}, peak {a_p:.2f} n {round(b_p):+d}"
                f"{'' if a_c >= a_p else '  (per-point term below alpha)'}"
            )


if __name__ == "__main__":
    main()
