"""The tools under ``tools/``, run from the command line as a user runs them."""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_numerics_compares_this_checkout_with_itself():
    """One round of the four lower-bound calibrations, this tree on both
    sides: every record is equal and matches its reference, each
    operation reports how many rounds the change won, and the run ends
    inside 5 s."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_numerics.py"), str(ROOT), str(ROOT),
         "--rounds", "1", "--repeats", "1", "--only", "calibration/lower-bound"],
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "masked records and exit codes: all 4 equal" in proc.stdout
    per_op = re.findall(
        r"^  calibration/lower-bound/\S+: [\d.]+ -> [\d.]+ \([01] of 1\)$",
        proc.stdout, flags=re.MULTILINE,
    )
    assert len(per_op) == 4, proc.stdout
    assert elapsed < 5.0


def test_charge_readings_reports_each_size_and_the_fit():
    """The readings of one whole-table case: a row for each table size with
    its charge over traced peak inside the [1, 1.5] the charge tests hold,
    then the line of the two fits."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "charge_readings.py"), "--only", "mixed_norm_2d"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = re.findall(
        r"^mixed_norm_2d +(\d+) +\d+ +\d+ +([\d.]+)$", proc.stdout, flags=re.MULTILINE
    )
    assert [int(n) for n, _ in rows] == [256, 512, 1024], proc.stdout
    assert all(1.0 <= float(reading) <= 1.5 for _, reading in rows), proc.stdout
    assert re.search(
        r"^ +charge [\d.]+ n [+-]\d+, peak [\d.]+ n [+-]\d+$", proc.stdout, flags=re.MULTILINE
    ), proc.stdout
