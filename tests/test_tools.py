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
