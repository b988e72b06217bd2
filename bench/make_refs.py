"""Regenerate ``refs.json``, the stored reference of every pool operation.

Usage, from the root of a checkout whose outputs are known good::

    python3 bench/make_refs.py

The ``cli/`` operations run in a fresh ``python -m youngbound.cli``
process, as the ``cli-cold`` workload runs them; all others run through
``youngbound.cli.main`` in this process.  Regenerate only when a change to
the outputs is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path.cwd()
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)
sys.path.insert(0, str(ROOT / "src"))

import pool as pools  # noqa: E402
import refcheck  # noqa: E402
from worker import ColdProcess, InProcess, input_sha  # noqa: E402


def verdict_count(record: dict) -> int:
    """Exact verdicts in one run record: a check, each sweep row, a ladder."""
    results = record["results"]
    if "verdict" in results:
        return 1
    if record["command"] == "sweep":
        return results["row_count"]
    report = results.get("report")
    return int(isinstance(report, dict) and "classification" in report)


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        cold, warm = ColdProcess(ROOT, workdir), InProcess()
        for i, op in enumerate(pools.reference_ops(ROOT)):
            path = workdir / f"op{i}.txt"
            path.write_text(op.scenario)
            runner = cold if op.kind == "cli" else warm
            code, text, _, err = runner.run(op, path)
            if code is None or code == 2:
                print(f"{op.id}: exit {code}: {err.strip()}", file=sys.stderr)
                return 1
            ref = refcheck.make_reference(code, text)
            ref["input_sha"] = input_sha(op)
            ref["verdicts"] = verdict_count(json.loads(text))
            refs[op.id] = ref
            print(f"{op.id:55s} exit {code}", file=sys.stderr)
    out = Path(__file__).resolve().parent / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
