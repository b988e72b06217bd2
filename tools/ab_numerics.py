"""Compare two source trees on the ``numerics`` reference operations.

Usage, from the root of a checkout::

    python3 tools/ab_numerics.py PARENT_TREE CHANGE_TREE \
        [--rounds 10] [--repeats 3] [--only PREFIX ...]

Each tree is a directory holding ``src/youngbound``.  The operations are
the ``numerics`` reference operations of this checkout's ``bench/pool.py``
(``--only`` keeps those whose id starts with one of the prefixes), so both
sides run the same command lines.  Every round runs each side in its own
fresh interpreter, with that tree's ``src`` on ``PYTHONPATH`` and
OpenMP/OpenBLAS pinned to one thread as ``bench/run.py`` does; the side that
goes first alternates from round to round.  A side calls
``youngbound.cli.main`` in-process ``--repeats`` times per operation and
keeps each operation's fastest run.

The report gives, per round, each side's ``op_ms_p50`` (the median over the
operations of their fastest runs, as the benchmark defines it) and the sum
of the fastest runs of each group (the part of the id before the first
``/``); then the medians and how many rounds the change won, and per
operation its bests over all rounds and how many rounds the change won.  It also says whether the change's masked
record texts and exit codes (``bench/refcheck.masked_text_sha``) equal the
parent's, operation by operation, and checks every record of each side
against ``bench/refs.json`` with ``bench/refcheck.mismatch``: a float that
moved beyond the benchmark's rule shows here before a benchmark run.  It
exits 1 when the sides differ or any record fails its reference, naming
each such operation.  Only the standard library and numpy are needed, and
nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _ops(only: list[str]):
    sys.path.insert(0, str(BENCH_DIR))
    import pool
    from youngbound.corpus import CORPUS

    ops = pool._numerics_ops(CORPUS)
    return [op for op in ops if not only or op.id.startswith(tuple(only))]


def child(repeats: int, only: list[str]) -> None:
    """Run the operations in this interpreter and print one JSON object:
    per operation, its fastest seconds, exit code, masked record digest and
    why it fails its reference (None when it matches)."""
    from youngbound import cli

    ops = _ops(only)
    import refcheck  # importable once _ops has put bench/ on the path

    with open(BENCH_DIR / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(ops):
            path = Path(tmp) / f"op{i}.txt"
            path.write_text(op.scenario)
            argv = [op.command, "--scenario", str(path), "--format", "json", *op.flags]
            best = float("inf")
            for _ in range(repeats):
                out = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                best = min(best, perf_counter() - t0)
            text = out.getvalue()
            result[op.id] = [best, code, refcheck.masked_text_sha(text),
                             refcheck.mismatch(refs[op.id], code, text)]
    print(json.dumps(result))


def run_side(tree: Path, repeats: int, only: list[str]) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(tree.resolve() / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--repeats", str(repeats), *(["--only", *only] if only else [])]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _group(op_id: str) -> str:
    return op_id.split("/", 1)[0]


def _summary(run: dict) -> dict:
    bests = [v[0] for v in run.values()]
    groups: dict[str, float] = {}
    for op_id, (seconds, *_) in run.items():
        groups[_group(op_id)] = groups.get(_group(op_id), 0.0) + seconds
    return {"op_ms_p50": 1000 * statistics.median(bests), "sum_s": sum(bests), **groups}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--only", nargs="*", default=[])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.repeats, args.only)
        return 0
    if args.parent is None or args.change is None:
        ap.error("give the parent and the change trees")

    sides = {"parent": args.parent, "change": args.change}
    rounds: list[dict[str, dict]] = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        runs = {side: run_side(sides[side], args.repeats, args.only) for side in order}
        rounds.append(runs)
        a, b = (_summary(runs[s]) for s in ("parent", "change"))
        print(f"round {r + 1} ({order[0]} first): "
              + "  ".join(f"{k} {a[k]:.4g} -> {b[k]:.4g}" for k in a), flush=True)

    keys = list(_summary(rounds[0]["parent"]))
    print("\nmetric: parent median -> change median (change better in k of n rounds)")
    for key in keys:
        pa = [_summary(r["parent"])[key] for r in rounds]
        ch = [_summary(r["change"])[key] for r in rounds]
        wins = sum(c < p for p, c in zip(pa, ch))
        quart = statistics.quantiles(pa, n=4, method="inclusive") if len(pa) > 1 else pa * 3
        print(f"  {key}: {statistics.median(pa):.4g} -> {statistics.median(ch):.4g} "
              f"({wins} of {len(rounds)}; parent quartiles {quart[0]:.4g}..{quart[2]:.4g})")

    print("\nper operation, fastest over all rounds (ms): parent -> change "
          "(change faster in k of n rounds)")
    mismatched = []
    for op_id in rounds[0]["parent"]:
        best = {s: 1000 * min(r[s][op_id][0] for r in rounds) for s in sides}
        wins = sum(r["change"][op_id][0] < r["parent"][op_id][0] for r in rounds)
        print(f"  {op_id}: {best['parent']:.2f} -> {best['change']:.2f} "
              f"({wins} of {len(rounds)})")
        outputs = {tuple(r[s][op_id][1:3]) for r in rounds for s in sides}
        if len(outputs) != 1:
            mismatched.append(op_id)
    if mismatched:
        print(f"\nmasked records differ: {', '.join(mismatched)}")
    else:
        print(f"\nmasked records and exit codes: all {len(rounds[0]['parent'])} equal")
    failing = False
    for side in sides:
        reasons = {op_id: v[3] for r in rounds for op_id, v in r[side].items() if v[3]}
        failing = failing or bool(reasons)
        for op_id, reason in reasons.items():
            print(f"{side} fails its reference: {op_id}: {reason}")
    if not failing:
        print("bench/refs.json: every record of both sides matches")
    return 1 if mismatched or failing else 0


if __name__ == "__main__":
    sys.exit(main())
