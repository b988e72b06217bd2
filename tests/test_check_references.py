"""The benchmark's stored outputs, replayed through the command line.

``bench/refs.json`` keeps the ``--format json`` run record of every
benchmark operation as a digest of its text, with the timestamps and the
version block masked.  Every ``check/*`` operation, one per corpus tuple and
setting, runs here through ``youngbound.cli.main`` in-process, and its exit
code and masked record text must match the stored ones byte for byte.  So
does every other operation but the long ``sweep/*`` ones, under the
benchmark's own rule: the numerics operations and the shipped scenarios may
also match through their floats at 1e-12 relative.  ``bench/pool.py`` and
``bench/refcheck.py`` are loaded read-only.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from youngbound.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _replay(ops, tmp_path, capsys):
    """(operation, exit code, record text) of each operation, run in-process."""
    for i, op in enumerate(ops):
        path = tmp_path / f"op{i}.txt"
        path.write_text(op.scenario)
        code = main([op.command, "--scenario", str(path), "--format", "json", *op.flags])
        yield op, code, capsys.readouterr().out


def test_check_operations_match_their_stored_records(tmp_path, capsys):
    pool, refcheck = _bench_module("pool"), _bench_module("refcheck")
    refs = json.loads((BENCH / "refs.json").read_text())
    ops = [op for op in pool.reference_ops(ROOT) if op.kind == "check"]
    assert len(ops) == 119
    mismatched = [
        op.id
        for op, code, text in _replay(ops, tmp_path, capsys)
        if code != refs[op.id]["exit"]
        or refcheck.masked_text_sha(text) != refs[op.id]["text_sha"]
    ]
    assert mismatched == []


def test_numerics_and_scenario_operations_match_their_stored_records(tmp_path, capsys):
    """The 51 numerics operations (probes, ladders, modulation ladders,
    calibrations, slices, operator cases) and the 10 shipped scenarios, so
    that a rounding-level move in any of them fails here, not only in the
    benchmark."""
    pool, refcheck = _bench_module("pool"), _bench_module("refcheck")
    refs = json.loads((BENCH / "refs.json").read_text())
    ops = [op for op in pool.reference_ops(ROOT) if op.kind not in ("check", "sweep")]
    assert len(ops) == 61
    assert sum(op.kind == "cli" for op in ops) == 10
    mismatched = {
        op.id: reason
        for op, code, text in _replay(ops, tmp_path, capsys)
        if (reason := refcheck.mismatch(refs[op.id], code, text)) is not None
    }
    assert mismatched == {}
