"""The benchmark's stored check outputs, replayed through the command line.

``bench/refs.json`` keeps the ``--format json`` run record of every
benchmark operation as a digest of its text, with the timestamps and the
version block masked.  Every ``check/*`` operation, one per corpus tuple and
setting, runs here through ``youngbound.cli.main`` in-process, and its exit
code and masked record text must match the stored ones byte for byte.
``bench/pool.py`` and ``bench/refcheck.py`` are loaded read-only.
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


def test_check_operations_match_their_stored_records(tmp_path, capsys):
    pool, refcheck = _bench_module("pool"), _bench_module("refcheck")
    refs = json.loads((BENCH / "refs.json").read_text())
    ops = [op for op in pool.reference_ops(ROOT) if op.kind == "check"]
    assert len(ops) == 119
    mismatched = []
    for i, op in enumerate(ops):
        path = tmp_path / f"op{i}.txt"
        path.write_text(op.scenario)
        code = main([op.command, "--scenario", str(path), "--format", "json", *op.flags])
        text = capsys.readouterr().out
        ref = refs[op.id]
        if code != ref["exit"] or refcheck.masked_text_sha(text) != ref["text_sha"]:
            mismatched.append(op.id)
    assert mismatched == []
