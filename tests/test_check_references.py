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
import math
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


def test_modulation_ratios_match_their_closed_forms():
    """Every ratio of the four ``modulation/*`` records against its closed
    form.  The ladder runs f = e^{-a x^2} along MODULATION_ALPHAS on the
    default grid; the ratio is the norm (p0', q0', -s0, -t0) of the
    numerator over the norms (p_j, q_j, s_j, t_j) of f, j = 1, 2.  The
    multiplication numerator is f f = e^{-2a x^2}, the convolution one
    f * f = sqrt(pi / 2a) e^{-a x^2 / 2}, and each norm comes from
    ``oracles.gaussian_stft_norm`` with the tolerance it derives from the
    box.  A ratio N / (D1 D2) of norms within e_N, e_1 and e_2 of their
    values is within (1 + e_N/N) / ((1 - e_1/D1)(1 - e_2/D2)) - 1 of its
    value, relatively.  The worst error is 1.6e-15 relative.  The
    tolerances run from 3.0e-12 (the oracle's 1e-12 floor of each norm)
    to 7.0e-7 (the convolution numerator at a = 1/16, whose box bound
    spreads the widest Gaussian's edge value over the whole lattice)."""
    from oracles import gaussian_stft_norm
    from youngbound.probes import MODULATION_ALPHAS, MODULATION_GRID

    refs = json.loads((BENCH / "refs.json").read_text())
    alphas = list(MODULATION_ALPHAS)
    n, extent = MODULATION_GRID.n, MODULATION_GRID.extent
    # The benchmark's tuple: p = (2, 2, 2), t = (1/4, 1/4, 0),
    # q = (2, 1, 2), s = 0, so p0' = q0' = 2.
    numerator_norm = (2.0, 2.0, 0.0, -0.25)
    denominator_norms = [(2.0, 1.0, 0.0, 0.25), (2.0, 2.0, 0.0, 0.0)]
    ids = sorted(k for k in refs if k.startswith("modulation/"))
    assert len(ids) == 4
    worst = 0.0
    for op_id in ids:
        flavor, stride = op_id.split("/")[1], int(op_id.rsplit("stride", 1)[1])
        floats = refs[op_id]["floats"]
        # The record's floats run ..., ratios, scales, spread.
        start = floats.index(alphas[0])
        assert floats[start : start + len(alphas)] == alphas, op_id
        ratios = floats[start - len(alphas) : start]
        for a, ratio in zip(alphas, ratios):
            if flavor == "modulation-multiplication":
                c, b = 1.0, 2.0 * a
            else:
                c, b = math.sqrt(math.pi / (2.0 * a)), a / 2.0
            num, num_tol = gaussian_stft_norm(c, b, *numerator_norm, n, extent, stride)
            value, bound = num, 1.0 + num_tol / num
            for p, q, s, t in denominator_norms:
                den, den_tol = gaussian_stft_norm(1.0, a, p, q, s, t, n, extent, stride)
                value, bound = value / den, bound / (1.0 - den_tol / den)
            error = abs(ratio - value) / value
            assert error <= bound - 1.0, (op_id, a, ratio, value, bound - 1.0)
            worst = max(worst, error)
    assert worst > 0.0  # the ratios were read
