"""The benchmark tracer still finds every function it names.

``bench/tracer.py`` wraps the package's public functions by identity and
keys its groups and work-count hooks by ``<module>.<qualname>``.  A name
that no longer matches a function is never wrapped, and the per-layer
metric built on it silently reads zero, so these tests fail instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list[str]:
    tracer = _tracer()
    names = {name for members in tracer.GROUPS.values() for name in members}
    return sorted(names | set(tracer._HOOKS) | {"scenario.RunRecord.to_json"})


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_to_a_function_of_its_module(name):
    module_name, _, qualname = name.partition(".")
    obj = importlib.import_module(f"youngbound.{module_name}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    assert isinstance(obj, types.FunctionType)
    # The tracer names a wrapper after the function's own module and qualname.
    assert obj.__module__ == f"youngbound.{module_name}"
    assert obj.__qualname__ == qualname
    assert not qualname.startswith("_")


def test_tracer_self_check_passes():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "check_tracer.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tracer self-check passed" in proc.stdout
