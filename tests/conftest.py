"""Shared pytest configuration.

Registers a relaxed hypothesis profile (numerical properties here can take
longer than the default deadline) and prints a one-line verdict for every
acceptance criterion at the end of the run, so the acceptance status is
readable without scrolling through the full log.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numerics",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


@pytest.fixture
def allocations(monkeypatch):
    """The layouts that ``grids._allocate`` is asked for, in order, through
    every module that binds it."""
    from youngbound import grids, kernels, probes

    layouts = []
    allocate = grids._allocate

    def spy(layout):
        layouts.append(layout)
        return allocate(layout)

    for module in (grids, kernels, probes):
        if getattr(module, "_allocate", None) is allocate:
            monkeypatch.setattr(module, "_allocate", spy)
    return layouts


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_results: dict[str, list[str]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        _results.setdefault(m.group(1), []).append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results, key=int):
        outcomes = _results[number]
        verdict = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict}")
