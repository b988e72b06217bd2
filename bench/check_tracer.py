"""Self-check of the tracer, run from the root of a checkout::

    PYTHONPATH=src python3 bench/check_tracer.py

Checks that one wrapper replaces every binding of a function, that a module
loaded after the tracer is installed is patched (so a name it imports at
call time is the wrapper), that self time excludes nested wrapped calls,
and that an exception escaping a wrapped call is counted.  The late module is written to a temporary directory that is added
to the package path for the check.
"""

import sys
import tempfile
import textwrap
import time
from pathlib import Path

from tracer import Tracer

LATE_MODULE = textwrap.dedent(
    """
    import time


    def inner():
        time.sleep(0.02)


    def outer():
        from .grids import convolve  # imported at call time
        inner()
        time.sleep(0.01)
        return convolve


    def broken():
        raise ValueError("raised on purpose")
    """
)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import youngbound
    import youngbound.cli
    import youngbound.grids
    import youngbound.probes

    wrapped = youngbound.grids.convolve
    assert hasattr(wrapped, "__wrapped__"), "grids.convolve is not wrapped"
    for module in (youngbound, youngbound.probes):
        assert module.convolve is wrapped, f"{module.__name__}.convolve is another object"

    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "late_probe_module.py").write_text(LATE_MODULE)
        youngbound.__path__.append(tmp)
        try:
            from youngbound import late_probe_module
        finally:
            youngbound.__path__.remove(tmp)
        t0 = time.perf_counter_ns()
        assert late_probe_module.outer() is wrapped, "call-time import missed the wrapper"
        elapsed_ns = time.perf_counter_ns() - t0
        try:
            late_probe_module.broken()
        except ValueError:
            pass

    outer = tracer.fns["late_probe_module.outer"]
    inner = tracer.fns["late_probe_module.inner"]
    assert outer.calls == inner.calls == 1 and outer.exceptions == 0
    assert outer.incl_ns <= elapsed_ns
    assert outer.self_ns == outer.incl_ns - inner.incl_ns, "self time includes the nested call"
    assert inner.self_ns >= 20_000_000 > outer.self_ns >= 10_000_000
    assert tracer.fns["late_probe_module.broken"].exceptions == 1
    print("tracer self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
