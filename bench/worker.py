"""Runs one workload in a fresh interpreter and prints its measurements.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  The last line of stdout is a JSON object with the raw
measurements; ``run.py`` turns it into the benchmark result.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Operations are grouped in passes; a
pass is the workload's fixed batch in a seed-dependent order.  Operations
run until ``--seconds`` have elapsed and at least one pass is complete.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import pool as pools
import refcheck

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t0)"
)


def input_sha(op: pools.Op) -> str:
    text = "\0".join((op.command, op.scenario, *op.flags))
    return hashlib.sha256(text.encode()).hexdigest()


def argv_for(op: pools.Op, path: Path) -> list[str]:
    return [op.command, "--scenario", str(path), "--format", "json", *op.flags]


def fresh_imports(root: Path, module: str, repeats: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import ``module``, and the import
    time each measured inside itself."""
    walls, inner = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(module=module)],
            cwd=root, capture_output=True, text=True, timeout=60, check=True,
        )
        walls.append(perf_counter() - t0)
        inner.append(float(proc.stdout.strip()))
    return walls, inner


class InProcess:
    """Calls ``youngbound.cli.main`` in this interpreter."""

    def __init__(self):
        import youngbound.cli

        self.cli = youngbound.cli

    def run(self, op, path):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # Looked up per call, so a traced run reaches the wrapper.
                code = self.cli.main(argv_for(op, path))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a harness error
            return None, "", perf_counter() - t0, traceback.format_exc(limit=3)
        return code, out.getvalue(), perf_counter() - t0, err.getvalue()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ColdProcess:
    """Runs ``python -m youngbound.cli`` in a fresh process per operation."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.traced = False
        self.stats_files: list[Path] = []

    def run(self, op, path):
        if self.traced:
            stats = self.workdir / f"trace-{len(self.stats_files)}.json"
            self.stats_files.append(stats)
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(stats)]
        else:
            cmd = [sys.executable, "-m", "youngbound.cli"]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd + argv_for(op, path), cwd=self.root,
                capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            return None, "", perf_counter() - t0, "timed out"
        return proc.returncode, proc.stdout, perf_counter() - t0, proc.stderr

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class Loop:
    """Runs operations, times each one, and checks it against its reference.

    Latencies are kept per slot: a slot is one place in the batch, so the
    time of a batch is the sum over slots of each slot's median latency.
    """

    def __init__(self, pool, runner, refs, paths):
        self.pool = pool
        self.runner = runner
        self.refs = refs
        self.paths = paths
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}  # slot -> latencies in seconds
        self.verdicts: dict[str, int] = {}  # slot -> exact verdicts per operation
        self.nonstrict: dict[str, int] = {}  # slot -> 1 if its record is not strict JSON

    def run(self, deadline: float, *, whole_passes: bool) -> dict:
        """Operations until ``deadline`` and at least one whole pass; with
        ``whole_passes`` the last pass is finished too."""
        passes, seconds = 0, 0.0
        while True:
            for op in self.pool.next_pass():
                seconds += self.run_op(op)
                if not whole_passes and passes and perf_counter() >= deadline:
                    return {"passes": passes, "seconds": seconds}
            passes += 1
            if perf_counter() >= deadline:
                return {"passes": passes, "seconds": seconds}

    def run_op(self, op) -> float:
        if self.tracer is not None:
            self.tracer.begin_op()
        code, text, seconds, err = self.runner.run(op, self.paths[op.id])
        self.attempted += 1
        self.samples.setdefault(op.slot, []).append(seconds)
        ref = self.refs.get(op.id)
        if ref is None or ref["input_sha"] != input_sha(op):
            reason = "no reference for this input"
        elif code is None:
            reason = f"crashed: {err.strip()}"
        else:
            reason = refcheck.mismatch(ref, code, text)
        if reason is not None:
            self.failures.append(f"{op.id}: {reason}")
            return seconds
        self.verdicts[op.slot] = ref["verdicts"]
        strict = (
            ref["strict_json"]
            if refcheck.masked_text_sha(text) == ref["text_sha"]
            else refcheck.is_strict_json(text)
        )
        self.nonstrict[op.slot] = int(not strict)
        return seconds


def environment() -> dict:
    from importlib import metadata
    import platform

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def traced_totals(loop: Loop, runner) -> dict:
    """Tracer totals of the traced passes, summed over processes."""
    if isinstance(runner, InProcess):
        return loop.tracer.snapshot()
    total = {"fns": {}, "groups": {}, "counts": {}}
    for path in runner.stats_files:
        snap = json.loads(path.read_text())
        for section in ("fns", "groups"):
            for name, values in snap[section].items():
                acc = total[section].setdefault(name, [0] * len(values))
                for i, v in enumerate(values):
                    acc[i] += v
        for name, v in snap["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + v
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    root = args.root.resolve()

    result = {"workload": args.workload, "env": environment()}
    walls, inner = fresh_imports(root, "youngbound.cli", SETUP_REPEATS)
    result["setup_s"] = walls
    result["import_ms"] = [1000 * s for s in inner]
    if args.trace:
        result["import_numpy_ms"] = [
            1000 * s for s in fresh_imports(root, "numpy", SETUP_REPEATS)[1]
        ]

    refs = json.loads(REFS_PATH.read_text())
    pool = pools.Pool(args.workload, root, args.seed)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        paths = {}
        for i, op in enumerate(pool.all_ops()):
            paths[op.id] = workdir / f"op{i}.txt"
            paths[op.id].write_text(op.scenario)
        if args.workload == "cli-cold":
            runner = ColdProcess(root, workdir)
        else:
            runner = InProcess()
        loop = Loop(pool, runner, refs, paths)

        start = perf_counter()
        if not args.trace:
            result["untraced"] = loop.run(start + args.seconds, whole_passes=False)
        else:
            # Untraced passes first, then the same batch traced, for the
            # overhead ratio.  Only the traced passes feed the layer totals,
            # so both halves run whole passes.
            result["untraced"] = loop.run(start + args.seconds / 2, whole_passes=True)
            if isinstance(runner, InProcess):
                from tracer import Tracer

                loop.tracer = Tracer()
                loop.tracer.install()
            else:
                runner.traced = True
            result["traced"] = loop.run(start + args.seconds, whole_passes=True)
            result["trace"] = traced_totals(loop, runner)
        result["peak_rss_kb"] = runner.peak_rss_kb()
        result["attempted"] = loop.attempted
        result["failures"] = loop.failures
        result["samples_s"] = loop.samples
        result["verdicts"] = loop.verdicts
        result["nonstrict"] = loop.nonstrict
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
