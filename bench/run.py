"""The youngbound benchmark.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {cli-cold,exact-sweep,numerics} \
        --seed N --seconds S --trace {0,1}

Runs the workload in a worker process (``worker.py``) with ``src`` on
``PYTHONPATH`` and OpenMP/OpenBLAS pinned to one thread, checks every
operation against its stored reference, and prints a table of the metrics
followed, as the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from pool import WORKLOADS
from tracer import GROUPS

BENCH_DIR = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170
LAYERS = ("cli", "scenario", "exponents", "grids", "kernels", "probes")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100), by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    # Each slot of the batch at its fastest repeat.  On a shared host,
    # neighbours slow the machine for seconds to minutes at a time; a
    # slot's fastest repeat is the one such a phase did not reach, and it
    # repeats from run to run where a median does not (README, Noise).
    best = [min(v) for v in res["samples_s"].values()]
    wall = sum(best)
    return {
        "setup_s": (median(res["setup_s"]), "s"),
        "wall_s": (wall, "s"),
        "op_ms_p50": (1000 * median(best), "ms"),
        "verdicts_per_s": (sum(res["verdicts"].values()) / wall, "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures from the traced passes."""
    n = res["traced"]["passes"]
    fns, groups, counts = res["trace"]["fns"], res["trace"]["groups"], res["trace"]["counts"]
    traced_ns = 1e9 * res["traced"]["seconds"]
    untraced_wall = res["untraced"]["seconds"] / res["untraced"]["passes"]

    def fn(name: str, field: int) -> float:  # fields: calls, incl_ns, self_ns, exceptions
        return fns.get(name, [0, 0, 0, 0])[field]

    def group(name: str, field: int) -> float:  # fields: calls, incl_ns
        return groups.get(name, [0, 0])[field]

    def ms(ns: float) -> float:
        return ns / 1e6 / n

    layer_self = {layer: 0 for layer in LAYERS}
    for name, values in fns.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += values[2]
    stft_calls = fn("grids.stft", 0)
    out = {
        "cli.import_ms": (median(res["import_ms"]), "ms"),
        "cli.import_numpy_ms": (median(res["import_numpy_ms"]), "ms"),
        "cli.main.self_ms": (ms(fn("cli.main", 2)), "ms"),
        "scenario.parse_ms": (ms(group("scenario.parse", 1)), "ms"),
        "scenario.record_ms": (ms(fn("scenario.RunRecord.to_json", 1)), "ms"),
        "scenario.record_bytes": (counts.get("scenario.record_bytes", 0) / n, "bytes"),
        "scenario.nonstrict_records": (sum(res["nonstrict"].values()), "count"),
        "exponents.verdicts": (group("exponents.check", 0) / n, "count"),
        "exponents.check_ms": (ms(group("exponents.check", 1)), "ms"),
        "exponents.binding_ms": (ms(fn("exponents.binding_condition", 1)), "ms"),
        "grids.convolve.calls": (fn("grids.convolve", 0) / n, "count"),
        "grids.convolve.ms": (ms(fn("grids.convolve", 1)), "ms"),
        "grids.convolve.fft_points": (counts.get("grids.convolve.fft_points", 0) / n, "count"),
        "grids.fft.calls": (group("grids.fft", 0) / n, "count"),
        "grids.fft.ms": (ms(group("grids.fft", 1)), "ms"),
        "grids.stft.calls": (stft_calls / n, "count"),
        "grids.stft.ms": (ms(fn("grids.stft", 1)), "ms"),
        "grids.stft.table_bytes": (counts.get("grids.stft.table_bytes", 0) / n, "bytes"),
        "grids.stft.unique_ratio": (
            counts.get("grids.stft.unique_inputs", 0) / stft_calls if stft_calls else 0.0,
            "ratio",
        ),
        "grids.norms.calls": (group("grids.norms", 0) / n, "count"),
        "grids.norms.ms": (ms(group("grids.norms", 1)), "ms"),
        "grids.modulation_norm.self_ms": (ms(fn("grids.modulation_norm", 2)), "ms"),
        "kernels.t_f.calls": (fn("kernels.t_f", 0) / n, "count"),
        "kernels.t_f.ms": (ms(fn("kernels.t_f", 1)), "ms"),
        "kernels.t_f.madds": (counts.get("kernels.t_f.madds", 0) / n, "count"),
        "kernels.operator.self_ms": (ms(fn("kernels.verify_prop_tf_bounds", 2)), "ms"),
        "kernels.slices.ms": (ms(fn("kernels.verify_lemma_intestimates", 1)), "ms"),
        "probes.self_ms": (
            ms(sum(values[2] for name, values in fns.items()
                   if name in GROUPS["probes.probe"])),
            "ms",
        ),
        "probes.fit.calls": (fn("probes.fit_power_law", 0) / n, "count"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = (ms(layer_self[layer]), "ms")
        out[f"layer.{layer}.share"] = (layer_self[layer] / traced_ns, "ratio")
    out["trace.coverage"] = (sum(layer_self.values()) / traced_ns, "ratio")
    out["trace.exceptions"] = (sum(v[3] for v in fns.values()) / n, "count")
    out["trace.overhead_ratio"] = (traced_ns / 1e9 / n / untraced_wall - 1.0, "ratio")
    return out


def run_worker(root: Path, args) -> dict:
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # A session of its own, so a timeout stops the worker and its children.
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "youngbound" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        print("error: run from the root of a youngbound checkout "
              "(src/youngbound/cli.py and scenarios/ not found)", file=sys.stderr)
        return 2
    try:
        res = run_worker(root, args)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(res) if args.trace else end_to_end(res)
    attempted, failed = res["attempted"], len(res["failures"])
    lat_ms = [1000 * s for v in res["samples_s"].values() for s in v]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['untraced']['passes']}" +
          (f" untraced + {res['traced']['passes']} traced" if args.trace else ""))
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} operations failed)")
    print(f"  op latency: {len(lat_ms)} samples, p50 {percentile(lat_ms, 50):.3f} ms"
          + "".join(f", p{q} {percentile(lat_ms, q):.3f} ms"
                    for q in (90, 99, 99.9) if len(lat_ms) * (1 - q / 100) >= 10))
    if not args.trace:
        print("  no waiting metric: no layer has queues or threads")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
