"""Benchmark of ``grayspace simulate``/``report``/``ingest`` on the shipped towns.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-100m --seed 42 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (``wall_s``,
``setup_s``, ``cells_per_s``, ``peak_rss_mb``; times are scaled to a
reference machine speed, see ``calibration.py``); with ``--trace 1`` the
per-layer metrics from spans recorded at each layer boundary, with the
spans written to ``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads and
the layer-to-metric map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import at_reference_speed

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB"}


def measure_setup(bench) -> list[float]:
    """CLI start-up time of this workload's configs and grids at reference
    speed, each sample in a fresh interpreter, so imports are paid as every
    invocation pays them."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(ROOT / "src"),
           "--config", *(str(t.config) for t in bench.towns.values()),
           "--grid", *(str(t.grid) for t in bench.towns.values())]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        seconds, calibration = map(float, done.stdout.split())
        samples.append(at_reference_speed(seconds, calibration))
    return samples


def result_set_seconds(iterations: list[list[float]]) -> float:
    """Seconds to produce the complete result set: the sum over CLI
    invocations of each one's median over the iterations."""
    return sum(statistics.median(repeats) for repeats in zip(*iterations))


def metadata(bench, args) -> dict:
    import grayspace
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "realizations": {t: bench.workload.realizations for t in bench.towns},
        "backend": grayspace.BACKEND,
        "git_rev": rev,
        "src_py_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run(args) -> dict:
    import tracing
    from workloads import WORKLOADS, Bench

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(ROOT, WORKLOADS[args.workload], args.seed, work)
    try:
        bench.prepare()
        setup = [] if args.trace else measure_setup(bench)
        raw: list[list[float]] = []  # per iteration, seconds of each invocation
        plain: list[list[float]] = []  # the same at reference speed, untraced
        traced: list[list[float]] = []  # the same, traced
        layers: list[dict] = []
        tracers: list[tracing.Tracer] = []
        attempted = failed = 0
        # Closed loop; the traced run alternates plain and traced iterations
        # so that their difference is the tracing overhead.
        while True:
            use_tracer = args.trace and len(plain) > len(traced)
            tracer = tracing.Tracer() if use_tracer else None
            if tracer is not None:
                tracer.install()
            try:
                seconds, speeds, bad = bench.run_iteration(
                    tracer, iteration=len(plain) + len(traced))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            attempted += len(bench.ops)
            failed += bad
            raw.append(seconds)
            scaled = list(map(at_reference_speed, seconds, speeds))
            if tracer is None:
                plain.append(scaled)
            else:
                tracers.append(tracer)
                traced.append(scaled)
                layers.append(tracing.layer_metrics(tracer.spans, tracer.counts, sum(seconds)))
            spent = sum(map(sum, raw))
            if spent >= args.seconds and (not args.trace or traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(bench, args)
    meta["iterations"] = {"plain": len(plain), "traced": len(traced)}
    print("meta " + json.dumps(meta))
    for problem in bench.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        tracing.warn_missing(tracers[0])
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(trace_path, tracers)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        # Counts must repeat exactly, so they come from the first traced
        # iteration; times are medians over the traced iterations.
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in tracing.LAYER_UNITS if name != "trace_overhead_s"}
        for name in tracing.COUNT_METRICS:
            metrics[name] = layers[0][name]
            if any(m[name] != layers[0][name] for m in layers):
                print(f"perfbench: {name} differs between traced iterations", file=sys.stderr)
        metrics["trace_overhead_s"] = result_set_seconds(traced) - result_set_seconds(plain)
        units = tracing.LAYER_UNITS
    else:
        wall = result_set_seconds(plain)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "cells_per_s": bench.work_cells() / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"iterations: {len(raw)}; measured s each: "
              + ", ".join(f"{sum(s):.3f}" for s in raw)
              + "; at reference speed: " + ", ".join(f"{sum(s):.3f}" for s in plain))
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="sim-100m, sim-1km or report-100m")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time after which no new iteration starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grayspace" / "__init__.py").is_file():
        print(f"perfbench: no grayspace source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    start = time.perf_counter()
    result = run(args)
    print(f"run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
