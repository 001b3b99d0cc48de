"""Compare two revisions on the perfbench workloads, each from a clean copy.

Extracts a ``git archive`` copy of each revision under a scratch directory,
plus a no-op control: the base copy with one never-called function appended
to ``src/grayspace/griddata.py`` (see :func:`control_copy`).  It then runs
``perfbench/run.py`` on the three copies in turn, N rounds per workload,
varying which copy runs first, after one warm-up run of each copy per
workload (printed, and kept out of every statistic and verdict).  It
prints each round's end-to-end metrics and raw iteration seconds and, per
metric, both medians with their quartiles, the change of the medians and
in how many pairs the second revision was better, then the benchmark's
verdict on that metric (see :func:`verdict`) with the control's verdict
against the base beside it, and last the line count of
``src/grayspace/*.py`` in each copy:

    python3 tools/bench_pairs.py 5e9ef34 WORKTREE --scratch /tmp/pairs \\
        --workload sim-1km --pairs 10 --seconds 8 --seed 42

``WORKTREE`` stands for the tracked files of the working tree, staged new
files included (``git stash create``, which changes nothing in the
checkout).  Runs from a working checkout can read differently from clean
copies of the same files, so both sides always run from copies.  The tool
only invokes the benchmark; it changes nothing in the repository.

The control differs from the base in code layout only, so a verdict that
the control reaches as well is layout, not the change under test.

The benchmark scales every time by a calibration loop run beside it (see
``perfbench/calibration.py``), so a change that speeds up or slows down that
loop moves the scaled metrics without the program changing speed.  Each
run's raw median iteration seconds (``RAW``, unscaled, from ``run.py``'s
``iterations:`` line) is therefore printed beside the metrics, and a metric
scaled from the iteration times whose median moved against the raw median
is flagged.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
#: Each end-to-end metric of the benchmark, +1 when higher is better.
BETTER = {m["name"]: 1 if m["better"] == "higher" else -1 for m in END_TO_END}
#: The change of each metric the benchmark tolerates, as a fraction of the base's median.
BOUND = {m["name"]: m["bound"] for m in END_TO_END}
RAW = "raw_s"
#: The metrics computed from the calibration-scaled iteration times.
SCALED = ("wall_s", "cells_per_s")


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def extract(rev: str, scratch: Path) -> Path:
    """A clean copy of ``rev`` under ``scratch``, made once per file tree."""
    if rev == "WORKTREE":
        rev = _git("stash", "create") or "HEAD"
    tree = _git("rev-parse", "--verify", f"{rev}^{{tree}}")
    dest = scratch / tree[:12]
    if not dest.is_dir():
        data = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", tree],
                              capture_output=True, check=True).stdout
        part = scratch / f"{tree[:12]}.part"
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(part, filter="data")
        part.rename(dest)
    return dest


#: Appended to the control copy's ``griddata.py``; nothing calls it.
CONTROL_CODE = "\n\ndef _bench_pairs_control():\n    return None\n"
#: The copies' run order per round (base 0, head 1, control 2): each copy
#: runs first twice in six rounds, and the base runs before the head in
#: every other round.
ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2))


def control_copy(base: Path) -> Path:
    """A copy of ``base`` beside it with :data:`CONTROL_CODE` appended to
    ``src/grayspace/griddata.py``, made once."""
    dest = base.with_name(f"{base.name}-control")
    if not dest.is_dir():
        part = base.with_name(f"{dest.name}.part")
        shutil.rmtree(part, ignore_errors=True)
        shutil.copytree(base, part)
        with open(part / "src" / "grayspace" / "griddata.py", "a") as module:
            module.write(CONTROL_CODE)
        part.rename(dest)
    return dest


def src_lines(copy: Path) -> int:
    """The lines of ``src/grayspace/*.py`` in ``copy``, totalled as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n")
               for path in (copy / "src" / "grayspace").glob("*.py"))


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one perfbench run in ``copy``, and under
    :data:`RAW` its median iteration seconds before scaling."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{copy.name} {workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"{copy.name} {workload}: {result['failed']} operations failed")
    # "iterations: N; measured s each: a, b, ...; at reference speed: ..."
    (iterations,) = [line for line in lines if line.startswith("iterations:")]
    raw = [float(t) for t in iterations.split(";")[1].partition(":")[2].split(",")]
    return {RAW: statistics.median(raw)} | {
        name: m["value"] for name, m in result["metrics"].items()}


def _runs_line(runs: list[dict[str, float]]) -> str:
    """The raw seconds and each end-to-end metric of one run per copy, as base/head/control."""
    return "  ".join(f"{name} " + "/".join(f"{run[name]:.4g}" for run in runs)
                     for name in (RAW, *BETTER))


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _wins(metric: str, base: list[float], head: list[float]) -> int:
    """The pairs in which ``head`` was better."""
    return sum(BETTER[metric] * (h - b) > 0 for b, h in zip(base, head))


def _spread(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(metric: str, base: list[float], head: list[float]) -> str:
    """One line: medians [quartiles] of both sides, the change of the medians,
    and the pairs in which ``head`` was better."""
    change = statistics.median(head) / statistics.median(base) - 1.0
    return (f"{metric:12s} {_spread(base)} -> {_spread(head)}  {change:+.1%}, "
            f"better in {_wins(metric, base, head)} of {len(base)} pairs")


def against_raw(metric: str, base: list[float], head: list[float], raw_base: list[float],
                raw_head: list[float]) -> bool:
    """Whether the scaled ``metric``'s median moved toward better while the raw
    iteration seconds' median moved toward worse, or the other way round."""
    gain = BETTER[metric] * (statistics.median(head) - statistics.median(base))
    raw_gain = statistics.median(raw_base) - statistics.median(raw_head)
    return gain * raw_gain < 0


def verdict(metric: str, base: list[float], head: list[float]) -> str:
    """The benchmark's gate on one metric, given the runs of ``len(base)`` pairs:

    ``worse``: the head's median is worse than the base's by more than the bound;
    ``unresolved``: the base's quartile spread exceeds the bound, unless every
    head run beats every base run;
    ``better``: the head wins at least 9 of 10 pairs, and the medians differ by
    more than the base's quartile spread;
    ``within bound``: any other case.
    """
    sign, (q1, median, q3) = BETTER[metric], _quartiles(base)
    gain = sign * (statistics.median(head) - median)  # > 0 where the head is better
    bound = BOUND[metric] * median
    if -gain > bound:
        return "worse"
    if q3 - q1 > bound and min(sign * h for h in head) <= max(sign * b for b in base):
        return "unresolved"
    if 10 * _wins(metric, base, head) >= 9 * len(base) and gain > q3 - q1:
        return "better"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="revision to compare against")
    parser.add_argument("head", help="revision to compare, or WORKTREE")
    parser.add_argument("--scratch", required=True, type=Path,
                        help="directory for the copies (made if missing)")
    parser.add_argument("--workload", action="append",
                        help="perfbench workload; repeat for several (default sim-1km)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="rounds per workload (default 10: a gain needs 9 of 10 pairs)")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    args.scratch.mkdir(parents=True, exist_ok=True)
    copies = [extract(rev, args.scratch.resolve()) for rev in (args.base, args.head)]
    copies.append(control_copy(copies[0]))
    print(f"base {args.base} in {copies[0]}\nhead {args.head} in {copies[1]}\n"
          f"control in {copies[2]}")
    for workload in args.workload or ["sim-1km"]:
        # The first run of a rotation has read far off the rest (sim-100m
        # setup_s 0.32-0.34 s against 0.20-0.25 s), widening the base's
        # quartiles past the bound, so each copy runs once before pair 1.
        warm = {side: run_once(copies[side], workload, args.seed, args.seconds)
                for side in ORDERS[0]}
        print(f"{workload} warm-up: {_runs_line([warm[side] for side in range(3)])}", flush=True)
        runs: list[list[dict[str, float]]] = [[], [], []]
        for pair in range(args.pairs):
            for side in ORDERS[pair % len(ORDERS)]:
                runs[side].append(run_once(copies[side], workload, args.seed, args.seconds))
            print(f"{workload} pair {pair + 1}: {_runs_line([side[-1] for side in runs])}",
                  flush=True)
        raw = [[r[RAW] for r in side] for side in runs]
        change = statistics.median(raw[1]) / statistics.median(raw[0]) - 1.0
        print(f"{workload} {RAW:12s} {_spread(raw[0])} -> {_spread(raw[1])}  {change:+.1%}, "
              "unscaled")
        for name in BETTER:
            base, head, control = ([r[name] for r in side] for side in runs)
            print(f"{workload} {summarize(name, base, head)}\n"
                  f"{workload} {name:12s} {verdict(name, base, head)} "
                  f"(control: {verdict(name, base, control)})")
            if name in SCALED and against_raw(name, base, head, *raw[:2]):
                print(f"{workload} {name:12s} FLAG: moved against the raw iteration seconds; "
                      "the calibration's speed changed, not only the program's")
    print("src/grayspace/*.py lines: " + ", ".join(
        f"{side} {src_lines(copy)}" for side, copy in zip(("base", "head", "control"), copies)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
