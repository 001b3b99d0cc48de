"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/smoke.py

1. One short run per workload, untraced and traced: the last line must be
   the result record, every metric named in ``BENCHMARK.json`` must be in
   it and printed by name with its unit, and nothing may fail.
2. Outputs that are wrong must be reported as failed operations, not
   passed: a flipped byte at the reference seed, a broken invariant at
   another seed, an iteration that differs from the first, and a nonzero
   exit code.
3. Without the source tree the benchmark must exit nonzero and print no
   result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench_work" / "smoke"


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_printed() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, seed, group in ((0, 42, "end_to_end"), (1, 7, "per_layer")):
            done = run_bench(workload, seed, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, done.stderr)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, unit in expected.items():
                assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in lines[:-1]), f"{workload}: {name} not printed with {unit}"
            print(f"ok  {workload} --trace {trace}: {len(expected)} metrics")


def _bench(seed: int, name: str):
    from workloads import WORKLOADS, Bench

    return Bench(ROOT, WORKLOADS["sim-1km"], seed, WORK / name)


def _tamper(bench, edit, when: int = 0) -> int:
    """Run iterations of ``bench`` until ``when``; in that one, let ``edit``
    change the outputs and exit code of the first CLI invocation (scattered)
    right after it returns.  Returns the number of failed operations of the
    tampered iteration."""
    from grayspace import cli

    real_main = cli.main

    def tampered(argv):
        code = real_main(argv)
        cli.main = real_main
        return edit(bench.work, code)

    for iteration in range(when + 1):
        if iteration == when:
            cli.main = tampered
        try:
            _, _, failed = bench.run_iteration(iteration=iteration)
        finally:
            cli.main = real_main
        if iteration < when:
            assert failed == 0, bench.problems
    return failed


def _flip_byte(path: Path, offset: int, byte: bytes) -> None:
    data = bytearray(path.read_bytes())
    assert data[offset:offset + 1] != byte
    data[offset:offset + 1] = byte
    path.write_bytes(bytes(data))


def check_corruption_is_reported() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    combo = "out/scattered/fixed-4w_KL2"

    def flip_map_byte(work: Path, code: int) -> int:
        target = work / combo / "map.csv"
        data = target.read_bytes()
        digit = next(i for i, b in enumerate(data) if chr(b).isdigit())
        _flip_byte(target, digit, b"9" if data[digit:digit + 1] != b"9" else b"8")
        return code

    def break_cdf(work: Path, code: int) -> int:
        target = work / combo / "cdf.csv"
        _flip_byte(target, target.read_bytes().index(b"\n0,100") + 3, b"7")  # 100 % -> 700 %
        return code

    def fail_exit(work: Path, code: int) -> int:
        return 3

    cases = (
        ("flipped byte, reference seed", _bench(42, "ref"), flip_map_byte, 0, 1),
        ("broken invariant, other seed", _bench(7, "inv"), break_cdf, 0, 1),
        ("differs from first iteration", _bench(7, "det"), flip_map_byte, 1, 1),
        ("nonzero exit", _bench(7, "exit"), fail_exit, 0, 8),
    )
    try:
        for label, bench, edit, when, expected in cases:
            failed = _tamper(bench, edit, when)
            assert failed == expected, (label, failed, bench.problems)
            print(f"ok  {label}: {failed} failed operation(s) reported")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("sim-1km", 42, 0, cwd=bare)
        assert done.returncode != 0, done.stdout
        assert '"correct"' not in done.stdout, done.stdout
        print(f"ok  no source tree: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    check_refuses_without_source()
    check_corruption_is_reported()
    check_metrics_printed()
    print("smoke test passed")


if __name__ == "__main__":
    main()
