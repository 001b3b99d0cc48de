from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def test_make_grids_reproduces_shipped_data(tmp_path, data_dir):
    root = data_dir.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, str(root / "tools" / "make_grids.py"), "--out", str(tmp_path)],
        env=env, check=True, capture_output=True,
    )
    shipped = sorted(p.name for p in data_dir.glob("*.csv"))
    assert shipped == sorted(p.name for p in tmp_path.iterdir())
    assert len(shipped) == 7
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name


@pytest.fixture
def bench_pairs(data_dir):
    sys.path.insert(0, str(data_dir.parent / "tools"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    return bench_pairs


def test_bench_pairs_summary(bench_pairs):
    line = bench_pairs.summarize("wall_s", [0.44, 0.48, 0.47, 0.45], [0.36, 0.38, 0.49, 0.37])
    assert line == ("wall_s       0.46 [0.4425, 0.4775] -> 0.375 [0.3625, 0.4625]  -18.5%, "
                    "better in 3 of 4 pairs")
    # higher is better for throughput
    assert bench_pairs.summarize("cells_per_s", [1.0], [2.0]).endswith("better in 1 of 1 pairs")


@pytest.mark.parametrize(
    "metric,base,head,want",
    [
        # the median 30 % slower, past the 25 % bound
        ("wall_s", [1.0, 1.0, 1.02, 0.98], [1.3, 1.31, 1.29, 1.3], "worse"),
        # quartiles 0.625 and 1.375 apart by more than the bound, and the runs overlap
        ("wall_s", [0.5, 1.0, 1.0, 1.5], [0.9, 0.95, 1.0, 1.1], "unresolved"),
        # a base as wide, but every head run beats every base run: 10 of 10 pairs
        ("cells_per_s", [0.5, 0.8, 1.0, 1.2, 1.5] * 2, [2.0] * 10, "better"),
        # 10 % slower, within the bound, and no gain
        ("wall_s", [1.0, 1.01, 0.99, 1.0], [1.1, 1.11, 1.09, 1.1], "within bound"),
        # 9 of 10 pairs better, but the medians differ by less than the base's spread
        ("peak_rss_mb", [50.0, 52.0, 48.0, 51.0, 49.0] * 2,
         [49.9, 51.9, 47.9, 50.9, 48.9, 49.9, 51.9, 47.9, 50.9, 60.0], "within bound"),
    ],
    ids=["worse", "unresolved", "better", "within-bound", "gain-inside-spread"],
)
def test_bench_pairs_verdict(bench_pairs, metric, base, head, want):
    assert bench_pairs.verdict(metric, base, head) == want


def _fake_extract(rev, scratch):
    """A stand-in for a clean copy of ``rev``: a directory holding only the
    module the control copy appends to."""
    module = scratch / rev / "src" / "grayspace" / "griddata.py"
    module.parent.mkdir(parents=True, exist_ok=True)
    module.write_text("VALUE = 1\n")
    return scratch / rev


def test_bench_pairs_runs_a_no_op_control(bench_pairs, monkeypatch, tmp_path, capsys):
    # the head is worse than the base by more than the bound on every metric
    # (cells_per_s a third lower, the others half higher); the control reads as the base
    scale = {"base": 1.0, "head": 1.5, "base-control": 1.0}
    order = []

    def fake_run_once(copy, workload, seed, seconds):
        order.append(copy.name)
        k = scale[copy.name]
        return {bench_pairs.RAW: 0.3 * k, "wall_s": 0.3 * k, "setup_s": 0.16 * k,
                "cells_per_s": 1e7 / k, "peak_rss_mb": 42.0 * k}

    monkeypatch.setattr(bench_pairs, "extract", _fake_extract)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main(["base", "head", "--scratch", str(tmp_path), "--pairs", "6"]) == 0
    control = tmp_path / "base-control" / "src" / "grayspace" / "griddata.py"
    assert control.read_text() == "VALUE = 1\n" + bench_pairs.CONTROL_CODE
    assert (tmp_path / "base" / "src" / "grayspace" / "griddata.py").read_text() == "VALUE = 1\n"
    # a warm-up run of each copy, then every round runs all three copies, and
    # each copy runs first in two of six
    assert order[:3] == ["base", "head", "base-control"]
    rounds = [order[i:i + 3] for i in range(3, 21, 3)]
    assert all(sorted(r) == ["base", "base-control", "head"] for r in rounds)
    assert collections.Counter(r[0] for r in rounds) == {"base": 2, "head": 2,
                                                         "base-control": 2}
    out = capsys.readouterr().out.splitlines()
    assert f"control in {tmp_path / 'base-control'}" in out
    verdicts = [line for line in out if "(control: " in line]
    assert verdicts == [f"sim-1km {name:12s} worse (control: within bound)"
                        for name in bench_pairs.BETTER]


def test_bench_pairs_warm_up_reaches_no_summary(bench_pairs, monkeypatch, tmp_path, capsys):
    # each copy's first run reads 100 times slower; the pairs read the same on all copies
    calls = collections.Counter()

    def fake_run_once(copy, workload, seed, seconds):
        calls[copy.name] += 1
        k = 100.0 if calls[copy.name] == 1 else 1.0
        return {bench_pairs.RAW: 0.3 * k, "wall_s": 0.3 * k, "setup_s": 0.2 * k,
                "cells_per_s": 1e7 / k, "peak_rss_mb": 42.0 * k}

    monkeypatch.setattr(bench_pairs, "extract", _fake_extract)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main(["base", "head", "--scratch", str(tmp_path), "--pairs", "4"]) == 0
    assert calls == {"base": 5, "head": 5, "base-control": 5}
    out = capsys.readouterr().out.splitlines()
    assert out[3] == ("sim-1km warm-up: raw_s 30/30/30  wall_s 30/30/30  setup_s 20/20/20  "
                      "cells_per_s 1e+05/1e+05/1e+05  peak_rss_mb 4200/4200/4200")
    assert "sim-1km raw_s        0.3 [0.3, 0.3] -> 0.3 [0.3, 0.3]  +0.0%, unscaled" in out
    assert ("sim-1km setup_s      0.2 [0.2, 0.2] -> 0.2 [0.2, 0.2]  +0.0%, "
            "better in 0 of 4 pairs") in out
    verdicts = [line for line in out if "(control: " in line]
    assert verdicts == [f"sim-1km {name:12s} within bound (control: within bound)"
                        for name in bench_pairs.BETTER]


def test_bench_pairs_prints_src_line_counts(bench_pairs, monkeypatch, tmp_path, capsys):
    def fake_extract(rev, scratch):
        copy = _fake_extract(rev, scratch)
        if rev == "head":  # 2 more lines, one module without a last newline, one not Python
            (copy / "src" / "grayspace" / "new.py").write_text("A = 1\nB = 2\nC = 3")
            (copy / "src" / "grayspace" / "notes.txt").write_text("x\n" * 9)
        return copy

    def fake_run_once(copy, workload, seed, seconds):
        return {bench_pairs.RAW: 0.3, "wall_s": 0.3, "setup_s": 0.16, "cells_per_s": 1e7,
                "peak_rss_mb": 42.0}

    monkeypatch.setattr(bench_pairs, "extract", fake_extract)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main(["base", "head", "--scratch", str(tmp_path), "--pairs", "1"]) == 0
    wc = subprocess.run(["wc", "-l", *map(str, (tmp_path / "head" / "src" / "grayspace")
                                              .glob("*.py"))],
                        capture_output=True, text=True, check=True).stdout
    assert wc.splitlines()[-1].split()[0] == "3"
    # the control copy appends 4 lines to the base's one
    assert capsys.readouterr().out.splitlines()[-1] == (
        "src/grayspace/*.py lines: base 1, head 3, control 5")


def test_bench_pairs_prints_raw_seconds_and_flags_opposed_moves(bench_pairs, monkeypatch,
                                                                 tmp_path, capsys):
    # (raw iteration seconds, scaled wall_s) per run: the head's raw time is
    # slower while its scaled wall_s is faster, so wall_s and cells_per_s are
    # flagged; in the second workload both move the same way.  Each copy's
    # first run is its warm-up.
    runs = {"sim-1km": {"base": [(0.9, 0.9), (0.30, 0.33), (0.29, 0.32), (0.31, 0.34)],
                        "head": [(0.9, 0.9), (0.33, 0.30), (0.32, 0.29), (0.34, 0.31)],
                        "base-control": [(0.9, 0.9)] + [(0.30, 0.33)] * 3},
            "sim-100m": {"base": [(0.50, 0.40)] * 4, "head": [(0.45, 0.36)] * 4,
                         "base-control": [(0.50, 0.40)] * 4}}

    def fake_run(cmd, cwd, capture_output, text):
        raw, wall = runs[cmd[cmd.index("--workload") + 1]][Path(cwd).name].pop(0)
        metrics = {"wall_s": wall, "setup_s": 0.16, "cells_per_s": 1e7 / wall,
                   "peak_rss_mb": 42.0}
        result = {"failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}
        stdout = (f"meta {{}}\niterations: 3; measured s each: {raw - 0.01:.3f}, {raw:.3f}, "
                  f"{raw + 0.02:.3f}; at reference speed: {wall:.3f}, {wall:.3f}, {wall:.3f}\n"
                  + json.dumps(result) + "\n")
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_pairs, "extract", _fake_extract)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["base", "head", "--scratch", str(tmp_path), "--pairs", "3",
                             "--workload", "sim-1km", "--workload", "sim-100m"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "sim-1km warm-up: raw_s 0.9/0.9/0.9  wall_s 0.9/0.9/0.9" in out[3]
    assert "sim-1km pair 1: raw_s 0.3/0.33/0.3  wall_s 0.33/0.3/0.33" in out[4]
    assert "sim-1km raw_s        0.3 [0.29, 0.31] -> 0.33 [0.32, 0.34]  +10.0%, unscaled" in out
    flagged = [line.split()[:2] for line in out if "FLAG" in line]
    assert flagged == [["sim-1km", "wall_s"], ["sim-1km", "cells_per_s"]]


@pytest.fixture
def perfbench_workloads(data_dir):
    sys.path.insert(0, str(data_dir.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def test_benchmark_workloads_build_against_src(perfbench_workloads, data_dir, tmp_path):
    """Every benchmark workload loads its towns through the cli and grid readers,
    every command it would run parses, and the backend name it records exists.
    Nothing is run."""
    import grayspace
    from grayspace import cli

    parser = cli.build_parser()
    assert perfbench_workloads.WORKLOADS
    for name, workload in perfbench_workloads.WORKLOADS.items():
        bench = perfbench_workloads.Bench(data_dir.parent, workload, 42, tmp_path / name)
        assert bench.ops, name
        for argv, _ in bench.invocations:
            parser.parse_args(argv)
    assert isinstance(grayspace.BACKEND, str)
    assert not any(tmp_path.iterdir())
