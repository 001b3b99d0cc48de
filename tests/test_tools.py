from __future__ import annotations

import os
import subprocess
import sys


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


def test_bench_pairs_summary(data_dir):
    sys.path.insert(0, str(data_dir.parent / "tools"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    line = bench_pairs.summarize("wall_s", [0.44, 0.48, 0.47, 0.45], [0.36, 0.38, 0.49, 0.37])
    assert line == ("wall_s       0.46 [0.4425, 0.4775] -> 0.375 [0.3625, 0.4625]  -18.5%, "
                    "better in 3 of 4 pairs")
    # higher is better for throughput
    assert bench_pairs.summarize("cells_per_s", [1.0], [2.0]).endswith("better in 1 of 1 pairs")
