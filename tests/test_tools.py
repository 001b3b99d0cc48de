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
