"""Time one CLI start-up in a fresh interpreter: import ``grayspace``, parse
the given configs, load and area-compensate the given grids.  Prints the
seconds taken and, after it, the calibration time measured right after
(see ``calibration.py``).

    python3 perfbench/setup_probe.py SRC_DIR --config A.cfg ... --grid A.csv ...
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("src")
parser.add_argument("--config", nargs="+", default=[])
parser.add_argument("--grid", nargs="+", default=[])
args = parser.parse_args()
sys.path.insert(0, args.src)

from grayspace.cli import load_run_config  # noqa: E402
from grayspace.griddata import compensate_area, load_grid_csv  # noqa: E402

for path in args.config:
    load_run_config(path)
for path in args.grid:
    compensate_area(load_grid_csv(path))
elapsed = time.perf_counter() - START

from calibration import calibration_seconds  # noqa: E402

print(elapsed, sum(calibration_seconds() for _ in range(3)) / 3)
