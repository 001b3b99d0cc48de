"""Regenerate the household grids under data/.

The grids are synthetic but structured like municipal census rasters:
``scattered`` spreads villages across the area, ``clustered`` concentrates
them around a town center, and ``vinje_synthetic`` has a municipal area
smaller than its bounding box so border compensation has work to do.
The ``*_dense_100m`` towns spread each household of the 1 km towns over the
subcells around its cell's centre, so they have far more receiver cells
than the refined ``*_100m`` grids.
Deterministic: re-running reproduces the shipped files byte for byte.
"""

from __future__ import annotations

import argparse
from collections import defaultdict
from pathlib import Path

import numpy as np

from grayspace import HouseholdGrid, ingest_grid, refine_grid, write_grid_csv

SIZE = 64  # cells per side at 1 km
REFINE = 10  # 1 km -> 100 m


def _accumulate(cells: dict[tuple[int, int], int], x: int, y: int, count: int,
                lo: int, hi_x: int, hi_y: int) -> None:
    if lo <= x < hi_x and lo <= y < hi_y and count > 0:
        cells[(x, y)] += count


def scattered(rng: np.random.Generator) -> dict[tuple[int, int], int]:
    """~40 villages spread over the whole area."""
    cells: dict[tuple[int, int], int] = defaultdict(int)
    for _ in range(40):
        cx, cy = rng.uniform(3, SIZE - 3, 2)
        for _ in range(int(rng.integers(3, 9))):
            x = int(round(cx + rng.normal(0, 1.5)))
            y = int(round(cy + rng.normal(0, 1.5)))
            _accumulate(cells, x, y, int(rng.integers(4, 41)), 0, SIZE, SIZE)
    return cells


def clustered(rng: np.random.Generator) -> dict[tuple[int, int], int]:
    """One town around the center plus a few satellite hamlets."""
    cells: dict[tuple[int, int], int] = defaultdict(int)
    for _ in range(260):
        x = int(round(rng.normal(SIZE / 2, 5.0)))
        y = int(round(rng.normal(SIZE / 2, 5.0)))
        _accumulate(cells, x, y, int(rng.integers(6, 61)), 0, SIZE, SIZE)
    for _ in range(6):
        cx, cy = rng.uniform(6, SIZE - 6, 2)
        for _ in range(int(rng.integers(2, 6))):
            x = int(round(cx + rng.normal(0, 1.0)))
            y = int(round(cy + rng.normal(0, 1.0)))
            _accumulate(cells, x, y, int(rng.integers(4, 25)), 0, SIZE, SIZE)
    return cells


def vinje_synthetic(rng: np.random.Generator) -> dict[tuple[int, int], int]:
    """60x64 cells, municipal area 3106 km2 (734 km2 of border slack).

    Households stay at least 4 cells from every border: the first four
    border rings hold 928 cells, enough for the full compensation scan.
    """
    cells: dict[tuple[int, int], int] = defaultdict(int)
    rows, cols, margin = 60, 64, 4
    for _ in range(25):
        cx = rng.uniform(margin + 2, cols - margin - 2)
        cy = rng.uniform(margin + 2, rows - margin - 2)
        for _ in range(int(rng.integers(3, 10))):
            x = int(round(cx + rng.normal(0, 1.8)))
            y = int(round(cy + rng.normal(0, 1.8)))
            if margin <= x < cols - margin and margin <= y < rows - margin:
                cells[(x, y)] += int(rng.integers(3, 35))
    return cells


def dense(coarse: HouseholdGrid, rng: np.random.Generator) -> HouseholdGrid:
    """``coarse`` at 100 m with each household, drawn per 1 km cell in
    ``np.nonzero`` order, in one of the 3x3 subcells around the centre
    subcell that ``refine_grid`` uses."""
    fine = refine_grid(coarse, REFINE)
    counts = np.zeros_like(fine.counts)
    corner = REFINE // 2 - 1
    for r, c in zip(*np.nonzero(coarse.counts)):
        s = rng.integers(0, 9, size=coarse.counts[r, c])
        np.add.at(counts, (REFINE * r + corner + s // 3, REFINE * c + corner + s % 3), 1)
    return HouseholdGrid(counts, fine.valid, fine.resolution_m, fine.municipal_area_km2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent / "data"
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20260816)

    towns = {}
    for name, maker in (("scattered", scattered), ("clustered", clustered)):
        records = [(x, y, n) for (x, y), n in maker(rng).items()]
        coarse = towns[name] = ingest_grid(records, resolution_m=1000.0, rows=SIZE, cols=SIZE)
        write_grid_csv(args.out / f"{name}_1km.csv", coarse)
        write_grid_csv(args.out / f"{name}_100m.csv", refine_grid(coarse, REFINE))
        print(f"{name}: {coarse.total_households} households in "
              f"{len(records)} cells")

    records = [(x, y, n) for (x, y), n in vinje_synthetic(rng).items()]
    grid = ingest_grid(
        records, resolution_m=1000.0, rows=60, cols=64, municipal_area_km2=3106.0
    )
    write_grid_csv(args.out / "vinje_synthetic_1km.csv", grid)
    print(f"vinje_synthetic: {grid.total_households} households in "
          f"{len(records)} cells, municipal area {grid.municipal_area_km2} km2")

    rng = np.random.default_rng(2012)  # scattered, then clustered
    for name, coarse in towns.items():
        grid = dense(coarse, rng)
        write_grid_csv(args.out / f"{name}_dense_100m.csv", grid)
        print(f"{name}_dense: {grid.total_households} households in "
              f"{np.count_nonzero(grid.counts)} cells")


if __name__ == "__main__":
    main()
