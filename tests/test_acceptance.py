"""Acceptance suite: one test per release criterion.

Each criterion gets exactly one test function so ``pytest -v`` prints one
pass/fail line per criterion.  Tolerances are part of the criteria and are
pinned here, not derived.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from grayspace.cli import main
from grayspace.engine import run_combinations, single_realization_map
from grayspace.griddata import (
    compensate_area,
    ingest_grid,
    load_grid_csv,
    refine_grid,
)
from grayspace.linkbudget import (
    FIXED_4W,
    OFCOM,
    PORTABLE_100MW,
    min_required_loss,
    quantize_distance,
    separation_report,
    verify_margin,
)
from grayspace.propagation import path_loss
from grayspace.scenario import (
    ChannelPlan,
    KnowledgeConfig,
    gray_space_capacity,
    household_variates,
    usage_masks,
    white_space_amount,
)

LINK_FIXED = separation_report(FIXED_4W, OFCOM, 650.0, "suburban")
LINK_PORTABLE = separation_report(PORTABLE_100MW, OFCOM, 650.0, "suburban")
PLAN = ChannelPlan()
KL1 = KnowledgeConfig("KL1")
KL2 = KnowledgeConfig("KL2")
KL3_COND = KnowledgeConfig(
    "KL3", time_period="TP2", share_interpretation="conditional_on_subscription"
)

# protection radii after 1 km quantization (from the published link budget)
CO_M = {"fixed-4w": 8000.0, "portable-100mw": 1000.0}
ADJ_M = {"fixed-4w": 1000.0, "portable-100mw": 1000.0}


def link_for(device):
    return LINK_FIXED if device is FIXED_4W else LINK_PORTABLE


def test_criterion_1():
    """Published separation table: distances +/-2%, levels +/-0.05 dB, ms runtime."""
    start = time.perf_counter()
    fixed = separation_report(FIXED_4W, OFCOM, 650.0, "suburban")
    portable = separation_report(PORTABLE_100MW, OFCOM, 650.0, "suburban")
    elapsed = time.perf_counter() - start

    assert fixed.min_distance_co_m == pytest.approx(7350.0, rel=0.02)
    assert fixed.min_distance_adjacent_m == pytest.approx(281.0, rel=0.02)
    assert portable.min_distance_co_m == pytest.approx(910.0, rel=0.02)
    assert portable.min_distance_adjacent_m == pytest.approx(62.0, rel=0.02)

    assert fixed.field_strength_dbuvm == pytest.approx(140.8, abs=0.05)
    assert portable.field_strength_dbuvm == pytest.approx(124.8, abs=0.05)

    assert fixed.min_loss_co_db == pytest.approx(123.8, abs=0.05)
    assert fixed.min_loss_adjacent_db == pytest.approx(73.8, abs=0.05)
    assert portable.min_loss_co_db == pytest.approx(107.8, abs=0.05)
    assert portable.min_loss_adjacent_db == pytest.approx(57.8, abs=0.05)

    assert elapsed < 0.05  # "runtime: milliseconds"


def test_criterion_2():
    """Worked link-budget checks at 8 km (co) and 1 km (adjacent)."""
    assert path_loss(LINK_FIXED.hata, 8.0) == pytest.approx(125.0, abs=0.1)
    co_margin = verify_margin(LINK_FIXED, 8.0, "co")
    assert co_margin + OFCOM.ci_db("co") == pytest.approx(34.2, abs=0.15)

    assert path_loss(LINK_FIXED.hata, 1.0) == pytest.approx(93.2, abs=0.1)
    adj_margin = verify_margin(LINK_FIXED, 1.0, "adjacent")
    assert adj_margin + OFCOM.ci_db("adjacent") == pytest.approx(2.4, abs=0.15)
    assert adj_margin == pytest.approx(19.4, abs=0.15)


def test_criterion_3():
    """Band accounting: 200 MHz white + 120 MHz gray exactly; closure for any plan."""
    assert white_space_amount(PLAN) == 200.0
    assert gray_space_capacity(PLAN) == 120.0

    rng = np.random.default_rng(3)
    for _ in range(25):
        channels = tuple(sorted(rng.choice(np.arange(21, 61), 5, replace=False)))
        for dedup in (True, False):
            plan = ChannelPlan(used_channels=channels, dedup_adjacent=dedup)
            assert gray_space_capacity(plan) + white_space_amount(plan) == 320.0


def test_criterion_4():
    """Distance quantization is exact at both shipped resolutions."""
    assert quantize_distance(7350.0, 1000.0) == 8000.0
    assert quantize_distance(7350.0, 100.0) == 7400.0


def test_criterion_5():
    """Closed-form usage rates, each within 3 sigma of its Monte Carlo estimate."""
    # KL2: chance that a 10-household cell holds no MUX 2-5 subscriber
    u = household_variates(12345, 0, 100_000)
    none_subscribed = (u[:, 1] >= 0.15).reshape(10_000, 10).all(axis=1).mean()
    p = 0.85**10
    assert abs(none_subscribed - p) < 3 * math.sqrt(p * (1 - p) / 10_000)

    # KL3/TP2, unconditional shares: 45.1% of covered households watch something
    u = household_variates(54321, 0, 200_000)
    usage = usage_masks(KnowledgeConfig("KL3", time_period="TP2"), u)
    covered = u[:, 0] < 0.98
    any_usage = (usage[covered] != 0).mean()
    p = 0.451
    assert abs(any_usage - p) < 3 * math.sqrt(p * (1 - p) / covered.sum())


def test_criterion_6(data_dir):
    """KL1 leaves zero gray space in every inhabited cell, in under a second."""
    for name in ("scattered_1km.csv", "vinje_synthetic_1km.csv"):
        grid, _ = compensate_area(load_grid_csv(data_dir / name))
        start = time.perf_counter()
        (result,) = run_combinations(grid, [(LINK_FIXED, KL1)], PLAN, realizations=100)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, name

        inhabited = grid.counts > 0
        assert (result.mean_map.values[inhabited] == 0.0).all(), name
        # configured buckets all start above 0 MHz, so they stay empty
        assert (result.utilization.mean_households[:-1] == 0.0).all(), name
        assert result.utilization.mean_households[-1] == grid.total_households, name


def _naive_blocked(flagged, radius_m, res_m):
    """Independent protection stamp: straight from the rule's definition."""
    rows, cols = flagged.shape
    yy, xx = np.indices((rows, cols))
    blocked = np.zeros((rows, cols), dtype=bool)
    for r, c in zip(*np.nonzero(flagged)):
        p = np.maximum(np.abs(yy - r) - 1, 0) * res_m
        q = np.maximum(np.abs(xx - c) - 1, 0) * res_m
        blocked |= p * p + q * q < radius_m * radius_m
    return blocked


def _naive_flags(grid, knowledge, seed):
    """(5, rows, cols) receiver flags of realization 0: one variate triple
    per household, households in row-major cell order; a cell is flagged
    for a MUX when any household uses it."""
    u = iter(household_variates(seed, 0, grid.total_households))
    flags = np.zeros((5,) + grid.counts.shape, dtype=bool)
    for y, x in zip(*np.nonzero(grid.counts)):
        for _ in range(grid.counts[y, x]):
            mask = usage_masks(knowledge, next(u)[None])[0]
            flags[:, y, x] |= ((mask >> np.arange(5)) & 1).astype(bool)
    return flags


def _naive_map(grid, flags, co_m, adj_m):
    mux_of = {ch: i for i, ch in enumerate(PLAN.used_channels)}
    slots = np.zeros(grid.counts.shape, dtype=np.int64)
    for m in range(5):
        slots += ~_naive_blocked(flags[m], co_m, grid.resolution_m)
    for _, guards in PLAN.adjacent_entries():
        watched = np.zeros(grid.counts.shape, dtype=bool)
        for ch in guards:
            watched |= flags[mux_of[ch]]
        slots += ~_naive_blocked(watched, adj_m, grid.resolution_m)
    values = slots * PLAN.channel_bandwidth_mhz
    values = values.astype(np.float64)
    values[~grid.valid] = np.nan
    return values


def test_criterion_7a():
    """Full pipeline equals a brute-force oracle on small grids, 50 seeds."""
    rng = np.random.default_rng(77)
    for seed in range(50):
        rows = int(rng.integers(8, 33))
        cols = int(rng.integers(8, 33))
        n_rx = int(rng.integers(3, 13))
        cells = rng.choice(rows * cols, size=n_rx, replace=False)
        records = [
            (int(c % cols), int(c // cols), int(rng.integers(1, 10))) for c in cells
        ]
        grid = ingest_grid(records, resolution_m=1000.0, rows=rows, cols=cols)
        device = FIXED_4W if seed % 2 == 0 else PORTABLE_100MW
        knowledge = (KL2, KL3_COND)[seed % 3 == 0]
        flags = _naive_flags(grid, knowledge, seed)
        expected = _naive_map(grid, flags, CO_M[device.label], ADJ_M[device.label])
        got = single_realization_map(grid, link_for(device), PLAN, knowledge, seed)
        assert np.array_equal(got.values, expected, equal_nan=True), seed


def test_criterion_7b():
    """More knowledge never shrinks gray space: KL1 <= KL2 <= KL3 per cell."""
    rng = np.random.default_rng(7)
    cells = rng.choice(20 * 20, size=10, replace=False)
    records = [(int(c % 20), int(c // 20), int(rng.integers(1, 8))) for c in cells]
    grid = ingest_grid(records, resolution_m=1000.0, rows=20, cols=20)
    for r in range(10):
        maps = [
            single_realization_map(grid, LINK_FIXED, PLAN, k, 99, r).values
            for k in (KL1, KL2, KL3_COND)
        ]
        assert (maps[0] <= maps[1]).all(), r
        assert (maps[1] <= maps[2]).all(), r


def test_criterion_7c():
    """Smaller EIRP never shrinks gray space: 100 mW map >= 4 W map per cell."""
    rng = np.random.default_rng(8)
    cells = rng.choice(20 * 20, size=10, replace=False)
    records = [(int(c % 20), int(c // 20), int(rng.integers(1, 8))) for c in cells]
    grid = ingest_grid(records, resolution_m=1000.0, rows=20, cols=20)
    for r in range(10):
        big = single_realization_map(grid, LINK_FIXED, PLAN, KL2, 5, r)
        small = single_realization_map(grid, LINK_PORTABLE, PLAN, KL2, 5, r)
        assert (small.values >= big.values).all(), r


def test_criterion_7d():
    """Refining the grid never shrinks gray space over a coarse cell (KL1)."""
    rng = np.random.default_rng(9)
    cells = rng.choice(16 * 16, size=8, replace=False)
    records = [(int(c % 16), int(c // 16), int(rng.integers(1, 20))) for c in cells]
    coarse = ingest_grid(records, resolution_m=1000.0, rows=16, cols=16)
    for factor in (2, 5):
        fine = refine_grid(coarse, factor)
        coarse_map = single_realization_map(coarse, LINK_FIXED, PLAN, KL1, 0)
        fine_map = single_realization_map(fine, LINK_FIXED, PLAN, KL1, 0)
        upsampled = np.kron(coarse_map.values, np.ones((factor, factor)))
        assert (fine_map.values >= upsampled).all(), factor


def test_criterion_7e(data_dir):
    """Worker counts 1, 4 and 8 give bit-identical results at a fixed seed."""
    grid, _ = compensate_area(load_grid_csv(data_dir / "scattered_1km.csv"))
    results = [
        result
        for w in (1, 4, 8)
        for result in run_combinations(
            grid, [(LINK_FIXED, KL3_COND)], PLAN, realizations=16, master_seed=42, workers=w
        )
    ]
    assert len(results) == 3
    base = results[0]
    for other in results[1:]:
        assert base.mean_map.values.tobytes() == other.mean_map.values.tobytes()
        assert base.cdf.percent_area.tobytes() == other.cdf.percent_area.tobytes()
        assert (
            base.utilization.mean_households.tobytes()
            == other.utilization.mean_households.tobytes()
        )


def _emitted_cdfs(config, out_dir, resolution):
    code = main(
        ["simulate", "--config", str(config), "--out", str(out_dir),
         "--realizations", "30", "--resolution", str(resolution)]
    )
    assert code == 0
    curves = {}
    for combo_dir in sorted(out_dir.iterdir()):
        rows = (combo_dir / "cdf.csv").read_text().splitlines()[1:]
        curves[combo_dir.name] = np.array(
            [float(line.split(",")[1]) for line in rows]
        )
    return curves


def test_criterion_8(configs_dir, tmp_path):
    """Emitted CDFs show the published orderings on both synthetic towns."""
    chains = [
        ("{d}_KL1", "{d}_KL2"),
        ("{d}_KL2", "{d}_KL3_TP2"),
        ("{d}_KL3_TP2", "{d}_KL3_TP1"),
    ]
    for name in ("scattered", "clustered"):
        by_res = {}
        for resolution in (1000, 100):
            out = tmp_path / f"{name}_{resolution}"
            curves = _emitted_cdfs(configs_dir / f"{name}.cfg", out, resolution)
            by_res[resolution] = curves
            for device in ("fixed-4w", "portable-100mw"):
                for low, high in chains:
                    a = curves[low.format(d=device)]
                    b = curves[high.format(d=device)]
                    assert (a <= b).all(), (name, resolution, device, low, high)
        for combo, coarse in by_res[1000].items():
            assert (by_res[100][combo] >= coarse).all(), (name, combo)
