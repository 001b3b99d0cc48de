from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from grayspace import engine
from grayspace.engine import (
    DEFAULT_BUCKETS,
    OTHER_BUCKET_LABEL,
    Bucket,
    cdf_from_map,
    parse_buckets,
    run_combinations,
    single_realization_map,
    utilization_from_map,
    write_cdf_csv,
    write_utilization_csv,
)
from grayspace.errors import ConfigError, DataError, DomainError
from grayspace.griddata import (
    HouseholdGrid,
    compensate_area,
    disc_halfwidths,
    ingest_grid,
    load_grid_csv,
    receiver_segments,
    write_matrix_csv,
)
from grayspace.linkbudget import (
    OFCOM,
    DeviceProfile,
    ProtectionCriteria,
    quantize_distance,
    separation_report,
)
from grayspace.propagation import ENVIRONMENTS
from grayspace.scenario import ChannelPlan, KnowledgeConfig, usage_partition
from test_acceptance import ADJ_M, CO_M, _naive_flags, _naive_map
from test_scenario import MANY_KL3

FIXED = DeviceProfile("fixed-4w", eirp_mw=4000.0, antenna_height_m=30.0)
PORTABLE = DeviceProfile("portable-100mw", eirp_mw=100.0, antenna_height_m=2.0)
LINK_FIXED = separation_report(FIXED, OFCOM, 650.0, "suburban")
LINK_PORTABLE = separation_report(PORTABLE, OFCOM, 650.0, "suburban")
PLAN = ChannelPlan()
KL1 = KnowledgeConfig("KL1")
KL2 = KnowledgeConfig("KL2")
KL3_TP1 = KnowledgeConfig("KL3", time_period="TP1")
KL3_TP2_COND = KnowledgeConfig(
    "KL3", time_period="TP2", share_interpretation="conditional_on_subscription"
)


def run(grid, knowledge, link=LINK_FIXED, **kw):
    (result,) = run_combinations(grid, [(link, knowledge)], PLAN, **kw)
    return result


class TestBuckets:
    def test_parse_default_text(self):
        assert parse_buckets("24-64,72-96,96<") == DEFAULT_BUCKETS

    def test_contains_edges(self):
        closed = Bucket("24-64", 24.0, 64.0)
        assert closed.contains(24.0) and closed.contains(64.0)
        assert not closed.contains(23.999) and not closed.contains(64.001)
        open_low = Bucket("96<", 96.0, math.inf, lower_inclusive=False)
        assert not open_low.contains(96.0)
        assert open_low.contains(96.0001) and open_low.contains(math.inf)
        values = np.array([23.999, 24.0, 64.0, 64.001, 96.0, 96.0001, math.nan, -math.inf,
                           math.inf])
        for bucket, want in [
            (closed, [False, True, True, False, False, False, False, False, False]),
            (open_low, [False, False, False, False, False, True, False, False, True]),
        ]:
            got = bucket.contains(values)
            assert got.dtype == np.bool_ and got.tolist() == want
            assert [bool(bucket.contains(v)) for v in values] == want
            assert got[:, None].tolist() == bucket.contains(values[:, None]).tolist()

    @pytest.mark.parametrize("text", ["abc", "", "64-24", "24--64"])
    def test_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_buckets(text)

    @pytest.mark.parametrize("text", ["24-64,60-70", "64<,72-96", "0<,5<"])
    def test_overlap_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_buckets(text)

    def test_closed_upper_edge_does_not_overlap_open_bucket(self):
        parse_buckets("24-96,96<")

    def test_nan_bounds_rejected(self):
        with pytest.raises(ConfigError):
            Bucket("bad", math.nan, 10.0)


class TestSingleRealization:
    def test_kl1_five_by_five(self):
        # one receiver in the middle; co-channel reach (8 km) spans the whole
        # grid, adjacent reach (1 km) only the surrounding 3x3 box
        grid = ingest_grid([(2, 2, 3)], resolution_m=1000.0, rows=5, cols=5)
        gsm = single_realization_map(grid, LINK_FIXED, PLAN, KL1, 0)
        expected = np.full((5, 5), 80.0)  # ten 8 MHz adjacent slots
        expected[1:4, 1:4] = 0.0
        assert np.array_equal(gsm.values, expected)

    def test_kl1_portable_blocks_only_neighbourhood(self):
        grid = ingest_grid([(0, 0, 1)], resolution_m=1000.0, rows=4, cols=4)
        gsm = single_realization_map(grid, LINK_PORTABLE, PLAN, KL1, 0)
        expected = np.full((4, 4), 120.0)
        expected[:2, :2] = 0.0  # footprint clipped at the corner
        assert np.array_equal(gsm.values, expected)

    def test_empty_grid_is_all_capacity(self):
        grid = ingest_grid([], resolution_m=1000.0, rows=3, cols=3)
        gsm = single_realization_map(grid, LINK_FIXED, PLAN, KL1, 0)
        assert (gsm.values == 120.0).all()

    def test_invalid_cells_are_nan(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        valid = np.ones((3, 3), dtype=bool)
        valid[0, 0] = False
        grid = HouseholdGrid(counts, valid, 1000.0, municipal_area_km2=8.0)
        gsm = single_realization_map(grid, LINK_FIXED, PLAN, KL1, 0)
        assert np.isnan(gsm.values[0, 0])
        assert not np.isnan(gsm.values[1:]).any()


def box_blocked(cell, receiver, radius_m, res_m):
    """Protection rule, from its definition: the closest point of the
    receiver's cell box is nearer than the protection radius."""
    p = max(abs(cell[0] - receiver[0]) - 1, 0) * res_m
    q = max(abs(cell[1] - receiver[1]) - 1, 0) * res_m
    return p * p + q * q < radius_m * radius_m


def exact_map(shape, receivers, usages, co_m, adj_m, res_m):
    """Availability in MHz for one deterministic usage assignment.

    ``usages`` hold MUX numbers 1..5; guard channels are translated back
    to the MUX they protect."""
    mux_of = {ch: i for i, ch in enumerate(PLAN.used_channels, start=1)}
    guard_sets = [
        {mux_of[ch] for ch in guards} for _, guards in PLAN.adjacent_entries()
    ]
    values = np.zeros(shape)
    for cell in itertools.product(range(shape[0]), range(shape[1])):
        slots = 0
        for mux in range(1, 6):
            if not any(
                mux in use and box_blocked(cell, rx, co_m, res_m)
                for rx, use in zip(receivers, usages)
            ):
                slots += 1
        for guarded in guard_sets:
            if not any(
                box_blocked(cell, rx, adj_m, res_m)
                for rx, use in zip(receivers, usages)
                if guarded & use
            ):
                slots += 1
        values[cell] = slots * PLAN.channel_bandwidth_mhz
    return values


class TestMonteCarloConvergence:
    def test_kl2_mean_matches_exact_enumeration(self):
        # Three single-household receivers; each is independently in one of
        # three states, so the exact mean map is a 27-term enumeration.
        receivers = [(2, 2), (6, 9), (9, 3)]
        grid = ingest_grid(
            [(c, r, 1) for r, c in receivers], resolution_m=1000.0, rows=12, cols=12
        )
        states = [
            (0.02, frozenset()),
            (0.98 * 0.85, frozenset({1})),
            (0.98 * 0.15, frozenset({1, 2, 3, 4, 5})),
        ]
        mean = np.zeros((12, 12))
        second = np.zeros((12, 12))
        for combo in itertools.product(states, repeat=3):
            p = math.prod(w for w, _ in combo)
            values = exact_map(
                (12, 12), receivers, [u for _, u in combo], 8000.0, 1000.0, 1000.0
            )
            mean += p * values
            second += p * values**2
        var = np.maximum(second - mean**2, 0.0)

        realizations = 10_000
        result = run(grid, KL2, realizations=realizations, master_seed=123)
        tol = 3.0 * np.sqrt(var / realizations) + 1e-9
        assert (np.abs(result.mean_map.values - mean) <= tol).all()

    def test_cdf_and_utilization_consistency(self):
        grid = ingest_grid([(3, 3, 7), (8, 2, 5)], resolution_m=1000.0, rows=10, cols=10)
        result = run(grid, KL2, realizations=200, master_seed=5)
        cdf = result.cdf
        assert cdf.percent_area[0] == 100.0
        assert (np.diff(cdf.percent_area) <= 0).all()
        assert cdf.levels_mhz[-1] == 120.0
        assert result.utilization.labels[-1] == OTHER_BUCKET_LABEL
        assert result.utilization.mean_households.sum() == pytest.approx(12.0)


class TestKL1Shortcut:
    def test_realization_count_is_irrelevant(self):
        grid = ingest_grid([(1, 1, 2), (4, 3, 6)], resolution_m=1000.0, rows=6, cols=6)
        a = run(grid, KL1, realizations=1)
        b = run(grid, KL1, realizations=250)
        assert a.mean_map.values.tobytes() == b.mean_map.values.tobytes()
        assert a.cdf.percent_area.tobytes() == b.cdf.percent_area.tobytes()
        assert (
            a.utilization.mean_households.tobytes()
            == b.utilization.mean_households.tobytes()
        )
        assert b.realizations == 250  # reported as requested

    def test_draws_nothing(self):
        grid = ingest_grid([(2, 2, 3), (4, 1, 2)], resolution_m=1000.0, rows=6, cols=6)
        with mock.patch("grayspace.scenario.household_variates",
                        side_effect=AssertionError("drawn")):
            results = run_combinations(
                grid, [(LINK_FIXED, KL1), (LINK_PORTABLE, KL1)], PLAN, realizations=5
            )
            assert [r.mean_map.values.min() for r in results] == [0.0, 0.0]

    def test_mean_equals_single_realization(self):
        grid = ingest_grid([(1, 1, 2), (4, 3, 6)], resolution_m=1000.0, rows=6, cols=6)
        result = run(grid, KL1, realizations=50)
        gsm = single_realization_map(grid, LINK_FIXED, PLAN, KL1, 0)
        assert np.array_equal(result.mean_map.values, gsm.values)


class TestWorkers:
    def test_bit_identical_across_worker_counts(self):
        grid = ingest_grid(
            [(2, 2, 4), (7, 5, 3), (11, 9, 9)], resolution_m=1000.0, rows=12, cols=14
        )
        base = run(grid, KL2, realizations=24, master_seed=9, workers=1)
        for workers in (2, 5):
            other = run(grid, KL2, realizations=24, master_seed=9, workers=workers)
            assert base.mean_map.values.tobytes() == other.mean_map.values.tobytes()
            assert base.cdf.percent_area.tobytes() == other.cdf.percent_area.tobytes()
            assert (
                base.utilization.mean_households.tobytes()
                == other.utilization.mean_households.tobytes()
            )


    def test_processes_capped_at_usable_cpus(self, monkeypatch):
        pools = []

        class InProcessPool:
            """Records the pool size and runs every chunk in this process."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(engine, "_WORKER_SWEEP", None)
        grid = ingest_grid([(2, 2, 4), (7, 5, 3)], resolution_m=1000.0, rows=8, cols=9)
        base = run(grid, KL2, realizations=40, master_seed=9)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        capped = run(grid, KL2, realizations=40, master_seed=9, workers=5000)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        fallback = run(grid, KL2, realizations=40, master_seed=9, workers=5000)
        assert pools == [2, 3]
        for other in (capped, fallback):
            assert base.mean_map.values.tobytes() == other.mean_map.values.tobytes()
            assert base.cdf.percent_area.tobytes() == other.cdf.percent_area.tobytes()


def _set_bits(state):
    """The (words, sets) receiver bitsets of a device state, rebuilt from its tokens."""
    bits = np.zeros(state.token_index.shape, dtype=np.uint64)
    for w, (tokens, index) in enumerate(zip(state.tokens, state.token_index)):
        assert index.dtype == np.uint32 and len(np.unique(tokens)) == len(tokens)
        bits[w] = tokens[index]
    return bits


def _scattered_grid(seed, side, receivers):
    rng = np.random.default_rng(seed)
    cells = rng.choice(side * side, size=receivers, replace=False).tolist()
    records = [(c % side, c // side, int(rng.integers(1, 10))) for c in cells]
    return ingest_grid(records, resolution_m=1000.0, rows=side, cols=side)


class TestReachCap:
    """A footprint's reach is capped at rows + cols cells, past which every
    receiver already covers every cell.  Fixed-4w's co-channel reach is 8
    cells at 1 km, so on these grids the cap applies wherever rows + cols < 8;
    the map still equals the brute-force oracle's, which knows no cap."""

    @pytest.mark.parametrize("rows,cols", list(itertools.product(range(1, 5), repeat=2)))
    def test_capped_reach_matches_oracle(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        for seed in range(8):
            valid = rng.random((rows, cols)) < 0.9
            valid.flat[0] = True
            counts = np.where(valid & (rng.random((rows, cols)) < 0.5),
                              rng.integers(1, 5, (rows, cols)), 0)
            grid = HouseholdGrid(counts, valid, 1000.0, municipal_area_km2=rows * cols)
            knowledge = (KL2, KL3_TP2_COND)[seed % 2]
            with mock.patch.object(engine, "disc_halfwidths", wraps=disc_halfwidths) as spy:
                got = single_realization_map(grid, LINK_FIXED, PLAN, knowledge, seed)
            assert [c.args for c in spy.call_args_list] == [(min(8, rows + cols),), (1,)]
            expected = _naive_map(grid, _naive_flags(grid, knowledge, seed),
                                  CO_M["fixed-4w"], ADJ_M["fixed-4w"])
            assert np.array_equal(got.values, expected, equal_nan=True), seed


class TestMultiWordReceivers:
    """140 receiver cells, so the receiver flags and bitsets span three
    uint64 words through the whole engine."""

    GRID = _scattered_grid(64, 24, 140)
    LINKS = (LINK_FIXED, LINK_PORTABLE)
    KNOWLEDGE = (KL2, KL3_TP2_COND)

    @pytest.mark.parametrize("link", LINKS, ids=["fixed-4w", "portable-100mw"])
    def test_single_realization_matches_oracle(self, link):
        state = engine._build_state(self.GRID, link)
        assert _set_bits(state).shape[0] == 3
        for knowledge in self.KNOWLEDGE:
            for seed in (1, 2):
                flags = _naive_flags(self.GRID, knowledge, seed)
                label = link.device.label
                expected = _naive_map(self.GRID, flags, CO_M[label], ADJ_M[label])
                got = single_realization_map(self.GRID, link, PLAN, knowledge, seed)
                assert np.array_equal(got.values, expected), (knowledge.level, seed)
                assert len(np.unique(expected)) >= 3  # the oracle is not trivial

    @pytest.mark.parametrize("link", LINKS, ids=["fixed-4w", "portable-100mw"])
    def test_two_lanes_of_flag_rows_match_oracle(self, link):
        # four KL3 configs read 20 flag rows, so the hit pass runs two lanes
        # and ORs their masks
        knowledge = MANY_KL3[:4]
        assert engine.LANE < usage_partition(knowledge).mux_weights.shape[1] <= 2 * engine.LANE
        seed = 4
        results = run_combinations(self.GRID, [(link, k) for k in knowledge], PLAN,
                                   realizations=1, master_seed=seed)
        label = link.device.label
        for k, result in zip(knowledge, results, strict=True):
            flags = _naive_flags(self.GRID, k, seed)
            expected = _naive_map(self.GRID, flags, CO_M[label], ADJ_M[label])
            assert np.array_equal(result.mean_map.values, expected), k
            assert len(np.unique(expected)) >= 3  # the oracle is not trivial

    @pytest.mark.parametrize("link", LINKS, ids=["fixed-4w", "portable-100mw"])
    def test_mean_of_one_realization_equals_single_realization(self, link):
        for knowledge in self.KNOWLEDGE:
            result = run(self.GRID, knowledge, link, realizations=1, master_seed=5)
            gsm = single_realization_map(self.GRID, link, PLAN, knowledge, 5, 0)
            assert result.mean_map.values.tobytes() == gsm.values.tobytes(), knowledge.level

    def test_totals_are_sums_over_single_realizations(self):
        # The CDF and utilization are read from totals summed over the
        # realizations; each count must equal the sum of the same count
        # taken from every realization's own map.  The second bucket set has
        # gaps, a point bucket and an open bucket.
        R, seed = 5, 17
        pairs = [(link, k) for link in self.LINKS for k in self.KNOWLEDGE]
        n_valid = int(self.GRID.valid.sum())
        for buckets in (DEFAULT_BUCKETS, parse_buckets("0-0,40-88,104<")):
            results = run_combinations(self.GRID, pairs, PLAN, realizations=R,
                                       master_seed=seed, buckets=buckets)
            filled = np.zeros(len(buckets) + 1, dtype=bool)
            for (link, knowledge), result in zip(pairs, results, strict=True):
                area, households = [], []
                for r in range(R):
                    values = single_realization_map(
                        self.GRID, link, PLAN, knowledge, seed, r
                    ).values
                    percent = cdf_from_map(values, result.cdf.levels_mhz).percent_area
                    area.append(np.rint(percent * n_valid / 100.0))
                    households.append(
                        utilization_from_map(values, self.GRID.counts, buckets).mean_households
                    )
                assert len({a.tobytes() for a in area}) > 1  # the realizations differ
                where = (link.device.label, knowledge.level, buckets[0].label)
                assert np.array_equal(
                    np.rint(result.cdf.percent_area * R * n_valid / 100.0), np.sum(area, axis=0)
                ), where
                assert np.array_equal(
                    np.rint(result.utilization.mean_households * R), np.sum(households, axis=0)
                ), where
                filled |= result.utilization.mean_households > 0
            assert filled[:-1].all()  # every configured bucket is exercised

    def test_bit_identical_across_worker_counts(self):
        pairs = [(link, k) for link in self.LINKS for k in self.KNOWLEDGE]
        base, other = (
            list(run_combinations(self.GRID, pairs, PLAN, realizations=6,
                                  master_seed=21, workers=workers))
            for workers in (1, 2)
        )
        for a, b in zip(base, other, strict=True):
            assert a.mean_map.values.tobytes() == b.mean_map.values.tobytes()
            assert a.cdf.percent_area.tobytes() == b.cdf.percent_area.tobytes()
            assert (
                a.utilization.mean_households.tobytes()
                == b.utilization.mean_households.tobytes()
            )


class TestRunCombinations:
    """One sweep over every pair gives what each pair gives alone."""

    GRID = ingest_grid(
        [(2, 2, 4), (7, 5, 3), (11, 9, 9), (0, 11, 2)],
        resolution_m=1000.0, rows=12, cols=14,
    )
    LINK = {FIXED: LINK_FIXED, PORTABLE: LINK_PORTABLE}
    # KL1 between sampled levels, and KL2 twice
    KNOWLEDGE = (KL2, KL1, KL3_TP2_COND, KL2, KL3_TP1)

    # thresholds that interleave, on the faces of the cube too; explicit
    # shares with empty intervals, and summing to exactly 1 (no idle viewers)
    INTERLEAVED = (
        KnowledgeConfig("KL2", p_mux1_capable=0.0, p_subscribe_mux2to5=1.0),
        KnowledgeConfig("KL2", p_mux1_capable=1.0, p_subscribe_mux2to5=0.0),
        KnowledgeConfig("KL2", p_mux1_capable=0.9, p_subscribe_mux2to5=0.4),
        KnowledgeConfig("KL3", p_mux1_capable=1.0, p_subscribe_mux2to5=0.4,
                        mux_shares=(0.25, 0.0, 0.5, 0.0, 0.25),
                        share_interpretation="conditional_on_subscription"),
        KnowledgeConfig("KL3", p_mux1_capable=0.9, mux_shares=(0.25, 0.0, 0.5, 0.0, 0.25)),
        KnowledgeConfig("KL3", p_mux1_capable=0.7, p_subscribe_mux2to5=1.0, time_period="TP2",
                        share_interpretation="conditional_on_subscription"),
        KnowledgeConfig("KL3", p_mux1_capable=0.98, time_period="TP1"),
        KL1,
    )
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "devices", [(FIXED, PORTABLE), (PORTABLE, FIXED)], ids=["fixed-first", "portable-first"]
    )
    def test_joint_equals_each_pair_alone(self, devices, workers):
        self.check_joint(self.GRID, devices, self.KNOWLEDGE, 7, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("knowledge", ["interleaved", "many-kl3"])
    def test_joint_equals_each_pair_alone_over_many_thresholds(self, knowledge, workers):
        knowledge = self.INTERLEAVED if knowledge == "interleaved" else MANY_KL3
        grid = _scattered_grid(5, 16, 40)
        rows = usage_partition(knowledge).mux_weights.shape[1]
        assert rows == (20 if knowledge is self.INTERLEAVED else 70)  # 70: two words
        self.check_joint(grid, (PORTABLE, FIXED), knowledge, 4, workers)

    def check_joint(self, grid, devices, knowledge, realizations, workers):
        pairs = [(self.LINK[d], k) for k in knowledge for d in devices]
        joint = list(run_combinations(
            grid, pairs, PLAN, realizations=realizations, master_seed=3, workers=workers
        ))
        assert len(joint) == len(pairs)
        for (link, knowledge), got in zip(pairs, joint):
            (alone,) = run_combinations(
                grid, [(link, knowledge)], PLAN, realizations=realizations, master_seed=3
            )
            assert got.mean_map.values.tobytes() == alone.mean_map.values.tobytes()
            assert got.cdf.levels_mhz.tobytes() == alone.cdf.levels_mhz.tobytes()
            assert got.cdf.percent_area.tobytes() == alone.cdf.percent_area.tobytes()
            assert got.utilization.labels == alone.utilization.labels
            assert (
                got.utilization.mean_households.tobytes()
                == alone.utilization.mean_households.tobytes()
            )
            assert (got.co_radius_m, got.adjacent_radius_m, got.warnings, got.realizations) == (
                alone.co_radius_m, alone.adjacent_radius_m, alone.warnings, alone.realizations
            )

    def test_no_pairs_no_results(self):
        assert list(run_combinations(self.GRID, [], PLAN)) == []

    def test_input_errors_raise_before_any_result(self):
        pairs = [(LINK_FIXED, KL2)]
        with pytest.raises(DomainError):
            run_combinations(self.GRID, pairs, PLAN, realizations=0)
        with pytest.raises(ConfigError, match="5 MUX"):
            run_combinations(self.GRID, pairs, ChannelPlan(used_channels=(21, 24, 27, 30)))


class TestReceiverSetClasses:
    """The device state keeps one bitset column per distinct co-channel and
    per distinct adjacent segment bitset, one class per distinct (co, adj)
    pair of them, and per-class counts that add up to the grid's."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        density=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        link=st.sampled_from([LINK_FIXED, LINK_PORTABLE]),
        resolution=st.sampled_from([250.0, 1000.0]),
    )
    @example(shape=(3, 3), density=0.0, seed=0, link=LINK_FIXED, resolution=1000.0)
    @example(shape=(12, 12), density=1.0, seed=1, link=LINK_PORTABLE, resolution=250.0)
    def test_classes_reproduce_segment_bitsets(self, shape, density, seed, link, resolution):
        rng = np.random.default_rng(seed)
        valid = rng.random(shape) < 0.9
        counts = np.where(valid & (rng.random(shape) < density), rng.integers(1, 4, shape), 0)
        area = counts.size * (resolution / 1000.0) ** 2
        grid = HouseholdGrid(counts, valid, resolution, municipal_area_km2=area)
        with mock.patch.object(engine, "receiver_segments", wraps=receiver_segments) as spy:
            state = engine._build_state(grid, link)
        starts, (co_bits, adj_bits) = receiver_segments(*spy.call_args.args)

        assert np.array_equal(state.segment_lengths, np.diff(starts, append=counts.size))
        co_of = state.co_index[state.segment_class]
        adj_of = state.adj_index[state.segment_class]
        set_bits = _set_bits(state)
        assert np.array_equal(set_bits[:, co_of], co_bits)
        assert np.array_equal(set_bits[:, adj_of], adj_bits)
        n_co = len(set(co_of.tolist()))  # the co-channel sets come first in the table
        assert set(co_of.tolist()) == set(range(n_co))
        assert set(adj_of.tolist()) == set(range(n_co, set_bits.shape[1]))
        for bits in (set_bits[:, :n_co], set_bits[:, n_co:]):
            assert len({column.tobytes() for column in bits.T}) == bits.shape[1]
        classes = set(zip(state.co_index.tolist(), state.adj_index.tolist()))
        assert len(classes) == len(state.co_index) == len(state.adj_index)
        assert state.class_weights.shape == (2, len(classes))
        assert state.class_weights.dtype == np.int64
        assert state.class_weights[0].sum() == grid.valid.sum()
        assert state.class_weights[1].sum() == grid.total_households
        cell_class = np.repeat(state.segment_class, state.segment_lengths)
        for c, (n_valid, households) in enumerate(state.class_weights.T):
            assert n_valid == grid.valid.ravel()[cell_class == c].sum()
            assert households == counts.ravel()[cell_class == c].sum()


class TestAdjacentInsideCo:
    """Criteria require co-channel C/I above adjacent C/I, so the adjacent
    loss is the smaller one; the Hata inversion, the rounding up to the grid
    and the disc footprint all grow with the distance.  So a class's adjacent
    set never holds a receiver its co-channel set lacks."""

    @settings(max_examples=80, deadline=None)
    @given(
        field=st.floats(20.0, 90.0),
        ci_adjacent=st.floats(-40.0, 40.0),
        ci_gap=st.floats(0.001, 60.0),
        eirp=st.floats(0.01, 1e5),
        height=st.floats(0.5, 300.0),
        frequency=st.floats(50.0, 3000.0),
        mobile=st.floats(0.0, 20.0),
        environment=st.sampled_from(ENVIRONMENTS),
        resolution=st.sampled_from([50.0, 100.0, 250.0, 1000.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(field=OFCOM.min_field_strength_dbuvm, ci_adjacent=OFCOM.ci_adjacent_db,
             ci_gap=OFCOM.ci_cochannel_db - OFCOM.ci_adjacent_db, eirp=FIXED.eirp_mw,
             height=FIXED.antenna_height_m, frequency=650.0, mobile=10.0,
             environment="suburban", resolution=100.0, seed=0)
    def test_adjacent_radius_and_sets_inside_co(
        self, field, ci_adjacent, ci_gap, eirp, height, frequency, mobile, environment,
        resolution, seed,
    ):
        criteria = ProtectionCriteria("any", field, ci_adjacent + ci_gap, ci_adjacent,
                                      receiver_height_m=mobile)
        try:
            link = separation_report(DeviceProfile("any", eirp, height), criteria, frequency,
                                     environment)
        except DomainError:  # a distance past the range the inversion covers
            reject()
        co = quantize_distance(link.min_distance_co_m, resolution)
        assert quantize_distance(link.min_distance_adjacent_m, resolution) <= co

        rng = np.random.default_rng(seed)
        counts = np.where(rng.random((9, 11)) < 0.3, rng.integers(1, 4, (9, 11)), 0)
        grid = HouseholdGrid(counts, np.ones((9, 11), bool), resolution,
                             municipal_area_km2=counts.size * (resolution / 1000.0) ** 2)
        state = engine._build_state(grid, link)
        bits = _set_bits(state)
        assert not (bits[:, state.adj_index] & ~bits[:, state.co_index]).any()


class TestValidation:
    def grid(self):
        return ingest_grid([(1, 1, 2)], resolution_m=1000.0, rows=4, cols=4)

    def test_plan_must_have_five_channels(self):
        plan = ChannelPlan(used_channels=(21, 24, 27, 30))
        with pytest.raises(ConfigError, match="5 MUX"):
            run_combinations(self.grid(), [(LINK_FIXED, KL1)], plan)

    def test_grid_needs_valid_cells(self):
        counts = np.zeros((2, 2), dtype=np.int64)
        grid = HouseholdGrid(counts, np.zeros((2, 2), bool), 1000.0, 1.0)
        with pytest.raises(DataError, match="no valid cells"):
            run(grid, KL1)

    def test_realizations_and_workers_bounds(self):
        with pytest.raises(DomainError):
            run(self.grid(), KL2, realizations=0)
        with pytest.raises(DomainError):
            run(self.grid(), KL2, workers=0)

    def test_realizations_past_the_totals(self):
        # checked before the sweep: 16 valid cells, 15 slots, 2 households
        with mock.patch.object(engine, "_build_sweep", side_effect=AssertionError("swept")):
            with pytest.raises(DomainError, match="must be below 576460752303423488 "):
                run(self.grid(), KL2, realizations=2**63 // 16)
            with pytest.raises(AssertionError, match="swept"):
                run(self.grid(), KL2, realizations=2**63 // 16 - 1)
            crowded = ingest_grid([(1, 1, 2**62)], resolution_m=1000.0, rows=4, cols=4)
            with pytest.raises(DataError, match="overflow 64-bit totals"):
                run(crowded, KL2, realizations=2)
        # KL1 evaluates index 0 only, whatever the count
        assert run(self.grid(), KL1, realizations=10**20).realizations == 10**20

    def test_mean_map_is_read_only(self):
        result = run(self.grid(), KL1)
        with pytest.raises(ValueError):
            result.mean_map.values[0, 0] = 1.0


class TestMapDictionaryForm:
    """A mean map is its distinct levels and a per-cell index into them.
    Written as it is, it gives the bytes of its float map; its mean is
    ``np.nanmean``'s to the bit.  Other roundings differ at ties: on
    clustered 1 km (4,096 cells, a power of two), fixed-4w KL2, seed 11 and
    20 realizations, the exact mean is 84.204296875.  ``np.nanmean`` gives
    the float nearest it, written 84.20429687; the slot total times
    (bandwidth / realizations) over the cell count gives the float above,
    written 84.20429688."""

    @staticmethod
    def check(mean_map, grid, directory):
        as_map, as_values = directory / "map.csv", directory / "values.csv"
        write_matrix_csv(as_map, mean_map)
        write_matrix_csv(as_values, mean_map.values)
        assert as_map.read_bytes() == as_values.read_bytes()
        assert mean_map.mean_mhz(int(grid.valid.sum())) == float(np.nanmean(mean_map.values))
        with pytest.raises(ValueError):
            mean_map.values[0, 0] = 1.0
        assert mean_map.index.dtype == np.intp and mean_map.index.shape == grid.counts.shape
        real = mean_map.levels[~np.isnan(mean_map.levels)]
        assert len(np.unique(real)) == len(real)  # each level is formatted once
        assert np.isnan(mean_map.levels).sum() == (not grid.valid.all())

    @settings(max_examples=40, deadline=None)
    @given(
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        seed=st.integers(0, 2**32 - 1),
        knowledge=st.sampled_from([KL1, KL2, KL3_TP1]),
        realizations=st.integers(1, 7),
    )
    @example(shape=(8, 8), seed=3, knowledge=KL2, realizations=3)  # 64 cells
    @example(shape=(1, 1), seed=0, knowledge=KL2, realizations=1)
    def test_small_grids(self, tmp_path_factory, shape, seed, knowledge, realizations):
        rng = np.random.default_rng(seed)
        valid = rng.random(shape) < 0.8
        valid.flat[0] = True
        counts = np.where(valid & (rng.random(shape) < 0.3), rng.integers(1, 4, shape), 0)
        grid = HouseholdGrid(counts, valid, 250.0, municipal_area_km2=counts.size / 16)
        result = run(grid, knowledge, realizations=realizations, master_seed=seed)
        self.check(result.mean_map, grid, tmp_path_factory.mktemp("map"))
        single = single_realization_map(grid, LINK_FIXED, PLAN, knowledge, seed)
        self.check(single, grid, tmp_path_factory.mktemp("single"))

    @pytest.mark.parametrize("name", ["vinje_synthetic_1km.csv", "clustered_1km.csv"])
    def test_shipped_grids(self, data_dir, tmp_path, name):
        grid, invalidated = compensate_area(load_grid_csv(data_dir / name))
        assert invalidated == {"vinje_synthetic_1km.csv": 734, "clustered_1km.csv": 0}[name]
        result = run(grid, KL2, realizations=20, master_seed=11)
        self.check(result.mean_map, grid, tmp_path)
        if name == "clustered_1km.csv":
            assert f"{result.mean_map.mean_mhz(grid.counts.size):.10g}" == "84.20429687"


@st.composite
def _disjoint_buckets(draw):
    """Closed buckets between increasing edges on a 4 MHz step (so half the
    edges land on 8 MHz slot values), some left out as gaps, and maybe an
    open ``X<`` bucket from the last edge; in any order."""
    edges = [4.0 * e for e in sorted(draw(st.sets(st.integers(0, 32), min_size=2, max_size=10)))]
    keep = draw(st.lists(st.booleans(), min_size=len(edges) // 2, max_size=len(edges) // 2))
    buckets = [
        Bucket(f"{lo:g}-{hi:g}", lo, hi)
        for lo, hi, kept in zip(edges[::2], edges[1::2], keep)
        if kept
    ]
    if draw(st.booleans()) or not buckets:
        buckets.append(Bucket(f"{edges[-1]:g}<", edges[-1], math.inf, lower_inclusive=False))
    return tuple(draw(st.permutations(buckets)))


#: Both zeros, both NaN signs, both infinities, and level and bucket edges.
_EDGE_VALUES = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 4.0, 8.0, 24.0, 64.0, 96.0, 120.0]


@st.composite
def _stored_maps(draw):
    """A map made of runs over a few values, which cross row ends, and its
    household counts (some past 2**53, so sums must stay integers)."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()),
                         min_size=1, max_size=6))
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2 * cols)),
                         min_size=1, max_size=16))
    cells = np.repeat(np.array([v for v, _ in runs]), [n for _, n in runs])
    counts = draw(hnp.arrays(np.int64, (rows, cols),
                             elements=st.sampled_from([0, 1, 3, 2**53 + 1])))
    return np.resize(cells, (rows, cols)), counts


def _per_cell_cdf(values, levels):
    """The per-cell survival CDF cdf_from_map replaced; the oracle."""
    flat = values[~np.isnan(values)]
    if not flat.size:
        return None
    counts = np.array([(flat >= g).sum() for g in levels], dtype=np.int64)
    return counts * (100.0 / flat.size)


def _per_cell_utilization(values, counts, buckets):
    """The per-cell bucket sums utilization_from_map replaced; the oracle."""
    sums = [int(counts[bucket.contains(values)].sum()) for bucket in buckets]
    sums.append(int(counts[~np.isnan(values)].sum()) - sum(sums))
    return np.asarray(sums, dtype=np.float64)


class TestMapStatistics:
    # 40 receiver cells at 100 m.  For a portable device, one KL3
    # realization leaves 88-120 MHz on them; KL1 leaves 0 MHz on them and
    # 80 MHz elsewhere.
    MIXED_GRID = ingest_grid(
        [(c % 30, c // 30, 1 + c % 3)
         for c in np.random.default_rng(0).choice(900, 40, replace=False).tolist()],
        resolution_m=100.0, rows=30, cols=30,
    )

    def test_cdf_from_map_matches_engine_for_kl1(self):
        grid = ingest_grid([(2, 2, 3)], resolution_m=1000.0, rows=6, cols=6)
        result = run(grid, KL1)
        again = cdf_from_map(result.mean_map.values, result.cdf.levels_mhz)
        assert again.percent_area.tobytes() == result.cdf.percent_area.tobytes()

    def test_utilization_from_map_matches_engine_for_kl1(self):
        huge = 2**53 + 1  # per-class household sums must stay exact integers
        for grid in (
            ingest_grid([(2, 2, 3), (5, 1, 2)], resolution_m=1000.0, rows=6, cols=6),
            ingest_grid([(c, c, huge) for c in (2, 20, 37)], resolution_m=1000.0,
                        rows=40, cols=40),
        ):
            result = run(grid, KL1)
            again = utilization_from_map(
                result.mean_map.values, grid.counts, DEFAULT_BUCKETS
            )
            assert (
                again.mean_households.tobytes()
                == result.utilization.mean_households.tobytes()
            )

    @settings(max_examples=60, deadline=None)
    @given(buckets=_disjoint_buckets())
    @example(buckets=DEFAULT_BUCKETS)
    @example(buckets=(Bucket("0-0", 0.0, 0.0), Bucket("120<", 120.0, math.inf, False)))
    @example(buckets=(Bucket("0-120", 0.0, 120.0),))  # every slot value in a bucket
    def test_utilization_from_map_matches_engine_for_any_buckets(self, buckets):
        # one realization: the mean map holds that realization's values
        for knowledge in (KL1, KL3_TP1):
            result = run(self.MIXED_GRID, knowledge, link=LINK_PORTABLE, realizations=1,
                         buckets=buckets)
            again = utilization_from_map(result.mean_map.values, self.MIXED_GRID.counts, buckets)
            assert again.labels == result.utilization.labels
            assert (
                again.mean_households.tobytes()
                == result.utilization.mean_households.tobytes()
            ), knowledge

    @settings(max_examples=200, deadline=None)
    @given(
        stored=_stored_maps(),
        levels=st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats()), max_size=8),
        buckets=_disjoint_buckets(),
    )
    # every household in a NaN cell
    @example(stored=(np.array([[np.nan, 8.0], [-np.nan, 0.0]]), np.array([[5, 0], [2, 0]])),
             levels=[120.0, 0.0, -0.0, 8.0], buckets=DEFAULT_BUCKETS)
    # values on the edges of unsorted levels and of an open-ended bucket
    @example(stored=(np.array([[0.0, -0.0, 96.0, np.inf], [64.0, 24.0, -np.inf, 96.0]]),
                     np.array([[1, 2, 4, 8], [16, 32, 64, 2**53 + 1]])),
             levels=[96.0, 0.0, np.inf, 24.0, -np.inf], buckets=DEFAULT_BUCKETS)
    def test_statistics_match_per_cell_formulas(self, stored, levels, buckets):
        values, counts = stored
        want = _per_cell_cdf(values, levels)
        if want is None:
            with pytest.raises(DataError):
                cdf_from_map(values, levels)
        else:
            assert cdf_from_map(values, levels).percent_area.tobytes() == want.tobytes()
        table = utilization_from_map(values, counts, buckets)
        assert table.mean_households.tobytes() == (
            _per_cell_utilization(values, counts, buckets).tobytes()
        )

    def test_other_bucket_collects_gaps(self):
        values = np.array([[0.0, 30.0, 70.0, 100.0, np.nan]])
        counts = np.array([[1, 2, 4, 8, 0]])
        table = utilization_from_map(values, counts, DEFAULT_BUCKETS)
        assert table.labels == ("24-64", "72-96", "96<", OTHER_BUCKET_LABEL)
        # 70 falls between buckets, 0 below all of them -> "other"
        assert table.mean_households.tolist() == [2.0, 0.0, 8.0, 5.0]

    def test_cdf_from_map_rejects_all_nan(self):
        with pytest.raises(DataError):
            cdf_from_map(np.full((2, 2), np.nan), [0.0, 8.0])

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            utilization_from_map(np.zeros((2, 2)), np.zeros((3, 2)), DEFAULT_BUCKETS)


class TestWriters:
    def test_cdf_csv(self, tmp_path):
        cdf = cdf_from_map(np.array([[0.0, 48.0, 96.0]]), [0.0, 48.0, 120.0])
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, cdf)
        assert path.read_text() == (
            "gray_mhz,percent_area\n0,100\n48,66.66666667\n120,0\n"
        )

    def test_utilization_csv(self, tmp_path):
        table = utilization_from_map(
            np.array([[30.0, 100.0]]), np.array([[3, 4]]), DEFAULT_BUCKETS
        )
        path = tmp_path / "util.csv"
        write_utilization_csv(path, table)
        assert path.read_text() == (
            "bucket,mean_households\n24-64,3.0\n72-96,0.0\n96<,4.0\nother,0.0\n"
        )
