from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grayspace.errors import ConfigError, DomainError
from grayspace.scenario import (
    KNOWLEDGE_LEVELS,
    MUX_SHARES,
    SHARE_INTERPRETATIONS,
    TIME_PERIODS,
    ChannelPlan,
    KnowledgeConfig,
    gray_space_capacity,
    household_variates,
    receiver_rows,
    receiver_usage,
    slot_table,
    usage_masks,
    usage_partition,
    white_space_amount,
)

KL1 = KnowledgeConfig("KL1")
KL2 = KnowledgeConfig("KL2")
KL3_TP1 = KnowledgeConfig("KL3", time_period="TP1")
KL3_TP2 = KnowledgeConfig("KL3", time_period="TP2")
KL3_TP2_COND = KnowledgeConfig(
    "KL3", time_period="TP2", share_interpretation="conditional_on_subscription"
)


#: Probabilities that put cuts on the cube's faces as well as inside it.
_PROBABILITIES = st.sampled_from([0.0, 0.15, 0.5, 0.98, 1.0])
#: Explicit shares: with zero shares (empty intervals), and summing to
#: exactly 1 (no idle viewers).
_SHARES = st.one_of(
    st.sampled_from([(0.25, 0.0, 0.5, 0.0, 0.25), (0.5, 0.25, 0.125, 0.0625, 0.0625),
                     (0.0, 0.0, 0.0, 0.0, 0.0), (0.1, 0.0, 0.05, 0.2, 0.0)]),
    st.tuples(*[st.sampled_from([0.0, 0.01, 0.1, 0.2])] * 5),
)


@st.composite
def knowledge_configs(draw):
    """Any knowledge config whose thresholds may interleave with another's."""
    level = draw(st.sampled_from(KNOWLEDGE_LEVELS))
    if level == "KL1":
        return KL1
    viewing = {}
    if level == "KL3":
        viewing = draw(st.one_of(
            st.builds(dict, time_period=st.sampled_from(TIME_PERIODS)),
            st.builds(dict, mux_shares=_SHARES),
        ))
        viewing["share_interpretation"] = draw(st.sampled_from(SHARE_INTERPRETATIONS))
    return KnowledgeConfig(level, p_mux1_capable=draw(_PROBABILITIES),
                           p_subscribe_mux2to5=draw(_PROBABILITIES), **viewing)


#: 14 KL3 configs with distinct edges: 70 distinct flag rows, two words.
MANY_KL3 = tuple(
    KnowledgeConfig("KL3", mux_shares=(0.01 * (i + 1), 0.02, 0.03, 0.04, 0.05),
                    share_interpretation=SHARE_INTERPRETATIONS[i % 2])
    for i in range(14)
)


def usage_bools(config, u):
    """(n, 5) booleans from the usage masks: column m is MUX m + 1."""
    return unpack(usage_masks(config, u))


def unpack(masks):
    return ((np.asarray(masks)[..., None] >> np.arange(5)) & 1).astype(bool)


class TestChannelPlan:
    def test_default_plan(self):
        plan = ChannelPlan()
        assert plan.used_channels == (21, 24, 27, 30, 33)
        assert plan.adjacent_channels == (20, 22, 23, 25, 26, 28, 29, 31, 32, 34)
        assert gray_space_capacity(plan) == 120.0
        assert white_space_amount(plan) == 200.0

    def test_consecutive_channels_share_adjacents(self):
        plan = ChannelPlan(used_channels=(25, 27, 32, 35, 42))
        # 26 guards both 25 and 27; 33/34 collapse into single entries
        assert plan.adjacent_channels == (24, 26, 28, 31, 33, 34, 36, 41, 43)
        assert gray_space_capacity(plan) == 112.0
        assert white_space_amount(plan) == 208.0
        entries = dict(plan.adjacent_entries())
        assert entries[26] == (25, 27)
        assert entries[24] == (25,)

    def test_without_dedup_each_side_counts(self):
        plan = ChannelPlan(used_channels=(25, 27, 32, 35, 42), dedup_adjacent=False)
        entries = plan.adjacent_entries()
        assert len(entries) == 10  # 26 appears twice
        assert gray_space_capacity(plan) == 120.0

    def test_used_channels_never_count_as_adjacent(self):
        plan = ChannelPlan(used_channels=(21, 22, 23, 24, 25))
        assert plan.adjacent_channels == (20, 26)

    def test_accounting_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            channels = tuple(
                sorted(rng.choice(np.arange(21, 61), size=5, replace=False))
            )
            plan = ChannelPlan(used_channels=channels)
            assert gray_space_capacity(plan) + white_space_amount(plan) == 320.0

    def test_rejects_bad_plans(self):
        with pytest.raises(ConfigError):
            ChannelPlan(used_channels=(21, 21, 24, 27, 30))
        with pytest.raises(DomainError):
            ChannelPlan(total_band_mhz=0.0)
        for bandwidth in (0.0, -8.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="channel_bandwidth_mhz must be positive"):
                ChannelPlan(channel_bandwidth_mhz=bandwidth)
        with pytest.raises(ConfigError):
            white_space_amount(ChannelPlan(total_band_mhz=40.0))


class TestKnowledgeConfig:
    def test_levels(self):
        assert KNOWLEDGE_LEVELS == ("KL1", "KL2", "KL3")
        assert TIME_PERIODS == ("TP1", "TP2")
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL4")

    def test_kl3_needs_shares_or_period(self):
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL3")
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL3", time_period="TP9")
        with pytest.raises(ConfigError, match="not both"):
            KnowledgeConfig("KL3", time_period="TP1", mux_shares=(0.1,) * 5)
        custom = KnowledgeConfig("KL3", mux_shares=(0.1, 0.1, 0.1, 0.1, 0.1))
        assert custom.effective_shares == (0.1, 0.1, 0.1, 0.1, 0.1)

    def test_period_shares_lookup(self):
        assert KL3_TP2.effective_shares == MUX_SHARES["TP2"]
        assert sum(MUX_SHARES["TP2"]) == pytest.approx(0.451)
        assert sum(MUX_SHARES["TP1"]) == pytest.approx(0.0998)

    def test_non_kl3_rejects_period(self):
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL2", time_period="TP1")

    def test_share_validation(self):
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL3", mux_shares=(0.5, 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL3", mux_shares=(0.1, 0.1))

    def test_probability_validation(self):
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL2", p_mux1_capable=1.5)
        with pytest.raises(ConfigError):
            KnowledgeConfig("KL2", p_subscribe_mux2to5=-0.1)

    def test_interpretation_validation(self):
        with pytest.raises(ConfigError, match="share_interpretation must be one of"):
            KnowledgeConfig("KL2", share_interpretation="x")


class TestVariates:
    def test_shape_and_range(self):
        u = household_variates(9, 0, 1000)
        assert u.shape == (1000, 3)
        assert ((0.0 <= u) & (u < 1.0)).all()

    def test_keyed_on_seed_and_index(self):
        a = household_variates(9, 0, 64)
        assert np.array_equal(a, household_variates(9, 0, 64))
        assert not np.array_equal(a, household_variates(9, 1, 64))
        assert not np.array_equal(a, household_variates(10, 0, 64))

    def test_prefix_stability(self):
        # a longer draw starts with the shorter draw
        short = household_variates(9, 3, 10)
        long = household_variates(9, 3, 25)
        assert np.array_equal(long[:10], short)

    def test_rejects_bad_keys(self):
        with pytest.raises(DomainError):
            household_variates(-1, 0, 4)
        with pytest.raises(DomainError):
            household_variates(2**64, 0, 4)
        with pytest.raises(DomainError):
            household_variates(0, -1, 4)

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError, match="n must be non-negative"):
            household_variates(0, 0, -1)
        assert household_variates(0, 0, 0).shape == (0, 3)


class TestSlotTable:
    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.lists(st.integers(21, 40), min_size=5, max_size=5, unique=True),
        dedup=st.booleans(),
    )
    def test_matches_brute_force_count(self, channels, dedup):
        plan = ChannelPlan(used_channels=tuple(channels), dedup_adjacent=dedup)
        mux_of = {ch: m for m, ch in enumerate(plan.used_channels)}
        guards = [{mux_of[ch] for ch in guarding} for _, guarding in plan.adjacent_entries()]
        table = slot_table(plan)
        assert table.shape == (1024,)
        for key in range(1024):
            co = {m for m in range(5) if key >> m & 1}
            adj = {m for m in range(5) if key >> (5 + m) & 1}
            expected = sum(m not in co for m in range(5)) + sum(not adj & g for g in guards)
            assert table[key] == expected, key


class TestUsage:
    def test_kl1_is_certain(self):
        u = household_variates(1, 0, 50)
        assert usage_bools(KL1, u).all()

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (4, 4), (2, 3, 1)])
    def test_rejects_variates_not_n_by_3(self, shape):
        with pytest.raises(DomainError, match=r"u must have shape \(n, 3\)"):
            usage_masks(KL2, np.zeros(shape))

    def test_kl2_layout(self):
        u = np.array(
            [
                [0.5, 0.05, 0.3],   # covered, subscribed -> all five
                [0.5, 0.80, 0.3],   # covered, not subscribed -> MUX 1 only
                [0.99, 0.05, 0.3],  # not covered -> nothing
            ]
        )
        usage = usage_bools(KL2, u)
        assert usage.tolist() == [
            [True, True, True, True, True],
            [True, False, False, False, False],
            [False, False, False, False, False],
        ]

    def test_kl2_frequencies(self):
        u = household_variates(77, 0, 400_000)
        usage = usage_bools(KL2, u)
        n = len(u)
        se = 3 * np.sqrt(0.98 * 0.02 / n)
        assert abs(usage[:, 0].mean() - 0.98) < se
        se = 3 * np.sqrt(0.147 * 0.853 / n)
        assert abs(usage[:, 1].mean() - 0.147) < se
        # MUX 2..5 flags are one coupled event under KL2
        assert np.array_equal(usage[:, 1], usage[:, 4])

    def test_kl3_categories_partition(self):
        u = household_variates(78, 0, 100_000)
        usage = usage_bools(KL3_TP2, u)
        assert (usage.sum(axis=1) <= 1).all()

    def test_kl3_share_boundaries(self):
        config = KnowledgeConfig("KL3", mux_shares=(0.125,) * 5)
        # cumulative edges are exact binary fractions: 0.125, 0.25, ...
        u = np.array(
            [
                [0.0, 0.9, 0.0],      # first category -> MUX 1
                [0.0, 0.9, 0.124],    # still MUX 1
                [0.0, 0.9, 0.125],    # second category -> MUX 2 needs subscription
                [0.0, 0.0, 0.125],    # subscribed -> MUX 2
                [0.0, 0.9, 0.624],    # last category -> MUX 5
                [0.0, 0.9, 0.625],    # beyond all shares -> watching nothing
            ]
        )
        usage = usage_bools(config, u)
        assert usage[0].tolist() == [True, False, False, False, False]
        assert usage[1].tolist() == [True, False, False, False, False]
        assert usage[2].tolist() == [False, True, False, False, False]
        assert usage[3].tolist() == [False, True, False, False, False]
        assert usage[4].tolist() == [False, False, False, False, True]
        assert not usage[5].any()

    def test_conditional_needs_subscription_for_mux2to5(self):
        config = KnowledgeConfig(
            "KL3",
            mux_shares=(0.125,) * 5,
            share_interpretation="conditional_on_subscription",
        )
        watching_mux2 = np.array([[0.0, 0.9, 0.125], [0.0, 0.05, 0.125]])
        usage = usage_bools(config, watching_mux2)
        assert not usage[0].any()  # not subscribed -> suppressed
        assert usage[1, 1]

    def test_conditional_mux1_needs_no_subscription(self):
        config = KnowledgeConfig(
            "KL3",
            mux_shares=(0.125,) * 5,
            share_interpretation="conditional_on_subscription",
        )
        usage = usage_bools(config, np.array([[0.0, 0.9, 0.0]]))
        assert usage[0, 0]

    def test_nesting_properties(self):
        u = household_variates(79, 0, 200_000)
        kl2 = usage_bools(KL2, u)
        kl3u = usage_bools(KL3_TP2, u)
        kl3c = usage_bools(KL3_TP2_COND, u)
        assert (~kl3c | kl2).all()   # conditional KL3 within KL2
        assert (~kl3c | kl3u).all()  # conditional within unconditional


class TestRealizeCells:
    """One realization's flags for 200 receivers (the cells of a 10x20
    grid) of k households each, drawn by :func:`receiver_usage`.  These
    tests checked the per-cell raster before it was dropped for the
    receivers, and keep their names."""

    def usage(self, config, seed, index, k=10, cells=200):
        """(5, cells) booleans: row m is MUX m + 1."""
        return unpack(receiver_usage(np.full(cells, k), [config], seed, index)[0]).T

    def test_kl1_needs_no_sampling(self):
        assert self.usage(KL1, 0, 0).all()

    def test_deterministic_per_key(self):
        a = self.usage(KL2, 5, 3)
        b = self.usage(KL2, 5, 3)
        c = self.usage(KL2, 5, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "k,expect_empty",
        [(10, 0.20393431650418964), (20, 0.04158920544803099)],  # 0.853**k
    )
    def test_kl2_cell_flag_rate(self, k, expect_empty):
        cells = 200
        trials = 1500
        empty = 0
        for r in range(trials):
            empty += int(cells - self.usage(KL2, 42, r, k=k)[1].sum())
        n = trials * cells
        se = 3 * np.sqrt(expect_empty * (1 - expect_empty) / n)
        assert abs(empty / n - expect_empty) < se


class TestReceiverUsage:
    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, 4), min_size=cols, max_size=cols),
                min_size=1, max_size=6,
            )
        ),
        configs=st.lists(
            st.one_of(st.sampled_from([KL1, KL2, KL3_TP1, KL3_TP2, KL3_TP2_COND]),
                      knowledge_configs()),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 10_000),
    )
    @example(counts=[[3, 0, 1], [2, 5, 4]], configs=list(MANY_KL3), seed=11, index=3)
    def test_matches_per_household_oracle(self, counts, configs, seed, index):
        counts = np.array(counts, dtype=np.int64)
        ys, xs = np.nonzero(counts)
        got = receiver_usage(counts[ys, xs], configs, seed, index)

        # Households in row-major cell order, one variate triple each; a
        # cell uses a MUX when any of its households does.
        u = iter(household_variates(seed, index, int(counts.sum())))
        expected = np.zeros((len(configs), len(ys)), dtype=np.uint8)
        for j, (y, x) in enumerate(zip(ys, xs)):
            for triple in [next(u) for _ in range(counts[y, x])]:
                for c, config in enumerate(configs):
                    expected[c, j] |= usage_masks(config, triple[None])[0]
        assert got.dtype == np.uint8 and np.array_equal(got, expected)

    def test_shipped_knowledge_cuts_44_cells_and_13_rows(self):
        kl3 = [KnowledgeConfig("KL3", time_period=period,
                               share_interpretation="conditional_on_subscription")
               for period in TIME_PERIODS]
        partition = usage_partition([KL1, KL2, *kl3])
        assert [len(cuts) for cuts in partition.cuts] == [1, 1, 10]
        # KL1 one row, KL2 two (MUX 2-5 share one), each KL3 period five
        assert partition.row_table.shape == (44, 1) and partition.mux_weights.shape == (4, 13)
        weights = partition.mux_weights
        assert [sorted(w[w > 0].tolist()) for w in weights] == [
            [31], [1, 30], [1, 2, 4, 8, 16], [1, 2, 4, 8, 16]
        ]
        assert ((weights > 0).sum(axis=0) == 1).all()  # no two configs share a row

    def test_more_flag_rows_than_one_word(self):
        partition = usage_partition(MANY_KL3)
        assert partition.mux_weights.shape == (14, 70) and partition.row_table.shape[1] == 2

    def test_more_cells_than_one_byte_codes(self):
        # 5 x 5 x 18 = 450 cells, so each household's cell code needs 16 bits
        configs = [KnowledgeConfig("KL3", p_mux1_capable=0.9 - 0.1 * i,
                                   p_subscribe_mux2to5=0.1 + 0.1 * i,
                                   mux_shares=(0.01 * (i + 1), 0.02, 0.03, 0.04, 0.05),
                                   share_interpretation=SHARE_INTERPRETATIONS[i % 2])
                   for i in range(4)]
        partition = usage_partition(configs)
        assert len(partition.row_table) == 450
        households = np.array([1, 3, 2, 1, 5] * 200, dtype=np.int64)
        u = household_variates(8, 2, int(households.sum()))
        flags = receiver_rows(partition, households, 8, 2)
        got = partition.mux_weights @ flags.T
        starts = np.cumsum(households) - households
        for config, row in zip(configs, got, strict=True):
            want = np.bitwise_or.reduceat(usage_masks(config, u), starts)
            assert np.array_equal(row, want), config
            assert len(np.unique(want)) >= 5  # the oracle is not trivial

    @settings(max_examples=60, deadline=None)
    @given(configs=st.lists(knowledge_configs(), min_size=1, max_size=4))
    def test_variates_on_the_cuts(self, configs):
        # one household per receiver, with every coordinate on a cut, just
        # below it, 0, or just below 1, and every combination of these
        partition = usage_partition(configs)
        points = [np.unique(np.concatenate([
            cuts, np.nextafter(cuts, -1.0), [0.0, np.nextafter(1.0, 0.0)]
        ]).clip(0.0, np.nextafter(1.0, 0.0))) for cuts in partition.cuts]
        u = np.stack(np.meshgrid(*points, indexing="ij"), axis=-1).reshape(-1, 3)
        with mock.patch("grayspace.scenario.household_variates", return_value=u):
            got = receiver_usage(np.ones(len(u), dtype=np.int64), configs, 0, 0)
            flags = receiver_rows(partition, np.ones(len(u), dtype=np.int64), 0, 0)
        assert flags.dtype == np.uint8 and flags.shape == (len(u), partition.mux_weights.shape[1])
        for config, row in zip(configs, got, strict=True):
            assert np.array_equal(row, usage_masks(config, u)), config

    def test_rejects_receivers_without_households(self):
        with pytest.raises(DomainError):
            receiver_usage(np.array([2, 0, 1]), [KL2], 0, 0)
