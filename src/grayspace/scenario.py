"""Channel-plan accounting and receiver-usage sampling.

Five broadcast multiplexes (MUX 1-5) occupy five channels of a TV band.
How much of the band a secondary device must avoid around a household
depends on what is known about that household's *usage* of the MUXs.
Three knowledge levels are modelled:

* KL1 - registration only: every household is assumed to use every MUX.
* KL2 - capability/subscription: a household can receive the free MUX 1
  when it is covered at all, and the MUX 2-5 bundle when it additionally
  subscribes to it.
* KL3 - actual viewing: a covered household watches at most one MUX,
  drawn from per-time-period market shares (or is idle).

Sampling is driven by one uniform variate triple per household —
``(coverage, subscription, viewing)`` — shared by all knowledge levels, so
for any fixed draw the usage sets shrink as knowledge grows (exactly for
KL2 vs KL1 and, under the conditional share interpretation, for KL3 vs
KL2; MUX 2-5 viewing then implies subscription by construction).  Variates
are generated by a counter-based (Philox) stream keyed on
``(master_seed, realization_index)``, so any partitioning of realizations
across workers reproduces identical draws.  :func:`usage_partition` cuts
the variate cube at the thresholds of any number of knowledge configs, so
one cell code per household gives its usage under all of them;
:func:`receiver_rows` draws one realization's variates once and reduces
them to the household cells (the receivers) as flags of the distinct
(config, MUX) rows, which the partition's ``mux_weights`` turn into 5-bit
MUX masks; :func:`slot_table` maps the masks of a cell's co-channel and
adjacent-channel footprints to its usable slots.

A :class:`ChannelPlan` carries exactly 5 used channels and fits its band,
and a :class:`KnowledgeConfig` holds a valid sampling model: each raises
on construction otherwise, so no consumer checks them again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError

KNOWLEDGE_LEVELS = ("KL1", "KL2", "KL3")
TIME_PERIODS = ("TP1", "TP2")
SHARE_INTERPRETATIONS = ("unconditional", "conditional_on_subscription")

#: Per-MUX market shares by time period (fraction of covered households
#: watching that MUX), used verbatim — TP1 deliberately sums to 0.0998.
MUX_SHARES: dict[str, tuple[float, ...]] = {
    "TP1": (0.0346, 0.0245, 0.0159, 0.0178, 0.007),
    "TP2": (0.193, 0.127, 0.062, 0.057, 0.012),
}
ALL_MUXES = 0b11111  #: the usage mask of every MUX; bit m stands for MUX m + 1


@dataclass(frozen=True)
class ChannelPlan:
    """The band and the channels the five MUXs transmit on.

    ``dedup_adjacent`` controls how shared adjacent channels are counted:
    real plans count a channel sandwiched between two used channels once
    (and clearing it requires distance from both neighbours); switching it
    off counts one adjacent slot per (used channel, side), which is the
    abstract maximum-10 accounting.  The plan lists exactly 5 distinct integer
    channels, one per MUX, and its used and adjacent slots fit inside its band.
    """

    total_band_mhz: float = 320.0
    channel_bandwidth_mhz: float = 8.0
    used_channels: tuple[int, ...] = (21, 24, 27, 30, 33)
    dedup_adjacent: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_band_mhz) and self.total_band_mhz > 0):
            raise DomainError("total_band_mhz must be positive and finite")
        if not (
            math.isfinite(self.channel_bandwidth_mhz)
            and self.channel_bandwidth_mhz > 0
        ):
            raise DomainError("channel_bandwidth_mhz must be positive and finite")
        try:
            used = tuple(operator.index(c) for c in self.used_channels)
        except TypeError:
            raise ConfigError(f"used_channels must be integers, got {self.used_channels}") from None
        if len(set(used)) != len(used):
            raise ConfigError(f"used_channels contains duplicates: {used}")
        object.__setattr__(self, "used_channels", used)
        if len(used) != 5:
            raise ConfigError("the usage model covers exactly 5 MUXs; the channel plan "
                              f"lists {len(used)} used channels")
        if gray_space_capacity(self) > self.total_band_mhz:
            raise ConfigError(f"channel plan occupies {gray_space_capacity(self)} MHz, "
                              f"more than the {self.total_band_mhz} MHz band")

    def adjacent_entries(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Adjacent-channel slots as (channel, guarding used channels).

        A slot is usable only when the device is outside the adjacent
        protection mask of *every* guarding used channel.  Channels that
        are themselves used never appear.
        """
        used = set(self.used_channels)
        if self.dedup_adjacent:
            channels = sorted(
                {c for m in self.used_channels for c in (m - 1, m + 1)} - used
            )
            return tuple(
                (c, tuple(m for m in self.used_channels if abs(m - c) == 1))
                for c in channels
            )
        entries = []
        for m in self.used_channels:
            for c in (m - 1, m + 1):
                if c not in used:
                    entries.append((c, (m,)))
        return tuple(entries)


def slot_count(plan: ChannelPlan) -> int:
    """Channels a cell can offer inside the service area: the used
    channels plus the adjacent slots."""
    return len(plan.used_channels) + len(plan.adjacent_entries())


def slot_levels_mhz(plan: ChannelPlan) -> np.ndarray:
    """The MHz of every usable-slot count from 0 to all: the CDF's levels."""
    return np.arange(slot_count(plan) + 1) * plan.channel_bandwidth_mhz


def slot_table(plan: ChannelPlan) -> np.ndarray:
    """Usable slots of a cell per key ``co | adj << 5``, for all 1,024 keys.

    ``co`` (``adj``) masks the MUXs used by a receiver whose co-channel
    (adjacent-channel) footprint covers the cell, bit m for the m-th used
    channel.  A used channel is lost when its MUX is in ``co``, an adjacent
    slot when one of its guarding MUXs is in ``adj``."""
    co, adj = np.arange(1024) & ALL_MUXES, np.arange(1024) >> 5
    bit = {m: 1 << i for i, m in enumerate(plan.used_channels)}
    table = 5 - sum((co >> i) & 1 for i in range(5))
    for _, guarding in plan.adjacent_entries():
        table += (adj & sum(bit[m] for m in guarding)) == 0
    return table


def gray_space_capacity(plan: ChannelPlan) -> float:
    """MHz reachable inside the service area: used plus adjacent slots."""
    return slot_count(plan) * plan.channel_bandwidth_mhz


def white_space_amount(plan: ChannelPlan) -> float:
    """MHz untouched by the plan (available anywhere, receivers or not)."""
    return plan.total_band_mhz - gray_space_capacity(plan)


@dataclass(frozen=True)
class KnowledgeConfig:
    """What is known about household usage, and the sampling parameters."""

    level: str
    p_mux1_capable: float = 0.98
    p_subscribe_mux2to5: float = 0.15
    time_period: str | None = None
    mux_shares: tuple[float, ...] | None = None
    share_interpretation: str = "unconditional"

    def __post_init__(self) -> None:
        if self.mux_shares is not None:
            object.__setattr__(self, "mux_shares", tuple(float(s) for s in self.mux_shares))
        if self.level not in KNOWLEDGE_LEVELS:
            raise ConfigError(
                f"level must be one of {KNOWLEDGE_LEVELS}, got {self.level!r}"
            )
        for name in ("p_mux1_capable", "p_subscribe_mux2to5"):
            p = getattr(self, name)
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                raise ConfigError(f"{name} must be a probability, got {p!r}")
        if self.share_interpretation not in SHARE_INTERPRETATIONS:
            raise ConfigError(
                "share_interpretation must be one of "
                f"{SHARE_INTERPRETATIONS}, got {self.share_interpretation!r}"
            )
        if self.level == "KL3":
            if (self.time_period is None) == (self.mux_shares is None):
                raise ConfigError("KL3 requires a time_period or explicit mux_shares, not both")
            if self.time_period is not None and self.time_period not in TIME_PERIODS:
                raise ConfigError(
                    f"time_period must be one of {TIME_PERIODS}, got {self.time_period!r}"
                )
            shares = self.effective_shares
            if len(shares) != 5:
                raise ConfigError("mux_shares must list exactly 5 values")
            if any(not (math.isfinite(s) and 0.0 <= s <= 1.0) for s in shares):
                raise ConfigError(f"mux_shares must be probabilities, got {shares}")
            if sum(shares) > 1.0 + 1e-12:
                raise ConfigError(f"mux_shares sum to {sum(shares)} > 1")
        elif self.time_period is not None or self.mux_shares is not None:
            raise ConfigError("time_period/mux_shares only apply to KL3")

    @property
    def effective_shares(self) -> tuple[float, ...]:
        if self.mux_shares is not None:
            return self.mux_shares
        assert self.time_period is not None
        return MUX_SHARES[self.time_period]


def _check_stream_key(master_seed: int, realization_index: int) -> None:
    if not (0 <= int(master_seed) < 2**64):
        raise DomainError("master_seed must fit in an unsigned 64-bit value")
    if not (0 <= int(realization_index) < 2**64):
        raise DomainError("realization_index must fit in an unsigned 64-bit value")


def household_variates(master_seed: int, realization_index: int, n: int) -> np.ndarray:
    """The (n, 3) uniform variates for one realization, in household order.

    The columns are the coverage, subscription and viewing variates, in
    that order.  They are the first 3n outputs of the Philox4x64-10 stream
    keyed on (master_seed, realization_index), each 64-bit word x read as
    the double ``(x >> 11) * 2**-53`` in [0, 1): a pure function of the key,
    whatever process or worker asks for it.
    """
    _check_stream_key(master_seed, realization_index)
    if n < 0:
        raise DomainError("n must be non-negative")
    key = np.array([master_seed, realization_index], dtype=np.uint64)
    try:
        raw = np.random.Philox(key=key).random_raw(3 * n)
        raw >>= 11
        return (raw * 2.0**-53).reshape(n, 3)
    except (MemoryError, ValueError):  # ValueError past 2**63 bytes
        raise DataError(f"cannot hold the variates of {n} households") from None


def usage_masks(config: KnowledgeConfig, u: np.ndarray) -> np.ndarray:
    """Per-household MUX usage implied by variates ``u``, as ``(n,)`` uint8
    masks: bit m is set when the household uses MUX m + 1.

    KL1 ignores the variates entirely (usage is assumed).  KL2/KL3 gate
    everything on coverage: an uncovered household uses nothing.  Under
    KL3 the viewing variate picks at most one MUX via the share intervals
    laid out consecutively from 0, so conditional-interpretation usage is
    a per-household subset of unconditional usage for the same draw.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 3:
        raise DomainError("u must have shape (n, 3)")
    if config.level == "KL1":
        return np.full(u.shape[0], ALL_MUXES, dtype=np.uint8)
    covered = u[:, 0] < config.p_mux1_capable
    if config.level == "KL2":
        subscribed = u[:, 1] < config.p_subscribe_mux2to5
        return np.where(covered, np.where(subscribed, ALL_MUXES, 1), 0).astype(np.uint8)
    # KL3: one categorical draw over (MUX1..MUX5, idle)
    edges = np.cumsum(config.effective_shares)
    category = np.searchsorted(edges, u[:, 2], side="right")
    watching = covered & (category < 5)
    if config.share_interpretation == "conditional_on_subscription":
        subscribed = u[:, 1] < config.p_subscribe_mux2to5
        watching &= subscribed | (category == 0)
    return np.where(watching, np.left_shift(1, category), 0).astype(np.uint8)


@dataclass(frozen=True)
class UsagePartition:
    """The variate cube cut at the thresholds of some knowledge configs, so
    that each config's usage is constant on each cell.  The distinct (config,
    MUX) flags over the cells are the flag rows; ``mux_weights[c, r]`` sums
    the MUX bits config c reads from row r."""

    cuts: tuple[np.ndarray, ...]  # sorted thresholds on coverage, subscription, viewing
    row_table: np.ndarray  # (cells, words) '<u8': bit r set where row r holds
    mux_weights: np.ndarray  # (configs, rows) uint8


def usage_partition(configs: Sequence[KnowledgeConfig]) -> UsagePartition:
    """Cut at the configs' thresholds inside (0, 1), where the variates lie;
    each cell's usage is the :func:`usage_masks` of its lowest corner."""
    sampled = [c for c in configs if c.level != "KL1"]
    thresholds = (
        [c.p_mux1_capable for c in sampled],
        [c.p_subscribe_mux2to5 for c in sampled],
        [e for c in sampled if c.level == "KL3" for e in np.cumsum(c.effective_shares)],
    )
    # sorted() rather than a 1-D np.unique, which imports numpy.ma (0.5 MB)
    cuts = tuple(np.array(sorted({t for t in ts if 0 < t < 1}), float) for ts in thresholds)
    corners = np.meshgrid(*(np.append(0.0, t) for t in cuts), indexing="ij")
    u = np.stack(corners, axis=-1).reshape(-1, 3)  # one point per cell
    masks = np.array([usage_masks(c, u) for c in configs], dtype=np.uint8).reshape(-1, 1, len(u))
    flags = ((masks >> np.arange(5)[:, None]) & 1).reshape(-1, len(u))  # (configs x 5, cells)
    rows, row_of = np.unique(flags, axis=0, return_inverse=True)
    one_hot = row_of.reshape(len(configs), 5, 1) == np.arange(len(rows))
    bits = np.pad(rows.T, ((0, 0), (0, -len(rows) % 64)))  # whole words
    row_table = np.packbits(bits, axis=1, bitorder="little").copy().view("<u8")
    mux_weights = (2 ** np.arange(5) @ one_hot).astype(np.uint8)
    return UsagePartition(cuts=cuts, row_table=row_table, mux_weights=mux_weights)


def receiver_rows(partition: UsagePartition, households_per_receiver: np.ndarray,
                  master_seed: int, realization_index: int) -> np.ndarray:
    """(receivers, rows) uint8 flags of one realization: 1 where a household
    of the receiver lies in a cell of the row.  Receiver j is a cell holding
    ``households_per_receiver[j]`` (>= 1) households; households are
    enumerated receiver by receiver, each consuming one variate triple."""
    _check_stream_key(master_seed, realization_index)
    k = np.asarray(households_per_receiver, dtype=np.int64)
    if (k < 1).any():
        raise DomainError("every receiver must hold at least one household")
    if len(partition.row_table) == 1:  # one cell, such as KL1 only: nothing to draw
        bits = np.repeat(partition.row_table, len(k), axis=0)
    else:
        u = household_variates(master_seed, realization_index, int(k.sum()))
        # each household's cell in the narrowest type that holds it: uint8 halves the loop
        code = np.zeros(len(u), dtype=np.min_scalar_type(len(partition.row_table) - 1))
        for column, cuts in zip(np.ascontiguousarray(u.T), partition.cuts):
            code *= len(cuts) + 1
            for cut in cuts:  # a comparison per cut beats a searchsorted over few cuts
                code += column >= cut
        bits = np.bitwise_or.reduceat(partition.row_table.take(code, axis=0), np.cumsum(k) - k)
    n_rows = partition.mux_weights.shape[1]
    return np.unpackbits(bits.view(np.uint8), axis=1, count=n_rows, bitorder="little")
