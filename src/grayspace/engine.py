"""Monte Carlo gray-space engine.

A cell's usable gray space depends only on which receiver cells' protection
footprints cover it.  The engine takes each device as its pair of footprints,
co-channel and adjacent, each a 1-D int64 array of per-row halfwidths
(:func:`~grayspace.griddata.footprints` builds a link budget's pair), and once
per run builds one state per distinct pair: both footprints stamped at every
household cell, and the grid cut into segments,
stretches of consecutive cells (row-major) covered by one fixed set of
receivers, none mixing valid and invalid cells.
One table holds each footprint's distinct receiver bitsets (sets), word by
word: a word's distinct values (tokens) and each set's token.  Segments with
equal co-channel and adjacent sets form a class.  Per realization the sweep
draws the household variates once, codes each household once for every
knowledge config and packs the receivers' distinct (config, MUX) flag rows into
bitsets.  Per device, each token's hit rows are packed into one integer, a set
ORs its tokens' integers, and per-config tables over these patterns give each
class's two 5-bit MUX masks, which key its usable slots in
:func:`~grayspace.scenario.slot_table`; the pair adds them to its one int64
record: class slot sums, then valid cells and households per slot count.  The
outputs are read from it once:

* a per-cell mean gray-space map (MHz, NaN outside the municipality), kept
  as its distinct values and maximal runs of them, which merge neighbouring
  segments of one value; the float map is built only when read,
* a survival-form CDF: percent of valid area with at least g MHz free,
* a household utilization table over configurable MHz buckets.

Both tables are read off a (value MHz, cells, households) histogram by
:func:`_survival` and :func:`_bucket_sums`: here the slot levels and a pair's
record, in the ``report`` command a stored map's distinct values.

All per-realization quantities are integers (slot counts, cell counts,
household sums), and workers return integer partial sums, so results are
bit-identical for any worker count, and each pair's result is the same
whether it runs alone or with others.  The per-realization RNG is keyed on
(master_seed, realization_index); see :mod:`grayspace.scenario`.  The plan,
the knowledge configs and the grid check their own rules when built; the
engine checks the footprints, which are plain arrays, and what spans its
inputs, such as the 64-bit totals.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .griddata import (Footprints, HouseholdGrid, _fmt, _footprint_pair, _household_counts,
                       receiver_segments)
from .scenario import (ChannelPlan, KnowledgeConfig, UsagePartition, receiver_rows, slot_count,
                       slot_levels_mhz, slot_table, usage_partition)

OTHER_BUCKET_LABEL = "other"


@dataclass(frozen=True)
class Bucket:
    """One utilization bucket: an inclusive MHz interval (the lower edge
    turns exclusive for open-ended ``X<`` buckets)."""

    label: str
    lower_mhz: float
    upper_mhz: float
    lower_inclusive: bool = True

    def __post_init__(self) -> None:
        if math.isnan(self.lower_mhz) or math.isnan(self.upper_mhz):
            raise ConfigError("bucket bounds must not be NaN")
        if self.lower_mhz > self.upper_mhz:
            raise ConfigError(f"bucket {self.label!r} has lower > upper")

    def contains(self, value_mhz: float | np.ndarray) -> np.ndarray:
        """Elementwise membership; NaN is in no bucket."""
        value = np.asarray(value_mhz)
        above = value >= self.lower_mhz if self.lower_inclusive else value > self.lower_mhz
        return above & (value <= self.upper_mhz)


DEFAULT_BUCKETS = (
    Bucket("24-64", 24.0, 64.0),
    Bucket("72-96", 72.0, 96.0),
    Bucket("96<", 96.0, math.inf, lower_inclusive=False),
)


def parse_buckets(text: str) -> tuple[Bucket, ...]:
    """Parse a bucket list like ``24-64,72-96,96<``.

    ``A-B`` is the inclusive range [A, B]; ``B<`` is everything above B.
    Overlapping buckets are a configuration error.
    """
    buckets: list[Bucket] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if token.endswith("<"):
                lower = float(token[:-1])
                buckets.append(Bucket(token, lower, math.inf, lower_inclusive=False))
            else:
                lo_s, _, hi_s = token.partition("-")
                if not _:
                    raise ValueError(token)
                buckets.append(Bucket(token, float(lo_s), float(hi_s)))
        except ValueError:
            raise ConfigError(f"malformed bucket {token!r}") from None
    if not buckets:
        raise ConfigError("bucket list is empty")
    _check_bucket_overlap(buckets)
    return tuple(buckets)


def _check_bucket_overlap(buckets: Sequence[Bucket]) -> None:
    for i, a in enumerate(buckets):
        for b in buckets[i + 1 :]:
            lo = max(
                (a.lower_mhz, not a.lower_inclusive),
                (b.lower_mhz, not b.lower_inclusive),
            )
            hi = min(a.upper_mhz, b.upper_mhz)
            if lo[0] < hi or (lo[0] == hi and not lo[1]):
                raise ConfigError(f"buckets {a.label!r} and {b.label!r} overlap")


@dataclass(frozen=True)
class GraySpaceMap:
    """Per-cell gray space in MHz; NaN outside the municipality.  Kept as the
    distinct values (``levels``, one NaN level if any cell is invalid) and
    maximal row-major runs of them over ``shape``: neighbouring runs differ in
    level; ``run_length`` is the map's own, read-only.  ``values`` is built
    when first read."""

    levels: np.ndarray
    run_level: np.ndarray
    run_length: np.ndarray
    shape: tuple[int, int]

    def _cells(self, run_values: np.ndarray) -> np.ndarray:
        cells = np.repeat(run_values, self.run_length).reshape(self.shape)
        cells.setflags(write=False)
        return cells

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._cells(self.levels[self.run_level])

    def mean_mhz(self, n_valid: int) -> float:
        """``np.nanmean(values)`` to the bit, given the count of valid cells:
        the same pairwise sum over the same shape, then the same division."""
        return float(self._cells(np.nan_to_num(self.levels)[self.run_level]).sum() / n_valid)


@dataclass(frozen=True)
class CdfCurve:
    """Survival curve: percent of valid area with >= level MHz available."""

    levels_mhz: np.ndarray
    percent_area: np.ndarray


@dataclass(frozen=True)
class UtilizationTable:
    """Mean number of households per gray-space bucket.

    The trailing entry (label :data:`OTHER_BUCKET_LABEL`) collects every
    household whose cell value falls outside all configured buckets, so the
    rows sum to the households on non-NaN cells: all of them for a run's map,
    whose NaN cells hold none, while :func:`utilization_from_map` leaves out
    the households of a stored map's NaN cells.
    """

    labels: tuple[str, ...]
    mean_households: np.ndarray


@dataclass(frozen=True)
class MonteCarloResult:
    mean_map: GraySpaceMap
    cdf: CdfCurve
    utilization: UtilizationTable


@dataclass(frozen=True)
class _DeviceState:
    """Segments, receiver-set classes and the distinct receiver bitsets of
    one pair of footprints; none of it depends on the knowledge level."""

    segment_lengths: np.ndarray  # cells per segment, in flat cell order
    segment_valid: np.ndarray  # whether each segment's cells (all or none) are valid
    segment_class: np.ndarray  # class of each segment
    tokens: tuple[np.ndarray, ...]  # per word, its distinct uint64 values over the sets
    token_index: np.ndarray  # (words, sets) uint32: set s holds tokens[w][token_index[w, s]]
    co_index: np.ndarray  # set of each class's co-channel footprint (the first sets)
    adj_index: np.ndarray  # set of each class's adjacent footprint (after them)
    class_weights: np.ndarray  # (2, classes) valid cells and households per class


@dataclass(frozen=True)
class _Sweep:
    """Everything a worker needs to evaluate realizations of every pair."""

    households: np.ndarray  # households per receiver cell, in flat cell order
    devices: tuple[_DeviceState, ...]
    partition: UsagePartition  # of the variates, by the knowledge configs' thresholds
    pairs: tuple[tuple[int, int, int], ...]  # (device, knowledge, realizations)
    master_seed: int
    slot_table: np.ndarray  # usable slots per hit-mask key co | adj << 5


LANE = 16  # flag rows per pattern: float32 sums of up to 16 powers of two are exact


def _lane_tables(weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The flag rows the configs read, in lanes, each with its rows' powers of two and
    the (2, configs, 2**rows) slot-table key bits, co-channel then adjacent, per pattern."""
    rows = np.flatnonzero(weights.any(axis=0))
    lanes = []
    for lane in np.split(rows, range(LANE, len(rows), LANE)):
        table = np.zeros((len(weights), 1), dtype=np.uint16)
        for r in lane:  # the patterns with bit i set follow those without
            table = np.concatenate((table, table | weights[:, r, None]), axis=1)
        pow2 = 2 ** np.arange(len(lane), dtype=np.float32)
        lanes.append((lane, pow2, np.stack((table, table << 5))))
    return lanes


def _split(record: np.ndarray, n_levels: int) -> list[np.ndarray]:
    """A pair's int64 record, as views: its class slot sums, then its valid
    cells and its households per usable-slot count 0..n_levels - 1."""
    return np.split(record, [len(record) - 2 * n_levels, len(record) - n_levels])


def _accumulate(sweep: _Sweep, indices: Sequence[int]) -> list[np.ndarray]:
    """Integer totals per pair over a batch of realizations (order-independent):
    one int64 record per pair, laid out as :func:`_split` reads it.

    A pair takes part in the indices below its realization count.  Each
    index draws the household variates and packs the receivers' flag rows
    once; each device packs every token's hit rows into one integer per lane
    of rows, ORs them per set, and reads all its pairs' keys off the lane tables."""
    n_levels = int(sweep.slot_table[0]) + 1  # key 0: nothing hit, every slot usable
    totals = [np.zeros(len(sweep.devices[d].co_index) + 2 * n_levels, dtype=np.int64)
              for d, _, _ in sweep.pairs]
    views = [_split(record, n_levels) for record in totals]
    weights = sweep.partition.mux_weights
    lanes: dict[tuple[int, ...], list] = {}  # per device's active pairs
    flags = np.zeros((64 * -(-len(sweep.households) // 64), weights.shape[1]), dtype=np.uint8)
    for r in indices:
        active = [i for i, (_, _, n) in enumerate(sweep.pairs) if r < n]
        flags[: len(sweep.households)] = receiver_rows(sweep.partition, sweep.households,
                                                       sweep.master_seed, r)
        flag_words = np.packbits(flags, axis=0, bitorder="little").T.copy().view("<u8")
        for d in dict.fromkeys(sweep.pairs[i][0] for i in active):
            members = tuple(i for i in active if sweep.pairs[i][0] == d)
            if members not in lanes:
                lanes[members] = _lane_tables(weights[[sweep.pairs[i][1] for i in members]])
            state = sweep.devices[d]
            keys = np.zeros((len(members), len(state.co_index)), dtype=np.uint16)
            for lane, pow2, table in lanes[members]:
                pattern = np.zeros(state.token_index.shape[1], dtype=np.uint16)
                for tokens, index, row in zip(state.tokens, state.token_index, flag_words[lane].T):
                    hits = pow2 @ ((tokens & row[:, None]) != 0)
                    pattern |= hits.astype(np.uint16).take(index)  # take: no intp copy of index
                keys |= table[0].take(pattern.take(state.co_index), axis=1)
                keys |= table[1].take(pattern.take(state.adj_index), axis=1)
            for i, avail in zip(members, sweep.slot_table.take(keys)):
                slot_sum, cells, households = views[i]
                slot_sum += avail
                # two 1-D calls: a 2-D np.add.at over both rows is several times slower
                np.add.at(cells, avail, state.class_weights[0])
                np.add.at(households, avail, state.class_weights[1])
    return totals


_WORKER_SWEEP: _Sweep | None = None


def _init_worker(sweep: _Sweep) -> None:
    global _WORKER_SWEEP
    _WORKER_SWEEP = sweep


def _worker_accumulate(indices: Sequence[int]) -> list[np.ndarray]:
    assert _WORKER_SWEEP is not None
    return _accumulate(_WORKER_SWEEP, indices)


def _distinct_columns(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of (words, n) bitsets and each column's index.
    ``np.lexsort`` (one word: ``np.argsort``, 3x faster) orders the columns by
    their words; a sorted column is new where it differs from the one before.
    A grid without receivers has no words, so its columns are all one empty set."""
    if not len(bits):
        return bits[:, :1], np.zeros(bits.shape[1], dtype=np.intp)
    order = np.lexsort(bits) if len(bits) > 1 else np.argsort(bits[0])
    ordered = bits[:, order]
    new = np.concatenate(([True], (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)))
    index = np.empty_like(order)
    index[order] = np.cumsum(new) - 1
    return ordered[:, new], index


def _distinct_sparse_columns(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_distinct_columns` of mostly empty bitsets, sorting only the
    non-empty columns and one empty column, if there is one: the empty set
    sorts first, so it is set 0, the set of every other empty column."""
    keep = bits.any(axis=0)
    keep[np.argmin(keep)] = True  # the first empty column; a no-op if none is
    distinct, index = _distinct_columns(bits[:, keep])
    every = np.zeros(bits.shape[1], dtype=np.intp)
    every[keep] = index
    return distinct, every


def _build_state(grid: HouseholdGrid, receivers: np.ndarray, households: np.ndarray,
                 footprints: tuple[np.ndarray, np.ndarray]) -> _DeviceState:
    """The state of one checked footprint pair on ``grid``, whose receiver
    cells are the flat indices ``receivers`` holding ``households``."""
    starts, bitsets = receiver_segments(grid.valid, *np.divmod(receivers, grid.cols), footprints)
    co_bits, co_of = _distinct_columns(bitsets[0])
    # adjacent footprints are small: most segments have an empty adjacent set
    adj_bits, adj_of = _distinct_sparse_columns(bitsets[1])
    del bitsets  # the largest arrays of the build: freed before the word sorts
    token_index = np.empty((len(co_bits), co_bits.shape[1] + adj_bits.shape[1]), dtype=np.uint32)
    tokens = []
    for w, word in enumerate(token_index):  # one sort per word: its tokens, each set's token
        distinct, word[:] = _distinct_columns(np.concatenate((co_bits[w], adj_bits[w]))[None])
        tokens.append(distinct[0])
    n_adj = adj_bits.shape[1]
    pair = co_of * n_adj + adj_of  # segments of one pair form a class
    classes, segment_class = np.unique(pair, return_inverse=True)
    co_index, adj_index = np.divmod(classes, n_adj)
    # integers: exact past 2**53; np.add.at values have the index's own shape
    class_weights = np.zeros((2, len(classes)), dtype=np.int64)
    segment_valid, lengths = grid.valid.ravel()[starts], np.diff(starts, append=grid.counts.size)
    np.add.at(class_weights[0], segment_class, lengths * segment_valid)
    receiver_class = segment_class[np.searchsorted(starts, receivers, "right") - 1]
    np.add.at(class_weights[1], receiver_class, households)
    return _DeviceState(
        segment_lengths=lengths,
        segment_valid=segment_valid,
        segment_class=segment_class,
        tokens=tuple(tokens),
        token_index=token_index,
        co_index=co_index,
        adj_index=co_bits.shape[1] + adj_index,
        class_weights=class_weights,
    )


def _build_sweep(
    grid: HouseholdGrid,
    pairs: Sequence[tuple[Footprints, KnowledgeConfig]],
    plan: ChannelPlan,
    master_seed: int,
    realizations: Sequence[int],
) -> _Sweep:
    """Check every pair's footprints, then build the state of each distinct
    pair of them (equal halfwidth bytes) once."""
    devices = [_footprint_pair(fp) for fp, _ in pairs]
    keys = [(co.tobytes(), adj.tobytes()) for co, adj in devices]
    distinct = list(dict.fromkeys(keys))
    knowledge = list(dict.fromkeys(k for _, k in pairs))
    receivers = np.flatnonzero(grid.counts)
    households = grid.counts.ravel()[receivers]
    return _Sweep(
        households=households,
        devices=tuple(_build_state(grid, receivers, households, devices[keys.index(key)])
                      for key in distinct),
        partition=usage_partition(knowledge),
        pairs=tuple(
            (distinct.index(key), knowledge.index(k), n)
            for key, (_, k), n in zip(keys, pairs, realizations)
        ),
        master_seed=master_seed,
        slot_table=slot_table(plan),
    )


def _mean_map(class_mhz: np.ndarray, segment_class: np.ndarray, lengths: np.ndarray,
              valid: np.ndarray, grid: HouseholdGrid) -> GraySpaceMap:
    """Each class's value on its valid segments, NaN on the invalid ones, in
    maximal runs: neighbouring segments of one level merge into one run."""
    levels, level_of = np.unique(class_mhz, return_inverse=True)
    segment_level = np.where(valid, level_of[segment_class], len(levels))
    starts = np.flatnonzero(np.concatenate(([True], segment_level[1:] != segment_level[:-1])))
    run_length = np.add.reduceat(lengths, starts)
    run_length.setflags(write=False)
    if not valid.all():
        levels = np.append(levels, np.nan)
    return GraySpaceMap(levels, segment_level[starts], run_length, shape=grid.counts.shape)


def single_realization_map(
    grid: HouseholdGrid,
    footprints: Footprints,
    plan: ChannelPlan,
    knowledge: KnowledgeConfig,
    master_seed: int,
    realization_index: int = 0,
) -> GraySpaceMap:
    """Gray-space map (MHz) of one realization — the engine's inner step.

    Useful for coupled per-realization comparisons across devices or
    knowledge levels (same seed and index => same household variates).
    """
    # The pair takes part in every index up to realization_index, and the
    # sweep visits that one.
    sweep = _build_sweep(grid, [(footprints, knowledge)], plan, master_seed,
                         [realization_index + 1])
    (record,) = _accumulate(sweep, [realization_index])
    slot_sum, _, _ = _split(record, slot_count(plan) + 1)
    state = sweep.devices[0]
    slot_mhz = slot_sum * float(plan.channel_bandwidth_mhz)
    return _mean_map(slot_mhz, state.segment_class, state.segment_lengths, state.segment_valid,
                     grid)


def run_combinations(
    grid: HouseholdGrid,
    pairs: Sequence[tuple[Footprints, KnowledgeConfig]],
    plan: ChannelPlan,
    realizations: int = 100,
    master_seed: int = 0,
    buckets: Sequence[Bucket] = DEFAULT_BUCKETS,
    workers: int = 1,
) -> Iterator[MonteCarloResult]:
    """Run the Monte Carlo evaluation of every (device, knowledge) pair.

    A pair is ``(footprints, knowledge)``: a device's (co-channel, adjacent)
    footprints, per-row halfwidth arrays as
    :func:`~grayspace.griddata.footprints` builds them from a link budget,
    and a knowledge config.  Each adjacent row must lie inside its
    co-channel row.  Pairs with equal footprints share one state of
    segments and classes, built once, and the realizations are swept
    once: per index the household variates are drawn once and every pair
    reads them, so each result equals that of the pair run alone with the
    same seed.  KL1 is deterministic (usage is assumed, not sampled), so its
    pairs evaluate index 0 only; the output is identical for any
    ``realizations`` value.
    With ``workers > 1`` the indices are split across processes, at most
    one per usable CPU; integer partial sums keep the result bit-identical
    to the single-process run.

    The sweep runs, and every input error is raised, before this returns.
    The results are then yielded in pair order, one mean map at a time.
    """
    if realizations < 1:
        raise DomainError("realizations must be >= 1")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    _check_bucket_overlap(buckets)
    effective = [1 if k.level == "KL1" else realizations for _, k in pairs]
    # per realization, the totals add up to the valid cells, the slots and the households
    top, bound = max(effective, default=0), max(int(grid.valid.sum()), slot_count(plan))
    if top * bound >= 2**63:
        raise DomainError(f"realizations must be below {-(-2**63 // bound)} for 64-bit totals")
    if top * grid.total_households >= 2**63:
        raise DataError(f"{grid.total_households} households overflow 64-bit totals")
    sweep = _build_sweep(grid, pairs, plan, master_seed, effective)
    indices = range(top)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(workers, len(indices), cpus or 1)  # the CPUs this process may use
    if n_workers <= 1:
        totals = _accumulate(sweep, indices)
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [list(indices[i::n_workers]) for i in range(n_workers)]
        # Forked workers inherit initargs unpickled; a partial would pickle the sweep per chunk.
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(sweep,)
        ) as pool:
            parts = list(pool.map(_worker_accumulate, chunks))
        totals = [sum(records) for records in zip(*parts)]  # int64 records: + is exact
    devices = [(s.segment_class, s.segment_lengths, s.segment_valid) for s in sweep.devices]
    pair_devices = [d for d, _, _ in sweep.pairs]
    bandwidth = plan.channel_bandwidth_mhz
    levels = slot_levels_mhz(plan)

    # results() does not see the sweep, so the token tables are freed
    # when this returns; it drops each pair's totals once used.
    def results() -> Iterator[MonteCarloResult]:
        for d, n in zip(pair_devices, effective):
            slot_sum, cells, households = _split(totals.pop(0), len(levels))
            yield MonteCarloResult(
                mean_map=_mean_map(slot_sum * (bandwidth / n), *devices[d], grid),
                cdf=_survival(levels, cells, levels),
                utilization=_bucket_sums(levels, households, buckets, n),
            )

    return results()


# ---------------------------------------------------------------------------
# the tables, from distinct values (MHz) with their cells and households:
# the slot levels for a sweep, a stored map's values for the report command


def _survival(value: np.ndarray, cells: np.ndarray, levels: np.ndarray) -> CdfCurve:
    """Percent of the cells whose value is at least each level."""
    percent = ((value >= levels[:, None]) @ cells) * (100.0 / cells.sum())
    return CdfCurve(levels_mhz=levels, percent_area=percent)


def _bucket_sums(
    value: np.ndarray, households: np.ndarray, buckets: Sequence[Bucket], n: int = 1
) -> UtilizationTable:
    """Households per bucket, then in none of them, averaged over ``n`` realizations."""
    # disjoint buckets: "other" is every household not in one
    sums = [households[bucket.contains(value)].sum() for bucket in buckets]
    sums.append(households.sum() - sum(sums))
    labels = tuple(b.label for b in buckets) + (OTHER_BUCKET_LABEL,)
    return UtilizationTable(labels=labels, mean_households=np.array(sums) / n)


def _value_totals(values: np.ndarray, weights: np.ndarray | None = None,
                  capacity_mhz: float | None = None):
    """A map's distinct non-NaN values, each with its cell count or sum of
    ``weights``; with ``capacity_mhz``, each must lie in [0, capacity_mhz].
    The map is cut into runs of one bit pattern in row-major order, and only
    the runs' values are sorted."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64).ravel()
    cut = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=cut[1:])
    starts = np.flatnonzero(cut)
    distinct, token = np.unique(bits[starts], return_inverse=True)
    per_run = (np.diff(starts, append=bits.size) if weights is None
               else np.add.reduceat(weights.ravel(), starts))
    totals = np.zeros(distinct.size, dtype=np.int64)
    np.add.at(totals, token, per_run)
    distinct = distinct.view(np.float64)
    valid = ~np.isnan(distinct)
    value = distinct[valid]
    if capacity_mhz is not None and not ((value >= 0) & (value <= capacity_mhz)).all():
        raise DataError(f"map values must lie in [0, {_fmt(capacity_mhz)}] MHz")
    return value, totals[valid]


def cdf_from_map(values: np.ndarray, levels_mhz: Sequence[float],
                 capacity_mhz: float | None = None) -> CdfCurve:
    """Survival CDF of a single stored map; NaN cells are outside the area.
    With ``capacity_mhz``, a value outside [0, capacity_mhz] is a DataError."""
    value, cells = _value_totals(values, capacity_mhz=capacity_mhz)
    if not cells.sum():
        raise DataError("map has no valid cells")
    return _survival(value, cells, np.asarray(list(levels_mhz), dtype=np.float64))


def utilization_from_map(
    values: np.ndarray, counts: np.ndarray, buckets: Sequence[Bucket]
) -> UtilizationTable:
    """Household bucket sums of a single stored map.  ``counts`` follow the
    rule of :class:`~grayspace.griddata.HouseholdGrid`'s counts."""
    arr = np.asarray(values, dtype=np.float64)
    counts = _household_counts(counts)
    if arr.shape != counts.shape:
        raise DataError(f"map shape {arr.shape} does not match grid shape {counts.shape}")
    _check_bucket_overlap(buckets)
    return _bucket_sums(*_value_totals(arr, counts), buckets)


# ---------------------------------------------------------------------------
# output writers


def write_cdf_csv(path: str | Path, cdf: CdfCurve) -> None:
    lines = ["gray_mhz,percent_area"]
    for level, percent in zip(cdf.levels_mhz, cdf.percent_area):
        lines.append(f"{_fmt(level)},{_fmt(percent)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_utilization_csv(path: str | Path, table: UtilizationTable) -> None:
    lines = ["bucket,mean_households"]
    for label, mean in zip(table.labels, table.mean_households):
        lines.append(f"{label},{mean:.1f}")
    Path(path).write_text("\n".join(lines) + "\n")
