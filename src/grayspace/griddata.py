"""Household grids and protection-zone geometry.

A municipality is modelled as a regular grid of square cells; each cell
carries the number of TV-receiving households inside it.  Because positions
are only known to one cell, protection zones are built conservatively: a
cell is protected by a receiver cell when the *minimum* distance between the
two cell squares is below the protection radius, i.e. the receiver may sit
anywhere in its cell and the interferer anywhere in the protected cell.

The module covers CSV ingestion with sidecar metadata, compensation of the
mismatch between grid area and municipal area, disc footprints, protection
geometry, and matrix export as plain CSV.  Input files are data: a
malformed value, a repeated metadata key, a count or total past int64, a
grid with no valid cell or a declared size numpy cannot allocate is a
:class:`DataError`.  A disc footprint's
reach is a whole number of cells, and the footprint is kept as per-row
halfwidths only; :func:`footprints` is where a link budget becomes the
engine's (co-channel, adjacent) pair of them.

Protection geometry is built from footprint *runs*: a footprint stamped at
a receiver covers, on each grid row, one contiguous stretch of cells, which
is one half-open interval of the row-major flat cell index.
:func:`receiver_segments` cuts the flat cell order at every run end and
where validity changes, so that each resulting segment is covered by one
fixed set of receivers and is wholly valid or wholly invalid, and records
that set as a bitset; a cell is protected where its segment's bitset is
non-zero.  The bitsets are a running sum along the segments: receiver k
adds its bit where one of its runs starts and subtracts it where the run
stops, and since its runs never overlap no bit ever carries.

A matrix is written from run form, as an engine map holds it: its distinct
values (``levels``) and row-major runs of cells, each a position among them
and a length.  Each level is formatted once with ``%.10g`` in its dtype, so
``-0.0`` and ``0.0`` (and differently signed NaNs) keep their own text when
they are distinct levels.  The writer repeats a fixed-width byte table's
entry per run over its cells (a second half ends rows) and strips the
padding, which gives the bytes of formatting every cell on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DomainError
from .linkbudget import SeparationReport, quantize_cells

_METADATA_KEYS = ("rows", "cols", "resolution_m", "municipal_area_km2")
_BLANK = " \t"  # all that the readers strip around lines, keys and fields


@dataclass(frozen=True)
class HouseholdGrid:
    """Immutable raster of household counts plus a validity mask.

    ``counts[y, x]`` is the number of households in row y, column x; cells
    outside the municipality (after area compensation) have ``valid`` False
    and always zero households.  At least one cell is valid, and the counts
    and their total are whole numbers in [0, 2**63).
    """

    counts: np.ndarray
    valid: np.ndarray
    resolution_m: float
    municipal_area_km2: float

    def __post_init__(self) -> None:
        counts = _household_counts(self.counts)
        valid = _owned(self.valid, bool)
        if counts.ndim != 2 or counts.shape != valid.shape:
            raise DataError("counts and valid must be 2-D arrays of equal shape")
        if counts.size == 0:
            raise DataError("grid must contain at least one cell")
        if not valid.any():
            raise DataError("grid has no valid cells; nothing to evaluate")
        if (counts[~valid] > 0).any():
            raise DataError("household counts must be zero in invalid cells")
        if not (math.isfinite(self.resolution_m) and self.resolution_m > 0):
            raise DomainError("resolution_m must be positive and finite")
        physical = _area_km2(counts.size, self.resolution_m)
        if not math.isfinite(physical):
            raise DataError(
                f"a {counts.shape[0]}x{counts.shape[1]} grid of {self.resolution_m} m "
                "cells has no finite area"
            )
        if not (0 < self.municipal_area_km2 <= physical * (1 + 1e-9)):
            raise DataError(
                f"municipal_area_km2 ({self.municipal_area_km2}) must be positive "
                f"and no larger than the grid area ({physical} km2)"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "valid", valid)

    @property
    def rows(self) -> int:
        return self.counts.shape[0]

    @property
    def cols(self) -> int:
        return self.counts.shape[1]

    @property
    def cell_area_km2(self) -> float:
        return (self.resolution_m / 1000.0) ** 2

    @property
    def physical_area_km2(self) -> float:
        return self.counts.size * self.cell_area_km2

    @property
    def total_households(self) -> int:
        return int(self.counts.sum())


def _household_counts(values) -> np.ndarray:
    """``values`` as read-only int64 household counts.  Each must be a
    non-negative whole number within int64, and so must their exact total."""
    counts = np.asarray(values)
    if counts.dtype.kind not in "biu":  # the int64 cast would truncate, or wrap past 2**63
        exact = np.asarray(counts, dtype=np.float64)
        whole = ((np.floor(exact) == exact) & (np.abs(exact) < 2.0**63)).all()
    else:
        whole = counts.dtype.kind != "u" or not (counts > np.iinfo(np.int64).max).any()
    if not whole:
        raise DataError("household counts must be whole numbers within the int64 range")
    counts = _owned(counts, np.int64)
    if (counts < 0).any():
        raise DataError("household counts must be non-negative")
    total = sum(counts[counts > 0].tolist())  # Python ints: exact past 2**63
    if total > np.iinfo(np.int64).max:
        raise DataError(f"household counts total {total}, past the int64 range")
    return counts


def _owned(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` that no caller can write
    to: a writeable array is copied, a read-only one is used as it is."""
    arr = np.asarray(values)
    arr = np.array(arr, dtype=dtype) if arr.flags.writeable else arr.astype(dtype, copy=False)
    arr.setflags(write=False)
    return arr


def _read_lines(path: str | Path) -> list[str]:
    """The lines of an input file, split at ``"\\n"`` only; one not read as text is data."""
    try:
        return Path(path).read_text(encoding="utf-8-sig").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _area_km2(cells: int, resolution_m: float) -> float:
    """Area of ``cells`` square cells; inf where the square overflows."""
    try:
        return cells * (resolution_m / 1000.0) ** 2
    except OverflowError:
        return math.inf


def ingest_grid(
    records: Iterable[tuple[int, int, int]],
    resolution_m: float,
    municipal_area_km2: float | None = None,
    rows: int | None = None,
    cols: int | None = None,
) -> HouseholdGrid:
    """Build a grid from (x, y, households) cell records.

    Dimensions come from explicit ``rows``/``cols`` or, failing that, from
    the largest indices present.  Cells not listed hold zero households.
    Duplicate coordinates, negative values, counts that are not whole
    numbers within int64 or total past it, and sizes numpy cannot allocate
    are rejected.  Without a municipal area the grid area is used (no
    compensation will occur).
    """
    seen: set[tuple[int, int]] = set()
    entries: list[tuple[int, int, int]] = []
    total = 0
    for x, y, households in records:
        if x < 0 or y < 0:
            raise DataError(f"cell coordinates must be non-negative, got ({x}, {y})")
        if households < 0 or households % 1:  # NaN and inf leave a NaN remainder
            raise DataError(f"household count must be a non-negative whole number at "
                            f"({x}, {y}), got {households}")
        if (x, y) in seen:
            raise DataError(f"duplicate cell record for ({x}, {y})")
        seen.add((x, y))
        entries.append((x, y, households))
        total += households
    if total > np.iinfo(np.int64).max:
        raise DataError(f"household counts total {total}, past the int64 range")

    max_x = max((x for x, _, _ in entries), default=-1)
    max_y = max((_y for _, _y, _ in entries), default=-1)
    n_cols = cols if cols is not None else max_x + 1
    n_rows = rows if rows is not None else max_y + 1
    if n_rows <= 0 or n_cols <= 0:
        raise DataError("grid dimensions could not be determined from the records")
    if max_x >= n_cols or max_y >= n_rows:
        raise DataError(
            f"record at ({max_x}, {max_y}) falls outside the declared "
            f"{n_rows}x{n_cols} grid"
        )

    try:
        counts = np.zeros((n_rows, n_cols), dtype=np.int64)
    except (MemoryError, ValueError):  # ValueError past 2**63 bytes
        raise DataError(f"cannot allocate a {n_rows}x{n_cols} grid") from None
    for x, y, households in entries:
        counts[y, x] = households
    valid = np.ones_like(counts, dtype=bool)
    for arr in (counts, valid):  # the grid's alone, so it need not copy them
        arr.setflags(write=False)
    if municipal_area_km2 is None:
        municipal_area_km2 = _area_km2(counts.size, resolution_m)
    return HouseholdGrid(
        counts=counts,
        valid=valid,
        resolution_m=resolution_m,
        municipal_area_km2=float(municipal_area_km2),
    )


def load_grid_csv(
    path: str | Path,
    resolution_m: float | None = None,
    municipal_area_km2: float | None = None,
) -> HouseholdGrid:
    """Read a grid CSV: ``# key=value`` metadata lines, an ``x,y,households``
    header, then one record per non-empty cell.

    Recognized metadata keys: rows, cols, resolution_m, municipal_area_km2,
    each at most once.  ``rows`` and ``cols`` must be whole and non-negative,
    the other two positive and finite, even where an argument overrides
    them.  Explicit arguments override file metadata; the resolution must
    come from one of the two.
    """
    meta: dict[str, float] = {}
    records: list[tuple[int, int, int]] = []
    header_seen = False
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip(_BLANK)
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip(_BLANK)
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip(_BLANK)
                if key not in _METADATA_KEYS:
                    raise DataError(f"{path}:{lineno}: unknown metadata key {key!r}")
                if key in meta:
                    raise DataError(f"{path}:{lineno}: metadata key {key!r} repeated")
                try:
                    number = _number(float, value)
                except ValueError:
                    number = math.nan  # rejected below
                if key in ("rows", "cols"):
                    ok, need = number.is_integer() and number >= 0, "a whole number >= 0"
                else:
                    ok, need = math.isfinite(number) and number > 0, "positive and finite"
                if not ok:
                    raise DataError(
                        f"{path}:{lineno}: metadata key {key!r} must be {need}, "
                        f"got {value.strip(_BLANK)!r}"
                    )
                meta[key] = number
            continue
        if not header_seen:
            if [c.strip(_BLANK).lower() for c in line.split(",")] != ["x", "y", "households"]:
                raise DataError(f"{path}:{lineno}: expected header 'x,y,households'")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            x, y, households = (_number(int, part) for part in parts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer field") from None
        records.append((x, y, households))
    if not header_seen:
        raise DataError(f"{path}: missing 'x,y,households' header")

    if resolution_m is None:
        resolution_m = meta.get("resolution_m")
    if resolution_m is None:
        raise DataError(f"{path}: resolution_m missing from metadata and arguments")
    if municipal_area_km2 is None:
        municipal_area_km2 = meta.get("municipal_area_km2")
    rows = int(meta["rows"]) if "rows" in meta else None
    cols = int(meta["cols"]) if "cols" in meta else None
    return ingest_grid(
        records,
        resolution_m=resolution_m,
        municipal_area_km2=municipal_area_km2,
        rows=rows,
        cols=cols,
    )


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no control character but blanks at its ends."""
    return text.isascii() and text.strip(_BLANK).isprintable()


def _number(kind: type, text: str):
    """``kind(text)``, but a ValueError on ``_``, non-ASCII or a control other than end blanks:
    ``int`` and ``float`` read the first two and strip the last."""
    if "_" in text or not _plain(text):
        raise ValueError(text)
    return kind(text)


def write_grid_csv(path: str | Path, grid: HouseholdGrid) -> None:
    """Write a grid in the normalized ingestion format, records in row-major order."""
    lines = [
        f"# rows={grid.rows}",
        f"# cols={grid.cols}",
        f"# resolution_m={_fmt(grid.resolution_m)}",
        f"# municipal_area_km2={_fmt(grid.municipal_area_km2)}",
        "x,y,households",
    ]
    for y, x in zip(*np.nonzero(grid.counts)):  # np.nonzero goes in row-major order
        lines.append(f"{x},{y},{grid.counts[y, x]}")
    Path(path).write_text("\n".join(lines) + "\n")


def compensate_area(grid: HouseholdGrid) -> tuple[HouseholdGrid, int]:
    """Invalidate border cells so the valid area matches the municipal area.

    Zero-household cells are invalidated until
    floor((grid_area - municipal_area) / cell_area) cells are invalid,
    counting those already invalid, taking the border rings from the outside
    in.  Within a ring the order is its top row left to right, its bottom row
    (if it is another row), then its left and its right column (if another
    column) top to bottom between those rows, so the result is deterministic
    and a second call changes nothing.  Household cells are never touched; if
    too few empty cells are reachable the shortfall is a data error.  Returns
    the grid and the number of cells this call invalidated.
    """
    # The epsilon absorbs IEEE dust in cell_area (e.g. 0.1**2 != 0.01) that
    # could otherwise flip the floor by one whole cell.
    excess = (grid.physical_area_km2 - grid.municipal_area_km2) / grid.cell_area_km2
    target = int(math.floor(excess + 1e-9)) - grid.valid.size + int(np.count_nonzero(grid.valid))
    if target <= 0:
        return grid, 0
    valid = grid.valid.copy()
    flat_valid, flat_counts = valid.reshape(-1), grid.counts.reshape(-1)
    rows, cols = grid.counts.shape
    remaining = target
    for top in range((min(rows, cols) + 1) // 2):  # the ring `top` cells in from each edge
        bottom, right = rows - 1 - top, cols - 1 - top
        across = np.arange(top, right + 1)
        down = np.arange(top + 1, bottom) * cols
        ring = np.concatenate([y * cols + across for y in dict.fromkeys((top, bottom))]
                              + [down + x for x in dict.fromkeys((top, right))])
        free = ring[flat_valid[ring] & (flat_counts[ring] == 0)][:remaining]
        flat_valid[free] = False
        remaining -= len(free)
        if not remaining:
            break
    if remaining:
        raise DataError(
            f"area compensation needs {target} empty cells but only "
            f"{target - remaining} were available ({remaining} short)"
        )
    valid.setflags(write=False)
    return dataclasses.replace(grid, valid=valid), target


def refine_grid(grid: HouseholdGrid, factor: int) -> HouseholdGrid:
    """Split every cell into ``factor``x``factor`` subcells, moving each
    cell's households to the subcell containing the coarse cell's center.

    Validity is inherited by all subcells; resolution shrinks accordingly.
    """
    try:
        factor = operator.index(factor)
    except TypeError:
        raise DomainError(f"factor must be an integer, got {factor!r}") from None
    if factor < 1:
        raise DomainError("factor must be >= 1")
    rows, cols = grid.counts.shape
    counts = np.zeros((rows * factor, cols * factor), dtype=np.int64)
    mid = factor // 2
    ys, xs = np.nonzero(grid.counts)
    counts[ys * factor + mid, xs * factor + mid] = grid.counts[ys, xs]
    valid = np.repeat(np.repeat(grid.valid, factor, axis=0), factor, axis=1)
    for arr in (counts, valid):  # the grid's alone, so it need not copy them
        arr.setflags(write=False)
    return HouseholdGrid(
        counts=counts,
        valid=valid,
        resolution_m=grid.resolution_m / factor,
        municipal_area_km2=grid.municipal_area_km2,
    )


def disc_halfwidths(reach: int) -> np.ndarray:
    """Footprint of the cells whose square comes strictly within ``reach``
    cells of the receiver cell's square.  It is symmetric in both axes and
    row-convex, so it is kept as per-row halfwidths: ``halfwidths[dy + reach]``
    is the largest |dx| on row offset dy.  Integer arithmetic throughout, so
    offsets exactly ``reach`` cells away are decided exactly."""
    if reach < 1:
        raise DomainError(f"reach must be at least 1 cell, got {reach}")
    halfwidths = np.empty(2 * reach + 1, dtype=np.int64)
    for dy in range(-reach, reach + 1):
        gap = max(abs(dy) - 1, 0)
        # largest integer q with q^2 < reach^2 - gap^2 (strict), then one
        # more cell because squares a single step apart still touch
        q = math.isqrt(reach * reach - gap * gap - 1)
        halfwidths[dy + reach] = q + 1
    return halfwidths


def footprints(link: SeparationReport, grid: HouseholdGrid) -> tuple[np.ndarray, ...]:
    """The (co-channel, adjacent) footprints of ``link`` on ``grid``, the pair
    the engine sweeps: each separation rounded up to whole cells
    (:func:`~grayspace.linkbudget.quantize_cells`) and capped at ``rows + cols``
    cells, past which every receiver already covers every cell, as
    :func:`disc_halfwidths`."""
    cap = grid.rows + grid.cols
    return tuple(disc_halfwidths(min(quantize_cells(distance, grid.resolution_m), cap))
                 for distance in (link.min_distance_co_m, link.min_distance_adjacent_m))


#: A device's (co-channel, adjacent) footprints, each as per-row halfwidths.
Footprints = Sequence[np.ndarray]


def _footprint_pair(pair: Footprints) -> tuple[np.ndarray, np.ndarray]:
    """``pair`` as int64 (co-channel, adjacent) footprints, checked: each is a
    1-D integer array of odd length with entries >= 0, and each adjacent row
    lies inside its co-channel row, so that no receiver covers a cell with its
    adjacent footprint and not with its co-channel one."""
    try:
        co, adj = map(np.asarray, pair)
        odd_rows = all(f.ndim == 1 and f.dtype.kind in "iu" and len(f) % 2 for f in (co, adj))
    except (TypeError, ValueError):  # say, a link budget where its footprints belong
        odd_rows = False
    if not odd_rows:
        raise DomainError("footprints must be a (co-channel, adjacent) pair of 1-D integer "
                          "arrays of odd length, as footprints(link, grid) builds them")
    co, adj = co.astype(np.int64), adj.astype(np.int64)  # uint64 past int64 wraps below 0
    if (co < 0).any() or (adj < 0).any():
        raise DomainError("footprint halfwidths must be >= 0 within int64")
    c, a = len(co) // 2, len(adj) // 2
    if a > c or (adj > co[c - a : c + a + 1]).any():
        raise DomainError("an adjacent footprint must lie inside its co-channel one, row by row")
    return co, adj


def _footprint_runs(
    shape: tuple[int, int],
    seed_rows: np.ndarray,
    seed_cols: np.ndarray,
    halfwidths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of the footprint of ``halfwidths`` (:func:`disc_halfwidths`)
    stamped at every seed, clipped to the grid.

    Returns ``(seed, start, stop)``: run i covers the flat row-major cell
    indices ``start[i] <= j < stop[i]`` around seed number ``seed[i]``.
    A seed's runs lie on distinct rows, so they never overlap.
    """
    rows, cols = shape
    seed_rows = np.asarray(seed_rows, dtype=np.int64)
    seed_cols = np.asarray(seed_cols, dtype=np.int64)
    full = len(halfwidths) // 2
    reach = min(full, rows - 1)  # farther rows never land on the grid
    dy = np.arange(-reach, reach + 1, dtype=np.int64)
    hw = np.minimum(halfwidths[full - reach : full + reach + 1], cols)  # no int64 overflow
    run_rows = seed_rows[:, None] + dy
    inside = (run_rows >= 0) & (run_rows < rows)
    lo = np.maximum(seed_cols[:, None] - hw, 0)
    hi = np.minimum(seed_cols[:, None] + hw, cols - 1)
    seed = np.broadcast_to(np.arange(len(seed_rows))[:, None], run_rows.shape)
    return (
        seed[inside],
        (run_rows * cols + lo)[inside],
        (run_rows * cols + hi + 1)[inside],
    )


def receiver_segments(
    valid: np.ndarray,
    seed_rows: np.ndarray,
    seed_cols: np.ndarray,
    footprints: Sequence[np.ndarray],
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Split the grid of mask ``valid`` into segments of fixed receiver sets.

    Receiver k sits at ``(seed_rows[k], seed_cols[k])``, and each footprint
    is given by its halfwidths (:func:`disc_halfwidths`).  The flat
    row-major cell order is cut at every run end of every footprint and
    where validity changes, so within a segment neither changes.  Returns
    ``(starts, bitsets)``: ``starts`` are the first flat cell index of each
    segment (beginning at 0, strictly increasing), and ``bitsets[f]`` is a
    ``(words, segments)`` uint64 array, words little-endian in receiver
    order, whose bit k of word ``k // 64`` is set where footprint f of
    receiver k covers the segment.
    """
    n_cells = valid.size
    runs = [_footprint_runs(valid.shape, seed_rows, seed_cols, fp) for fp in footprints]
    cut = np.zeros(n_cells + 1, dtype=bool)
    cut[0] = cut[n_cells] = True  # a run may stop at n_cells: the last column takes those
    cut[1:n_cells] = np.diff(valid.ravel())
    for _, start, stop in runs:
        cut[start] = cut[stop] = True
    starts = np.flatnonzero(cut[:n_cells])
    # count[j], the cuts at or before cell j (at most n_cells + 1): cut cell j
    # starts segment count[j] - 1, and n_cells is the last column
    count = cut.astype(np.int32 if n_cells < 2**31 - 1 else np.intp)
    np.cumsum(count, out=count)
    words = -(-len(seed_rows) // 64)
    width = len(starts) + 1
    bitsets = []
    for seed, start, stop in runs:
        # Add bit k where a run of receiver k begins and subtract it (mod
        # 2**64) where the run stops, then a running sum along the segments
        # leaves it set in between.  A receiver's runs lie on distinct rows
        # and never overlap, so each bit counts 0 or 1 and never carries.
        bit = np.left_shift(np.uint64(1), (seed % 64).astype(np.uint64))
        at = np.tile(seed // 64 * width - 1, 2) + count[np.concatenate((start, stop))]
        bits = np.zeros((words, width), dtype=np.uint64)
        np.add.at(bits.reshape(-1), at, np.concatenate((bit, -bit)))
        bitsets.append(np.cumsum(bits, axis=1, out=bits)[:, :-1])
    return starts, tuple(bitsets)


# ---------------------------------------------------------------------------
# matrix export: plain CSV


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def write_matrix_csv(path: str | Path, levels, run_level, run_length, shape) -> None:
    """Rows of comma-separated values (%.10g) of a matrix given in row-major
    runs: run i is ``run_length[i]`` >= 0 cells of ``levels[run_level[i]]``;
    NaN marks invalid cells.  The runs cover the cells of ``shape``, which is
    2-D with at least one cell, so that the reader takes the file back."""
    if len(shape) != 2 or not (cells := math.prod(shape)):
        raise DomainError(f"matrix must be 2-D with at least one cell, got shape {tuple(shape)}")
    run_level, run_length = np.asarray(run_level), np.asarray(run_length)
    if run_level.shape != run_length.shape or (run_length < 0).any() or run_length.sum() != cells:
        raise DomainError(f"runs must each have a length >= 0, summing to {cells} cells")
    if run_level.dtype.kind not in "iu" or run_level.min() < 0 or run_level.max() >= len(levels):
        raise DomainError(f"run levels must be integers in [0, {len(levels)}), positions of levels")
    table = np.array([_fmt(v) + end for end in ",\n" for v in levels], dtype="S")
    out = np.repeat(table[run_level], run_length)
    row_ends = np.arange(shape[1] - 1, cells, shape[1])  # each row's last cell
    run_of = np.searchsorted(np.cumsum(run_length), row_ends, "right")  # the run holding it
    out[row_ends] = table[len(levels) + run_level[run_of]]  # from the half that ends rows
    Path(path).write_bytes(out.tobytes().translate(None, b"\0"))


_CHUNK = 1 << 17  # bytes of whole rows that the map reader tokenizes at once
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # low n bytes
_PARSE = functools.partial(np.loadtxt, dtype=np.float64, delimiter=",", ndmin=2, comments=None)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Inverse of :func:`write_matrix_csv`; blank lines are skipped.  Each run
    of byte-equal fields in a row is parsed once, at its first field.  A
    field that is no number (``#`` lines included) or that breaks the grid
    files' character rule, a ragged row or an empty file is a data error;
    the first two name the file's line.
    """
    try:
        runs = _matrix_runs(path)
    except ValueError as exc:
        width = None
        for number, line in enumerate(_read_lines(path), start=1):  # the first bad line
            if line.strip(_BLANK):
                for column, field in enumerate(line.split(","), start=1):
                    if not _plain(field):  # in numpy's words, though its parser strips some
                        raise DataError(f"{path}:{number}: could not convert string {field!r} "
                                        f"to float64 at column {column}.")
                try:
                    n = _PARSE([line]).shape[1]
                except ValueError as bad:  # numpy counts the one line it was given as row 0
                    reason = str(bad).replace("at row 0, ", "at ")
                    raise DataError(f"{path}:{number}: {reason}") from None
                width = width or n
                if n != width:
                    raise DataError(f"{path}:{number}: expected {width} values, got {n}")
        raise DataError(f"{path}: {exc}") from None
    if runs is None:
        raise DataError(f"{path}: empty matrix")
    values, lengths, shape = runs  # the file's bytes are freed before the matrix is filled
    return np.repeat(values, lengths).reshape(shape)


def _matrix_runs(path: str | Path) -> tuple[np.ndarray, np.ndarray, tuple[int, int]] | None:
    """``(values, lengths, shape)`` of the CSV matrix in ``path``, in
    row-major runs of byte-equal fields; None if every line is blank.

    The file is read as bytes, as :func:`_read_lines` reads it as text, in
    chunks of whole rows.  A field starts a run unless it has the length and
    the bytes of the field before it in its row; the bytes are compared as
    little-endian 8-byte keys, read through a view that starts one at every
    byte.  Only the first field of each run (its head) is parsed, as one
    ``loadtxt`` line per chunk.
    A DataError if the file cannot be read; a ValueError if a head is no
    number or breaks the character rule, or if the rows' widths differ.
    """
    try:
        with open(path, "rb") as file:  # with room for a last "\n" and the last key, uncopied
            data = bytearray(os.fstat(file.fileno()).st_size + 9)
            del data[file.readinto(data):]
            data += file.read()  # the rest, if the file grew or has no size
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    if data.startswith(b"\xef\xbb\xbf"):  # as utf-8-sig reads it
        del data[:3]
    if b"\r" in data:  # as universal newlines read it
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    end = len(data)
    data += bytes(8)  # the key of the last byte reads 7 past it
    buf = np.frombuffer(data, dtype=np.uint8)
    values, lengths, widths = [], [], []
    start = 0
    while start < end:
        stop = data.find(b"\n", min(start + _CHUNK, end) - 1) + 1
        chunk = buf[start:stop]
        keys = np.ndarray((stop - start,), "<u8", data, start, (1,))
        start = stop
        last = np.flatnonzero((chunk == 44) | (chunk == 10))  # each field's "," or "\n"
        first = np.concatenate(([0], last[:-1] + 1))
        size = last - first
        line_end = np.flatnonzero(chunk.take(last) == 10)
        head = np.concatenate(([True], size[1:] != size[:-1]))
        head[line_end[:-1] + 1] = True  # so that a skipped blank line's run ends at its row
        # take copies the whole view, which beats indexing it for every field
        key = keys.take(first) & _KEY_MASKS.take(size, mode="clip")
        head[1:] |= key[1:] != key[:-1]
        for k in range(8, int(size.max()), 8):  # index the few fields still tied, past byte k
            tie = np.flatnonzero(~head & (size > k))
            key = keys[first[tie] + k] ^ keys[first[tie - 1] + k]
            head[tie] = (key & _KEY_MASKS.take(size[tie] - k, mode="clip")) != 0
        at = np.flatnonzero(head)
        run = np.diff(at, append=len(last))
        width = np.diff(line_end, prepend=-1)  # fields per line
        if (alone := np.flatnonzero(width == 1)).size:
            # a line of one field is blank if it holds only spaces and tabs
            filled = np.concatenate(([0], np.cumsum((chunk != 32) & (chunk != 9))))
            field = line_end[alone]
            blank = filled[last[field]] == filled[first[field]]
            head[field[blank]] = False
            keep = head[at]
            at, run, width = at[keep], run[keep], np.delete(width, alone[blank])
        widths.append(width)
        if not at.size:
            continue
        text = chunk[np.repeat(head, size + 1)]  # the heads' bytes, each with its separator
        # _plain is the rule; loadtxt would strip these controls around a
        # number, decode rejects non-ASCII, and the parser DEL or inner tabs
        if ((text < 32) & (text != 9) & (text != 10)).any():
            raise ValueError("a field holds a control character")
        parsed = _PARSE([text[:-1].tobytes().replace(b"\n", b",").decode("ascii")]).ravel()
        if parsed.size != at.size:
            raise ValueError(f"{parsed.size} values from {at.size} fields")
        values.append(parsed)
        lengths.append(run)
    del data, buf, chunk, keys  # the file's bytes, before the runs are joined
    width = np.concatenate(widths)
    if not width.size:
        return None
    if (width != width[0]).any():
        raise ValueError("rows of different widths")
    return np.concatenate(values), np.concatenate(lengths), (width.size, width[0])
