from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from grayspace.errors import DataError, DomainError
from grayspace.griddata import (
    HouseholdGrid,
    compensate_area,
    disc_halfwidths,
    ingest_grid,
    load_grid_csv,
    read_matrix_csv,
    read_matrix_rle,
    receiver_segments,
    refine_grid,
    write_grid_csv,
    write_matrix_csv,
    write_matrix_rle,
)


class TestIngest:
    def test_basic_layout(self):
        grid = ingest_grid([(1, 0, 5), (0, 2, 7)], resolution_m=1000.0)
        assert grid.counts.shape == (3, 2)
        assert grid.counts[0, 1] == 5
        assert grid.counts[2, 0] == 7
        assert grid.valid.all()
        assert grid.total_households == 12
        assert grid.municipal_area_km2 == grid.physical_area_km2

    def test_explicit_dimensions(self):
        grid = ingest_grid([(0, 0, 1)], resolution_m=1000.0, rows=4, cols=5)
        assert grid.counts.shape == (4, 5)
        with pytest.raises(DataError):
            ingest_grid([(6, 0, 1)], resolution_m=1000.0, rows=4, cols=5)

    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            ingest_grid([(0, 0, 1), (0, 0, 2)], resolution_m=1000.0)

    def test_rejects_negative_values(self):
        with pytest.raises(DataError):
            ingest_grid([(-1, 0, 1)], resolution_m=1000.0)
        with pytest.raises(DataError):
            ingest_grid([(0, 0, -1)], resolution_m=1000.0)

    def test_grid_invariants(self):
        with pytest.raises(DataError):
            HouseholdGrid(
                counts=np.ones((2, 2), dtype=np.int64),
                valid=np.zeros((2, 2), dtype=bool),
                resolution_m=1000.0,
                municipal_area_km2=4.0,
            )
        with pytest.raises(DataError):
            HouseholdGrid(
                counts=np.zeros((2, 2), dtype=np.int64),
                valid=np.ones((2, 2), dtype=bool),
                resolution_m=1000.0,
                municipal_area_km2=9.0,  # larger than the 4 km2 grid
            )

    @pytest.mark.parametrize(
        "counts,valid,message",
        [
            (np.zeros((2, 2)), np.ones((2, 3), dtype=bool), "2-D arrays of equal shape"),
            (np.zeros((0, 2)), np.ones((0, 2), dtype=bool), "at least one cell"),
            (np.array([[1, -1]]), np.ones((1, 2), dtype=bool), "must be non-negative"),
        ],
        ids=["shape-mismatch", "empty", "negative-count"],
    )
    def test_grid_rejects_bad_arrays(self, counts, valid, message):
        with pytest.raises(DataError, match=message):
            HouseholdGrid(counts, valid, resolution_m=1000.0, municipal_area_km2=1.0)

    @pytest.mark.parametrize("resolution", [0.0, -1000.0, float("nan"), float("inf")])
    def test_grid_rejects_bad_resolution(self, resolution):
        with pytest.raises(DomainError, match="resolution_m must be positive and finite"):
            HouseholdGrid(np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool),
                          resolution_m=resolution, municipal_area_km2=1.0)

    def test_arrays_are_frozen(self):
        grid = ingest_grid([(0, 0, 1)], resolution_m=1000.0)
        with pytest.raises(ValueError):
            grid.counts[0, 0] = 2


class TestGridCsv:
    def test_roundtrip(self, tmp_path):
        grid = ingest_grid(
            [(1, 0, 5), (0, 2, 7)], resolution_m=100.0, municipal_area_km2=0.05
        )
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        back = load_grid_csv(path)
        assert np.array_equal(back.counts, grid.counts)
        assert back.resolution_m == grid.resolution_m
        assert back.municipal_area_km2 == grid.municipal_area_km2

    def test_metadata_and_overrides(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# resolution_m=1000\nx,y,households\n0,0,3\n")
        assert load_grid_csv(path).resolution_m == 1000.0
        assert load_grid_csv(path, resolution_m=250.0).resolution_m == 250.0

    def test_requires_resolution(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("x,y,households\n0,0,3\n")
        with pytest.raises(DataError):
            load_grid_csv(path)

    def test_rejects_unknown_metadata(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# espresso=9\nx,y,households\n0,0,3\n")
        with pytest.raises(DataError):
            load_grid_csv(path)

    def test_plain_comments_are_skipped(self, tmp_path):
        path = tmp_path / "grid.csv"  # blank lines are skipped too
        path.write_text("# census export\n\n# resolution_m=1000\nx,y,households\n"
                        "0,0,3\n  \n1,1,4\n\n")
        assert load_grid_csv(path).counts.tolist() == [[3, 0], [0, 4]]

    @pytest.mark.parametrize(
        "meta",
        [
            "# rows=nan", "# rows=inf", "# rows=2.5", "# rows=-1", "# cols=abc",
            "# rows=1e30", "# resolution_m=nan", "# resolution_m=inf",
            "# resolution_m=-5", "# resolution_m=0",
            "# municipal_area_km2=nan", "# municipal_area_km2=-1",
            "# rows=2\n# rows=3",
        ],
    )
    def test_rejects_bad_metadata(self, tmp_path, meta):
        path = tmp_path / "grid.csv"
        path.write_text(f"{meta}\nx,y,households\n0,0,3\n")
        with pytest.raises(DataError):  # checked even where an argument overrides it
            load_grid_csv(path, resolution_m=1000.0)

    @pytest.mark.parametrize(
        "records",
        [[(0, 0, 2**63)], [(0, 0, 2**62), (1, 0, 2**62)], [(2**62, 0, 1)], [(2**70, 0, 1)]],
        ids=["count-past-int64", "total-past-int64", "size-past-2**63-bytes",
             "size-past-any-dimension"],
    )
    def test_rejects_what_int64_cannot_hold(self, records):
        with pytest.raises(DataError):
            ingest_grid(records, resolution_m=1000.0)

    @pytest.mark.parametrize(
        "name",
        ["clustered_100m.csv", "clustered_1km.csv", "scattered_100m.csv",
         "scattered_1km.csv", "vinje_synthetic_1km.csv"],
    )
    def test_shipped_grids_load_as_written(self, data_dir, name):
        lines = (data_dir / name).read_text().splitlines()
        meta = dict(line[2:].split("=") for line in lines if line.startswith("# "))
        body = [line for line in lines if line and not line.startswith("#")]
        assert body[0] == "x,y,households"
        x, y, households = np.loadtxt(body[1:], dtype=np.int64, delimiter=",").T
        counts = np.zeros((int(meta["rows"]), int(meta["cols"])), dtype=np.int64)
        counts[y, x] = households
        grid = load_grid_csv(data_dir / name)
        assert np.array_equal(grid.counts, counts)
        assert grid.valid.all()
        assert grid.resolution_m == float(meta["resolution_m"])
        assert grid.municipal_area_km2 == float(meta["municipal_area_km2"])

    def test_rejects_bad_records(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# resolution_m=1000\nx,y,households\n0,0\n")
        with pytest.raises(DataError, match=":3"):
            load_grid_csv(path)
        path.write_text("# resolution_m=1000\nx,y,households\n0,0,many\n")
        with pytest.raises(DataError):
            load_grid_csv(path)
        path.write_text("# resolution_m=1000\nnope\n")
        with pytest.raises(DataError):
            load_grid_csv(path)


class TestCompensation:
    def test_scan_order(self):
        grid = ingest_grid(
            [(2, 3, 9)], resolution_m=1000.0, rows=6, cols=6, municipal_area_km2=32.0
        )
        out, n = compensate_area(grid)
        assert n == 4
        # first four empty border cells: top row, left to right
        assert not out.valid[0, :4].any()
        assert out.valid[0, 4:].all()
        assert out.valid[1:].all()

    def test_household_cells_survive(self):
        records = [(x, 0, 3) for x in range(6)]  # full top row occupied
        grid = ingest_grid(
            records, resolution_m=1000.0, rows=6, cols=6, municipal_area_km2=32.0
        )
        out, n = compensate_area(grid)
        assert n == 4
        assert out.valid[0].all()  # scan skipped the occupied row
        assert not out.valid[5, :4].any()  # bottom row took the hit

    def test_noop_when_area_matches(self):
        grid = ingest_grid([(0, 0, 1)], resolution_m=1000.0, rows=4, cols=4)
        out, n = compensate_area(grid)
        assert n == 0
        assert out.valid.all()

    def test_shortfall_is_an_error(self):
        records = [(x, y, 1) for x in range(3) for y in range(3)]
        grid = ingest_grid(
            records, resolution_m=1000.0, municipal_area_km2=4.0
        )
        with pytest.raises(DataError, match="short"):
            compensate_area(grid)

    def test_fractional_cell_excess_rounds_down(self):
        grid = ingest_grid(
            [(0, 0, 1)], resolution_m=1000.0, rows=4, cols=4, municipal_area_km2=14.5
        )
        out, n = compensate_area(grid)
        assert n == 1  # 1.5 cells of excess -> 1 invalidated

    def test_second_call_changes_nothing(self, data_dir):
        once, n = compensate_area(load_grid_csv(data_dir / "vinje_synthetic_1km.csv"))
        assert n > 0
        again, m = compensate_area(once)
        assert again is once and m == 0
        valid_km2 = np.count_nonzero(once.valid) * once.cell_area_km2
        assert once.municipal_area_km2 - once.cell_area_km2 < valid_km2 <= once.municipal_area_km2


class TestRefine:
    def test_counts_move_to_center_subcell(self):
        grid = ingest_grid([(1, 0, 5)], resolution_m=1000.0, rows=2, cols=2)
        fine = refine_grid(grid, 10)
        assert fine.counts.shape == (20, 20)
        assert fine.resolution_m == 100.0
        assert fine.counts[5, 15] == 5
        assert fine.total_households == 5
        assert fine.municipal_area_km2 == grid.municipal_area_km2

    @pytest.mark.parametrize("factor", [0, -2])
    def test_factor_below_one(self, factor):
        grid = ingest_grid([(0, 0, 2)], resolution_m=1000.0, rows=1, cols=1)
        with pytest.raises(DomainError, match="factor must be >= 1"):
            refine_grid(grid, factor)

    def test_odd_factor(self):
        grid = ingest_grid([(0, 0, 2)], resolution_m=900.0, rows=1, cols=1)
        fine = refine_grid(grid, 3)
        assert fine.counts[1, 1] == 2

    def test_validity_is_inherited(self):
        grid = ingest_grid(
            [(2, 2, 4)], resolution_m=1000.0, rows=4, cols=4, municipal_area_km2=15.0
        )
        compensated, _ = compensate_area(grid)
        fine = refine_grid(compensated, 2)
        assert not fine.valid[0, 0] and not fine.valid[1, 1]
        assert fine.valid[4, 4]

    def test_compensating_a_refined_compensated_grid_changes_nothing(self):
        grid = ingest_grid(
            [(2, 2, 4)], resolution_m=1000.0, rows=4, cols=4, municipal_area_km2=15.0
        )
        fine = refine_grid(compensate_area(grid)[0], 2)
        again, n = compensate_area(fine)
        assert again is fine and n == 0


def _covers(hw, dx, dy):
    """Membership of offset (dx, dy) in a footprint, read off its halfwidths."""
    reach = len(hw) // 2
    return abs(dy) <= reach and abs(dx) <= hw[dy + reach]


class TestFootprint:
    def test_single_cell_radius(self):
        hw = disc_halfwidths(1)
        assert list(hw) == [1, 1, 1] and hw.dtype == np.int64
        assert _covers(hw, 0, 0)

    def test_four_cell_radius(self):
        assert list(disc_halfwidths(4)) == [3, 4, 4, 4, 4, 4, 4, 4, 3]

    @pytest.mark.parametrize("reach", [0, -1])
    def test_reach_must_be_at_least_one_cell(self, reach):
        with pytest.raises(DomainError, match=f"reach must be at least 1 cell, got {reach}"):
            disc_halfwidths(reach)

    @pytest.mark.parametrize("reach", [1, 2, 3, 5, 8, 13, 40])
    def test_symmetry(self, reach):
        fp = disc_halfwidths(reach)
        span = range(-reach - 1, reach + 2)
        for dx, dy in itertools.product(span, span):
            if _covers(fp, dx, dy):
                assert _covers(fp, -dx, dy)
                assert _covers(fp, dx, -dy)
                assert _covers(fp, dy, dx)

    @pytest.mark.parametrize("reach", [1, 2, 4, 9])
    def test_matches_box_distance_definition(self, reach):
        res, radius = 100.0, reach * 100.0
        fp = disc_halfwidths(reach)
        span = reach + 2
        for dy in range(-span, span + 1):
            for dx in range(-span, span + 1):
                gap_x = max(abs(dx) - 1, 0) * res
                gap_y = max(abs(dy) - 1, 0) * res
                inside = float(np.hypot(gap_x, gap_y)) < radius
                assert _covers(fp, dx, dy) == inside


def naive_protection_scan(
    receiver_mask: np.ndarray, radius_m: float, resolution_m: float
) -> np.ndarray:
    """Reference O(cells x receivers) protection computation, the oracle.

    Checks the minimum square-to-square distance of every (cell, receiver)
    pair directly, independently of footprints and segments.
    """
    mask = np.asarray(receiver_mask, dtype=bool)
    rows, cols = mask.shape
    out = np.zeros_like(mask)
    rys, rxs = np.nonzero(mask)
    if len(rys) == 0:
        return out
    ys, xs = np.indices((rows, cols))
    for ry, rx in zip(rys, rxs):
        gap_y = np.maximum(np.abs(ys - ry) - 1, 0) * resolution_m
        gap_x = np.maximum(np.abs(xs - rx) - 1, 0) * resolution_m
        out |= np.hypot(gap_x, gap_y) < radius_m
    return out


def segment_coverage(mask, hw):
    """Cells whose segment bitset holds any receiver."""
    starts, (bits,) = receiver_segments(mask.shape, *np.nonzero(mask), [hw])
    return np.repeat(bits.any(axis=0), np.diff(starts, append=mask.size)).reshape(mask.shape)


def footprint_stamp(mask, hw):
    """Cells covered by stamping the footprint's rows at every receiver,
    cell by cell."""
    rows, cols = mask.shape
    reach = len(hw) // 2
    out = np.zeros_like(mask)
    for r, c in zip(*np.nonzero(mask)):
        for dy in range(-reach, reach + 1):
            i = r + dy
            if not 0 <= i < rows:
                continue
            w = int(hw[dy + reach])
            for j in range(max(0, c - w), min(cols, c + w + 1)):
                out[i, j] = True
    return out


class TestSegmentCoverage:
    """A cell is covered where the receiver bitset of its segment, as cut by
    ``receiver_segments``, is non-zero; that must match both oracles."""

    def test_against_naive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            rows, cols = rng.integers(1, 30, 2)
            mask = rng.random((rows, cols)) < 0.1
            reach = int(rng.integers(1, 7))
            got = segment_coverage(mask, disc_halfwidths(reach))
            want = naive_protection_scan(mask, reach * 1000.0, 1000.0)
            assert np.array_equal(got, want)

    def test_against_footprint_stamp(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            reach = int(rng.integers(1, 12))
            fp = disc_halfwidths(reach)
            mask = rng.random((rows, cols)) < 0.08
            got = segment_coverage(mask, fp)
            assert np.array_equal(got, footprint_stamp(mask, fp)), (rows, cols, reach)

    def test_distributes_over_union(self):
        rng = np.random.default_rng(4)
        fp = disc_halfwidths(3)
        for _ in range(10):
            a = rng.random((20, 25)) < 0.05
            b = rng.random((20, 25)) < 0.05
            union = segment_coverage(a | b, fp)
            assert np.array_equal(union, segment_coverage(a, fp) | segment_coverage(b, fp))

    def test_empty_mask(self):
        assert not segment_coverage(np.zeros((5, 8), dtype=bool), disc_halfwidths(2)).any()

    def test_empty_seeds(self):
        mask = np.zeros((5, 9), dtype=bool)
        assert not segment_coverage(mask, disc_halfwidths(4)).any()

    def test_reach_one_is_three_by_three(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        out = segment_coverage(mask, disc_halfwidths(1))
        assert out.sum() == 9 and out[1:4, 1:4].all()

    def test_tiny_grids(self):
        mask = np.ones((1, 1), dtype=bool)
        assert segment_coverage(mask, disc_halfwidths(30)).all()
        mask = np.ones((1, 7), dtype=bool)
        assert segment_coverage(mask, disc_halfwidths(2)).all()

    def test_output_fresh_and_bool(self):
        mask = np.zeros((4, 4), dtype=bool)
        out = segment_coverage(mask, disc_halfwidths(3))
        assert out.dtype == np.bool_
        assert out is not mask


@st.composite
def _receivers(draw):
    """A small grid, distinct receiver cells in any order (up to 150, so
    bitsets span several words) and two reaches, some past the grid."""
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    n = draw(st.integers(0, min(150, rows * cols)))
    cells = draw(st.permutations(range(rows * cols)))[:n]
    reaches = draw(st.lists(st.integers(1, 30), min_size=2, max_size=2))
    return rows, cols, np.array(cells, dtype=np.int64), reaches


class TestReceiverSegments:
    @settings(max_examples=80, deadline=None)
    @given(_receivers())
    # a footprint wider than the grid: receiver 0's row runs abut, the stop
    # of row y being the start of row y + 1
    @example((3, 4, np.array([5, 0]), [30, 1]))
    # a receiver in the last cell: its runs stop at the grid's end
    @example((4, 5, np.array([19, 7]), [1, 2]))
    def test_bits_expand_to_each_receivers_scan(self, case):
        rows, cols, cells, reaches = case
        res = 100.0
        ys, xs = np.divmod(cells, cols)
        footprints = [disc_halfwidths(r) for r in reaches]
        starts, bitsets = receiver_segments((rows, cols), ys, xs, footprints)
        assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < rows * cols
        lengths = np.diff(starts, append=rows * cols)
        words = -(-len(cells) // 64)
        for reach, bits in zip(reaches, bitsets):
            assert bits.dtype == np.uint64 and bits.shape == (words, len(starts))
            for k, (y, x) in enumerate(zip(ys, xs)):
                bit = (bits[k // 64] >> np.uint64(k % 64)) & np.uint64(1)
                alone = np.zeros((rows, cols), dtype=bool)
                alone[y, x] = True
                want = naive_protection_scan(alone, reach * res, res)
                got = np.repeat(bit.astype(bool), lengths).reshape(rows, cols)
                assert np.array_equal(got, want), (k, reach)
            if len(cells) % 64:
                assert not (bits[-1] >> np.uint64(len(cells) % 64)).any()


def _per_cell_csv(values: np.ndarray) -> str:
    """The per-cell formatter write_matrix_csv replaced; the byte oracle."""
    arr = np.asarray(values)
    if arr.dtype == np.bool_:
        arr = arr.astype(np.int64)
    return "\n".join(",".join(f"{v:.10g}" for v in row) for row in arr) + "\n"


def _per_cell_rle(values: np.ndarray) -> str:
    """Runs of equal bit patterns found cell by cell; the byte oracle of
    write_matrix_rle."""
    arr = np.asarray(values)
    if arr.dtype == np.bool_:
        arr = arr.astype(np.int64)
    bits = arr.view(f"u{arr.dtype.itemsize}")
    lines = [f"# rle rows={arr.shape[0]} cols={arr.shape[1]}"]
    for row, row_bits in zip(arr, bits):
        runs = [list(run) for _, run in itertools.groupby(range(len(row)), row_bits.__getitem__)]
        lines.append(",".join(f"{len(run)}*{row[run[0]]:.10g}" for run in runs))
    return "\n".join(lines) + "\n"


_MATRIX_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9)
_TEN_DIGIT_FLOATS = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.integers(-(10**10), 10**10),
    st.integers(-12, 12),
)
#: The longest %.10g token, padded against one-character tokens in the table.
_LONGEST_TOKEN = float(np.finfo(np.float64).min)  # -1.797693135e+308


@st.composite
def _low_cardinality_matrices(draw):
    """1-4 values, including both zeros and both NaN signs, in runs up to two
    rows long, so that runs cross row ends and span whole rows."""
    pool = draw(
        st.lists(
            st.sampled_from([0.0, -0.0, np.nan, -np.nan, 8.0, 0.5, _LONGEST_TOKEN]),
            min_size=1,
            max_size=4,
            unique_by=lambda v: np.float64(v).tobytes(),
        )
    )
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, 2 * cols)),
            min_size=1,
            max_size=20,
        )
    )
    cells = np.repeat([v for v, _ in runs], [n for _, n in runs])
    return np.resize(cells, (rows, cols))


_MATRICES = st.one_of(
    _low_cardinality_matrices(),
    hnp.arrays(
        np.float64,
        _MATRIX_SHAPES,
        elements=st.one_of(
            st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]),
            st.floats(allow_nan=True, allow_infinity=True),
            _TEN_DIGIT_FLOATS,
        ),
    ),
    hnp.arrays(
        np.int64,
        _MATRIX_SHAPES,
        elements=st.one_of(
            st.integers(-(2**63), 2**63 - 1), st.integers(10**10, 10**12)
        ),
    ),
    hnp.arrays(np.bool_, _MATRIX_SHAPES),
    hnp.arrays(np.uint8, _MATRIX_SHAPES),
)


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


class TestMatrixIO:
    def test_csv_roundtrip_with_nan(self, tmp_path):
        values = np.array([[1.0, np.nan], [0.25, 120.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, values)
        back = read_matrix_csv(path)
        assert np.array_equal(back, values, equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(_MATRICES)
    @example(np.zeros((0, 0)))
    @example(np.zeros((0, 3)))
    @example(np.zeros((3, 0)))
    # runs equal under == but with different bits, crossing a row end
    @example(np.repeat([0.0, -0.0, np.nan, -np.nan, 0.0], [5, 7, 3, 6, 3]).reshape(4, 6))
    @example(np.array([[0.0, _LONGEST_TOKEN, 0.0], [_LONGEST_TOKEN, 0.0, 0.0]]))
    def test_csv_bytes_match_per_cell_formatting(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_matrix_csv(path, values)
            assert path.read_text() == _per_cell_csv(values)

    @pytest.mark.parametrize("writer", [write_matrix_csv, write_matrix_rle])
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_writers_reject_arrays_not_2d(self, tmp_path, writer, shape):
        path = tmp_path / "m.csv"
        with pytest.raises(DomainError, match="matrix must be 2-D"):
            writer(path, np.zeros(shape))
        assert not path.exists()

    def test_csv_bytes_of_strided_view(self, tmp_path):
        values = np.arange(48, dtype=np.float64).reshape(6, 8) / 7.0
        values[1, 1] = -0.0
        view = values[::2, ::3]
        write_matrix_csv(tmp_path / "m.csv", view)
        assert (tmp_path / "m.csv").read_text() == _per_cell_csv(view)

    def test_csv_reads_single_row_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n")
        assert read_matrix_csv(path).shape == (1, 3)
        path.write_text("1\n\n  \n2\n")
        assert read_matrix_csv(path).shape == (2, 1)

    def test_csv_rejects_ragged(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text",
        ["1,2\n3,abc\n", "# comment\n1,2\n", "1,2,\n", "", "\n  \n"],
        ids=["bad-token", "hash-line", "empty-field", "empty", "blank"],
    )
    def test_csv_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text,where,fragment",
        [
            ("1,2\n\n\n1,x\n", 4, "could not convert string 'x'"),
            ("1,2\n\n1,2,3\n", 3, "expected 2 values, got 3"),
            ("\n  \n1,2\n3,abc\n", 4, "could not convert string 'abc'"),
            ("1,2\n  \n1,2\n\n3\n", 5, "expected 2 values, got 1"),
            ("\n\n1,,3\n", 3, "could not convert string ''"),
        ],
        ids=["token-after-two-blanks", "ragged-after-blank", "token-after-leading-blanks",
             "ragged-after-repeats", "empty-field-after-blanks"],
    )
    def test_csv_error_names_the_files_line(self, tmp_path, text, where, fragment):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(DataError) as raised:
            read_matrix_csv(path)
        assert str(raised.value).startswith(f"{path}:{where}: ")
        assert fragment in str(raised.value)

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(
            st.sampled_from(["1,2,3", "nan,-0,0", " 4 ,inf,-nan", "1e3,2.5,-inf", "1,abc,3",
                             "1,2", "1,2,3,4", "1,,3", "#x,1,2"]),
            min_size=1, max_size=4, unique=True,
        ),
        picks=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["", "  ", None])),
                       min_size=1, max_size=12),
    )
    # a bad token, then a ragged row, each first seen after repeated rows
    @example(pool=["1,2,3", "1,abc,3"], picks=[(0, None), (0, ""), (0, None), (1, "  ")] * 2)
    @example(pool=["nan,-0,0", "1,2"], picks=[(0, ""), (0, None), (1, None), (0, None)])
    def test_csv_repeated_rows_read_as_every_row(self, pool, picks):
        lines = []
        for pick, blank in picks:
            lines.append(pool[pick % len(pool)])
            if blank is not None:
                lines.append(blank)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text("\n".join(lines) + "\n")
            rows = [line for line in lines if line.strip()]
            try:
                want = np.loadtxt(rows, dtype=np.float64, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                # the first line with a token that is no float, or with a
                # count of values unlike the first row's
                width = len(rows[0].split(","))
                for number, line in enumerate(lines, start=1):
                    bad = [t for t in line.split(",") if not _is_float(t)] if line.strip() else []
                    if bad or (line.strip() and len(line.split(",")) != width):
                        break
                with pytest.raises(DataError) as raised:
                    read_matrix_csv(path)
                message = str(raised.value)
                assert message.startswith(f"{path}:{number}: ")
                if bad:
                    assert f"could not convert string {bad[0]!r}" in message
                else:
                    assert message.endswith(f"expected {width} values, got {len(line.split(','))}")
            else:
                got = read_matrix_csv(path)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_rle_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 3, (17, 23)).astype(float)
        values[0, :] = np.nan
        path = tmp_path / "m.rle"
        write_matrix_rle(path, values)
        back = read_matrix_rle(path)
        assert np.array_equal(back, values, equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(_MATRICES)
    @example(np.array([[0.0, -0.0, 1.0]]))
    @example(np.zeros((2, 0)))
    @example(np.repeat([0.0, -0.0, np.nan, -np.nan, 0.0], [5, 7, 3, 6, 3]).reshape(4, 6))
    def test_rle_bytes_match_per_cell_runs(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.rle"
            write_matrix_rle(path, values)
            assert path.read_text() == _per_cell_rle(values)
            back = read_matrix_rle(path)
        want = np.asarray(values).astype(np.float64)
        assert back.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(np.signbit(back[~nan]), np.signbit(want[~nan]))

    @pytest.mark.parametrize("reader", [load_grid_csv, read_matrix_csv, read_matrix_rle])
    def test_unreadable_file_is_a_data_error(self, tmp_path, reader):
        path = tmp_path / "m.csv"
        path.write_bytes(b"# rle rows=1 cols=1\n1*\xff\n")
        for target in (path, tmp_path, tmp_path / "missing.csv"):
            with pytest.raises(DataError):
                reader(target)

    def test_rle_header_required(self, tmp_path):
        path = tmp_path / "m.rle"
        path.write_text("3*1\n")
        with pytest.raises(DataError):
            read_matrix_rle(path)

    def test_rle_row_length_checked(self, tmp_path):
        path = tmp_path / "m.rle"
        path.write_text("# rle rows=1 cols=4\n3*1\n")
        with pytest.raises(DataError):
            read_matrix_rle(path)

    @pytest.mark.parametrize(
        "text,where,fragment",
        [
            ("# rle rows=2 cols=2\n\n2*1\n\n1*1\n", 5, "row has 1 cells, expected 2"),
            ("\n# rle rows=2 cols=2\n2*1\n\n\n1*x,1*1\n", 6, "bad RLE token '1*x'"),
        ],
        ids=["short-row-after-blanks", "bad-token-after-blanks"],
    )
    def test_rle_error_names_the_files_line(self, tmp_path, text, where, fragment):
        path = tmp_path / "m.rle"
        path.write_text(text)
        with pytest.raises(DataError) as raised:
            read_matrix_rle(path)
        assert str(raised.value).startswith(f"{path}:{where}: ")
        assert fragment in str(raised.value)

    @pytest.mark.parametrize(
        "text",
        [
            "# rle rows=-1 cols=3\n",
            "# rle rows=1 cols=-3\n1*1\n",
            "# rle rows=1=2 cols=3\n3*1\n",
            "# rle rows=x cols=3\n3*1\n",
            "# rle cols=3\n3*1\n",
            "# rle rows=1 cols=4\n3*1,-2*2,3*3\n",
            "# rle rows=1 cols=5\n0*5,5*1\n",
            "# rle rows=1 cols=2\n2*abc\n",
            "# rle rows=2 cols=2\n2*1\n",
            "# rle rows=1000000000000 cols=1000000000000\n1*1\n",
            "# rle rows=1 cols=1000000000000\n1*1\n",
            f"# rle rows=1 cols={2**61}\n{2**61}*1\n",
        ],
        ids=["negative-rows", "negative-cols", "double-equals", "non-integer-rows",
             "missing-rows", "negative-count", "zero-count", "bad-value", "too-few-lines",
             "too-few-lines-huge", "short-row-huge-cols", "past-2**63-bytes"],
    )
    def test_rle_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "m.rle"
        path.write_text(text)
        with pytest.raises(DataError):
            read_matrix_rle(path)
