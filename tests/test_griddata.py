from __future__ import annotations

import itertools
import math
import tempfile
import warnings
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
    receiver_segments,
    refine_grid,
    write_grid_csv,
    write_matrix_csv,
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
            (np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), "no valid cells"),
        ],
        ids=["shape-mismatch", "empty", "negative-count", "no-valid-cells"],
    )
    def test_grid_rejects_bad_arrays(self, counts, valid, message):
        with pytest.raises(DataError, match=message):
            HouseholdGrid(counts, valid, resolution_m=1000.0, municipal_area_km2=1.0)

    @pytest.mark.parametrize("resolution", [0.0, -1000.0, float("nan"), float("inf")])
    def test_grid_rejects_bad_resolution(self, resolution):
        with pytest.raises(DomainError, match="resolution_m must be positive and finite"):
            HouseholdGrid(np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool),
                          resolution_m=resolution, municipal_area_km2=1.0)

    @pytest.mark.parametrize("count", [2.5, 0.5, math.nan, math.inf],
                             ids=["fraction", "half", "nan", "inf"])
    def test_ingest_rejects_counts_that_are_not_whole(self, count):
        with pytest.raises(DataError, match="non-negative whole number"):
            ingest_grid([(0, 0, count), (1, 0, 1)], resolution_m=1000.0)

    @pytest.mark.parametrize(
        "counts",
        [[1.5, 2.7], [math.nan, 1.0], [math.inf, 1.0], [1e30, 1.0], [2.0**63, 0.0],
         np.array([2**63, 1], dtype=np.uint64)],
        ids=["fraction", "nan", "inf", "1e30", "2**63", "uint64-2**63"],
    )
    def test_grid_rejects_counts_int64_cannot_hold_exactly(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any cast could warn or wrap
            with pytest.raises(DataError, match="whole numbers within the int64 range"):
                HouseholdGrid(np.array([counts]), np.ones((1, 2), dtype=bool),
                              resolution_m=1000.0, municipal_area_km2=2.0)

    def test_total_past_int64_is_rejected_both_ways(self):
        with pytest.raises(DataError, match="total 9223372036854775808, past the int64 range"):
            HouseholdGrid(np.array([[2**62, 2**62]]), np.ones((1, 2), dtype=bool),
                          resolution_m=1000.0, municipal_area_km2=2.0)
        with pytest.raises(DataError, match="total 9223372036854775808, past the int64 range"):
            ingest_grid([(0, 0, 2**62), (1, 0, 2**62)], resolution_m=1000.0)
        top = ingest_grid([(0, 0, 2**62), (1, 0, 2**62 - 1)], resolution_m=1000.0)
        assert top.total_households == 2**63 - 1  # the largest total is kept

    def test_whole_counts_are_kept(self):
        assert ingest_grid([(0, 0, 2.0), (1, 0, 3)], resolution_m=1000.0).counts.tolist() == [
            [2, 3]
        ]
        grid = HouseholdGrid(np.array([[2.0, 2.0**62]]), np.ones((1, 2), dtype=bool),
                             resolution_m=1000.0, municipal_area_km2=2.0)
        assert grid.counts.dtype == np.int64 and grid.counts.tolist() == [[2, 2**62]]
        counts = np.array([[0, 2]], dtype=np.int64)  # read-only int64 input is used as it is
        counts.setflags(write=False)
        grid = HouseholdGrid(counts, np.ones((1, 2), dtype=bool), resolution_m=1000.0,
                             municipal_area_km2=1.0)
        compensated, invalidated = compensate_area(grid)
        assert grid.counts is counts and invalidated == 1 and compensated.counts is counts

    def test_arrays_are_frozen(self):
        grid = ingest_grid([(0, 0, 1)], resolution_m=1000.0)
        with pytest.raises(ValueError):
            grid.counts[0, 0] = 2

    def test_callers_arrays_stay_writeable(self):
        counts, valid = np.array([[1, 2]]), np.ones((1, 2), dtype=bool)
        grid = HouseholdGrid(counts, valid, resolution_m=1000.0, municipal_area_km2=2.0)
        assert counts.flags.writeable and valid.flags.writeable
        assert not (grid.counts.flags.writeable or grid.valid.flags.writeable)
        counts[0, 0] = valid[0, 0] = 0  # the grid holds its own copies
        assert grid.counts.tolist() == [[1, 2]] and grid.valid.all()


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
            # float() reads digit separators and non-ASCII digits and spaces
            "# rows=1_0", "# resolution_m=1_000", "# cols=\u0661", "# rows=\u00a02",
            "# rows=2\u00a0",
            # str.strip takes non-ASCII spaces, and int and float take controls
            "# resolution_m\u00a0=1000", "#\u00a0rows=2", "# rows=2\f", "# rows=\x1c2",
        ],
    )
    def test_rejects_bad_metadata(self, tmp_path, meta):
        path = tmp_path / "grid.csv"
        path.write_text(f"{meta}\nx,y,households\n0,0,3\n")
        with pytest.raises(DataError) as error:  # checked even where an argument overrides it
            load_grid_csv(path, resolution_m=1000.0)
        if "1e30" not in meta:  # a size numpy cannot allocate is past the metadata lines
            assert f"grid.csv:{meta.count(chr(10)) + 1}: " in str(error.value)

    @pytest.mark.parametrize(
        "records",
        [[(0, 0, 2**63)], [(0, 0, 2.0**63)], [(0, 0, 1e30), (1, 0, 1)],
         [(0, 0, 2**62), (1, 0, 2**62)], [(2**62, 0, 1)], [(2**70, 0, 1)]],
        ids=["count-past-int64", "float-count-past-int64", "float-count-1e30",
             "total-past-int64", "size-past-2**63-bytes", "size-past-any-dimension"],
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
        # int() reads digit separators and non-ASCII digits and spaces
        for record in ("1_0,0,5", "0,0,1_0", "\u0661,0,5", "0,0,\uff15", "0,\u00a00,5",
                       "0,0,5\u00a0", "\u20030,0,5", "0,0,5\f", "\x0b0,0,5", "0,\x1f0,5"):
            path.write_text(f"# resolution_m=1000\nx,y,households\n0,1,2\n{record}\n")
            with pytest.raises(DataError, match=":4: non-integer field"):
                load_grid_csv(path)
        path.write_text("# resolution_m=1000\nx,y,households\n0,1,2\n \t0 ,\t0,5\t\n")
        assert load_grid_csv(path).counts.tolist() == [[5], [2]]  # blanks are spaces and tabs

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\f", "\x0b", "\x1c"])
    def test_lines_end_at_newlines_only(self, tmp_path, separator):
        # str.splitlines also breaks lines at these, which made one line two records
        path = tmp_path / "grid.csv"
        path.write_text(f"# resolution_m=1000\nx,y,households\n0,0,5{separator}1,1,3\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"grid\.csv:3: expected 3 fields, got 5"):
            load_grid_csv(path)

    def test_header_blanks_are_spaces_and_tabs(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# resolution_m=1000\n\t x , Y,households \n0,0,5\n")
        assert load_grid_csv(path).counts.tolist() == [[5]]
        path.write_text("# resolution_m=1000\n\u00a0x,y,households\n0,0,5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"grid\.csv:2: expected header"):
            load_grid_csv(path)


def _walked_compensation(grid):
    """Area compensation walked one cell at a time: (valid mask, count) or the
    shortfall's message.  Rings go from the outside in; each is its top row,
    its bottom row, its left column and its right column, a row or column
    once where two coincide."""
    rows, cols = grid.counts.shape
    order = []
    for ring in itertools.count():
        top, bottom, left, right = ring, rows - 1 - ring, ring, cols - 1 - ring
        if top > bottom or left > right:
            break
        for y in sorted({top, bottom}):
            order += [(y, x) for x in range(left, right + 1)]
        for x in sorted({left, right}):
            order += [(y, x) for y in range(top + 1, bottom)]
    assert sorted(order) == list(itertools.product(range(rows), range(cols)))
    excess = (grid.physical_area_km2 - grid.municipal_area_km2) / grid.cell_area_km2
    target = math.floor(excess + 1e-9) - int((~grid.valid).sum())
    valid, taken = grid.valid.copy(), 0
    for y, x in order:
        if taken >= target:
            break
        if valid[y, x] and grid.counts[y, x] == 0:
            valid[y, x], taken = False, taken + 1
    if taken < target:
        return (f"area compensation needs {target} empty cells but only {taken} were "
                f"available ({target - taken} short)")
    return valid, max(target, 0)


def _check_against_walk(grid):
    want = _walked_compensation(grid)
    if isinstance(want, str):
        with pytest.raises(DataError) as raised:
            compensate_area(grid)
        assert str(raised.value) == want
        return
    out, n = compensate_area(grid)
    assert (out.valid.tolist(), n) == (want[0].tolist(), want[1])
    assert out.counts is grid.counts and not out.valid.flags.writeable
    assert (out is grid) == (n == 0)


@st.composite
def _compensable_grids(draw):
    """Small grids, 1xN and Nx1 included, with some cells invalid and some
    holding households, and a municipal area from no excess to past what
    their empty valid cells can give."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    counts = draw(hnp.arrays(np.int64, (rows, cols), elements=st.sampled_from([0, 0, 0, 1, 7])))
    valid = draw(hnp.arrays(bool, (rows, cols), elements=st.sampled_from([True, True, False])))
    valid[np.unravel_index(draw(st.integers(0, rows * cols - 1)), valid.shape)] = True
    counts[~valid] = 0
    resolution = draw(st.sampled_from([1000.0, 100.0, 250.0]))
    cell = (resolution / 1000.0) ** 2
    cells = draw(st.integers(1, rows * cols)) - draw(st.sampled_from([0.0, 0.5, 0.999]))
    return HouseholdGrid(counts, valid, resolution, municipal_area_km2=cells * cell)


class TestCompensation:
    @settings(max_examples=300, deadline=None)
    @given(grid=_compensable_grids())
    @example(grid=HouseholdGrid(np.zeros((1, 7), np.int64), np.ones((1, 7), bool), 1000.0, 2.0))
    @example(grid=HouseholdGrid(np.zeros((7, 1), np.int64), np.ones((7, 1), bool), 1000.0, 2.0))
    @example(grid=HouseholdGrid(np.eye(3, dtype=np.int64), np.ones((3, 3), bool), 1000.0, 1.0))
    @example(grid=HouseholdGrid(np.asfortranarray(np.eye(4, 5, 1, dtype=np.int64)),
                                np.asfortranarray(np.ones((4, 5), bool)), 1000.0, 9.0))
    def test_equals_a_cell_by_cell_walk(self, grid):
        _check_against_walk(grid)

    def test_refined_vinje_equals_a_cell_by_cell_walk(self, data_dir):
        fine = refine_grid(load_grid_csv(data_dir / "vinje_synthetic_1km.csv"), 10)
        assert compensate_area(fine)[1] > 10**4  # many rings deep
        _check_against_walk(fine)

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


class TestByteOrderMark:
    """A UTF-8 byte-order mark before an input's first line is not data;
    every other byte keeps its rules."""

    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (Path(__file__).parents[1] / "data").glob("*.csv"))
    )
    def test_grid(self, data_dir, tmp_path, name):
        marked = tmp_path / name
        marked.write_bytes(self.BOM + (data_dir / name).read_bytes())
        want, got = load_grid_csv(data_dir / name), load_grid_csv(marked)
        assert np.array_equal(got.counts, want.counts) and np.array_equal(got.valid, want.valid)
        assert (got.resolution_m, got.municipal_area_km2) == (
            want.resolution_m, want.municipal_area_km2
        )

    def test_map(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_matrix_csv(plain, [np.nan, 8.0, 120.0], [0, 1, 2, 1], [3, 4, 1, 4], (3, 4))
        marked.write_bytes(self.BOM + plain.read_bytes())
        assert np.array_equal(read_matrix_csv(marked), read_matrix_csv(plain), equal_nan=True)

    def test_second_mark_is_data(self, data_dir, tmp_path):
        marked = tmp_path / "grid.csv"
        marked.write_bytes(2 * self.BOM + (data_dir / "scattered_1km.csv").read_bytes())
        with pytest.raises(DataError, match="expected header 'x,y,households'"):
            load_grid_csv(marked)


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

    @pytest.mark.parametrize("factor", [2.5, 2.0])
    def test_factor_must_be_an_integer(self, factor):
        grid = ingest_grid([(0, 0, 2)], resolution_m=1000.0, rows=1, cols=1)
        with pytest.raises(DomainError, match=f"factor must be an integer, got {factor}"):
            refine_grid(grid, factor)
        fine = refine_grid(grid, np.int64(2))
        assert fine.counts.shape == (2, 2) and fine.resolution_m == 500.0

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
    starts, (bits,) = receiver_segments(np.ones(mask.shape, bool), *np.nonzero(mask), [hw])
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
        valid = (np.arange(rows * cols) % 7 != 3).reshape(rows, cols)
        starts, bitsets = receiver_segments(valid, ys, xs, footprints)
        assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] < rows * cols
        lengths = np.diff(starts, append=rows * cols)
        # no segment mixes valid and invalid cells
        assert np.array_equal(np.repeat(valid.ravel()[starts], lengths), valid.ravel())
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


def _runs(index):
    """A per-cell index in runs: cut where the flattened index changes."""
    flat = np.ravel(index)
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    return flat[starts], np.diff(starts, append=flat.size)


def _levels_and_runs(values):
    """``values`` in run form: its distinct bit patterns as levels, so that
    both zeros and both NaN signs stay apart, each run's position among
    them and its length, and the shape."""
    arr = np.asarray(values)
    levels, index = np.unique(arr.view(f"u{arr.dtype.itemsize}").ravel(), return_inverse=True)
    return (levels.view(arr.dtype), *_runs(index), arr.shape)


def _strided(a, step):
    """A view of ``a``'s values whose stride is ``step`` elements."""
    return np.repeat(a if step > 0 else a[::-1], abs(step))[::step]


_MATRIX_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)
#: Floats nearest a decimal of at most ten digits, which %.10g writes exactly.
_TEN_DIGIT_FLOATS = st.builds(
    lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
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
        levels = np.array([1.0, np.nan, 0.25, 120.0])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, levels, [0, 1, 2, 3], [1, 1, 1, 1], (2, 2))
        back = read_matrix_csv(path)
        assert np.array_equal(back, levels.reshape(2, 2), equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), _TEN_DIGIT_FLOATS),
            min_size=1,
            max_size=6,
        ),
        dtype=st.sampled_from([np.intp, np.int32, np.uint8]),
        shape=_MATRIX_SHAPES,
        steps=st.tuples(st.sampled_from([1, 2, -1, -3]), st.sampled_from([1, 3, -2])),
        data=st.data(),
    )
    def test_csv_reads_back_what_it_writes(self, levels, dtype, shape, steps, data):
        levels = np.array(levels, dtype=np.float64)
        full = data.draw(hnp.arrays(dtype, shape, elements=st.integers(0, len(levels) - 1)))
        index = full[:: steps[0], :: steps[1]]  # a strided view where a step is not 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_matrix_csv(path, levels, *_runs(index), index.shape)
            back = read_matrix_csv(path)

        def bits(a):  # NaN's sign does not survive the text
            return np.where(np.isnan(a), np.nan, a).view(np.uint64)

        assert np.array_equal(bits(back), bits(levels[index]))

    @settings(max_examples=300, deadline=None)
    @given(_MATRICES)
    # runs equal under == but with different bits, crossing a row end
    @example(np.repeat([0.0, -0.0, np.nan, -np.nan, 0.0], [5, 7, 3, 6, 3]).reshape(4, 6))
    @example(np.array([[0.0, _LONGEST_TOKEN, 0.0], [_LONGEST_TOKEN, 0.0, 0.0]]))
    def test_csv_bytes_match_per_cell_formatting(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_matrix_csv(path, *_levels_and_runs(values))
            assert path.read_text() == _per_cell_csv(values)

    @settings(max_examples=200, deadline=None)
    @given(_MATRICES, st.data())
    def test_zero_length_runs_write_nothing(self, values, data):
        levels, run_level, run_length, shape = _levels_and_runs(values)
        at = data.draw(st.lists(st.integers(0, len(run_level)), min_size=1, max_size=5))
        empty = data.draw(st.lists(st.integers(0, len(levels) - 1), min_size=len(at),
                                   max_size=len(at)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            write_matrix_csv(path, levels, np.insert(run_level, at, empty),
                             np.insert(run_length, at, 0), shape)
            assert path.read_text() == _per_cell_csv(values)

    # the 0-size shapes too: the reader takes no empty matrix back
    @pytest.mark.parametrize("writer", [write_matrix_csv])
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (), (0, 0), (0, 3), (3, 0)])
    def test_writers_reject_arrays_not_2d(self, tmp_path, writer, shape):
        path = tmp_path / "m.csv"
        with pytest.raises(DomainError, match="matrix must be 2-D"):
            writer(path, np.zeros(1), [0], [1], shape)
        assert not path.exists()

    @pytest.mark.parametrize(
        "run_level,run_length",
        [([0, 1, 0], [2, -1, 2]), ([0, 1], [1, 1]), ([0, 1], [2, 2]), ([], []), ([0, 1], [3])],
        ids=["negative", "short", "long", "none", "unpaired"],
    )
    def test_writer_rejects_runs_that_do_not_tile(self, tmp_path, run_level, run_length):
        path = tmp_path / "m.csv"
        with pytest.raises(DomainError, match="runs must each have a length >= 0, summing to 3 "):
            write_matrix_csv(path, [0.0, 1.0], run_level, run_length, (1, 3))
        assert not path.exists()

    @pytest.mark.parametrize(
        "run_level",
        [[0, -1, 1], [0, 2, 1], [0.0, 1.0, 1.0], [True, False, True]],
        ids=["-1", "2", "float", "bool"],
    )
    def test_writer_rejects_index_past_the_levels(self, tmp_path, run_level):
        # a position past the levels would pick a row-ending token mid-row,
        # and bools would mask the table
        path = tmp_path / "m.csv"
        with pytest.raises(DomainError, match=r"run levels must be integers in \[0, 2\)"):
            write_matrix_csv(path, [0.0, 1.0], run_level, [1, 1, 1], (1, 3))
        assert not path.exists()

    def test_csv_bytes_of_strided_view(self, tmp_path):
        values = np.arange(48, dtype=np.float64).reshape(6, 8) / 7.0
        values[1, 1] = -0.0
        levels, run_level, run_length, shape = _levels_and_runs(values[::2, ::3])
        write_matrix_csv(tmp_path / "m.csv", levels, _strided(run_level, 2),
                         _strided(run_length, -3), shape)
        assert (tmp_path / "m.csv").read_text() == _per_cell_csv(values[::2, ::3])

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
            ("1,2\u20283,4\n1,x\n", 1, "could not convert string '2\\u20283'"),
            ("1,2\f3,4\n1,x\n", 1, "could not convert string '2\\x0c3'"),
        ],
        ids=["token-after-two-blanks", "ragged-after-blank", "token-after-leading-blanks",
             "ragged-after-repeats", "empty-field-after-blanks", "line-separator-inside",
             "form-feed-inside"],
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

    @pytest.mark.parametrize("reader", [load_grid_csv, read_matrix_csv])
    def test_unreadable_file_is_a_data_error(self, tmp_path, reader):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,\xff\n")
        for target in (path, tmp_path, tmp_path / "missing.csv"):
            with pytest.raises(DataError):
                reader(target)
