from __future__ import annotations

import collections
import configparser
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grayspace import cli, engine, linkbudget, scenario
from grayspace.cli import _combinations, load_run_config, main
from grayspace.errors import ConfigError, GrayspaceError
from grayspace.griddata import (
    HouseholdGrid,
    _fmt,
    ingest_grid,
    load_grid_csv,
    read_matrix_csv,
    write_grid_csv,
    write_matrix_csv,
)
from grayspace.linkbudget import OFCOM
from grayspace.propagation import ENVIRONMENTS
from grayspace.scenario import KNOWLEDGE_LEVELS, SHARE_INTERPRETATIONS, TIME_PERIODS
from test_griddata import _levels_and_runs


def write_grid(path: Path, municipal_area_km2=None) -> None:
    grid = ingest_grid(
        [(2, 2, 4), (5, 3, 2), (6, 6, 7)], resolution_m=1000.0, rows=8, cols=8
    )
    if municipal_area_km2 is not None:
        grid = HouseholdGrid(
            grid.counts, grid.valid, grid.resolution_m, municipal_area_km2
        )
    write_grid_csv(path, grid)


def write_config(path: Path, body: str) -> Path:
    path.write_text(textwrap.dedent(body))
    return path


@pytest.fixture
def workspace(tmp_path):
    write_grid(tmp_path / "town.csv")
    config = write_config(
        tmp_path / "run.cfg",
        """\
        [run]
        seed = 7
        realizations = 4
        workers = 1
        out = results
        buckets = 24-64,72-96,96<

        [criteria]
        preset = ofcom

        [hata]
        frequency_mhz = 650
        environment = suburban

        [device.cpe-4w]
        eirp_mw = 4000
        antenna_height_m = 30

        [plan]
        used_channels = 21,24,27,30,33

        [knowledge]
        levels = KL1,KL2

        [grid]
        path = town.csv
        """,
    )
    return config


class TestConfigParsing:
    def test_paths_resolve_against_config_dir(self, workspace):
        cfg = load_run_config(workspace)
        assert cfg.out == (workspace.parent / "results").resolve()
        assert cfg.grid_path == (workspace.parent / "town.csv").resolve()
        assert cfg.seed == 7 and cfg.realizations == 4
        assert cfg.levels == ("KL1", "KL2")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("[nonsense]\nx = 1\n", "unknown section"),
            ("[run]\ncolour = red\n", "unknown keys"),
            ("[run]\nseed = -1\n", "unsigned 64-bit"),
            ("[run]\nseed = eleven\n", "not an integer"),
            ("[run]\nrealizations = 0\n", "must be >= 1"),
            ("[run]\nbuckets = 24-64,60-70\n", "overlap"),
            ("[criteria]\npreset = fredcom\n", "unknown criteria preset"),
            ("[criteria]\nci_cochannel_db = 33\n", "needs a preset or the keys"),
            ("[hata]\nenvironment = swamp\n", "environment must be one of"),
            ("[device.bad name]\neirp_mw = 1\nantenna_height_m = 2\n", "bad device name"),
            ("[device.a]\neirp_mw = 100\n", "missing antenna_height_m"),
            ("[knowledge]\nlevels = KL1,KL9\n", "unknown knowledge level"),
            ("[knowledge]\nlevels = KL1,KL1\n", "duplicates"),
            ("[knowledge]\nperiods = TP3\n", "unknown time period"),
            (
                "[knowledge]\nperiods = TP1\nshares = 0.1,0.1,0.1,0.1,0.1\n",
                "periods or shares, not both",
            ),
            ("[knowledge]\ninterpretation = sideways\n", "interpretation must be"),
            ("[grid]\nroute = town.csv\n", "path"),
            ("[grid]\npath = a.csv\npath_1000m = b.csv\n", "mixes"),
            ("[grid]\npath_1000m = a.csv\npath_1000.0m = b.csv\n", "repeats the resolution"),
            ("[grid]\npath_0m = a.csv\n",
             r"bad\.cfg: \[grid\] path_0m: the resolution must be positive"),
            ("[grid]\npath_0.0m = a.csv\n",
             r"bad\.cfg: \[grid\] path_0\.0m: the resolution must be positive"),
            ("[run]\nbuckets = 24-64,60-70\n", r"bad\.cfg: \[run\] buckets .*overlap"),
            (
                "[plan]\nused_channels = 21,21,27,30,33\n",
                r"bad\.cfg: \[plan\] used_channels contains duplicates",
            ),
            (
                "[criteria]\npreset = ofcom\nchannel_bandwidth_mhz = 8\n",
                r"bad\.cfg: \[criteria\] has unknown keys: channel_bandwidth_mhz; known keys: "
                "label, min_field_strength_dbuvm, ci_cochannel_db, ci_adjacent_db, "
                "receiver_height_m, preset$",
            ),
            ("[criteria]\npreset = ofcom\nreceiver_height_m = -1\n",
             r"\[criteria\] receiver_height_m must be non-negative and finite"),
            ("[criteria]\npreset = ofcom\nreceiver_height_m = nan\n",
             r"\[criteria\] receiver_height_m must be non-negative and finite"),
            ("[criteria]\npreset = ofcom\nmin_field_strength_dbuvm = nan\n",
             r"\[criteria\] min_field_strength_dbuvm must be finite"),
            ("[criteria]\npreset = ofcom\nmin_field_strength_dbuvm = inf\n",
             r"\[criteria\] min_field_strength_dbuvm must be finite"),
            ("[criteria]\npreset = fcc\nci_cochannel_db = inf\n",
             r"\[criteria\] ci_cochannel_db must be finite"),
            ("[criteria]\npreset = fcc\nci_adjacent_db = -inf\n",
             r"\[criteria\] ci_adjacent_db must be finite"),
        ],
    )
    def test_rejects(self, tmp_path, body, fragment):
        config = write_config(tmp_path / "bad.cfg", body)
        with pytest.raises(ConfigError, match=fragment):
            load_run_config(config)

    def test_duplicate_device_sections(self, tmp_path):
        config = write_config(
            tmp_path / "dup.cfg",
            "[device.x]\neirp_mw = 1\nantenna_height_m = 2\n"
            "[device.x]\neirp_mw = 3\nantenna_height_m = 4\n",
        )
        with pytest.raises(ConfigError):
            load_run_config(config)

    @pytest.mark.parametrize("key", ["channel_bandwidth_mhz", "location_accuracy_m",
                                     "ci_adjacent_lower_db", "power_limit_cochannel",
                                     "power_limit_adjacent"])
    def test_keys_the_link_budget_does_not_read_exit_2(self, workspace, key, capsys):
        workspace.write_text(workspace.read_text().replace(
            "preset = ofcom\n", f"preset = fcc\n{key} = none\n"))
        assert main(["linkbudget", "--config", str(workspace), "--resolution", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {workspace}: [criteria] has unknown keys: {key}; "
                                "known keys: label, min_field_strength_dbuvm, ci_cochannel_db, "
                                "ci_adjacent_db, receiver_height_m, preset\n")

    def test_result_section_ignored(self, tmp_path):
        config = write_config(tmp_path / "c.cfg", "[result]\nbackend = native\n")
        load_run_config(config)

    def test_custom_shares(self, tmp_path):
        config = write_config(
            tmp_path / "c.cfg",
            "[knowledge]\nlevels = KL3\nshares = 0.2,0.1,0.05,0.05,0.01\n",
        )
        cfg = load_run_config(config)
        assert cfg.shares == (0.2, 0.1, 0.05, 0.05, 0.01)


#: Config edits no command may run, with the section and message each names.
_BAD_COMBINATIONS = {
    "kl3-shares-over-1": ("levels = KL1,KL2", "levels = KL1,KL3\nshares = 0.5,0.3,0.3,0.3,0.3",
                          "knowledge", "sum to"),
    "four-channel-plan": ("used_channels = 21,24,27,30,33", "used_channels = 21,24,27,30",
                          "plan", "5 MUXs"),
    "plan-past-band": ("used_channels = 21,24,27,30,33", "used_channels = 21,24,27,30,33\n"
                       "total_band_mhz = 16", "plan", "more than the 16.0 MHz band"),
    "p-mux1-over-1": ("levels = KL1,KL2", "levels = KL1,KL2\np_mux1_capable = 1.5",
                      "knowledge", "p_mux1_capable must be a probability"),
    "kl3-share-over-1": ("levels = KL1,KL2", "levels = KL1,KL3\nshares = 1.5,0,0,0,0",
                         "knowledge", "mux_shares must be probabilities"),
    "zero-channel-bandwidth": ("used_channels = 21,24,27,30,33",
                               "used_channels = 21,24,27,30,33\nchannel_bandwidth_mhz = 0",
                               "plan", "channel_bandwidth_mhz must be positive"),
    "shares-without-kl3": ("levels = KL1,KL2", "levels = KL1,KL2\nshares = 0.5,0.3,0.3,0.3,0.3",
                           "knowledge", "mux_shares sum to"),
}


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_data_error_is_3(self, workspace, capsys):
        (workspace.parent / "town.csv").unlink()
        assert main(["simulate", "--config", str(workspace)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_no_devices_is_2(self, tmp_path, capsys):
        write_grid(tmp_path / "town.csv")
        config = write_config(
            tmp_path / "c.cfg", "[hata]\nfrequency_mhz = 650\n[grid]\npath = town.csv\n"
        )
        assert main(["simulate", "--config", str(config)]) == 2

    def test_missing_frequency_is_2(self, workspace, capsys):
        text = workspace.read_text().replace("frequency_mhz = 650\n", "")
        workspace.write_text(text)
        assert main(["simulate", "--config", str(workspace)]) == 2
        assert "frequency_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,fragment",
        [
            ("frequency_mhz = 650", "frequency_mhz = nan", "must be finite"),
            ("antenna_height_m = 30", "antenna_height_m = 1e7", "slope"),
            ("preset = ofcom", "preset = ofcom\nmin_field_strength_dbuvm = -1e7",
             "the inversion covers"),
            ("preset = ofcom", "preset = ofcom\nmin_field_strength_dbuvm = 1e7",
             "the inversion covers"),
        ],
        ids=["nan-frequency", "flat-hata-slope", "distance-overflow", "distance-underflow"],
    )
    @pytest.mark.parametrize("command", ["simulate", "linkbudget"])
    def test_bad_propagation_input_is_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, old, new, fragment, command
    ):
        workspace.write_text(workspace.read_text().replace(old, new))
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--config", str(workspace), "--out", str(out)],
            "linkbudget": ["linkbudget", "--config", str(workspace),
                           "--resolution", "1000", "--csv", str(out / "sep.csv")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[device.cpe-4w]" in err and fragment in err
        assert not out.exists()

    # simulate's cases go by the bare case name, the other commands' by command-case
    @pytest.mark.parametrize(
        "command,old,new,section,fragment",
        [pytest.param(command, *case, id=name if command == "simulate" else f"{command}-{name}")
         for command in ("linkbudget", "report", "simulate")
         for name, case in _BAD_COMBINATIONS.items()],
    )
    def test_bad_combination_is_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, command, old, new, section, fragment
    ):
        workspace.write_text(workspace.read_text().replace(old, new))
        out = tmp_path / "out"
        stored = tmp_path / "map.csv"
        # a map the grid could pair with
        write_matrix_csv(stored, [0.0], [0], [64], (8, 8))
        argv = {
            "linkbudget": ["linkbudget", "--config", str(workspace),
                           "--resolution", "1000", "--csv", str(out / "sep.csv")],
            "report": ["report", "--config", str(workspace), "--map", str(stored),
                       "--out", str(out)],
            "simulate": ["simulate", "--config", str(workspace), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {workspace}: [{section}] " in err and fragment in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,argv,fragment",
        [
            ("", [], "no [grid] path configured"),
            ("path_1000m = town.csv\npath_100m = fine.csv\n", ["--resolution", "500"],
             "no grid for resolution 500 m; available: 100 m, 1000 m"),
            ("path_1000m = town.csv\npath_100m = fine.csv\n", [],
             "several grid resolutions are configured; select one with --resolution"),
            ("path = town.csv\n", ["--resolution", "100"],
             "configured resolution 100 m but "),
            ("path_100m = town.csv\n", [], "[grid] key path_100m points at a file declaring "
             "1000 m"),
        ],
        ids=["no-grid", "resolution-not-configured", "several-resolutions",
             "file-disagrees-with-resolution", "key-disagrees-with-file"],
    )
    def test_bad_grid_selection_is_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, grid, argv, fragment
    ):
        write_grid_csv(tmp_path / "fine.csv", ingest_grid([(2, 2, 4)], resolution_m=100.0,
                                                          rows=8, cols=8))
        text = workspace.read_text()
        workspace.write_text(text.replace("[grid]\npath = town.csv\n",
                                          f"[grid]\n{grid}" if grid else ""))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(workspace), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and fragment in err
        assert not out.exists()

    def test_linkbudget_without_resolution_or_grid_is_2_and_writes_nothing(
        self, workspace, tmp_path, capsys
    ):
        workspace.write_text(workspace.read_text().replace("[grid]\npath = town.csv\n", ""))
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(workspace),
                     "--csv", str(out / "sep.csv")]) == 2
        assert "no resolution configured" in capsys.readouterr().err
        assert not out.exists()

    def test_linkbudget_with_a_missing_grid_file_is_3_and_writes_nothing(
        self, workspace, tmp_path, capsys
    ):
        (tmp_path / "town.csv").unlink()
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(workspace),
                     "--csv", str(out / "sep.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: grid file not found: {tmp_path / 'town.csv'}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,argv,shown",
        [("path = town.csv\n", ["--resolution", "1e-320"], "1e-320"),
         ("path = town.csv\n", ["--resolution", "5e-324"], "5e-324"),
         ("path_0.0" + "0" * 318 + "1m = town.csv\n", [], "1e-320")],
        ids=["resolution-1e-320", "resolution-5e-324", "grid-key-1e-320"],
    )
    def test_linkbudget_resolution_past_float_cells_is_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, grid, argv, shown
    ):
        workspace.write_text(workspace.read_text().replace("path = town.csv\n", grid))
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(workspace),
                     "--csv", str(out / "sep.csv"), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: resolution {shown} m: "
                                "distance_m / resolution_m overflows\n")
        assert not out.exists()

    def test_grayspace_error_from_a_command_is_4(self, workspace, capsys, monkeypatch):
        def fail(path):
            raise GrayspaceError("neither config nor data")

        monkeypatch.setattr(cli, "load_run_config", fail)
        assert main(["linkbudget", "--config", str(workspace)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: neither config nor data\n"

    @pytest.mark.parametrize("command", ["linkbudget", "simulate", "report"])
    def test_config_not_utf8_is_2_and_writes_nothing(self, workspace, tmp_path, capsys, command):
        workspace.write_bytes(workspace.read_bytes().replace(b"seed = 7", b"seed = 7\xff"))
        out = tmp_path / "out"
        argv = {
            "linkbudget": ["linkbudget", "--config", str(workspace), "--resolution", "1000",
                           "--csv", str(out / "sep.csv")],
            "simulate": ["simulate", "--config", str(workspace), "--out", str(out)],
            "report": ["report", "--config", str(workspace), "--map",
                       str(tmp_path / "map.csv"), "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {workspace}: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["simulate", "simulate-under", "linkbudget", "ingest",
         "ingest-mask", "ingest-mask-dir", "simulate-combination",
         "simulate-combination-file", "report-table"],
        ids=["simulate-out-is-a-file", "simulate-out-under-a-file",
             "linkbudget-csv-is-a-directory", "ingest-out-under-a-file",
             "ingest-mask-under-a-file", "ingest-mask-is-a-directory",
             "simulate-combination-dir-is-a-file",
             "simulate-combination-file-is-a-directory", "report-table-is-a-directory"],
    )
    def test_unwritable_output_is_2(self, workspace, tmp_path, capsys, monkeypatch, command):
        # the second of the workspace's two combinations
        taken = tmp_path / {"simulate-combination": "cpe-4w_KL2",
                            "simulate-combination-file": "cpe-4w_KL2/map.csv",
                            "report-table": "utilization_from_map.csv"}.get(command, "taken")
        if command in ("linkbudget", "ingest-mask-dir", "simulate-combination-file",
                       "report-table"):
            taken.mkdir(parents=True)
        else:
            taken.write_text("keep\n")
        # an unusable --out is rejected before the sweep runs
        sweep = mock.Mock(side_effect=AssertionError("the sweep ran"))
        monkeypatch.setattr(cli, "run_combinations", sweep)
        town, grid_out = str(tmp_path / "town.csv"), str(tmp_path / "o" / "n.csv")
        argv = {
            "simulate": ["simulate", "--config", str(workspace), "--out", str(taken)],
            "simulate-under": ["simulate", "--config", str(workspace),
                               "--out", str(taken / "a" / "b")],
            "linkbudget": ["linkbudget", "--config", str(workspace), "--csv", str(taken)],
            "ingest": ["ingest", town, "--out", str(taken / "town.csv")],
            "ingest-mask": ["ingest", town, "--out", grid_out,
                            "--valid-mask", str(taken / "mask.csv")],
            "ingest-mask-dir": ["ingest", town, "--out", grid_out, "--valid-mask", str(taken)],
            "simulate-combination": ["simulate", "--config", str(workspace),
                                     "--out", str(tmp_path)],
            "simulate-combination-file": ["simulate", "--config", str(workspace),
                                          "--out", str(tmp_path)],
            # writes the map that report reads
            "report-table": _grid_argv("report", workspace, tmp_path),
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        assert not sweep.called
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert str(taken) in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before  # nothing written
        if taken.is_dir():
            assert list(taken.iterdir()) == []
        else:
            assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("mask", ["same.csv", "a/../same.csv"])
    def test_two_outputs_naming_one_file_is_2(self, tmp_path, capsys, monkeypatch, mask):
        write_grid(tmp_path / "town.csv")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["ingest", "town.csv", "--out", "same.csv", "--valid-mask", mask]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output files same.csv and {mask} are the same file\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "flag,value,fragment",
        [
            ("--realizations", "0", "--realizations must be >= 1"),
            ("--seed", "eleven", "--seed is not an integer"),
            ("--workers", "-2", "--workers must be >= 1"),
            ("--resolution", "nan", "--resolution must be positive"),
        ],
    )
    def test_bad_override_is_2_and_writes_nothing(
        self, workspace, tmp_path, capsys, flag, value, fragment
    ):
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(workspace), "--out", str(out), flag, value]
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "# rle rows=-1 cols=3\n",
            "# rle rows=1=2 cols=3\n3*1\n",
            "# rle rows=8 cols=8\n" + "3*1,-2*2,7*3\n" * 8,
            "# rle rows=1 cols=1000000000000\n1*1\n",
            "# rle rows=8 cols=8\n" + "8*0\n" * 8,
        ],
        ids=["negative-rows", "double-equals", "negative-count", "short-row-huge-cols",
             "well-formed"],
    )
    def test_bad_rle_map_is_3_and_writes_nothing(self, workspace, tmp_path, capsys, text):
        # CSV is the one map format, whatever the suffix: a run-length map,
        # well-formed or not, is a CSV whose line 1 is not numbers
        bad = tmp_path / "bad.rle"
        bad.write_text(text)
        out = tmp_path / "rep"
        argv = ["report", "--config", str(workspace), "--map", str(bad), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}:1: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            ("# rows=8", "# rows=nan"),
            ("# rows=8\n# cols=8", "# rows=1e12\n# cols=1e12"),
            ("# rows=8", "# rows=8.5"),
            ("# resolution_m=1000", "# resolution_m=nan"),
            ("# resolution_m=1000", "# resolution_m=inf"),
            ("# resolution_m=1000", "# resolution_m=-5"),
            ("# resolution_m=1000", "# resolution_m=0"),
            ("# resolution_m=1000", "# resolution_m=1e300"),
            ("# rows=8", "# rows=9\n# rows=8"),
            ("6,6,7", "6,6,99999999999999999999"),
            ("6,6,7", f"6,6,{2**62}\n7,7,{2**62}"),
        ],
        ids=["nan-rows", "size-past-2**63-bytes", "fractional-rows", "nan-resolution",
             "inf-resolution", "negative-resolution", "zero-resolution", "area-overflow",
             "repeated-key", "count-past-int64", "total-past-int64"],
    )
    @pytest.mark.parametrize("command", ["ingest", "simulate", "report"])
    def test_bad_grid_is_3_and_writes_nothing(
        self, workspace, tmp_path, capsys, old, new, command
    ):
        grid = tmp_path / "town.csv"
        assert old in grid.read_text()
        grid.write_text(grid.read_text().replace(old, new))
        out = tmp_path / "out"
        assert main(_grid_argv(command, workspace, out)) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "simulate", "report"])
    def test_grid_without_header_is_3_and_writes_nothing(
        self, workspace, tmp_path, capsys, command
    ):
        (tmp_path / "town.csv").write_text("# rows=8\n# cols=8\n# resolution_m=1000\n")
        out = tmp_path / "out"
        assert main(_grid_argv(command, workspace, out)) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path / 'town.csv'}: missing 'x,y,households' header\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "simulate", "report"])
    def test_grid_not_utf8_is_3_and_writes_nothing(self, workspace, tmp_path, capsys, command):
        (tmp_path / "town.csv").write_bytes(b"# rows=8\xff\n")
        out = tmp_path / "out"
        assert main(_grid_argv(command, workspace, out)) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "ten"])
    def test_bad_municipal_area_is_2_and_writes_nothing(self, tmp_path, capsys, value):
        src = tmp_path / "raw.csv"
        write_grid(src)
        out = tmp_path / "norm"
        argv = ["ingest", str(src), "--out", str(out / "n.csv"),
                "--valid-mask", str(out / "mask.csv"), "--municipal-area-km2", value]
        assert main(argv) == 2
        assert "config error: --municipal-area-km2" in capsys.readouterr().err
        assert not out.exists()
        # checked before the grid is read: a missing grid is not reached
        argv[1] = str(tmp_path / "missing.csv")
        assert main(argv) == 2

    def test_compensation_to_no_valid_cells_is_3_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("# rows=2\n# cols=2\n# resolution_m=1000\nx,y,households\n")
        out = tmp_path / "norm"
        argv = ["ingest", str(src), "--out", str(out / "n.csv"), "--municipal-area-km2", "1e-12"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "data error: grid has no valid cells; nothing to evaluate\n"
        assert not out.exists()

    def test_municipal_area_past_the_grid_is_3_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        write_grid(src)
        out = tmp_path / "norm"
        argv = ["ingest", str(src), "--out", str(out / "n.csv"), "--municipal-area-km2", "1e9"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

    def test_households_past_sampling_are_3_and_write_nothing(
        self, workspace, tmp_path, capsys
    ):
        grid = tmp_path / "town.csv"
        grid.write_text(grid.read_text().replace("6,6,7", f"6,6,{2**62}"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(workspace), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not out.exists()

    def test_realizations_past_the_totals_are_2_and_write_nothing(
        self, workspace, tmp_path, capsys
    ):
        # 64 valid cells: from 2**63 // 64 realizations on, the cell totals overflow
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(workspace), "--out", str(out),
                "--realizations", "99999999999999999999"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "[run] realizations must be below 144115188075855872" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "-5", "1e9", "120.5", "-1e-300"])
    def test_map_value_outside_capacity_is_3_and_writes_nothing(
        self, workspace, tmp_path, capsys, value
    ):
        # the plan offers 15 slots of 8 MHz: every value lies in [0, 120]
        bad = tmp_path / "bad.csv"
        bad.write_text(f"nan,{value},0,120,0,120,-0,64\n" + "8,16,24,32,40,48,56,64\n" * 7)
        out = tmp_path / "rep"
        argv = ["report", "--config", str(workspace), "--map", str(bad), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "data error: map values must lie in [0, 120] MHz\n"
        assert not out.exists()
        bad.write_text(bad.read_text().replace(value, "120", 1))
        assert main(argv) == 0
        assert (out / "cdf_from_map.csv").read_text().startswith("gray_mhz,percent_area\n0,100\n")

    def test_map_nan_on_households_is_3_and_writes_nothing(self, workspace, tmp_path, capsys):
        # households: 4 at row 2 col 2, 2 at row 3 col 5, 7 at row 6 col 6
        values = np.tile(np.arange(8) * 8.0, (8, 1))
        values[0, 0] = np.nan  # an empty cell may be outside the area
        stored = tmp_path / "map.csv"
        write_matrix_csv(stored, *_levels_and_runs(values))
        argv = ["report", "--config", str(workspace), "--map", str(stored), "--out"]
        assert main([*argv, str(tmp_path / "ok")]) == 0
        table = (tmp_path / "ok" / "utilization_from_map.csv").read_text().splitlines()[1:]
        assert sum(float(line.split(",")[1]) for line in table) == 13.0
        values[3, 5] = values[6, 6] = np.nan
        write_matrix_csv(stored, *_levels_and_runs(values))
        out = tmp_path / "rep"
        assert main([*argv, str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("data error: map is NaN on 2 cells holding 9 households; "
                       "it does not belong to the grid\n")
        assert not out.exists()


def _grid_argv(command: str, config: Path, out: Path) -> list[str]:
    """Arguments that make ``command`` read the grid next to ``config`` and
    write only under ``out``; ``report`` reads an 8x8 map made here."""
    root = config.parent
    if command == "ingest":
        return ["ingest", str(root / "town.csv"), "--out", str(out / "town.csv"),
                "--valid-mask", str(out / "mask.csv")]
    if command == "report":
        (root / "map.csv").write_text("0,8,16,24,32,40,48,56\n" * 8)
        return ["report", "--config", str(config), "--map", str(root / "map.csv"),
                "--out", str(out)]
    return ["simulate", "--config", str(config), "--out", str(out),
            "--realizations", "1", "--workers", "1"]


class TestShippedConfigs:
    NAMES = sorted(p.name for p in (Path(__file__).parents[1] / "configs").glob("*.cfg"))

    @pytest.mark.parametrize("name", NAMES)
    def test_loads_and_linkbudget_runs(self, configs_dir, name, capsys):
        cfg = load_run_config(configs_dir / name)
        assert cfg.devices
        assert main(["linkbudget", "--config", str(configs_dir / name)]) == 0
        assert "criteria: " in capsys.readouterr().out

    @pytest.mark.parametrize("name", NAMES)
    def test_summary_radii_are_the_linkbudget_distances(self, configs_dir, tmp_path, name,
                                                        capsys):
        cfg = load_run_config(configs_dir / name)
        resolutions = sorted(cfg.grid_paths) or [load_grid_csv(cfg.grid_path).resolution_m]
        for res in map(_fmt, resolutions):
            table, out = tmp_path / f"{res}.csv", tmp_path / res
            assert main(["linkbudget", "--config", str(configs_dir / name), "--resolution", res,
                         "--csv", str(table)]) == 0
            rows = list(csv.DictReader(table.read_text().splitlines()))
            assert {row["resolution_m"] for row in rows} == {res}
            quantized = {(row["device"], row["relation"]): row["quantized_distance_m"]
                         for row in rows}
            assert main(["simulate", "--config", str(configs_dir / name), "--resolution", res,
                         "--realizations", "1", "--workers", "1", "--out", str(out)]) == 0
            summaries = sorted(out.glob("*/summary.txt"))
            assert len(summaries) >= len(cfg.devices)
            for path in summaries:
                summary = configparser.ConfigParser(interpolation=None)
                summary.read_string(path.read_text())
                (device,) = (h[len("device."):] for h in summary if h.startswith("device."))
                for relation, key in (("co", "co_radius_m"), ("adjacent", "adjacent_radius_m")):
                    assert summary["result"][key] == quantized[device, relation], (path, key)

    @pytest.mark.parametrize("name", NAMES)
    def test_byte_order_mark_is_not_data(self, configs_dir, tmp_path, name):
        # both copies in one directory, so that their relative paths resolve alike
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes((configs_dir / name).read_bytes())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        cfg = load_run_config(plain)
        assert dataclasses.replace(load_run_config(marked), source=cfg.source) == cfg

    def test_ofcom_suburban_spells_out_the_ofcom_preset(self, configs_dir):
        assert load_run_config(configs_dir / "ofcom-suburban.cfg").criteria == OFCOM


class TestLinkbudget:
    def test_table_and_csv(self, workspace, tmp_path, capsys):
        csv_path = tmp_path / "sep.csv"
        assert main(
            ["linkbudget", "--config", str(workspace), "--csv", str(csv_path),
             "--resolution", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "criteria: ofcom" in out

        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("device,relation,resolution_m")
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        co = rows[("cpe-4w", "co")]
        adj = rows[("cpe-4w", "adjacent")]
        assert float(co[3]) == pytest.approx(140.82059991327964)
        assert float(co[5]) == pytest.approx(7382.856169396763)
        assert float(co[6]) == 8000.0
        assert float(adj[5]) == pytest.approx(281.0426166341737)
        assert float(adj[6]) == 1000.0


class TestIngest:
    def test_compensation_and_mask(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        write_grid(src, municipal_area_km2=59.0)  # 64 cells physical -> 5 dropped
        out = tmp_path / "norm.csv"
        mask = tmp_path / "mask.csv"
        assert main(
            ["ingest", str(src), "--out", str(out), "--valid-mask", str(mask)]
        ) == 0
        printed = capsys.readouterr().out
        assert "5 border cells invalidated" in printed
        assert "valid cells 59" in printed

        values = read_matrix_csv(mask)
        assert values.shape == (8, 8) and values.sum() == 59

        # normalization is idempotent: reloading reapplies the same scan
        reloaded = load_grid_csv(out)
        assert reloaded.municipal_area_km2 == 59.0

    def test_csv_mask(self, tmp_path):
        src = tmp_path / "raw.csv"
        write_grid(src, municipal_area_km2=63.0)
        for name in ("mask.csv", "mask.rle"):  # CSV whatever the suffix
            assert main(["ingest", str(src), "--out", str(tmp_path / "n.csv"),
                         "--valid-mask", str(tmp_path / name)]) == 0
        assert read_matrix_csv(tmp_path / "mask.csv").sum() == 63
        assert (tmp_path / "mask.rle").read_bytes() == (tmp_path / "mask.csv").read_bytes()

    def test_mask_with_both_levels_keeps_its_bytes(self, data_dir, tmp_path, capsys):
        # the one shipped grid whose mask has invalid cells; the digest was
        # recorded when the writer still took a per-cell index
        mask = tmp_path / "mask.csv"
        assert main(["ingest", str(data_dir / "vinje_synthetic_1km.csv"),
                     "--out", str(tmp_path / "n.csv"), "--valid-mask", str(mask)]) == 0
        assert "734 border cells invalidated" in capsys.readouterr().out
        assert hashlib.sha256(mask.read_bytes()).hexdigest() == (
            "513920b57ea2c0ed3813ff525e67f0a57417588aeb80eeb4b5cdc1124ec9ac15"
        )

    def test_mask_into_a_missing_directory(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        write_grid(src, municipal_area_km2=63.0)
        mask = tmp_path / "nodir" / "m.csv"
        assert main(["ingest", str(src), "--out", str(tmp_path / "n.csv"),
                     "--valid-mask", str(mask)]) == 0
        assert read_matrix_csv(mask).sum() == 63

    @pytest.mark.parametrize("value", ["-5", "inf", "nan", "0", "ten"])
    def test_bad_resolution_is_2_and_writes_nothing(self, tmp_path, capsys, value):
        src = tmp_path / "raw.csv"
        write_grid(src)
        out = tmp_path / "norm" / "n.csv"
        argv = ["ingest", str(src), "--out", str(out), "--resolution", value]
        assert main(argv) == 2
        assert "config error: --resolution" in capsys.readouterr().err
        assert not out.parent.exists()
        # checked before the grid is read: a missing grid is not reached
        argv[1] = str(tmp_path / "missing.csv")
        assert main(argv) == 2


class TestSimulate:
    def test_outputs_per_combination(self, workspace, capsys):
        assert main(["simulate", "--config", str(workspace)]) == 0
        out = capsys.readouterr().out
        assert "2 result set(s)" in out
        base = workspace.parent / "results"
        for combo in ("cpe-4w_KL1", "cpe-4w_KL2"):
            for fname in ("map.csv", "cdf.csv", "utilization.csv", "summary.txt"):
                assert (base / combo / fname).is_file()
        values = read_matrix_csv(base / "cpe-4w_KL1" / "map.csv")
        assert values.shape == (8, 8)
        assert not np.isnan(values).any()  # no compensation for this grid

    def test_lone_resolution_key_is_selected(self, workspace, capsys):
        workspace.write_text(workspace.read_text().replace("path = town.csv",
                                                          "path_1000m = town.csv"))
        assert main(["simulate", "--config", str(workspace), "--realizations", "1"]) == 0
        values = read_matrix_csv(workspace.parent / "results" / "cpe-4w_KL1" / "map.csv")
        assert values.shape == (8, 8)

    def test_summary_reproduces_run(self, workspace, tmp_path, capsys):
        assert main(["simulate", "--config", str(workspace)]) == 0
        combo = workspace.parent / "results" / "cpe-4w_KL2"
        rerun_out = tmp_path / "rerun"
        assert main(
            ["simulate", "--config", str(combo / "summary.txt"),
             "--out", str(rerun_out)]
        ) == 0
        again = rerun_out / "cpe-4w_KL2"
        for fname in ("map.csv", "cdf.csv", "utilization.csv"):
            assert (again / fname).read_bytes() == (combo / fname).read_bytes()
        # the echoed config differs only in its output directory
        diff = [
            (a, b)
            for a, b in zip(
                (combo / "summary.txt").read_text().splitlines(),
                (again / "summary.txt").read_text().splitlines(),
            )
            if a != b
        ]
        assert len(diff) == 1 and diff[0][0].startswith("out = ")

    def test_summary_keeps_float_precision(self, workspace, tmp_path, capsys):
        text = workspace.read_text().replace(
            "levels = KL1,KL2", "levels = KL2\np_mux1_capable = 0.98000000001"
        )
        workspace.write_text(text)
        assert main(["simulate", "--config", str(workspace), "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "cpe-4w_KL2" / "summary.txt").read_text()
        assert "p_mux1_capable = 0.98000000001\n" in summary
        assert "p_subscribe_mux2to5 = 0.15\n" in summary
        assert load_run_config(tmp_path / "cpe-4w_KL2" / "summary.txt").p_mux1_capable == (
            0.98000000001
        )

    @pytest.mark.parametrize(
        "old,new",
        [("eirp_mw = 4000", "eirp_mw = 1e300"), ("frequency_mhz = 650", "frequency_mhz = 1e-7")],
        ids=["eirp-1e300", "frequency-1e-7"],
    )
    def test_reach_past_the_grid_protects_every_cell(self, workspace, tmp_path, capsys, old, new):
        workspace.write_text(workspace.read_text().replace(old, new))
        assert main(["simulate", "--config", str(workspace), "--out", str(tmp_path)]) == 0
        # every receiver protects every cell, and under KL1 every MUX is used
        assert not read_matrix_csv(tmp_path / "cpe-4w_KL1" / "map.csv").any()
        # the summary keeps the radius of the link budget, not the capped one
        summary = (tmp_path / "cpe-4w_KL1" / "summary.txt").read_text()
        co_radius = float(summary.split("co_radius_m = ")[1].split()[0])
        assert co_radius > 100 * 8 * 1000.0

    def test_seed_override(self, workspace, tmp_path, capsys):
        main(["simulate", "--config", str(workspace), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(workspace), "--out", str(tmp_path / "b"),
              "--seed", "8"])
        main(["simulate", "--config", str(workspace), "--out", str(tmp_path / "c"),
              "--seed", "7"])
        kl2 = Path("cpe-4w_KL2") / "map.csv"
        a = (tmp_path / "a" / kl2).read_bytes()
        assert (tmp_path / "b" / kl2).read_bytes() != a
        assert (tmp_path / "c" / kl2).read_bytes() == a

    def test_workers_do_not_change_results(self, workspace, tmp_path, capsys):
        main(["simulate", "--config", str(workspace), "--out", str(tmp_path / "w1")])
        main(["simulate", "--config", str(workspace), "--out", str(tmp_path / "w2"),
              "--workers", "2"])
        for combo in ("cpe-4w_KL1", "cpe-4w_KL2"):
            for fname in ("map.csv", "cdf.csv", "utilization.csv"):
                rel = Path(combo) / fname
                assert (
                    (tmp_path / "w1" / rel).read_bytes()
                    == (tmp_path / "w2" / rel).read_bytes()
                )

    @staticmethod
    def fail_on_second_map(monkeypatch) -> list:
        """Make the second map write raise ENOSPC after writing part of its
        stage; returns the list of the map paths written to."""
        maps = []

        def write(path, *matrix):
            maps.append(path)
            if len(maps) == 2:
                Path(path).write_bytes(b"0,")  # a partly written stage
                raise OSError(errno.ENOSPC, "No space left on device")
            write_matrix_csv(path, *matrix)

        monkeypatch.setattr(cli, "write_matrix_csv", write)
        return maps

    def test_failed_rerun_leaves_the_first_run(self, workspace, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(workspace), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "cpe-4w_KL1" / "notes.txt").write_text("not grayspace's\n")
        first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        maps = self.fail_on_second_map(monkeypatch)
        # another seed changes both combinations' files
        argv = ["simulate", "--config", str(workspace), "--out", str(out), "--seed", "8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err
        assert captured.out == ""  # no combination is reported before it is published
        assert len(maps) == 2
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing-parent"])
    def test_failed_run_removes_the_directories_it_made(
        self, workspace, tmp_path, capsys, monkeypatch, existing
    ):
        parent = tmp_path / "parent"
        if existing:
            parent.mkdir()
        before = sorted(tmp_path.rglob("*"))
        maps = self.fail_on_second_map(monkeypatch)
        argv = ["simulate", "--config", str(workspace), "--out", str(parent / "fresh")]
        assert main(argv) == 2
        assert len(maps) == 2  # the first combination's directory was made and filled
        assert capsys.readouterr().out == ""
        assert sorted(tmp_path.rglob("*")) == before  # an existing parent stays

    def test_maps_are_written_without_a_per_cell_form(self, configs_dir, tmp_path, capsys,
                                                      monkeypatch):
        argv = ["simulate", "--config", str(configs_dir / "scattered.cfg"), "--resolution", "100",
                "--realizations", "1", "--workers", "1", "--out"]
        assert main([*argv, str(tmp_path / "plain")]) == 0

        def refuse(self):
            raise AssertionError("a per-cell map was built")

        monkeypatch.setattr(engine.GraySpaceMap, "values", property(refuse))
        assert main([*argv, str(tmp_path / "runs")]) == 0
        plain = sorted((tmp_path / "plain").rglob("*.*"))
        assert len(plain) == 32
        for path in plain:
            runs = tmp_path / "runs" / path.relative_to(tmp_path / "plain")
            assert runs.read_text() == path.read_text().replace(
                str(tmp_path / "plain"), str(tmp_path / "runs")), path

    def test_kl3_expands_over_periods(self, workspace, tmp_path, capsys):
        text = workspace.read_text().replace(
            "levels = KL1,KL2", "levels = KL3\nperiods = TP1,TP2"
        )
        workspace.write_text(text)
        assert main(["simulate", "--config", str(workspace),
                     "--out", str(tmp_path / "kl3")]) == 0
        assert (tmp_path / "kl3" / "cpe-4w_KL3_TP1").is_dir()
        assert (tmp_path / "kl3" / "cpe-4w_KL3_TP2").is_dir()


class TestReport:
    def test_matches_simulate_for_kl1(self, workspace, capsys):
        main(["simulate", "--config", str(workspace)])
        combo = workspace.parent / "results" / "cpe-4w_KL1"
        assert main(
            ["report", "--config", str(workspace), "--map", str(combo / "map.csv")]
        ) == 0
        assert (
            (combo / "cdf_from_map.csv").read_bytes()
            == (combo / "cdf.csv").read_bytes()
        )
        assert (
            (combo / "utilization_from_map.csv").read_bytes()
            == (combo / "utilization.csv").read_bytes()
        )

    def test_without_grid_only_cdf(self, workspace, tmp_path, capsys):
        main(["simulate", "--config", str(workspace)])
        combo = workspace.parent / "results" / "cpe-4w_KL1"
        bare = write_config(
            tmp_path / "bare.cfg",
            "[plan]\nused_channels = 21,24,27,30,33\n",
        )
        out = tmp_path / "rep"
        assert main(
            ["report", "--config", str(bare), "--map", str(combo / "map.csv"),
             "--out", str(out)]
        ) == 0
        assert (out / "cdf_from_map.csv").is_file()
        assert not (out / "utilization_from_map.csv").exists()

    def test_missing_map_is_3(self, workspace, capsys):
        assert main(
            ["report", "--config", str(workspace), "--map", "/no/such/map.csv"]
        ) == 3

    def test_malformed_map_is_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "map.csv"
        bad.write_text("1,2\n3,abc\n")
        assert main(
            ["report", "--config", str(workspace), "--map", str(bad),
             "--out", str(tmp_path / "rep")]
        ) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("data", [b"\xc2\xa08,2\n", b"8\x0c,2\n"],
                             ids=["no-break-space", "form-feed"])
    def test_map_field_past_the_character_rule_is_3(self, workspace, tmp_path, capsys, data):
        # np.loadtxt alone strips both and reads [[8.0, 2.0]]
        bad = tmp_path / "map.csv"
        bad.write_bytes(data)
        out = tmp_path / "rep"
        assert main(
            ["report", "--config", str(workspace), "--map", str(bad), "--out", str(out)]
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}:1: ") and "Traceback" not in err
        assert not out.exists()

    def test_shape_mismatch_is_3_and_writes_nothing(self, workspace, tmp_path, capsys):
        small = tmp_path / "map.csv"
        small.write_text("0,8,16\n0,8,16\n0,8,16\n")
        out = tmp_path / "rep"
        assert main(
            ["report", "--config", str(workspace), "--map", str(small), "--out", str(out)]
        ) == 3
        assert "map shape (3, 3) does not match grid shape (8, 8)" in capsys.readouterr().err
        assert not out.exists()


def test_module_entry_point_runs_every_command(workspace, tmp_path):
    """``python -m grayspace`` runs each command and leaves only its outputs."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for argv in [
        ["linkbudget", "--config", "run.cfg", "--resolution", "1000", "--csv", "sep.csv"],
        ["ingest", "town.csv", "--out", "norm/town.csv", "--valid-mask", "norm/x.csv"],
        ["simulate", "--config", "run.cfg", "--realizations", "1", "--out", "res"],
        ["report", "--config", "run.cfg", "--map", "res/cpe-4w_KL2/map.csv"],
    ]:
        run = subprocess.run([sys.executable, "-m", "grayspace", *argv], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
    combination = ["map.csv", "cdf.csv", "utilization.csv", "summary.txt"]
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) == (
        sorted(["run.cfg", "town.csv", "sep.csv", "norm/town.csv", "norm/x.csv",
                "res/cpe-4w_KL2/cdf_from_map.csv", "res/cpe-4w_KL2/utilization_from_map.csv",
                *(f"res/{combo}/{name}" for combo in ("cpe-4w_KL1", "cpe-4w_KL2")
                  for name in combination)])
    )


def test_cli_import_leaves_out_the_process_pool(data_dir):
    """The process pool is imported only by a run with workers > 1, so no
    CLI start pays for it."""
    env = dict(os.environ, PYTHONPATH=str(data_dir.parent / "src"))
    code = "import sys, grayspace.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestSharedSampling:
    """simulate draws each realization once and builds segments once per
    device, however many (device, knowledge) pairs share them."""

    def test_draws_per_realization_and_builds_per_device(
        self, configs_dir, tmp_path, monkeypatch, capsys
    ):
        calls: collections.Counter[str] = collections.Counter()
        for module, name in ((scenario, "household_variates"), (engine, "receiver_segments")):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        realizations = 5
        assert main(
            ["simulate", "--config", str(configs_dir / "scattered.cfg"), "--resolution", "1000",
             "--realizations", str(realizations), "--workers", "1", "--out", str(tmp_path)]
        ) == 0
        assert len(list(tmp_path.iterdir())) == 8  # 2 devices x KL1, KL2, KL3-TP1, KL3-TP2
        assert calls == {"household_variates": realizations, "receiver_segments": 2}

    def test_builds_each_link_budget_once(self, configs_dir, tmp_path, monkeypatch, capsys):
        calls: collections.Counter[float] = collections.Counter()  # by device antenna height

        def counted(hata, loss_db, _original=linkbudget.distance_for_loss):
            calls[hata.base_height_m] += 1
            return _original(hata, loss_db)

        monkeypatch.setattr(linkbudget, "distance_for_loss", counted)
        assert main(
            ["simulate", "--config", str(configs_dir / "scattered.cfg"), "--resolution", "1000",
             "--realizations", "1", "--workers", "1", "--out", str(tmp_path)]
        ) == 0
        # a co-channel and an adjacent distance for each of the two devices
        assert calls == {30.0: 2, 2.0: 2}


class TestGoldenDigests:
    """SHA-256 over the map, CDF and utilization files of every combination
    of two shipped configs at 1 km, seed 11, 20 realizations.  The digests
    were recorded with the earlier per-knowledge-config sampling path, so a
    rewrite of sampling or of the hit pass must reproduce its bytes."""

    DIGESTS = {
        "scattered": "2d7571f0270d3ee40218d13d362df1d0324d9f60b3afb9dbdd33b8ad744ff6c7",
        "vinje": "94dadc7b62b0fedb2397c16ccd23aba67e265577dfb9a8f19fb95a90296d5ee4",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_trio_digest(self, configs_dir, tmp_path, capsys, name, workers):
        argv = ["simulate", "--config", str(configs_dir / f"{name}.cfg"), "--resolution", "1000",
                "--seed", "11", "--realizations", "20", "--workers", workers, "--out", str(tmp_path)]
        assert main(argv) == 0
        digest = hashlib.sha256()
        for combo in sorted(p.name for p in tmp_path.iterdir()):
            for fname in ("map.csv", "cdf.csv", "utilization.csv"):
                digest.update(f"{combo}/{fname}\n".encode())
                digest.update((tmp_path / combo / fname).read_bytes())
        assert digest.hexdigest() == self.DIGESTS[name]

    #: perfbench's sim-100m reference: one SHA-256 per file, keyed out/<town>/<combo>/<file>
    REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", ["clustered", "scattered"])
    def test_100m_files_match_the_benchmark_reference(self, configs_dir, tmp_path, capsys, name,
                                                      workers):
        reference = json.loads(self.REFERENCE.read_text())
        workload = reference["workloads"]["sim-100m"]
        argv = ["simulate", "--config", str(configs_dir / f"{name}.cfg"), "--resolution", "100",
                "--seed", str(reference["seed"]), "--realizations", str(workload["realizations"]),
                "--workers", workers, "--out", str(tmp_path)]
        assert (reference["seed"], workload["realizations"]) == (42, 4)
        assert main(argv) == 0
        want = {key.split("/", 2)[2]: digest for key, digest in workload["digests"].items()
                if key.startswith(f"out/{name}/")}
        got = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*/*.csv")}
        assert len(want) == 24 and got == want

    def test_report_100m_files_match_the_benchmark_reference(self, configs_dir, tmp_path, capsys):
        # report of each of the 16 maps that simulate stores at 100 m
        reference = json.loads(self.REFERENCE.read_text())
        workload = reference["workloads"]["report-100m"]
        assert (reference["seed"], workload["realizations"]) == (42, 4)
        got = {}
        for name in ("clustered", "scattered"):
            config, prep = configs_dir / f"{name}.cfg", tmp_path / "prep" / name
            assert main(["simulate", "--config", str(config), "--resolution", "100",
                         "--seed", "42", "--realizations", "4", "--workers", "1",
                         "--out", str(prep)]) == 0
            for stored in sorted(prep.glob("*/map.csv")):
                out = tmp_path / "out" / "report" / name / stored.parent.name
                assert main(["report", "--config", str(config), "--resolution", "100",
                             "--map", str(stored), "--out", str(out)]) == 0
                for path in out.glob("*.csv"):
                    key = path.relative_to(tmp_path).as_posix()
                    got[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        want = {key: digest for key, digest in workload["digests"].items()
                if key.startswith("out/report/")}
        assert len(want) == 32 and got == want


# ---------------------------------------------------------------------------
# properties over the config schema


def _simulate_quietly(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_text = st.text(alphabet="abcXYZ019 -_/.,:;#%=()", max_size=12).map(str.strip)


def _floats(low: float, high: float) -> st.SearchStrategy[float]:
    return st.floats(low, high, allow_nan=False)


@st.composite
def _configs(draw) -> dict[str, dict[str, object]]:
    """Valid configs over every schema key; floats keep full precision."""
    sections: dict[str, dict[str, object]] = {
        "run": {
            "seed": draw(st.integers(0, 2**64 - 1)),
            "realizations": draw(st.integers(1, 2)),
            "workers": 1,
            "out": "results",
            "resolution": draw(st.sampled_from(["1000", "1e3", None])),
            "buckets": draw(st.sampled_from(["24-64,72-96,96<", " 0-8, 16-40 ,48<", "100<"])),
        },
        "criteria": {
            "label": draw(_text),
            "min_field_strength_dbuvm": draw(_floats(30, 70)),
            "ci_cochannel_db": draw(_floats(10, 40)),
            "ci_adjacent_db": draw(_floats(-40, 0)),
            "receiver_height_m": draw(_floats(1, 20)),
        },
        "hata": {
            "frequency_mhz": draw(_floats(470, 790)),
            "environment": draw(st.sampled_from(ENVIRONMENTS)).title(),
        },
        "device." + draw(st.from_regex(r"\A[A-Za-z0-9][A-Za-z0-9._-]{0,8}\Z")): {
            "eirp_mw": draw(_floats(1, 1e4)),
            "antenna_height_m": draw(_floats(1.5, 60)),
        },
        "plan": {
            "total_band_mhz": draw(_floats(150, 1000)),
            "channel_bandwidth_mhz": draw(_floats(1, 8)),
            "used_channels": ",".join(map(str, draw(
                st.lists(st.integers(21, 69), min_size=5, max_size=5, unique=True)
            ))),
            "dedup_adjacent": draw(st.sampled_from(["true", "no", "On", "0"])),
        },
        "knowledge": {
            "levels": ",".join(draw(st.lists(
                st.sampled_from(KNOWLEDGE_LEVELS), min_size=1, max_size=3, unique=True
            ))).lower(),
            "interpretation": draw(st.sampled_from(SHARE_INTERPRETATIONS)),
            "p_mux1_capable": draw(_floats(0, 1)),
            "p_subscribe_mux2to5": draw(_floats(0, 1)),
        },
        "grid": {"path": "town.csv"},
    }
    viewing = draw(st.sampled_from(["periods", "shares", None]))
    if viewing == "periods":
        sections["knowledge"]["periods"] = ",".join(draw(st.lists(
            st.sampled_from(TIME_PERIODS), min_size=1, max_size=2, unique=True
        )))
    elif viewing == "shares":
        sections["knowledge"]["shares"] = ",".join(
            repr(s) for s in draw(st.lists(_floats(0, 0.2), min_size=5, max_size=5))
        )
    return sections


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for header, keys in sections.items():
        lines.append(f"[{header}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items() if value is not None]
    return "\n".join(lines) + "\n"


class TestSummaryRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(_configs())
    @example({
        "run": {"seed": 0, "out": "results"},
        "criteria": {"preset": "fcc"},
        "hata": {"frequency_mhz": 650.0},
        "device.a": {"eirp_mw": 0.1 + 0.2, "antenna_height_m": 30.000000000000004},
        "knowledge": {"levels": "KL2,KL3", "p_mux1_capable": 0.98000000001,
                      "shares": "0.1,0.1,0.1,0.1,1e-17"},
        "grid": {"path": "town.csv"},
    })
    def test_summary_parses_back_to_its_combination(self, sections):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_grid(root / "town.csv")
            config = write_config(root / "run.cfg", _ini(sections))
            cfg = load_run_config(config)
            code, err = _simulate_quietly(["simulate", "--config", str(config)])
            assert code == 0, err
            for link, knowledge in _combinations(cfg):
                device, period = link.device, knowledge.time_period
                name = f"{device.label}_{knowledge.level}" + (f"_{period}" if period else "")
                again = load_run_config(cfg.out / name / "summary.txt")
                assert repr(again.criteria) == repr(cfg.criteria)
                assert repr(again.devices) == repr((device,))
                assert repr(again.plan) == repr(cfg.plan)
                assert repr(_combinations(again)) == repr([(link, knowledge)])
                assert (again.frequency_mhz, again.environment) == (
                    cfg.frequency_mhz, cfg.environment
                )
                assert (again.seed, again.realizations, again.workers, again.buckets) == (
                    cfg.seed, cfg.realizations, cfg.workers, cfg.buckets
                )
                assert (again.out, again.resolution, again.grid_path) == (
                    cfg.out, 1000.0, cfg.grid_path
                )


_FUZZ_BASE = """\
[run]
seed = 7
realizations = 1
workers = 1
resolution = 1000
buckets = 24-64,72-96,96<

[criteria]
label = ofcom
min_field_strength_dbuvm = 50
ci_cochannel_db = 33
ci_adjacent_db = -17
receiver_height_m = 10

[hata]
frequency_mhz = 650
environment = suburban

[device.cpe-4w]
eirp_mw = 4000
antenna_height_m = 30

[plan]
total_band_mhz = 320
channel_bandwidth_mhz = 8
used_channels = 21,24,27,30,33
dedup_adjacent = true

[knowledge]
levels = KL1,KL3
periods = TP2
interpretation = conditional_on_subscription
p_mux1_capable = 0.98
p_subscribe_mux2to5 = 0.15

[grid]
path = town.csv
"""

# Replacement values.  1e-7 (as frequency_mhz) and 1e300 (as eirp_mw) give
# a protection reach of billions of cells, which the engine caps at the grid.
_FUZZ_NUMBERS = [
    "", "0", "-0", "-1", "0.5", "1e-7", "1e7", "-1e7", "1e-300", "1e300", "1e400",
    "nan", "inf", "-inf",
]
_FUZZ_WORDS = [
    "abc", "none", "true", "KL3", "TP9", "fcc", "urban", "0.5,0.3,0.3,0.3,0.3",
    "21,24,27,30", "21,24,27,30,33,36", "24-64,60-70", "nope.csv", "town.csv",
]
_FUZZ_KEYS = [
    "seed", "realizations", "resolution", "buckets", "colour", "preset", "label",
    "min_field_strength_dbuvm", "ci_cochannel_db", "ci_adjacent_db",
    "ci_adjacent_lower_db", "receiver_height_m", "frequency_mhz", "environment",
    "eirp_mw", "antenna_height_m", "total_band_mhz", "channel_bandwidth_mhz",
    "used_channels", "dedup_adjacent", "levels", "periods", "shares",
    "interpretation", "p_mux1_capable", "path", "path_1000m", "path_1000.0m",
]
_FUZZ_HEADERS = ["[result]", "[device.extra]", "[device.bad name]", "[bogus]", "[knowledge]"]
_line = st.integers(0, _FUZZ_BASE.count("\n") - 1)
_key_line = st.sampled_from([i for i, line in enumerate(_FUZZ_BASE.splitlines()) if "=" in line])
_mutation = st.one_of(
    st.tuples(st.just("set"), _key_line, st.sampled_from(_FUZZ_NUMBERS)),
    st.tuples(st.just("set"), _key_line, st.sampled_from(_FUZZ_WORDS) | _text),
    st.tuples(st.just("drop"), _line),
    st.tuples(st.just("add"), _line, st.sampled_from(_FUZZ_KEYS),
              st.sampled_from(_FUZZ_NUMBERS + _FUZZ_WORDS)),
    st.tuples(st.just("header"), _line, st.sampled_from(_FUZZ_HEADERS)),
)


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for op, at, *args in mutations:
        at %= len(lines) or 1
        if op == "set" and "=" in lines[at] and not lines[at].startswith("["):
            lines[at] = lines[at].split("=")[0] + "= " + args[0]
        elif op == "drop" and lines:
            del lines[at]
        elif op == "add":
            lines.insert(at + 1, f"{args[0]} = {args[1]}")
        elif op == "header":
            lines.insert(at, args[0])
    return "\n".join(lines) + "\n"


class TestSimulateFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_mutation, min_size=1, max_size=4))
    def test_mutated_config_exits_cleanly(self, mutations):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_grid(root / "town.csv")
            config = write_config(root / "run.cfg", _mutate(_FUZZ_BASE, mutations))
            out = root / "out"
            code, err = _simulate_quietly(
                ["simulate", "--config", str(config), "--out", str(out),
                 "--realizations", "1", "--workers", "1"]
            )
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            assert code == 0 or not out.exists(), err


# Grid CSV mutations.  Sizes are small or need more than 2**63 bytes:
# a machine that overcommits memory could really allocate anything between.
_GRID_SIZES = ["", "abc", "nan", "inf", "-1", "-0", "0", "1", "2.5", "3", "8", "9",
               "1e19", "1e30"]
_GRID_REALS = ["", "abc", "nan", "inf", "-inf", "-5", "0", "1e-300", "1e-150", "1",
               "59.5", "63", "64", "100", "1000", "1e300"]
_GRID_INTS = ["", "x", "1.5", "1e3", "-1", "0", "1", "7", "8", str(2**62),
              str(2**63 - 1), str(2**63), "99999999999999999999", str(2**70)]
_GRID_KEYS = {"rows": _GRID_SIZES, "cols": _GRID_SIZES,
              "resolution_m": _GRID_REALS, "municipal_area_km2": _GRID_REALS}
_grid_mutation = st.one_of(
    st.sampled_from(sorted(_GRID_KEYS)).flatmap(
        lambda key: st.tuples(st.just("meta"), st.integers(0, 8), st.just(key),
                              st.sampled_from(_GRID_KEYS[key]))
    ),
    st.tuples(st.just("field"), st.integers(0, 8), st.integers(0, 2),
              st.sampled_from(_GRID_INTS)),
    st.tuples(st.just("width"), st.integers(0, 8), st.integers(1, 4)),
    st.tuples(st.just("copy"), st.integers(0, 8)),
    st.tuples(st.just("drop"), st.integers(0, 8)),
)


def _mutate_grid(text: str, mutations) -> str:
    lines = text.splitlines()
    for op, at, *args in mutations:
        at %= len(lines) or 1
        records = [i for i, line in enumerate(lines) if line[:1].isdigit()]
        record = records[at % len(records)] if records else None
        if op == "meta":
            line = f"# {args[0]}={args[1]}"
            keyed = [i for i, old in enumerate(lines) if old.startswith(f"# {args[0]}=")]
            if keyed:
                lines[keyed[0]] = line
            else:
                lines.insert(at, line)
        elif op == "field" and record is not None:
            fields = lines[record].split(",")
            fields[args[0] % len(fields)] = args[1]
            lines[record] = ",".join(fields)
        elif op == "width" and record is not None:
            lines[record] = ",".join((lines[record].split(",") + ["1"] * 4)[: args[0]])
        elif op == "copy" and lines:  # a copied metadata line repeats its key
            lines.insert(at, lines[at])
        elif op == "drop" and lines:
            del lines[at]
    return "\n".join(lines) + "\n"


class TestGridFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_grid_mutation, min_size=1, max_size=4))
    @example([("meta", 0, "rows", "nan")])
    @example([("field", 2, 2, str(2**62))])
    def test_mutated_grid_exits_cleanly(self, mutations):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_grid(root / "town.csv")
            grid = root / "town.csv"
            grid.write_text(_mutate_grid(grid.read_text(), mutations))
            config = write_config(
                root / "run.cfg", _FUZZ_BASE.replace("resolution = 1000\n", "")
            )
            for command in ("ingest", "simulate", "report"):
                out = root / command
                code, err = _simulate_quietly(_grid_argv(command, config, out))
                # 2 only where the grid's resolution has no [grid] path
                assert code in ((0, 3) if command == "ingest" else (0, 2, 3)), err
                assert "Traceback" not in err
                assert code == 0 or not out.exists(), err
