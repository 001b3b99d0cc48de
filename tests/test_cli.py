from __future__ import annotations

import textwrap
from pathlib import Path

import numpy as np
import pytest

from grayspace.cli import load_run_config, main
from grayspace.errors import ConfigError
from grayspace.griddata import (
    HouseholdGrid,
    ingest_grid,
    load_grid_csv,
    read_matrix_csv,
    read_matrix_rle,
    write_grid_csv,
)


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

    def test_adjacent_lower_none(self, tmp_path):
        config = write_config(
            tmp_path / "c.cfg",
            "[criteria]\npreset = fcc\nci_adjacent_lower_db = none\n",
        )
        cfg = load_run_config(config)
        assert cfg.criteria.ci_adjacent_lower_db is None

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
        ],
        ids=["nan-frequency", "flat-hata-slope"],
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
        mask = tmp_path / "mask.rle"
        assert main(
            ["ingest", str(src), "--out", str(out), "--valid-mask", str(mask)]
        ) == 0
        printed = capsys.readouterr().out
        assert "5 border cells invalidated" in printed
        assert "valid cells 59" in printed

        values = read_matrix_rle(mask)
        assert values.shape == (8, 8) and values.sum() == 59

        # normalization is idempotent: reloading reapplies the same scan
        reloaded = load_grid_csv(out)
        assert reloaded.municipal_area_km2 == 59.0

    def test_csv_mask(self, tmp_path):
        src = tmp_path / "raw.csv"
        write_grid(src, municipal_area_km2=63.0)
        mask = tmp_path / "mask.csv"
        main(["ingest", str(src), "--out", str(tmp_path / "n.csv"),
              "--valid-mask", str(mask)])
        assert read_matrix_csv(mask).sum() == 63


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
