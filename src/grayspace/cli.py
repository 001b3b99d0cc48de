"""Command-line interface.

Subcommands:

``linkbudget``
    Minimum separation distances per device and channel relation, raw and
    quantized to the grid resolution (text table, optionally CSV).
``ingest``
    Normalize a household grid CSV and invalidate border cells until the
    valid area matches the municipal area.
``simulate``
    Run the Monte Carlo evaluation for every configured combination of
    device, knowledge level and time period.
``report``
    Re-derive CDF and utilization tables from a stored mean map.  These are
    statistics *of the mean map*; they equal the averaged per-realization
    statistics only where the map is deterministic (e.g. KL1).

Configuration files are INI.  Relative paths inside a config resolve
against the config file's directory.  ``simulate`` writes one directory per
combination containing ``map.csv``, ``cdf.csv``, ``utilization.csv`` and
``summary.txt``; the summary is itself a valid config pinned to that single
combination, so feeding it back to ``simulate`` reproduces the run.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 anything else.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import re
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import BACKEND
from .engine import (
    Bucket,
    DEFAULT_BUCKETS,
    cdf_from_map,
    parse_buckets,
    run_monte_carlo,
    utilization_from_map,
    write_cdf_csv,
    write_utilization_csv,
)
from .errors import ConfigError, DataError, DomainError, GrayspaceError
from .griddata import (
    HouseholdGrid,
    compensate_area,
    load_grid_csv,
    read_matrix_csv,
    read_matrix_rle,
    write_grid_csv,
    write_matrix_csv,
    write_matrix_rle,
)
from .linkbudget import (
    RELATIONS,
    REGULATOR_PRESETS,
    DeviceProfile,
    ProtectionCriteria,
    SeparationReport,
    quantize_distance,
    separation_report,
)
from .propagation import ENVIRONMENTS, HataParams
from .scenario import (
    KNOWLEDGE_LEVELS,
    TIME_PERIODS,
    SHARE_INTERPRETATIONS,
    ChannelPlan,
    KnowledgeConfig,
    gray_space_capacity,
    white_space_amount,
)

DEFAULT_BUCKETS_TEXT = "24-64,72-96,96<"

_GRID_PATH_RE = re.compile(r"^path_(\d+(?:\.\d+)?)m$")
_DEVICE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_CRITERIA_FLOAT_KEYS = {
    "min_field_strength_dbuvm",
    "ci_cochannel_db",
    "ci_adjacent_db",
    "ci_adjacent_lower_db",
    "channel_bandwidth_mhz",
    "location_accuracy_m",
    "receiver_height_m",
}
_CRITERIA_STR_KEYS = {"label", "power_limit_cochannel", "power_limit_adjacent"}
_CRITERIA_REQUIRED = {
    "min_field_strength_dbuvm",
    "ci_cochannel_db",
    "ci_adjacent_db",
    "channel_bandwidth_mhz",
    "location_accuracy_m",
}


def _g(value: float) -> str:
    return f"{value:.10g}"


# ---------------------------------------------------------------------------
# config parsing


@dataclass
class RunConfig:
    config_dir: Path
    seed: int = 0
    realizations: int = 100
    workers: int = 1
    out: Path = Path("out")
    resolution: float | None = None
    buckets: tuple[Bucket, ...] = DEFAULT_BUCKETS
    buckets_text: str = DEFAULT_BUCKETS_TEXT
    criteria: ProtectionCriteria = REGULATOR_PRESETS["ofcom"]
    devices: tuple[DeviceProfile, ...] = ()
    frequency_mhz: float | None = None
    environment: str = "suburban"
    plan: ChannelPlan = ChannelPlan()
    levels: tuple[str, ...] = KNOWLEDGE_LEVELS
    periods: tuple[str, ...] = TIME_PERIODS
    interpretation: str = "unconditional"
    p_mux1_capable: float = 0.98
    p_subscribe_mux2to5: float = 0.15
    shares: tuple[float, ...] | None = None
    grid_path: Path | None = None
    grid_paths: dict[float, Path] = dataclasses.field(default_factory=dict)


def _check_keys(source: str, section: str, data: dict[str, str], allowed: set[str]) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{source}: [{section}] has unknown keys: {', '.join(unknown)}")


def _to_float(source: str, section: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{source}: [{section}] {key} = {text!r} is not a number") from None


def _to_int(source: str, section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{source}: [{section}] {key} = {text!r} is not an integer") from None


def _to_bool(source: str, section: str, key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{source}: [{section}] {key} = {text!r} is not a boolean")


def _split_list(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _validate_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _parse_criteria(source: str, data: dict[str, str]) -> ProtectionCriteria:
    data = dict(data)
    _check_keys(
        source, "criteria", data, _CRITERIA_FLOAT_KEYS | _CRITERIA_STR_KEYS | {"preset"}
    )
    preset_name = data.pop("preset", None)
    kwargs: dict[str, object] = {}
    for key, text in data.items():
        if key in _CRITERIA_STR_KEYS:
            kwargs[key] = text
        elif key == "ci_adjacent_lower_db" and text.strip().lower() == "none":
            kwargs[key] = None
        else:
            kwargs[key] = _to_float(source, "criteria", key, text)
    try:
        if preset_name is not None:
            preset = REGULATOR_PRESETS.get(preset_name.strip().lower())
            if preset is None:
                raise ConfigError(
                    f"{source}: unknown criteria preset {preset_name!r}; "
                    f"choose from {sorted(REGULATOR_PRESETS)}"
                )
            return dataclasses.replace(preset, **kwargs) if kwargs else preset
        missing = sorted(_CRITERIA_REQUIRED - set(kwargs))
        if missing:
            raise ConfigError(
                f"{source}: [criteria] needs a preset or the keys: {', '.join(missing)}"
            )
        kwargs.setdefault("label", "custom")
        return ProtectionCriteria(**kwargs)  # type: ignore[arg-type]
    except DomainError as exc:
        raise ConfigError(f"{source}: [criteria] {exc}") from None


def load_run_config(path: str | Path) -> RunConfig:
    """Parse an INI run configuration.

    Sections: [run], [criteria], [hata], [plan], [knowledge], [grid] and one
    [device.NAME] per candidate transmitter.  A [result] section (written by
    ``simulate`` into summary files) is tolerated and ignored.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    source = str(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(path.read_text(), source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

    known = {"run", "criteria", "hata", "plan", "knowledge", "grid", "result"}
    cfg = RunConfig(config_dir=path.parent.resolve())

    for section in parser.sections():
        if section not in known and not section.startswith("device."):
            raise ConfigError(f"{source}: unknown section [{section}]")

    def absolute(text: str) -> Path:
        p = Path(text)
        return p if p.is_absolute() else (cfg.config_dir / p).resolve()

    if parser.has_section("run"):
        data = dict(parser["run"])
        _check_keys(
            source, "run", data,
            {"seed", "realizations", "workers", "out", "resolution", "buckets"},
        )
        if "seed" in data:
            cfg.seed = _validate_seed(_to_int(source, "run", "seed", data["seed"]))
        if "realizations" in data:
            cfg.realizations = _to_int(source, "run", "realizations", data["realizations"])
            if cfg.realizations < 1:
                raise ConfigError(f"{source}: realizations must be >= 1")
        if "workers" in data:
            cfg.workers = _to_int(source, "run", "workers", data["workers"])
            if cfg.workers < 1:
                raise ConfigError(f"{source}: workers must be >= 1")
        if "out" in data:
            cfg.out = absolute(data["out"])
        if "resolution" in data:
            cfg.resolution = _to_float(source, "run", "resolution", data["resolution"])
            if not cfg.resolution > 0:
                raise ConfigError(f"{source}: resolution must be positive")
        if "buckets" in data:
            cfg.buckets_text = data["buckets"].strip()
            cfg.buckets = parse_buckets(cfg.buckets_text)

    if parser.has_section("criteria"):
        cfg.criteria = _parse_criteria(source, dict(parser["criteria"]))

    if parser.has_section("hata"):
        data = dict(parser["hata"])
        _check_keys(source, "hata", data, {"frequency_mhz", "environment"})
        if "frequency_mhz" in data:
            cfg.frequency_mhz = _to_float(source, "hata", "frequency_mhz", data["frequency_mhz"])
        if "environment" in data:
            cfg.environment = data["environment"].strip().lower()
            if cfg.environment not in ENVIRONMENTS:
                raise ConfigError(
                    f"{source}: environment must be one of {ENVIRONMENTS}, "
                    f"got {cfg.environment!r}"
                )

    devices: list[DeviceProfile] = []
    for section in parser.sections():
        if not section.startswith("device."):
            continue
        label = section[len("device."):]
        if not _DEVICE_NAME_RE.match(label):
            raise ConfigError(f"{source}: bad device name {label!r}")
        data = dict(parser[section])
        _check_keys(source, section, data, {"eirp_mw", "antenna_height_m"})
        for key in ("eirp_mw", "antenna_height_m"):
            if key not in data:
                raise ConfigError(f"{source}: [{section}] is missing {key}")
        try:
            devices.append(
                DeviceProfile(
                    label=label,
                    eirp_mw=_to_float(source, section, "eirp_mw", data["eirp_mw"]),
                    antenna_height_m=_to_float(
                        source, section, "antenna_height_m", data["antenna_height_m"]
                    ),
                )
            )
        except DomainError as exc:
            raise ConfigError(f"{source}: [{section}] {exc}") from None
    if len({d.label for d in devices}) != len(devices):
        raise ConfigError(f"{source}: duplicate device names")
    cfg.devices = tuple(devices)

    if parser.has_section("plan"):
        data = dict(parser["plan"])
        _check_keys(
            source, "plan", data,
            {"total_band_mhz", "channel_bandwidth_mhz", "used_channels", "dedup_adjacent"},
        )
        kwargs: dict[str, object] = {}
        if "total_band_mhz" in data:
            kwargs["total_band_mhz"] = _to_float(
                source, "plan", "total_band_mhz", data["total_band_mhz"]
            )
        if "channel_bandwidth_mhz" in data:
            kwargs["channel_bandwidth_mhz"] = _to_float(
                source, "plan", "channel_bandwidth_mhz", data["channel_bandwidth_mhz"]
            )
        if "used_channels" in data:
            kwargs["used_channels"] = tuple(
                _to_int(source, "plan", "used_channels", tok)
                for tok in _split_list(data["used_channels"])
            )
        if "dedup_adjacent" in data:
            kwargs["dedup_adjacent"] = _to_bool(
                source, "plan", "dedup_adjacent", data["dedup_adjacent"]
            )
        cfg.plan = ChannelPlan(**kwargs)  # type: ignore[arg-type]

    if parser.has_section("knowledge"):
        data = dict(parser["knowledge"])
        _check_keys(
            source, "knowledge", data,
            {"levels", "periods", "interpretation", "p_mux1_capable",
             "p_subscribe_mux2to5", "shares"},
        )
        if "levels" in data:
            levels = tuple(token.upper() for token in _split_list(data["levels"]))
            if not levels:
                raise ConfigError(f"{source}: [knowledge] levels is empty")
            for level in levels:
                if level not in KNOWLEDGE_LEVELS:
                    raise ConfigError(
                        f"{source}: unknown knowledge level {level!r}; "
                        f"choose from {KNOWLEDGE_LEVELS}"
                    )
            if len(set(levels)) != len(levels):
                raise ConfigError(f"{source}: [knowledge] levels has duplicates")
            cfg.levels = levels
        if "periods" in data and "shares" in data:
            raise ConfigError(f"{source}: [knowledge] give periods or shares, not both")
        if "periods" in data:
            periods = tuple(token.upper() for token in _split_list(data["periods"]))
            if not periods:
                raise ConfigError(f"{source}: [knowledge] periods is empty")
            for period in periods:
                if period not in TIME_PERIODS:
                    raise ConfigError(
                        f"{source}: unknown time period {period!r}; "
                        f"choose from {TIME_PERIODS}"
                    )
            if len(set(periods)) != len(periods):
                raise ConfigError(f"{source}: [knowledge] periods has duplicates")
            cfg.periods = periods
        if "shares" in data:
            cfg.shares = tuple(
                _to_float(source, "knowledge", "shares", tok)
                for tok in _split_list(data["shares"])
            )
        if "interpretation" in data:
            cfg.interpretation = data["interpretation"].strip().lower()
            if cfg.interpretation not in SHARE_INTERPRETATIONS:
                raise ConfigError(
                    f"{source}: interpretation must be one of "
                    f"{SHARE_INTERPRETATIONS}, got {cfg.interpretation!r}"
                )
        if "p_mux1_capable" in data:
            cfg.p_mux1_capable = _to_float(
                source, "knowledge", "p_mux1_capable", data["p_mux1_capable"]
            )
        if "p_subscribe_mux2to5" in data:
            cfg.p_subscribe_mux2to5 = _to_float(
                source, "knowledge", "p_subscribe_mux2to5", data["p_subscribe_mux2to5"]
            )

    if parser.has_section("grid"):
        data = dict(parser["grid"])
        for key, value in data.items():
            if key == "path":
                cfg.grid_path = absolute(value)
            else:
                match = _GRID_PATH_RE.match(key)
                if match is None:
                    raise ConfigError(
                        f"{source}: [grid] keys must be 'path' or 'path_<res>m', got {key!r}"
                    )
                cfg.grid_paths[float(match.group(1))] = absolute(value)
        if cfg.grid_path is not None and cfg.grid_paths:
            raise ConfigError(f"{source}: [grid] mixes 'path' with 'path_<res>m' keys")

    return cfg


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is not None:
        cfg.seed = _validate_seed(args.seed)
    if getattr(args, "realizations", None) is not None:
        if args.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        cfg.realizations = args.realizations
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ConfigError("workers must be >= 1")
        cfg.workers = args.workers
    if getattr(args, "out", None) is not None:
        cfg.out = Path(args.out)
    if getattr(args, "resolution", None) is not None:
        if not args.resolution > 0:
            raise ConfigError("resolution must be positive")
        cfg.resolution = args.resolution


def _select_grid_path(cfg: RunConfig) -> Path:
    if cfg.grid_path is not None:
        return cfg.grid_path
    if not cfg.grid_paths:
        raise ConfigError("no [grid] path configured")
    if cfg.resolution is not None:
        for res, p in cfg.grid_paths.items():
            if res == cfg.resolution:
                return p
        raise ConfigError(
            f"no grid for resolution {_g(cfg.resolution)} m; available: "
            f"{', '.join(_g(r) + ' m' for r in sorted(cfg.grid_paths))}"
        )
    if len(cfg.grid_paths) == 1:
        return next(iter(cfg.grid_paths.values()))
    raise ConfigError(
        "several grid resolutions are configured; select one with --resolution"
    )


def _load_selected_grid(cfg: RunConfig) -> tuple[HouseholdGrid, Path]:
    grid_path = _select_grid_path(cfg)
    if not grid_path.is_file():
        raise DataError(f"grid file not found: {grid_path}")
    grid = load_grid_csv(grid_path)
    if cfg.resolution is not None and grid.resolution_m != cfg.resolution:
        raise ConfigError(
            f"configured resolution {_g(cfg.resolution)} m but {grid_path} "
            f"declares {_g(grid.resolution_m)} m"
        )
    for res, p in cfg.grid_paths.items():
        if p == grid_path and grid.resolution_m != res:
            raise ConfigError(
                f"[grid] key path_{_g(res)}m points at a file declaring "
                f"{_g(grid.resolution_m)} m"
            )
    # The CSV format carries the municipal area, not the validity mask, so
    # compensation is re-derived at load time (deterministic border scan).
    grid, invalidated = compensate_area(grid)
    if invalidated:
        print(f"# {invalidated} border cells invalidated to match municipal "
              f"area {_g(grid.municipal_area_km2)} km2")
    return grid, grid_path


def _hata_for_device(cfg: RunConfig, device: DeviceProfile) -> HataParams:
    if cfg.frequency_mhz is None:
        raise ConfigError("[hata] frequency_mhz is required")
    return HataParams(
        carrier_frequency_mhz=cfg.frequency_mhz,
        base_height_m=device.antenna_height_m,
        mobile_height_m=cfg.criteria.receiver_height_m,
        environment=cfg.environment,
    )


def _require_devices(cfg: RunConfig) -> None:
    if not cfg.devices:
        raise ConfigError("no [device.NAME] sections configured")


def _separation_reports(cfg: RunConfig) -> list[SeparationReport]:
    """Link budget of every configured device, in device order.

    Built before anything is written, so a propagation domain error (a
    non-finite frequency, a base height that flattens the Hata slope) is
    a configuration error naming the sections involved.
    """
    reports = []
    for device in cfg.devices:
        try:
            reports.append(
                separation_report(device, cfg.criteria, _hata_for_device(cfg, device))
            )
        except DomainError as exc:
            raise ConfigError(f"[hata] with [device.{device.label}]: {exc}") from None
    return reports


# ---------------------------------------------------------------------------
# linkbudget


def _linkbudget_resolutions(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.resolution is not None:
        return (cfg.resolution,)
    if cfg.grid_paths:
        return tuple(sorted(cfg.grid_paths))
    if cfg.grid_path is not None and cfg.grid_path.is_file():
        return (load_grid_csv(cfg.grid_path).resolution_m,)
    raise ConfigError("no resolution configured (set [run] resolution or a grid)")


def _cmd_linkbudget(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    _apply_overrides(cfg, args)
    _require_devices(cfg)
    resolutions = _linkbudget_resolutions(cfg)

    rows = []
    warnings: list[str] = []
    for report in _separation_reports(cfg):
        device = report.device
        warnings.extend(report.warnings)
        for relation in RELATIONS:
            for res in resolutions:
                distance = report.min_distance_m(relation)
                rows.append((
                    device.label,
                    relation,
                    res,
                    report.field_strength_dbuvm,
                    report.min_loss_co_db if relation == "co" else report.min_loss_adjacent_db,
                    distance,
                    quantize_distance(distance, res),
                ))

    print(f"criteria: {cfg.criteria.label}   backend: {BACKEND}")
    header = (
        f"{'device':<16} {'relation':<9} {'res_m':>7} {'field_dbuvm':>12} "
        f"{'min_loss_db':>12} {'distance_m':>12} {'quantized_m':>12}"
    )
    print(header)
    for label, relation, res, field, loss, distance, quantized in rows:
        print(
            f"{label:<16} {relation:<9} {_g(res):>7} {_g(field):>12} "
            f"{_g(loss):>12} {distance:>12.1f} {_g(quantized):>12}"
        )
    for warning in dict.fromkeys(warnings):
        print(f"# warning: {warning}")

    if args.csv is not None:
        lines = ["device,relation,resolution_m,field_dbuvm,min_loss_db,"
                 "min_distance_m,quantized_distance_m"]
        for label, relation, res, field, loss, distance, quantized in rows:
            lines.append(
                f"{label},{relation},{_g(res)},{_g(field)},{_g(loss)},"
                f"{_g(distance)},{_g(quantized)}"
            )
        csv_path = Path(args.csv)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text("\n".join(lines) + "\n")
        print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# ingest


def _cmd_ingest(args: argparse.Namespace) -> int:
    grid = load_grid_csv(
        args.grid,
        resolution_m=args.resolution,
        municipal_area_km2=args.municipal_area_km2,
    )
    compensated, invalidated = compensate_area(grid)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_grid_csv(out, compensated)
    print(f"grid: {compensated.rows} rows x {compensated.cols} cols at "
          f"{_g(compensated.resolution_m)} m, {compensated.total_households} households")
    print(f"{invalidated} border cells invalidated "
          f"(municipal area {_g(compensated.municipal_area_km2)} km2, "
          f"valid cells {int(compensated.valid.sum())})")
    print(f"wrote {out}")
    if args.valid_mask is not None:
        mask_path = Path(args.valid_mask)
        mask = compensated.valid.astype(np.uint8)
        if mask_path.suffix == ".rle":
            write_matrix_rle(mask_path, mask)
        else:
            write_matrix_csv(mask_path, mask)
        print(f"wrote {mask_path}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _combinations(cfg: RunConfig) -> list[tuple[DeviceProfile, str, str | None]]:
    combos: list[tuple[DeviceProfile, str, str | None]] = []
    for device in cfg.devices:
        for level in cfg.levels:
            if level == "KL3" and cfg.shares is None:
                combos.extend((device, level, period) for period in cfg.periods)
            else:
                combos.append((device, level, None))
    return combos


def _knowledge_for(cfg: RunConfig, level: str, period: str | None) -> KnowledgeConfig:
    return KnowledgeConfig(
        level=level,
        p_mux1_capable=cfg.p_mux1_capable,
        p_subscribe_mux2to5=cfg.p_subscribe_mux2to5,
        time_period=period,
        mux_shares=cfg.shares if level == "KL3" and cfg.shares is not None else None,
        share_interpretation=cfg.interpretation,
    )


def _summary_text(
    cfg: RunConfig,
    device: DeviceProfile,
    level: str,
    period: str | None,
    grid: HouseholdGrid,
    grid_path: Path,
    result,
    capacity_mhz: float,
    white_mhz: float,
) -> str:
    criteria = cfg.criteria
    lines = ["# run summary; also a valid config reproducing this single combination"]
    for warning in result.warnings:
        lines.append(f"# warning: {warning}")
    lines += [
        "",
        "[run]",
        f"seed = {cfg.seed}",
        f"realizations = {cfg.realizations}",
        f"workers = {cfg.workers}",
        f"out = {cfg.out.resolve()}",
        f"resolution = {_g(grid.resolution_m)}",
        f"buckets = {cfg.buckets_text}",
        "",
        "[criteria]",
        f"label = {criteria.label}",
        f"min_field_strength_dbuvm = {_g(criteria.min_field_strength_dbuvm)}",
        f"ci_cochannel_db = {_g(criteria.ci_cochannel_db)}",
        f"ci_adjacent_db = {_g(criteria.ci_adjacent_db)}",
        f"channel_bandwidth_mhz = {_g(criteria.channel_bandwidth_mhz)}",
        f"location_accuracy_m = {_g(criteria.location_accuracy_m)}",
        f"receiver_height_m = {_g(criteria.receiver_height_m)}",
    ]
    if criteria.ci_adjacent_lower_db is not None:
        lines.append(f"ci_adjacent_lower_db = {_g(criteria.ci_adjacent_lower_db)}")
    if criteria.power_limit_cochannel:
        lines.append(f"power_limit_cochannel = {criteria.power_limit_cochannel}")
    if criteria.power_limit_adjacent:
        lines.append(f"power_limit_adjacent = {criteria.power_limit_adjacent}")
    lines += [
        "",
        "[hata]",
        f"frequency_mhz = {_g(cfg.frequency_mhz)}",
        f"environment = {cfg.environment}",
        "",
        f"[device.{device.label}]",
        f"eirp_mw = {_g(device.eirp_mw)}",
        f"antenna_height_m = {_g(device.antenna_height_m)}",
        "",
        "[plan]",
        f"total_band_mhz = {_g(cfg.plan.total_band_mhz)}",
        f"channel_bandwidth_mhz = {_g(cfg.plan.channel_bandwidth_mhz)}",
        f"used_channels = {','.join(str(c) for c in cfg.plan.used_channels)}",
        f"dedup_adjacent = {'true' if cfg.plan.dedup_adjacent else 'false'}",
        "",
        "[knowledge]",
        f"levels = {level}",
    ]
    if period is not None:
        lines.append(f"periods = {period}")
    elif level == "KL3" and cfg.shares is not None:
        lines.append(f"shares = {','.join(_g(s) for s in cfg.shares)}")
    lines += [
        f"interpretation = {cfg.interpretation}",
        f"p_mux1_capable = {_g(cfg.p_mux1_capable)}",
        f"p_subscribe_mux2to5 = {_g(cfg.p_subscribe_mux2to5)}",
        "",
        "[grid]",
        f"path = {grid_path.resolve()}",
        "",
        "[result]",
        f"backend = {BACKEND}",
        f"co_radius_m = {_g(result.co_radius_m)}",
        f"adjacent_radius_m = {_g(result.adjacent_radius_m)}",
        f"capacity_mhz = {_g(capacity_mhz)}",
        f"white_space_mhz = {_g(white_mhz)}",
        f"valid_cells = {int(grid.valid.sum())}",
        f"total_households = {grid.total_households}",
        f"mean_gray_space_mhz = {_g(float(np.nanmean(result.mean_map.values)))}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    _apply_overrides(cfg, args)
    _require_devices(cfg)
    hata = {report.device.label: report.hata for report in _separation_reports(cfg)}
    grid, grid_path = _load_selected_grid(cfg)
    capacity = gray_space_capacity(cfg.plan)
    white = white_space_amount(cfg.plan)

    combos = _combinations(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    for device, level, period in combos:
        knowledge = _knowledge_for(cfg, level, period)
        result = run_monte_carlo(
            grid,
            device,
            cfg.criteria,
            hata[device.label],
            cfg.plan,
            knowledge,
            realizations=cfg.realizations,
            master_seed=cfg.seed,
            buckets=cfg.buckets,
            workers=cfg.workers,
        )
        name = f"{device.label}_{level}" + (f"_{period}" if period else "")
        outdir = cfg.out / name
        outdir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(dir=cfg.out, prefix=".stage-"))
        try:
            write_matrix_csv(stage / "map.csv", result.mean_map.values)
            write_cdf_csv(stage / "cdf.csv", result.cdf)
            write_utilization_csv(stage / "utilization.csv", result.utilization)
            (stage / "summary.txt").write_text(
                _summary_text(cfg, device, level, period, grid, grid_path,
                              result, capacity, white)
            )
            for fname in ("map.csv", "cdf.csv", "utilization.csv", "summary.txt"):
                os.replace(stage / fname, outdir / fname)
        finally:
            for leftover in stage.glob("*"):
                leftover.unlink()
            stage.rmdir()
        mean_mhz = float(np.nanmean(result.mean_map.values))
        print(f"{name}: mean gray space {mean_mhz:.1f} MHz "
              f"over {int(grid.valid.sum())} valid cells -> {outdir}")
    print(f"{len(combos)} result set(s) in {cfg.out} (backend: {BACKEND})")
    return 0


# ---------------------------------------------------------------------------
# report


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    _apply_overrides(cfg, args)
    map_path = Path(args.map_path)
    if not map_path.is_file():
        raise DataError(f"map file not found: {map_path}")
    if map_path.suffix == ".rle":
        values = read_matrix_rle(map_path)
    else:
        values = read_matrix_csv(map_path)
    n_slots = len(cfg.plan.used_channels) + len(cfg.plan.adjacent_entries())
    levels = np.arange(n_slots + 1) * cfg.plan.channel_bandwidth_mhz
    cdf = cdf_from_map(values, levels)

    outdir = Path(args.out) if args.out is not None else map_path.parent
    outdir.mkdir(parents=True, exist_ok=True)
    write_cdf_csv(outdir / "cdf_from_map.csv", cdf)
    written = [outdir / "cdf_from_map.csv"]
    if cfg.grid_path is not None or cfg.grid_paths:
        grid, _ = _load_selected_grid(cfg)
        if grid.counts.shape != values.shape:
            raise DataError(
                f"map shape {values.shape} does not match grid shape {grid.counts.shape}"
            )
        table = utilization_from_map(values, grid.counts, cfg.buckets)
        write_utilization_csv(outdir / "utilization_from_map.csv", table)
        written.append(outdir / "utilization_from_map.csv")
    for p in written:
        print(f"wrote {p}")
    print("note: statistics of the stored mean map; they equal averaged "
          "per-realization statistics only where the map is deterministic")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grayspace",
        description="Quantify reusable spectrum inside a TV broadcast service area.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linkbudget", help="minimum separation distances per device")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--csv", type=Path, help="also write the table to this CSV file")
    p.add_argument("--resolution", type=float, help="quantization resolution override (m)")
    p.set_defaults(func=_cmd_linkbudget)

    p = sub.add_parser("ingest", help="normalize a household grid CSV")
    p.add_argument("grid", type=Path, help="input grid CSV")
    p.add_argument("--out", required=True, type=Path, help="normalized grid CSV to write")
    p.add_argument("--resolution", type=float, help="cell resolution override (m)")
    p.add_argument("--municipal-area-km2", type=float, dest="municipal_area_km2",
                   help="municipal area override (km2)")
    p.add_argument("--valid-mask", type=Path,
                   help="also write the validity mask (.rle for run-length, else CSV)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("simulate", help="run the Monte Carlo evaluation")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--realizations", type=int, help="realization count override")
    p.add_argument("--workers", type=int, help="process count override")
    p.add_argument("--out", type=Path, help="output directory override")
    p.add_argument("--resolution", type=float, help="grid resolution to run (m)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="re-derive statistics from a stored mean map")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--map", required=True, dest="map_path", help="mean map (.csv or .rle)")
    p.add_argument("--resolution", type=float, help="grid resolution to pair with (m)")
    p.add_argument("--out", type=Path, help="output directory (default: map's directory)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except GrayspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
