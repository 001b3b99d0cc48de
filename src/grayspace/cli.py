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

Configuration files are INI.  One table, ``_SCHEMA`` (section -> key ->
kind), defines them: ``load_run_config`` parses with it, the command-line
options named after [run] keys are parsed and checked as those keys, and
``summary.txt`` is written from it.  Relative paths resolve against the
config file's directory (on the command line, the working directory).
``simulate`` writes one directory per combination with ``map.csv``,
``cdf.csv``, ``utilization.csv`` and ``summary.txt``, a config pinned to
that combination: it parses back to the same values, so feeding it back to
``simulate`` reproduces the run.  Every command checks all of its output
files before it writes any (``simulate``: before the sweep) and renames
them into place only once all are written, so a failed command leaves
every output file as it was.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 anything else.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .engine import (
    Bucket,
    DEFAULT_BUCKETS,
    cdf_from_map,
    parse_buckets,
    run_combinations,
    utilization_from_map,
    write_cdf_csv,
    write_utilization_csv,
)
from .errors import ConfigError, DataError, DomainError, GrayspaceError
from .griddata import (
    HouseholdGrid,
    _fmt,
    compensate_area,
    load_grid_csv,
    read_matrix_csv,
    write_grid_csv,
    write_matrix_csv,
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
    slot_levels_mhz,
    white_space_amount,
)

_GRID_PATH_RE = re.compile(r"^path_(\d+(?:\.\d+)?)m$")
_DEVICE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


# ---------------------------------------------------------------------------
# config schema


@dataclass
class RunConfig:
    source: str  # the config file, as messages name it
    seed: int = 0
    realizations: int = 100
    workers: int = 1
    out: Path = Path("out")
    resolution: float | None = None
    buckets: tuple[Bucket, ...] = DEFAULT_BUCKETS
    criteria: ProtectionCriteria = REGULATOR_PRESETS["ofcom"]
    devices: tuple[DeviceProfile, ...] = ()
    frequency_mhz: float | None = None
    environment: str = HataParams.environment
    plan: ChannelPlan = ChannelPlan()
    levels: tuple[str, ...] = KNOWLEDGE_LEVELS
    periods: tuple[str, ...] = TIME_PERIODS
    interpretation: str = KnowledgeConfig.share_interpretation
    p_mux1_capable: float = KnowledgeConfig.p_mux1_capable
    p_subscribe_mux2to5: float = KnowledgeConfig.p_subscribe_mux2to5
    shares: tuple[float, ...] | None = None
    knowledge: tuple[KnowledgeConfig, ...] = ()  # built from the [knowledge] keys at load
    grid_path: Path | None = None
    grid_paths: dict[float, Path] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class _Kind:
    """How one config value is read from text and written back.

    ``parse`` raises ValueError whose message says why the text is rejected.
    """

    parse: Callable[[str], Any]
    format: Callable[[Any], str] = str


def _float_text(value: float) -> str:
    """``%.10g`` where that reads back as the same float, else ``repr``."""
    short = _fmt(value)
    return short if float(short) == value else repr(float(value))


def _split_list(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _cast(convert: Callable[[str], Any], noun: str) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ValueError(f"is not {noun}") from None

    return parse


def _limited(kind: _Kind, ok: Callable[[Any], bool], rule: str) -> _Kind:
    def parse(text: str) -> Any:
        value = kind.parse(text)
        if not ok(value):
            raise ValueError(rule)
        return value

    return _Kind(parse, kind.format)


def _list(kind: _Kind) -> _Kind:
    return _Kind(lambda text: tuple(map(kind.parse, _split_list(text))),
                 lambda values: ",".join(map(kind.format, values)))


def _choice(options: tuple[str, ...]) -> _Kind:
    return _limited(_Kind(lambda text: text.strip().lower()), options.__contains__,
                    f"must be one of {options}")


def _names(options: tuple[str, ...], noun: str) -> _Kind:
    """A comma-separated list of distinct names from ``options``."""
    name = _limited(_Kind(str.upper), options.__contains__,
                    f"has unknown {noun}s; choose from {options}")
    names = _limited(_list(name), bool, "is empty")
    return _limited(names, lambda values: len(set(values)) == len(values), "has duplicates")


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
_INT = _Kind(_cast(int, "an integer"))
_FLOAT = _Kind(_cast(float, "a number"), _float_text)
_PATH = _Kind(Path)
_POSITIVE = _limited(_FLOAT, lambda x: math.isfinite(x) and x > 0, "must be positive and finite")

#: Kinds of dataclass fields, by annotation (the modules use postponed
#: annotations, so ``Field.type`` is the annotation text).
_FIELD_KINDS = {
    "str": _Kind(str),
    "float": _FLOAT,
    "bool": _Kind(_cast(lambda text: _BOOLEANS[text.strip().lower()], "a boolean"),
                  lambda value: "true" if value else "false"),
    "tuple[int, ...]": _list(_INT),
}


def _field_kinds(model: type, *skip: str) -> dict[str, _Kind]:
    return {f.name: _FIELD_KINDS[f.type] for f in dataclasses.fields(model)
            if f.name not in skip}


def _required(model: type) -> set[str]:
    return {f.name for f in dataclasses.fields(model)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING}


#: Section -> key -> kind.  It drives load_run_config, the command-line
#: overrides of [run] keys and the config part of summary.txt.  A section
#: in _MODELS is that dataclass, one key per field; the keys of the other
#: sections are RunConfig attributes (named as in _ATTRS where they
#: differ).  _SPECIAL_KEYS are read by hand: a [criteria] preset that the
#: other keys override, and one [grid] path_<res>m per resolution.
_SCHEMA: dict[str, dict[str, _Kind]] = {
    "run": {
        "seed": _limited(_INT, lambda n: 0 <= n < 2**64, "must be an unsigned 64-bit integer"),
        "realizations": _limited(_INT, lambda n: n >= 1, "must be >= 1"),
        "workers": _limited(_INT, lambda n: n >= 1, "must be >= 1"),
        "out": _PATH,
        "resolution": _POSITIVE,
        "buckets": _Kind(parse_buckets, lambda buckets: ",".join(b.label for b in buckets)),
    },
    "criteria": _field_kinds(ProtectionCriteria),
    "hata": {"frequency_mhz": _FLOAT, "environment": _choice(ENVIRONMENTS)},
    "device": _field_kinds(DeviceProfile, "label"),
    "plan": _field_kinds(ChannelPlan),
    "knowledge": {
        "levels": _names(KNOWLEDGE_LEVELS, "knowledge level"),
        "periods": _names(TIME_PERIODS, "time period"),
        "shares": _list(_FLOAT),
        "interpretation": _choice(SHARE_INTERPRETATIONS),
        "p_mux1_capable": _FLOAT,
        "p_subscribe_mux2to5": _FLOAT,
    },
    "grid": {"path": _PATH},
}
_MODELS = {"criteria": ProtectionCriteria, "device": DeviceProfile, "plan": ChannelPlan}
_ATTRS = {"path": "grid_path"}
_SPECIAL_KEYS = {"criteria": ["preset"], "grid": ["path_<res>m"]}


def _parse(where: str, kind: _Kind, text: str, base: Path) -> Any:
    """``text`` as a value of ``kind``; relative paths resolve against ``base``."""
    try:
        value = kind.parse(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where} {exc} (got {text!r})") from None
    if isinstance(value, Path) and not value.is_absolute():
        value = (base / value).resolve()
    return value


def _build(model: type, where: str, values: dict[str, Any]) -> Any:
    missing = sorted(_required(model) - set(values))
    if missing:
        raise ConfigError(f"{where} is missing {', '.join(missing)}")
    try:
        return model(**values)
    except (DomainError, ConfigError) as exc:
        raise ConfigError(f"{where} {exc}") from None


def _criteria(where: str, values: dict[str, Any], preset_name: str | None) -> ProtectionCriteria:
    if preset_name is not None:
        preset = REGULATOR_PRESETS.get(preset_name.strip().lower())
        if preset is None:
            raise ConfigError(
                f"{where} unknown criteria preset {preset_name!r}; "
                f"choose from {sorted(REGULATOR_PRESETS)}"
            )
        values = dataclasses.asdict(preset) | values
    elif missing := sorted(_required(ProtectionCriteria) - {"label"} - set(values)):
        raise ConfigError(f"{where} needs a preset or the keys: {', '.join(missing)}")
    return _build(ProtectionCriteria, where, {"label": "custom", **values})


def load_run_config(path: str | Path) -> RunConfig:
    """Parse an INI run configuration.

    Sections and keys are those of the schema table ``_SCHEMA``: [run],
    [criteria], [hata], [plan], [knowledge], [grid] and one [device.NAME]
    per candidate transmitter.  A [result] section (written by ``simulate``
    into summary files) is tolerated and ignored.  The channel plan and the
    knowledge configs are built here, so every command rejects a bad one.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    source = str(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(path.read_text(encoding="utf-8-sig"), source=source)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{source}: {exc}") from None

    base = path.parent.resolve()
    cfg = RunConfig(source)
    devices: list[DeviceProfile] = []
    for header in parser.sections():
        if header == "result":
            continue
        name, dot, label = header.partition(".")
        if name not in _SCHEMA or bool(dot) != (name == "device"):
            raise ConfigError(f"{source}: unknown section [{header}]")
        if dot and not _DEVICE_NAME_RE.match(label):
            raise ConfigError(f"{source}: bad device name {label!r}")
        where = f"{source}: [{header}]"
        keys = _SCHEMA[name]
        values: dict[str, Any] = {}
        preset = None
        unknown = []
        for key, text in parser[header].items():
            grid_res = _GRID_PATH_RE.match(key) if name == "grid" else None
            if key in keys:
                values[key] = _parse(f"{where} {key}", keys[key], text, base)
            elif grid_res is not None:
                res = float(grid_res.group(1))
                if res == 0:
                    raise ConfigError(f"{where} {key}: the resolution must be positive")
                if res in cfg.grid_paths:
                    raise ConfigError(f"{where} {key} repeats the resolution of "
                                      "another path_<res>m key")
                cfg.grid_paths[res] = _parse(f"{where} {key}", _PATH, text, base)
            elif name == "criteria" and key == "preset":
                preset = text
            else:
                unknown.append(key)
        if unknown:
            raise ConfigError(
                f"{where} has unknown keys: {', '.join(sorted(unknown))}; known keys: "
                f"{', '.join([*keys, *_SPECIAL_KEYS.get(name, [])])}"
            )
        if name == "criteria":
            cfg.criteria = _criteria(where, values, preset)
        elif name == "device":
            devices.append(_build(DeviceProfile, where, {"label": label, **values}))
        elif name == "plan":
            cfg.plan = _build(ChannelPlan, where, values)
        elif "periods" in values and "shares" in values:
            raise ConfigError(f"{where} give periods or shares, not both")
        else:
            for key, value in values.items():
                setattr(cfg, _ATTRS.get(key, key), value)
    if cfg.grid_path is not None and cfg.grid_paths:
        raise ConfigError(f"{source}: [grid] mixes 'path' with 'path_<res>m' keys")
    cfg.devices = tuple(devices)
    cfg.knowledge = _knowledge_configs(cfg)
    return cfg


def _knowledge_configs(cfg: RunConfig) -> tuple[KnowledgeConfig, ...]:
    """One knowledge config per level and, for KL3 without explicit shares,
    per period; an error names the config file and [knowledge].  Shares
    follow KL3's rules whatever the levels."""
    try:
        if cfg.shares is not None:
            KnowledgeConfig("KL3", mux_shares=cfg.shares)
        return tuple(
            KnowledgeConfig(
                level=level,
                p_mux1_capable=cfg.p_mux1_capable,
                p_subscribe_mux2to5=cfg.p_subscribe_mux2to5,
                time_period=period,
                mux_shares=cfg.shares if level == "KL3" else None,
                share_interpretation=cfg.interpretation,
            )
            for level in cfg.levels
            for period in (cfg.periods if level == "KL3" and cfg.shares is None else (None,))
        )
    except ConfigError as exc:
        raise ConfigError(f"{cfg.source}: [knowledge] {exc}") from None


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> None:
    """Command-line values of [run] keys, parsed and checked like config text."""
    for key, kind in _SCHEMA["run"].items():
        text = getattr(args, key, None)
        if text is not None:
            setattr(cfg, key, _parse(f"--{key}", kind, text, Path.cwd()))


def _config_lines(cfg: RunConfig) -> list[str]:
    """``cfg`` as INI text in schema order; ``load_run_config`` reads it back.

    A key whose value is None is left out: parsing restores its default.
    """
    lines: list[str] = []
    for name, keys in _SCHEMA.items():
        if name == "device":
            sections = [(f"device.{d.label}", d) for d in cfg.devices]
        else:
            sections = [(name, getattr(cfg, name) if name in _MODELS else cfg)]
        for header, owner in sections:
            lines += ["", f"[{header}]"]
            for key, kind in keys.items():
                value = getattr(owner, _ATTRS.get(key, key))
                if value is None:
                    continue
                lines.append(f"{key} = {kind.format(value)}")
    return lines


def _select_grid_path(cfg: RunConfig) -> Path:
    if cfg.grid_path is not None:
        return cfg.grid_path
    if not cfg.grid_paths:
        raise ConfigError("no [grid] path configured")
    if cfg.resolution in cfg.grid_paths:
        return cfg.grid_paths[cfg.resolution]
    if cfg.resolution is not None:
        raise ConfigError(
            f"no grid for resolution {_fmt(cfg.resolution)} m; available: "
            f"{', '.join(_fmt(r) + ' m' for r in sorted(cfg.grid_paths))}"
        )
    if len(cfg.grid_paths) == 1:
        return next(iter(cfg.grid_paths.values()))
    raise ConfigError(
        "several grid resolutions are configured; select one with --resolution"
    )


def _read_grid(path: Path) -> HouseholdGrid:
    if not path.is_file():
        raise DataError(f"grid file not found: {path}")
    return load_grid_csv(path)


def _load_selected_grid(cfg: RunConfig) -> tuple[HouseholdGrid, Path]:
    grid_path = _select_grid_path(cfg)
    grid = _read_grid(grid_path)
    if cfg.resolution is not None and grid.resolution_m != cfg.resolution:
        raise ConfigError(
            f"configured resolution {_fmt(cfg.resolution)} m but {grid_path} "
            f"declares {_fmt(grid.resolution_m)} m"
        )
    for res, p in cfg.grid_paths.items():
        if p == grid_path and grid.resolution_m != res:
            raise ConfigError(
                f"[grid] key path_{_fmt(res)}m points at a file declaring "
                f"{_fmt(grid.resolution_m)} m"
            )
    # The CSV format carries the municipal area, not the validity mask, so
    # compensation is re-derived at load time (deterministic border scan).
    grid, invalidated = compensate_area(grid)
    if invalidated:
        print(f"# {invalidated} border cells invalidated to match municipal "
              f"area {_fmt(grid.municipal_area_km2)} km2")
    return grid, grid_path


def _separation_reports(cfg: RunConfig) -> list[SeparationReport]:
    """Link budget of every configured device, in device order.

    Built before anything is written, so a propagation domain error (a
    non-finite frequency, a base height that flattens the Hata slope) is
    a configuration error naming the sections involved.
    """
    if not cfg.devices:
        raise ConfigError("no [device.NAME] sections configured")
    if cfg.frequency_mhz is None:
        raise ConfigError("[hata] frequency_mhz is required")
    reports = []
    for device in cfg.devices:
        try:
            reports.append(separation_report(device, cfg.criteria, cfg.frequency_mhz,
                                             cfg.environment))
        except DomainError as exc:
            raise ConfigError(f"[hata] with [device.{device.label}]: {exc}") from None
    return reports


@contextlib.contextmanager
def _publishing(targets: Iterable[Path]) -> Iterator[Callable[[Path], Path]]:
    """Check every output file, creating nothing; the body writes each to
    ``stage(target)``, a file beside it.  On success the stages are renamed
    onto their targets one by one, so other files in an output directory are
    kept; on failure they are deleted, and every target is left as it was."""
    checked: dict[Path, Path] = {}  # resolved path -> target
    for target in targets:
        ancestor = next(p for p in target.parents if p.exists())
        if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
            raise ConfigError(f"output directory {target.parent} cannot be created: "
                              f"{ancestor} is not a writable directory")
        if target.is_dir():
            raise ConfigError(f"output file {target} is a directory")
        if (key := target.resolve()) in checked:
            raise ConfigError(f"output files {checked[key]} and {target} are the same file")
        checked[key] = target
    staged: dict[Path, Path] = {}
    made: list[Path] = []  # directories made for stages, parents first

    def stage(target: Path) -> Path:
        for directory in reversed(target.parents):
            if not directory.exists():
                directory.mkdir()
                made.append(directory)
        staged[target] = target.with_name(f".{target.name}.partial")
        return staged[target]

    try:
        yield stage
        for target, path in staged.items():
            os.replace(path, target)
    except BaseException:  # after a failed rename, only the stages not renamed are left
        for path in staged.values():
            path.unlink(missing_ok=True)
        for directory in reversed(made):  # deepest first; one holding a published file stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


# ---------------------------------------------------------------------------
# linkbudget


def _linkbudget_resolutions(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.resolution is not None:
        return (cfg.resolution,)
    if cfg.grid_paths:
        return tuple(sorted(cfg.grid_paths))
    if cfg.grid_path is not None:
        return (_read_grid(cfg.grid_path).resolution_m,)
    raise ConfigError("no resolution configured (set [run] resolution or a grid)")


def _cmd_linkbudget(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    _apply_overrides(cfg, args)
    resolutions = _linkbudget_resolutions(cfg)

    rows = []
    warnings: list[str] = []
    for report in _separation_reports(cfg):
        device = report.device
        warnings.extend(report.warnings)
        for relation in RELATIONS:
            for res in resolutions:
                distance = report.min_distance_m(relation)
                try:
                    quantized = quantize_distance(distance, res)
                except DomainError as exc:
                    raise ConfigError(f"resolution {res!r} m: {exc}") from None
                rows.append((
                    device.label,
                    relation,
                    res,
                    report.field_strength_dbuvm,
                    report.min_loss_co_db if relation == "co" else report.min_loss_adjacent_db,
                    distance,
                    quantized,
                ))

    with _publishing([args.csv] if args.csv is not None else []) as stage:
        print(f"criteria: {cfg.criteria.label}")
        header = (
            f"{'device':<16} {'relation':<9} {'res_m':>7} {'field_dbuvm':>12} "
            f"{'min_loss_db':>12} {'distance_m':>12} {'quantized_m':>12}"
        )
        print(header)
        for label, relation, res, field, loss, distance, quantized in rows:
            print(
                f"{label:<16} {relation:<9} {_fmt(res):>7} {_fmt(field):>12} "
                f"{_fmt(loss):>12} {distance:>12.1f} {_fmt(quantized):>12}"
            )
        for warning in dict.fromkeys(warnings):
            print(f"# warning: {warning}")

        if args.csv is not None:
            lines = ["device,relation,resolution_m,field_dbuvm,min_loss_db,"
                     "min_distance_m,quantized_distance_m"]
            for label, relation, res, field, loss, distance, quantized in rows:
                lines.append(
                    f"{label},{relation},{_fmt(res)},{_fmt(field)},{_fmt(loss)},"
                    f"{_fmt(distance)},{_fmt(quantized)}"
                )
            stage(args.csv).write_text("\n".join(lines) + "\n")
    if args.csv is not None:
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# ingest


def _cmd_ingest(args: argparse.Namespace) -> int:
    resolution, area = (
        None if text is None else _parse(flag, _POSITIVE, text, Path.cwd())
        for flag, text in [("--resolution", args.resolution),
                           ("--municipal-area-km2", args.municipal_area_km2)]
    )
    grid = load_grid_csv(args.grid, resolution_m=resolution, municipal_area_km2=area)
    compensated, invalidated = compensate_area(grid)
    targets = [p for p in (args.out, args.valid_mask) if p is not None]
    with _publishing(targets) as stage:
        write_grid_csv(stage(args.out), compensated)
        if args.valid_mask is not None:
            valid = compensated.valid.ravel()
            starts = np.flatnonzero(np.diff(valid, prepend=~valid[:1]))  # where the runs begin
            write_matrix_csv(stage(args.valid_mask), [0, 1], valid[starts].astype(np.uint8),
                             np.diff(starts, append=valid.size), compensated.valid.shape)
    print(f"grid: {compensated.rows} rows x {compensated.cols} cols at "
          f"{_fmt(compensated.resolution_m)} m, {compensated.total_households} households")
    print(f"{invalidated} border cells invalidated "
          f"(municipal area {_fmt(compensated.municipal_area_km2)} km2, "
          f"valid cells {int(compensated.valid.sum())})")
    for target in targets:
        print(f"wrote {target}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _combinations(cfg: RunConfig) -> list[tuple[SeparationReport, KnowledgeConfig]]:
    """Every (link, knowledge) pair to run: each device's link budget with
    each knowledge config."""
    return [(link, k) for link in _separation_reports(cfg) for k in cfg.knowledge]


def _summary_text(run: RunConfig, link: SeparationReport, knowledge: KnowledgeConfig,
                  mean_mhz: float, n_valid: int, households: int) -> str:
    period = knowledge.time_period
    pinned = dataclasses.replace(
        run,
        devices=(link.device,),
        levels=(knowledge.level,),
        periods=None if period is None else (period,),
        shares=knowledge.mux_shares,
        knowledge=(knowledge,),
    )
    lines = ["# run summary; also a valid config reproducing this single combination"]
    lines += [f"# warning: {warning}" for warning in link.warnings]
    lines += _config_lines(pinned)
    lines += [
        "",
        "[result]",
        f"co_radius_m = {_fmt(quantize_distance(link.min_distance_co_m, run.resolution))}",
        "adjacent_radius_m = "
        f"{_fmt(quantize_distance(link.min_distance_adjacent_m, run.resolution))}",
        f"capacity_mhz = {_fmt(gray_space_capacity(run.plan))}",
        f"white_space_mhz = {_fmt(white_space_amount(run.plan))}",
        f"valid_cells = {n_valid}",
        f"total_households = {households}",
        f"mean_gray_space_mhz = {_fmt(mean_mhz)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    _apply_overrides(cfg, args)
    combos = _combinations(cfg)
    grid, grid_path = _load_selected_grid(cfg)
    run = dataclasses.replace(cfg, out=cfg.out.resolve(), resolution=grid.resolution_m,
                              grid_path=grid_path.resolve(), grid_paths={})  # pinned to the grid
    n_valid, households = int(grid.valid.sum()), grid.total_households
    names = ["_".join(filter(None, (link.device.label, k.level, k.time_period)))
             for link, k in combos]
    files = ("map.csv", "cdf.csv", "utilization.csv", "summary.txt")
    done = []
    with _publishing(cfg.out / name / f for name in names for f in files) as stage:
        try:
            results = run_combinations(grid, combos, cfg.plan, realizations=cfg.realizations,
                                       master_seed=cfg.seed, buckets=cfg.buckets,
                                       workers=cfg.workers)
        except DomainError as exc:  # a realization count past the totals' range
            raise ConfigError(f"{cfg.source}: [run] {exc}") from None
        for (link, knowledge), name, result in zip(combos, names, results):
            map_path, cdf_path, table_path, summary_path = (cfg.out / name / f for f in files)
            m = result.mean_map
            write_matrix_csv(stage(map_path), m.levels, m.run_level, m.run_length, m.shape)
            mean_mhz = m.mean_mhz(n_valid)
            write_cdf_csv(stage(cdf_path), result.cdf)
            write_utilization_csv(stage(table_path), result.utilization)
            stage(summary_path).write_text(
                _summary_text(run, link, knowledge, mean_mhz, n_valid, households)
            )
            done.append(f"{name}: mean gray space {mean_mhz:.1f} MHz "
                        f"over {n_valid} valid cells -> {cfg.out / name}")
    print(*done, f"{len(combos)} result set(s) in {cfg.out}", sep="\n")
    return 0


# ---------------------------------------------------------------------------
# report


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    _apply_overrides(cfg, args)
    map_path = Path(args.map_path)
    if not map_path.is_file():
        raise DataError(f"map file not found: {map_path}")
    outdir = Path(args.out) if args.out is not None else map_path.parent
    targets = [outdir / "cdf_from_map.csv"]
    if cfg.grid_path is not None or cfg.grid_paths:
        targets.append(outdir / "utilization_from_map.csv")
    with _publishing(targets) as stage:
        values = read_matrix_csv(map_path)
        cdf = cdf_from_map(values, slot_levels_mhz(cfg.plan), gray_space_capacity(cfg.plan))
        if len(targets) > 1:  # checked before staging, so a bad grid makes no directory
            grid, _ = _load_selected_grid(cfg)
            table = utilization_from_map(values, grid.counts, cfg.buckets)  # checks the shape
            hidden = grid.counts[np.isnan(values)]  # a simulate map is NaN on empty cells only
            if hidden.any():
                raise DataError(f"map is NaN on {np.count_nonzero(hidden)} cells holding "
                                f"{hidden.sum()} households; it does not belong to the grid")
            write_utilization_csv(stage(targets[1]), table)
        write_cdf_csv(stage(targets[0]), cdf)
    for p in targets:
        print(f"wrote {p}")
    print("note: statistics of the stored mean map; they equal averaged "
          "per-realization statistics only where the map is deterministic")
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # one tree per process; callers share it, and parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grayspace",
        description="Quantify reusable spectrum inside a TV broadcast service area.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linkbudget", help="minimum separation distances per device")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--csv", type=Path, help="also write the table to this CSV file")
    p.add_argument("--resolution", help="quantization resolution override (m)")
    p.set_defaults(func=_cmd_linkbudget)

    p = sub.add_parser("ingest", help="normalize a household grid CSV")
    p.add_argument("grid", type=Path, help="input grid CSV")
    p.add_argument("--out", required=True, type=Path, help="normalized grid CSV to write")
    p.add_argument("--resolution", help="cell resolution override (m)")
    p.add_argument("--municipal-area-km2", dest="municipal_area_km2",
                   help="municipal area override (km2)")
    p.add_argument("--valid-mask", type=Path,
                   help="also write the validity mask as CSV")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("simulate", help="run the Monte Carlo evaluation")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--seed", help="master seed override")
    p.add_argument("--realizations", help="realization count override")
    p.add_argument("--workers", help="process count override")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--resolution", help="grid resolution to run (m)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="re-derive statistics from a stored mean map")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--map", required=True, dest="map_path", help="mean map CSV")
    p.add_argument("--resolution", help="grid resolution to pair with (m)")
    p.add_argument("--out", help="output directory (default: map's directory)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        # Every input read raises DataError or ConfigError, so an OSError is
        # an output location that cannot be written.
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
