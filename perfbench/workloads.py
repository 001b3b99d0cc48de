"""Workloads of the benchmark: what one iteration runs and how its outputs
are checked.

Every workload drives ``grayspace.cli.main`` in-process, closed loop, one
process, ``workers = 1``.  One iteration produces the workload's complete
result set.  An *operation* is one combination's output set, one
``report`` or one ``ingest``; it fails on a nonzero exit code or when its
output bytes are wrong.

Output checks:

* At :data:`REFERENCE_SEED` every output file must match the SHA-256
  digest recorded in ``reference.json``.
* At any other seed, seed-independent outputs (KL1 combinations and
  ``ingest``) must still match their digests, and the rest must satisfy
  invariants: the CDF falls from 100 % without rising, utilization rows
  sum to the households, map values lie in [0, capacity] with NaN exactly
  on invalid cells, and the criterion-8 orderings KL1 <= KL2 <= KL3-TP2 <=
  KL3-TP1 hold between CDFs of one device.
* Every later iteration must reproduce the first one byte for byte.

``summary.txt`` is never checked: it embeds absolute paths and the kernel
backend name.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import calibration_seconds
from grayspace import cli
from grayspace.griddata import compensate_area, load_grid_csv
from grayspace.scenario import gray_space_capacity

REFERENCE_SEED = 42
REFERENCE_FILE = Path(__file__).with_name("reference.json")

SIMULATE_FILES = ("map.csv", "cdf.csv", "utilization.csv")
REPORT_FILES = ("cdf_from_map.csv", "utilization_from_map.csv")
#: Per device, CDFs must not decrease along this chain (criterion 8).
KL_CHAIN = ("KL1", "KL2", "KL3_TP2", "KL3_TP1")


@dataclass(frozen=True)
class Workload:
    name: str
    resolution_m: int
    towns: tuple[str, ...]
    realizations: int
    report: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-100m", 100, ("scattered", "clustered"), 4),
        Workload("sim-1km", 1000, ("scattered", "clustered", "vinje"), 100),
        Workload("report-100m", 100, ("scattered", "clustered"), 4, report=True),
    )
}


@dataclass(frozen=True)
class Town:
    """What the checks need to know about one shipped config at one resolution."""

    name: str
    config: Path
    grid: Path
    valid: np.ndarray
    total_households: int
    capacity_mhz: float
    bandwidth_mhz: float
    bucket_labels: tuple[str, ...]
    combos: tuple[tuple[str, str], ...]  # (device, level), level as in KL_CHAIN

    @property
    def valid_cells(self) -> int:
        return int(self.valid.sum())


def load_town(root: Path, name: str, resolution_m: int) -> Town:
    config = root / "configs" / f"{name}.cfg"
    cfg = cli.load_run_config(config)
    grid_path = cfg.grid_paths.get(float(resolution_m), cfg.grid_path)
    grid, _ = compensate_area(load_grid_csv(grid_path))
    combos = []
    for device in cfg.devices:
        for level in cfg.levels:
            periods = cfg.periods if level == "KL3" and cfg.shares is None else (None,)
            combos += [(device.label, f"{level}_{p}" if p else level) for p in periods]
    return Town(
        name=name,
        config=config,
        grid=grid_path,
        valid=grid.valid.copy(),
        total_households=grid.total_households,
        capacity_mhz=gray_space_capacity(cfg.plan),
        bandwidth_mhz=cfg.plan.channel_bandwidth_mhz,
        bucket_labels=tuple(b.label for b in cfg.buckets) + ("other",),
        combos=tuple(combos),
    )


@dataclass(frozen=True)
class Op:
    """One operation; ``files`` are relative to the work directory."""

    label: str
    kind: str  # simulate | report | ingest
    town: str
    files: tuple[str, ...]
    device: str = ""
    level: str = ""

    @property
    def seed_independent(self) -> bool:
        return self.kind == "ingest" or self.level == "KL1"


def _combo_ops(town: Town, kind: str, base: str, files: tuple[str, ...]) -> tuple[Op, ...]:
    """One operation per combination; its outputs are in ``base/town/device_level``."""
    ops = []
    for device, level in town.combos:
        label = f"{base}/{town.name}/{device}_{level}"
        ops.append(Op(label, kind, town.name, tuple(f"{label}/{f}" for f in files),
                      device, level))
    return tuple(ops)


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


class Bench:
    """One workload at one seed, run in ``work``."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 reference: dict | None = None) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.towns = {t: load_town(root, t, workload.resolution_m) for t in workload.towns}
        self.invocations = self._invocations()
        self.ops = tuple(op for _, ops in self.invocations for op in ops)
        self.prep_ops = (
            tuple(op for t in self.towns.values()
                  for op in _combo_ops(t, "simulate", "prep", SIMULATE_FILES))
            if workload.report else ()
        )
        if reference is None:
            reference = json.loads(REFERENCE_FILE.read_text())["workloads"][workload.name]
            if reference["realizations"] != workload.realizations:
                raise ValueError(f"{REFERENCE_FILE.name} was recorded at "
                                 f"{reference['realizations']} realizations")
        self.digests = reference.get("digests", {})
        self.problems: list[str] = []
        self._first: dict[str, str | None] | None = None
        self._failed_first: set[str] = set()

    # -- what runs ---------------------------------------------------------

    def _invocations(self) -> list[tuple[list[str], tuple[Op, ...]]]:
        w, work = self.workload, self.work
        res = str(w.resolution_m)
        out: list[tuple[list[str], tuple[Op, ...]]] = []
        if not w.report:
            for town in self.towns.values():
                argv = ["simulate", "--config", str(town.config), "--resolution", res,
                        "--seed", str(self.seed), "--realizations", str(w.realizations),
                        "--workers", "1", "--out", str(work / "out" / town.name)]
                out.append((argv, _combo_ops(town, "simulate", "out", SIMULATE_FILES)))
            return out
        for town in self.towns.values():
            files = (f"out/ingest/{town.name}.csv", f"out/ingest/{town.name}_mask.csv")
            argv = ["ingest", str(town.grid), "--out", str(work / files[0]),
                    "--valid-mask", str(work / files[1])]
            out.append((argv, (Op(f"out/ingest/{town.name}", "ingest", town.name, files),)))
        for town in self.towns.values():
            for op in _combo_ops(town, "report", "out/report", REPORT_FILES):
                stored_map = work / "prep" / town.name / f"{op.device}_{op.level}" / "map.csv"
                argv = ["report", "--config", str(town.config), "--resolution", res,
                        "--map", str(stored_map), "--out", str(work / op.label)]
                out.append((argv, (op,)))
        return out

    def work_cells(self) -> int:
        """Work in one iteration: effective realizations x valid cells summed
        over simulated combinations, or map cells reduced by ``report``."""
        total = 0
        for op in self.ops:
            town = self.towns[op.town]
            if op.kind == "simulate":
                effective = 1 if op.level == "KL1" else self.workload.realizations
                total += effective * town.valid_cells
            elif op.kind == "report":
                total += town.valid.size
        return total

    def prepare(self) -> None:
        """Untimed preparation: the stored mean maps ``report`` reads."""
        for town in self.towns.values() if self.workload.report else ():
            cmd = [sys.executable, "-m", "grayspace", "simulate", "--config", str(town.config),
                   "--resolution", str(self.workload.resolution_m), "--seed", str(self.seed),
                   "--realizations", str(self.workload.realizations), "--workers", "1",
                   "--out", str(self.work / "prep" / town.name)]
            env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
            code = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=120).returncode
            if code != 0:
                self.problems.append(f"preparation of {town.name} exited {code}")
        wrong_maps = {(op.town, op.device, op.level)
                      for op in self._check(self.prep_ops, self.digest(self.prep_ops))}
        # A report of a wrong map is a failed report.
        self._failed_first |= {op.label for op in self.ops
                               if (op.town, op.device, op.level) in wrong_maps}

    # -- running -----------------------------------------------------------

    def run_iteration(self, tracer=None, iteration: int = 0) -> tuple[list[float], list[float], int]:
        """Produce the complete result set once.

        Returns the seconds each CLI invocation took, in order, the
        calibration time around each (the mean of one run just before and
        one just after), and the number of operations that failed.
        """
        shutil.rmtree(self.work / "out", ignore_errors=True)
        exit_failed: list[Op] = []
        seconds: list[float] = []
        speeds: list[float] = []
        for index, (argv, ops) in enumerate(self.invocations):
            if tracer is not None:
                tracer.run_id = f"{iteration}.{index}"
            before = calibration_seconds()
            start = time.perf_counter()
            code = _call(argv, tracer)
            seconds.append(time.perf_counter() - start)
            speeds.append((before + calibration_seconds()) / 2)
            if code != 0:
                exit_failed += ops
        for op in exit_failed:
            self.problems.append(f"{op.label}: nonzero exit")
        return seconds, speeds, len({op.label for op in exit_failed} | self._verify())

    def digest(self, ops) -> dict[str, str | None]:
        return {f: _sha256(self.work / f) for op in ops for f in op.files}

    def _verify(self) -> set[str]:
        """Labels of the operations whose outputs are wrong in this iteration."""
        digests = self.digest(self.ops)
        if self._first is None:
            self._first = digests
            self._failed_first |= {op.label for op in self._check(self.ops, digests)}
            return set(self._failed_first)
        changed = {op.label for op in self.ops if any(digests[f] != self._first[f] for f in op.files)}
        for label in sorted(changed):
            self.problems.append(f"{label}: output differs from the first iteration")
        return changed | self._failed_first

    # -- checks ------------------------------------------------------------

    def _check(self, ops, digests) -> list[Op]:
        failed = []
        for op in ops:
            missing = [f for f in op.files if digests[f] is None]
            if missing:
                problem = f"missing {', '.join(missing)}"
            elif self.seed == REFERENCE_SEED or op.seed_independent:
                wrong = [f for f in op.files if digests[f] != self.digests.get(f)]
                problem = f"digest mismatch: {', '.join(wrong)}" if wrong else None
            else:
                problem = self.invariant_problem(op)
            if problem:
                self.problems.append(f"{op.label}: {problem}")
                failed.append(op)
        failed += self.ordering_failures([op for op in ops if op not in failed])
        return failed

    def invariant_problem(self, op: Op) -> str | None:
        town = self.towns[op.town]
        base = self.work / op.label
        try:
            if op.kind == "simulate":
                _check_map(base / "map.csv", town)
                _check_cdf(base / "cdf.csv", town)
                _check_utilization(base / "utilization.csv", town)
            else:
                _check_cdf(base / "cdf_from_map.csv", town)
                _check_utilization(base / "utilization_from_map.csv", town)
        except ValueError as exc:
            return str(exc)
        return None

    def ordering_failures(self, ops) -> list[Op]:
        """Simulated combinations whose CDF lies below that of the previous
        knowledge level of the same device and run (criterion 8)."""
        chains: dict[tuple[str, str], list[Op]] = {}
        for op in ops:
            if op.kind == "simulate" and op.level in KL_CHAIN:
                chains.setdefault((op.label.rsplit("/", 1)[0], op.device), []).append(op)
        failed = []
        for chain in chains.values():
            chain.sort(key=lambda op: KL_CHAIN.index(op.level))
            for lower, higher in zip(chain, chain[1:]):
                a, b = (_cdf_percent(self.work / op.label / "cdf.csv") for op in (lower, higher))
                if a.shape != b.shape or not (a <= b).all():
                    self.problems.append(f"{higher.label}: CDF below {lower.level}'s (criterion 8)")
                    failed.append(higher)
        return failed


def _call(argv: list[str], tracer) -> int:
    # The CLI's progress lines would mix into the benchmark's own output.
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                return cli.main(argv)
            return tracer.span(f"cli.{argv[0]}", cli.main, argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1


def _cdf_percent(path: Path) -> np.ndarray:
    return np.array([float(p) for _, p in _rows(path, "gray_mhz,percent_area")])


def _check_cdf(path: Path, town: Town) -> None:
    rows = _rows(path, "gray_mhz,percent_area")
    levels = np.array([float(level) for level, _ in rows])
    percent = np.array([float(p) for _, p in rows])
    n_levels = round(town.capacity_mhz / town.bandwidth_mhz) + 1
    if not np.array_equal(levels, np.arange(n_levels) * town.bandwidth_mhz):
        raise ValueError("CDF levels are not the channel grid")
    if not (abs(percent[0] - 100.0) <= 1e-9 and (np.diff(percent) <= 0).all() and percent.min() >= 0):
        raise ValueError("CDF does not fall from 100 % without rising")


def _check_utilization(path: Path, town: Town) -> None:
    rows = _rows(path, "bucket,mean_households")
    if tuple(label for label, _ in rows) != town.bucket_labels:
        raise ValueError("utilization buckets differ from the config")
    total = sum(float(mean) for _, mean in rows)
    # Each row is rounded to 0.1 households.
    if not abs(total - town.total_households) <= 0.05 * len(rows) + 1e-9:
        raise ValueError(f"utilization sums to {total}, not {town.total_households} households")


def _check_map(path: Path, town: Town) -> None:
    values = np.loadtxt(path, delimiter=",", ndmin=2)
    if values.shape != town.valid.shape:
        raise ValueError(f"map shape {values.shape} is not the grid's {town.valid.shape}")
    if not np.array_equal(np.isnan(values), ~town.valid):
        raise ValueError("map NaN cells are not exactly the invalid cells")
    inside = values[town.valid]
    if not (inside.min() >= 0 and inside.max() <= town.capacity_mhz):
        raise ValueError(f"map values outside [0, {town.capacity_mhz}] MHz")
