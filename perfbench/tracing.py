"""Span recorder for the traced benchmark run.

Wraps the public functions at each layer boundary of ``grayspace`` from
outside the package.  The package binds names with ``from .x import y``,
so each wrapper replaces the name in the module that *calls* it (for
example ``grayspace.engine.dilate``, not ``grayspace.griddata.dilate``).

Spans (name, start, end, parent span, run id) are kept in memory and
written out once, by :func:`write_spans`.  Counts are taken at the same
boundaries, after the span has ended, so counting adds to the traced wall
time but not to any span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOP_LEVEL = ("cli.simulate", "cli.report", "cli.ingest")


def _arg(bound: inspect.BoundArguments, name: str):
    return bound.arguments[name]  # KeyError when the parameter was renamed


def _count_dilate(counts, bound, result) -> None:
    mask = np.asarray(_arg(bound, "receiver_mask"))
    counts["griddata.dilate_calls"] += 1
    counts["griddata.dilate_cells"] += int(mask.size)
    counts["griddata.dilate_seeds"] += int(np.count_nonzero(mask))


def _count_realize(counts, bound, result) -> None:
    counts["scenario.realize_cells_calls"] += 1
    if _arg(bound, "config").level != "KL1":
        counts["scenario.households_sampled"] += int(_arg(bound, "grid").counts.sum())
    counts["scenario.flagged_cells"] += int(np.count_nonzero(result.flags))


def _count_monte_carlo(counts, bound, result) -> None:
    effective = 1 if _arg(bound, "knowledge").level == "KL1" else int(_arg(bound, "realizations"))
    counts["engine.effective_realizations"] += effective
    # Per realization the engine needs a co and an adjacent mask per used MUX.
    counts["engine.dilations_needed"] += 2 * len(_arg(bound, "plan").used_channels) * effective


def _count_calls(name: str):
    def count(counts, bound, result) -> None:
        counts[name] += 1
    return count


def _count_written_bytes(counts, bound, result) -> None:
    counts["griddata.write_matrix_csv_bytes"] += os.path.getsize(_arg(bound, "path"))


#: (module, attribute, span name, counter) for every wrapped boundary.
BOUNDARIES = (
    ("grayspace.engine", "dilate", "griddata.dilate", _count_dilate),
    ("grayspace.engine", "realize_cells", "scenario.realize_cells", _count_realize),
    ("grayspace.engine", "separation_report", "linkbudget.separation_report",
     _count_calls("linkbudget.separation_report_calls")),
    ("grayspace.linkbudget", "distance_for_loss", "propagation.distance_for_loss",
     _count_calls("propagation.distance_for_loss_calls")),
    ("grayspace.cli", "run_monte_carlo", "engine.run_monte_carlo", _count_monte_carlo),
    ("grayspace.cli", "load_run_config", "cli.load_run_config", None),
    ("grayspace.cli", "load_grid_csv", "griddata.load_grid_csv", None),
    ("grayspace.cli", "compensate_area", "griddata.compensate_area", None),
    ("grayspace.cli", "write_matrix_csv", "griddata.write_matrix_csv", _count_written_bytes),
    ("grayspace.cli", "read_matrix_csv", "griddata.read_matrix_csv", None),
    ("grayspace.cli", "write_cdf_csv", "engine.write_cdf_csv", None),
    ("grayspace.cli", "write_utilization_csv", "engine.write_utilization_csv", None),
    ("grayspace.cli", "cdf_from_map", "engine.cdf_from_map", None),
    ("grayspace.cli", "utilization_from_map", "engine.utilization_from_map", None),
    ("grayspace.cli", "write_grid_csv", "griddata.write_grid_csv", None),
)

#: Per-layer metrics reported by the traced run, with their units.
LAYER_UNITS = {
    "griddata.dilate_s": "s",
    "griddata.dilate_calls": "count",
    "griddata.dilate_cells": "count",
    "griddata.dilate_seeds": "count",
    "griddata.write_matrix_csv_s": "s",
    "griddata.write_matrix_csv_bytes": "bytes",
    "griddata.read_matrix_csv_s": "s",
    "griddata.write_grid_csv_s": "s",
    "griddata.load_grid_csv_s": "s",
    "griddata.compensate_area_s": "s",
    "scenario.realize_cells_s": "s",
    "scenario.realize_cells_calls": "count",
    "scenario.households_sampled": "count",
    "scenario.flagged_cells": "count",
    "engine.run_monte_carlo_s": "s",
    "engine.self_s": "s",
    "engine.effective_realizations": "count",
    "engine.dilate_ratio": "ratio",
    "engine.cdf_from_map_s": "s",
    "engine.utilization_from_map_s": "s",
    "engine.write_tables_s": "s",
    "linkbudget.separation_report_s": "s",
    "linkbudget.separation_report_calls": "count",
    "propagation.distance_for_loss_calls": "count",
    "cli.load_run_config_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
    "trace_overhead_s": "s",
}

#: Metrics that must repeat exactly between traced runs of the same code.
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes"))


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, count=None, signature=None, **kwargs):
        """Call ``fn`` inside a span named ``name``; then let ``count`` read
        the call's arguments (bound through ``signature``) and result."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)
        if count is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound, result)
            except (TypeError, KeyError, AttributeError):
                # The boundary's signature changed; its counts read 0.
                if f"counts of {name}" not in self.missing:
                    self.missing.append(f"counts of {name}")
        return result

    def install(self) -> None:
        for module_name, attr, name, count in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue

            def wrapper(*args, _fn=original, _name=name, _count=count,
                        _signature=inspect.signature(original), **kwargs):
                return self.span(_name, _fn, *args, count=_count, signature=_signature, **kwargs)

            self._originals.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def layer_metrics(spans: list[Span], counts: Counter, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``spans`` holds only that iteration's spans; parents index into it.
    Self time is a span's duration minus the durations of its direct
    children (one thread, so children never overlap).
    """
    total: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        total[span.name] += duration
        if span.parent is not None:
            children[span.parent] += duration
    own: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        own[span.name] += (span.end - span.start) - children[index]
    top_level_s = sum(total[name] for name in TOP_LEVEL)
    needed = counts["engine.dilations_needed"]

    metrics = {
        name: float(total[name[: -len("_s")]])
        for name in (
            "griddata.dilate_s", "griddata.write_matrix_csv_s", "griddata.read_matrix_csv_s",
            "griddata.write_grid_csv_s", "griddata.load_grid_csv_s",
            "griddata.compensate_area_s", "scenario.realize_cells_s",
            "engine.run_monte_carlo_s", "engine.cdf_from_map_s",
            "engine.utilization_from_map_s", "linkbudget.separation_report_s",
            "cli.load_run_config_s",
        )
    }
    metrics.update({name: counts[name] for name in COUNT_METRICS})
    metrics["engine.self_s"] = own["engine.run_monte_carlo"]
    metrics["engine.dilate_ratio"] = counts["griddata.dilate_calls"] / needed if needed else 0.0
    metrics["engine.write_tables_s"] = total["engine.write_cdf_csv"] + total["engine.write_utilization_csv"]
    metrics["cli.self_s"] = sum(own[name] for name in TOP_LEVEL)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.uncovered_s"] = wall_s - top_level_s
    return metrics


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced iteration as JSON lines.

    Span ids and parent ids are numbered across the whole file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    with path.open("w") as fh:
        for tracer in tracers:
            for index, span in enumerate(tracer.spans):
                parent = None if span.parent is None else span.parent + offset
                record = {"id": index + offset, "name": span.name, "start": span.start,
                          "end": span.end, "parent": parent, "run": span.run}
                fh.write(json.dumps(record) + "\n")
            offset += len(tracer.spans)


def warn_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print(f"perfbench: not traced (name or arguments changed): {', '.join(tracer.missing)}",
              file=sys.stderr)
