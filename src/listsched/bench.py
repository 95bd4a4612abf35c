"""Benchmark harness: ratios, pareto fronts and component effects.

Every scheduler is run on every instance of every dataset, in one serial
pass of timed runs.  Makespans are deterministic and recorded from the
first timed run; wall-clock runtimes are the median of the timed runs on
a monotonic clock, with ``gc`` off during each run, and should be read as
estimates.  Ratios normalize each value by the per-instance minimum over
the schedulers benchmarked together, so 1.0 marks the best scheduler on
that instance and every ratio is at least 1.  Effects and interactions
are cell means over levels read off the scheduler's table and dataset names.

A results CSV is read by its header row, which comes first: blank rows
are skipped, every other row has the header's field count, and a row
without an error has a finite, non-negative makespan and runtime.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from .datagen import Dataset, _split_dataset_name
from .model import ProblemInstance, Schedule, _write_text, makespan
from .scheduler import (
    SchedulerConfig,
    canonical_name,
    config_by_name,
    enumerate_configs,
    schedule,
)

__all__ = [
    "BenchmarkRecord", "EffectRow", "InteractionCell", "ParetoPoint", "RatioRow",
    "component_effects", "compute_ratios", "interaction_effects", "mean_ratio_points",
    "pareto_front", "run_benchmark",
]

RESULTS_HEADER = [
    "dataset",
    "instance",
    "scheduler",
    "makespan",
    "runtime_seconds",
    "makespan_ratio",
    "runtime_ratio",
    "error",
]


def _level(config: SchedulerConfig, parameter: str) -> str:
    """``config``'s level of ``parameter``: an enum's value, or a bool as text."""
    value = getattr(config, parameter)
    return str(getattr(value, "value", value))


#: Each config field's levels, in the order the scheduler's table first shows them.
CONFIG_PARAMETERS: dict[str, tuple[str, ...]] = {
    field.name: tuple(dict.fromkeys(_level(c, field.name) for _, c in enumerate_configs()))
    for field in fields(SchedulerConfig)
}

#: Extra grouping keys read from dataset names like "in_trees_ccr_0.2" by datagen.
DERIVED_PARAMETERS = ("dataset_type", "ccr")


@dataclass(frozen=True)
class BenchmarkRecord:
    dataset: str
    instance_index: int
    scheduler: str
    makespan: float
    runtime_seconds: float
    error: str | None = None


@dataclass(frozen=True)
class RatioRow:
    dataset: str
    instance_index: int
    scheduler: str
    makespan_ratio: float
    runtime_ratio: float


@dataclass(frozen=True)
class ParetoPoint:
    scheduler: str
    mean_makespan_ratio: float
    mean_runtime_ratio: float
    pareto_optimal: bool


@dataclass(frozen=True)
class EffectRow:
    parameter: str
    level: str
    mean_makespan_ratio: float
    mean_runtime_ratio: float


@dataclass(frozen=True)
class InteractionCell:
    parameter_a: str
    level_a: str
    parameter_b: str
    level_b: str
    mean_makespan_ratio: float
    mean_runtime_ratio: float


def _time_one(instance: ProblemInstance, config: SchedulerConfig) -> tuple[Schedule, float]:
    """One ``schedule()`` call and its wall time, with ``gc`` off as ``timeit`` does.

    Only the call is timed.  The caller's ``gc`` state is restored even if
    the call raises.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = schedule(instance, config)
        return result, time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def run_benchmark(
    datasets: Sequence[Dataset],
    configs: Sequence[tuple[str, SchedulerConfig]],
    timing_repeats: int = 3,
    jobs: int = 1,
) -> list[BenchmarkRecord]:
    """One record per (dataset, instance, scheduler), in one serial pass.

    Each pair is scheduled ``timing_repeats`` times; the makespan comes
    from the first run (``schedule()`` is deterministic) and the runtime
    is the median over all runs.  ``jobs`` is accepted for compatibility
    and has no effect: every run is timed, and timed runs execute serially
    so timings are not polluted by concurrent work.  A scheduler failure
    on one instance produces a record carrying the error message and NaN
    values instead of aborting the run.
    """
    if not datasets:
        raise ValueError("no datasets to benchmark")
    if not configs:
        raise ValueError("no scheduler configurations to benchmark")
    if timing_repeats < 1:
        raise ValueError("timing_repeats must be at least 1")

    records = []
    for ds in datasets:
        for idx, instance in enumerate(ds.instances):
            for name, config in configs:
                try:
                    runs = [_time_one(instance, config) for _ in range(timing_repeats)]
                except Exception as exc:  # record the failure; the sweep continues
                    ms = runtime = math.nan
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    ms = makespan(runs[0][0])
                    runtime = statistics.median(seconds for _, seconds in runs)
                    error = None
                records.append(BenchmarkRecord(ds.name, idx, name, ms, runtime, error))
    return records


def compute_ratios(records: Iterable[BenchmarkRecord]) -> list[RatioRow]:
    """Normalize makespan and runtime by the per-(dataset, instance) minimum.

    An instance without a successful record gets no rows, so its records,
    like any failed one, keep empty ratio cells.  Raises ``ValueError``
    when a (dataset, instance, scheduler) key occurs twice, since each row
    would then count twice in every mean.
    """
    # per (dataset, instance): the scheduler names seen and the successful records
    groups: dict[tuple[str, int], tuple[set[str], list]] = defaultdict(lambda: (set(), []))
    for record in records:
        names, ok = groups[(record.dataset, record.instance_index)]
        if record.scheduler in names:
            raise ValueError(
                f"duplicate row for ({record.dataset!r}, {record.instance_index}, "
                f"{record.scheduler!r})"
            )
        names.add(record.scheduler)
        if record.error is None:
            ok.append(record)
    if not groups:
        raise ValueError("no records")

    rows: list[RatioRow] = []
    for key, (_, ok) in groups.items():
        if not ok:
            continue
        min_makespan = min(r.makespan for r in ok)
        min_runtime = min(r.runtime_seconds for r in ok)
        if min_makespan == 0:
            raise ValueError(f"degenerate instance {key}: minimum makespan is 0")
        if min_runtime == 0:
            raise ValueError(f"degenerate instance {key}: minimum runtime is 0")
        rows += [
            RatioRow(r.dataset, r.instance_index, r.scheduler,
                     r.makespan / min_makespan, r.runtime_seconds / min_runtime)
            for r in ok
        ]
    return rows


def _group_means(rows: Sequence[RatioRow], keys: Iterable[Hashable]) -> dict:
    """Mean makespan and runtime ratio per key (one key per row), summed in row order."""
    sums: dict[Hashable, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for row, key in zip(rows, keys):
        acc = sums[key]
        acc[0] += row.makespan_ratio
        acc[1] += row.runtime_ratio
        acc[2] += 1
    return {k: (mr / n, rr / n) for k, (mr, rr, n) in sums.items()}


def mean_ratio_points(rows: Iterable[RatioRow]) -> list[tuple[str, float, float]]:
    """Per-scheduler means of both ratios, sorted by scheduler name."""
    rows = list(rows)
    means = _group_means(rows, [row.scheduler for row in rows])
    return [(name, *means[name]) for name in sorted(means)]


def pareto_front(points: Sequence[tuple[str, float, float]]) -> list[ParetoPoint]:
    """Mark each (scheduler, mean makespan ratio, mean runtime ratio) point.

    A point is pareto-optimal unless some other point is strictly lower in
    both coordinates; ties and duplicates therefore never dominate.  The
    input holds one point per scheduler name, so the pairwise test is cheap.
    """
    return [
        ParetoPoint(name, mr, rr, not any(m < mr and r < rr for _, m, r in points))
        for name, mr, rr in points
    ]


def _levels_of(rows: Sequence[RatioRow], parameter: str) -> list[str]:
    """Each row's level of ``parameter``; each distinct name resolves once."""
    if parameter in CONFIG_PARAMETERS:
        names = [row.scheduler for row in rows]
        levels = {n: _level(config_by_name(n), parameter) for n in dict.fromkeys(names)}
    elif parameter in DERIVED_PARAMETERS:
        names = [row.dataset for row in rows]
        part = DERIVED_PARAMETERS.index(parameter)
        levels = {n: _split_dataset_name(n)[part] for n in dict.fromkeys(names)}
    else:
        raise ValueError(f"unknown parameter {parameter!r}")
    return [levels[name] for name in names]


def _require_full_cross_product(rows: Sequence[RatioRow]) -> None:
    """Each (dataset, instance) must hold the 72 configurations once each."""
    if not rows:
        raise ValueError("no ratio rows to analyze")
    expected = sorted(name for name, _ in enumerate_configs())
    names = dict.fromkeys(row.scheduler for row in rows)
    canonical = {n: canonical_name(config_by_name(n)) for n in names}
    seen: dict[tuple[str, int], list[str]] = defaultdict(list)
    for row in rows:
        seen[(row.dataset, row.instance_index)].append(canonical[row.scheduler])
    for key, group in seen.items():
        if sorted(group) != expected:
            raise ValueError(
                f"instance {key} has {len(group)} rows covering {len(set(group))} "
                f"of {len(expected)} configurations, once each required; component "
                "means over an unbalanced cross product would be confounded"
            )


def _cells(rows: Sequence[RatioRow], parameters: Sequence[str]) -> list[tuple]:
    """(levels, mean makespan ratio, mean runtime ratio) per combination of levels with rows.

    Combinations come in the product order of the levels: configuration levels
    in ``CONFIG_PARAMETERS`` order, dataset types sorted, CCRs sorted as numbers.
    """
    columns = [_levels_of(rows, parameter) for parameter in parameters]
    means = _group_means(rows, list(zip(*columns)))
    orders = [
        CONFIG_PARAMETERS.get(parameter)
        or sorted(set(column), key=float if parameter == "ccr" else None)
        for parameter, column in zip(parameters, columns)
    ]
    return [(levels, *means[levels]) for levels in itertools.product(*orders) if levels in means]


def component_effects(rows: Sequence[RatioRow]) -> list[EffectRow]:
    """Mean ratios per configuration-parameter level over the full design.

    Requires every (dataset, instance) group to hold each of the 72
    configurations exactly once, an alias counting as its canonical name;
    with the balanced design, each level mean aggregates the same number
    of rows and the parameter means share the grand mean.
    """
    _require_full_cross_product(rows)
    return [
        EffectRow(parameter, level, mr, rr)
        for parameter in CONFIG_PARAMETERS
        for (level,), mr, rr in _cells(rows, (parameter,))
    ]


def interaction_effects(
    rows: Sequence[RatioRow],
    parameter_a: str,
    parameter_b: str,
) -> list[InteractionCell]:
    """Cell means of both ratios for every (level_a, level_b) pair with rows.

    Either parameter may also be ``dataset_type`` or ``ccr``, derived from
    the dataset naming convention; a level pair without rows (such as a
    dataset type missing a CCR) is dropped.
    """
    if parameter_a == parameter_b:
        raise ValueError("interaction parameters must differ")
    _require_full_cross_product(rows)
    return [
        InteractionCell(parameter_a, a, parameter_b, b, mr, rr)
        for (a, b), mr, rr in _cells(rows, (parameter_a, parameter_b))
    ]


# ---------------------------------------------------------------------------
# CSV and SVG export
# ---------------------------------------------------------------------------


def write_results_csv(
    path: str | Path,
    records: Sequence[BenchmarkRecord],
    ratios: Sequence[RatioRow],
) -> None:
    """One line per record; a failed record or a missing ratio leaves its cells empty."""
    by_key = {(r.dataset, r.instance_index, r.scheduler): r for r in ratios}
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(RESULTS_HEADER)
    for r in records:
        key = (r.dataset, r.instance_index, r.scheduler)
        ratio = by_key.get(key) if r.error is None else None
        values = ("", "") if r.error is not None else (r.makespan, r.runtime_seconds)
        ratio_values = (ratio.makespan_ratio, ratio.runtime_ratio) if ratio else ("", "")
        writer.writerow([*key, *values, *ratio_values, r.error or ""])
    _write_text(path, buffer.getvalue())


def read_results_csv(path: str | Path) -> list[BenchmarkRecord]:
    """Records of a results CSV; an error row's empty values load as NaN.

    The first row is the header, even when blank; with a repeated column
    name the last such column counts.  Blank rows are skipped.  Raises
    ``ValueError`` when a line is not strict CSV (a quoted cell left open
    or followed by text), a column is missing, a row's field count differs
    from the header's, a value does not parse, the instance is not ASCII
    digits, a makespan or runtime is not ASCII or holds ``_``, or a row
    without an error lacks a finite, non-negative makespan or runtime.
    """
    required = ("dataset", "instance", "scheduler", "makespan", "runtime_seconds")
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}
            missing = [c for c in required if c not in column]
            if missing:
                raise ValueError(f"missing column(s): {', '.join(missing)}")
            d, i, s, m, r = (column[c] for c in required)
            e = column.get("error")
            width = len(header)
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ValueError(
                        f"line {reader.line_num}: {len(row)} fields, the header has {width}"
                    )
                try:
                    index = int(row[i])
                    span = float(row[m]) if row[m] else math.nan
                    runtime = float(row[r]) if row[r] else math.nan
                    numbers = row[m] + row[r]  # int and float also take '_' and non-ASCII digits
                    if not (row[i].isdigit() and (row[i] + numbers).isascii()) or "_" in numbers:
                        raise ValueError(
                            f"instance {row[i]!r} must be ASCII digits, makespan {row[m]!r} "
                            f"and runtime {row[r]!r} ASCII without '_'"
                        )
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
                error = (row[e] or None) if e is not None else None
                if error is None and not (0 <= span < math.inf and 0 <= runtime < math.inf):
                    raise ValueError(
                        f"line {reader.line_num} ({row[d]}, {row[i]}, {row[s]}) has no error "
                        f"but makespan {row[m]!r} and runtime {row[r]!r}; "
                        "both must be finite and >= 0"
                    )
                records.append(BenchmarkRecord(row[d], index, row[s], span, runtime, error))
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return records


def write_table_csv(path: str | Path, row_type: type, rows: Iterable[object]) -> None:
    """An analysis table: the dataclass ``row_type``'s field names, then one line per row.

    ``csv`` writes a float as its ``repr`` and a bool as ``True``/``False``.
    """
    _write_text(path, _table_text(row_type, rows))


def _table_text(row_type: type, rows: Iterable[object]) -> str:
    """The text :func:`write_table_csv` writes."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    names = [field.name for field in fields(row_type)]
    writer.writerow(names)
    writer.writerows([getattr(row, name) for name in names] for row in rows)
    return buffer.getvalue()


def pareto_svg(points: Sequence[ParetoPoint]) -> str:
    """Standalone 640x480 scatter of runtime ratio (x) vs makespan ratio (y)."""
    width, height, margin = 640, 480, 60
    xs = [p.mean_runtime_ratio for p in points] or [1.0]
    ys = [p.mean_makespan_ratio for p in points] or [1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">mean runtime ratio</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">mean makespan ratio</text>',
    ]
    for i in range(5):
        x = x_lo + x_span * i / 4
        y = y_lo + y_span * i / 4
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">{x:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(y) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{y:.3g}</text>'
        )
    for p in sorted(points, key=lambda p: p.scheduler):
        color = "steelblue" if p.pareto_optimal else "lightcoral"
        cx, cy = sx(p.mean_runtime_ratio), sy(p.mean_makespan_ratio)
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="4" fill="{color}">'
            f"<title>{p.scheduler}</title></circle>"
        )
        if p.pareto_optimal:
            parts.append(
                f'<text x="{cx + 6:.1f}" y="{cy - 6:.1f}" font-size="9">{p.scheduler}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
