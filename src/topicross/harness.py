"""Experiment harness: sweep target rates and black-cell patterns, record trials.

One record per (pattern, target rate, trial). With early stopping, a pattern
drops out of the sweep after the first rate at which every trial fails, which
mirrors how generation budgets are probed in practice. :func:`summarize`
turns the records into the summary JSON document, grouped by target rate and
by black-cell count, where a skipped cell counts as a failure;
:func:`summary_svg` charts its target-rate groups.

``csv``, ``statistics`` and the process pool are imported inside the
functions that use them: every CLI command imports this module, and at
module level they would add about a third to the CLI's start-up, most of
it multiprocessing's.
"""

from __future__ import annotations

import io
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from .grid import GridPattern, extract_slots, generate_random_patterns
from .lexicon import WordIndex
from .solver import SolverConfig, solve
from .util import DataError, atomic_write_text, derive_seed, read_text

class SchemaMismatchError(DataError):
    pass


class EmptyInputError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    height: int = 7
    width: int = 7
    t_values: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    black_counts: tuple[int, ...] = (9, 10, 11, 12)
    patterns_per_count: int = 10
    trials_per_cell: int = 1
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    early_stop: bool = True

    def __post_init__(self) -> None:
        if not self.t_values or not self.black_counts:
            raise ValueError("t_values and black_counts must be non-empty")
        if self.patterns_per_count < 1 or self.trials_per_cell < 1:
            raise ValueError("patterns_per_count and trials_per_cell must be >= 1")
        if not all(0 <= t <= 100 for t in self.t_values):
            raise ValueError(f"t_values must be in [0, 100], got {self.t_values}")


@dataclass(frozen=True)
class ExperimentRecord:
    pattern_id: str
    n_black: int
    t: int
    seed: int
    trial: int
    status: str
    success: bool
    time_ms: int
    restarts: int
    nodes_expanded: int
    achieved_topic_ratio: float


def _parse_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(cell)
    return cell == "true"


# The records CSV has one column per field, in field order; only ``t`` is
# renamed, to the paper's "T". Booleans are written "true"/"false", and each
# column is read back by the parser of its field's (string) annotation.
CSV_HEADER = ["T" if f.name == "t" else f.name for f in fields(ExperimentRecord)]
_CSV_PARSERS = tuple(
    {"str": str, "int": int, "float": float, "bool": _parse_bool}[f.type]
    for f in fields(ExperimentRecord)
)


def _sweep_pattern(
    pattern: GridPattern, config: SweepConfig, index: WordIndex
) -> list[ExperimentRecord]:
    """All records for one pattern, walking target rates from low to high."""
    slotset = extract_slots(pattern)
    n_black = pattern.n_black
    records = []
    for t in sorted(set(config.t_values)):
        any_success = False
        for trial in range(config.trials_per_cell):
            seed = derive_seed(config.seed, pattern.pattern_id, t, trial)
            solver_config = replace(config.solver, target_rate=t, seed=seed)
            result = solve(slotset, index, solver_config)
            any_success = any_success or result.success
            records.append(
                ExperimentRecord(
                    pattern_id=pattern.pattern_id,
                    n_black=n_black,
                    t=t,
                    seed=seed,
                    trial=trial,
                    status=result.status.value,
                    success=result.success,
                    time_ms=result.elapsed_ms,
                    restarts=result.restarts,
                    nodes_expanded=result.nodes_expanded,
                    achieved_topic_ratio=result.achieved_topic_ratio,
                )
            )
        if config.early_stop and not any_success:
            break
    return records


_POOL_INDEX: WordIndex | None = None
_POOL_CONFIG: SweepConfig | None = None


def _pool_init(index: WordIndex, config: SweepConfig) -> None:
    global _POOL_INDEX, _POOL_CONFIG
    _POOL_INDEX = index
    _POOL_CONFIG = config


def _pool_task(pattern: GridPattern) -> list[ExperimentRecord]:
    assert _POOL_INDEX is not None and _POOL_CONFIG is not None
    return _sweep_pattern(pattern, _POOL_CONFIG, _POOL_INDEX)


def default_sweep_patterns(config: SweepConfig) -> list[GridPattern]:
    """The seeded random pattern set implied by a sweep config."""
    patterns = []
    for n_black in config.black_counts:
        patterns.extend(
            generate_random_patterns(
                config.height,
                config.width,
                n_black,
                config.patterns_per_count,
                seed=derive_seed(config.seed, "patterns", n_black),
            )
        )
    return patterns


def run_sweep(
    config: SweepConfig,
    index: WordIndex,
    patterns: Sequence[GridPattern] | None = None,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """Run the full sweep; records come back sorted by (pattern_id, T, trial)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if patterns is None:
        patterns = default_sweep_patterns(config)
    # one worker per pattern at most: a pool forks each of its workers
    workers = min(jobs, len(patterns))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(index, config)
        ) as pool:
            chunks = list(pool.map(_pool_task, patterns))
    else:
        chunks = [_sweep_pattern(p, config, index) for p in patterns]
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.pattern_id, r.t, r.trial))
    return records


def five_number(values: Sequence[float]) -> dict[str, float]:
    """min/q1/median/q3/max with linear interpolation."""
    import statistics

    data = sorted(values)
    if len(data) == 1:
        v = data[0]
        return {"min": v, "q1": v, "median": v, "q3": v, "max": v}
    q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive")
    return {"min": data[0], "q1": q1, "median": median, "q3": q3, "max": data[-1]}


def summarize(records: Sequence[ExperimentRecord]) -> dict[str, dict[str, dict]]:
    """The summary JSON document: per target rate and per black-cell count,
    ``{"n_cells", "successes", "probability", "time_ms"}``, with ``time_ms``
    the :func:`five_number` summary of the group's successes, or ``None``.
    Group keys are strings, as in the file, in numeric order.

    Every (pattern, trial) cell seen in the records is due once at every rate
    seen, and a group counts its due (cell, rate) pairs. A due pair with no
    record was early-stopped, and an early-stopped cell is a known failure.
    """
    if not records:
        raise EmptyInputError("no records to summarize")

    rates = sorted({r.t for r in records})
    black = {(r.pattern_id, r.trial): r.n_black for r in records}
    success_ms = {(r.pattern_id, r.trial, r.t): r.time_ms for r in records if r.success}
    # (n_black, rate, time of the success or None) per due pair
    due = [(n, t, success_ms.get((*cell, t))) for cell, n in black.items() for t in rates]

    def group(axis: int) -> dict[str, dict]:
        """One group per value of field ``axis`` of the due pairs."""
        groups: dict[int, list[int | None]] = {}
        for pair in due:
            groups.setdefault(pair[axis], []).append(pair[2])
        summary = {}
        for key, pairs in sorted(groups.items()):
            times = [ms for ms in pairs if ms is not None]
            summary[str(key)] = {
                "n_cells": len(pairs),
                "successes": len(times),
                "probability": len(times) / len(pairs),
                "time_ms": five_number(times) if times else None,
            }
        return summary

    return {"by_target_rate": group(1), "by_black_count": group(0)}


def records_to_csv(records: Sequence[ExperimentRecord]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            ("true" if v else "false") if isinstance(v, bool) else v for v in astuple(r)
        )
    return buf.getvalue()


def write_records_csv(records: Sequence[ExperimentRecord], path: str | Path) -> None:
    atomic_write_text(path, records_to_csv(records))


def read_records_csv(path: str | Path) -> list[ExperimentRecord]:
    import csv

    rows = list(csv.reader(io.StringIO(read_text(path))))
    if not rows:
        raise SchemaMismatchError(f"{path}: empty file")
    if rows[0] != CSV_HEADER:
        raise SchemaMismatchError(f"{path}: header {rows[0]!r} != {CSV_HEADER!r}")
    records = []
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_HEADER):
            raise SchemaMismatchError(f"{path}: row {number} has {len(row)} fields")
        values = []
        for column, parse, cell in zip(CSV_HEADER, _CSV_PARSERS, row):
            try:
                values.append(parse(cell))
            except ValueError:
                raise SchemaMismatchError(
                    f"{path}: row {number}, column {column}: unreadable value {cell!r}"
                ) from None
        records.append(ExperimentRecord(*values))
    return records


def summary_svg(summary: dict[str, dict[str, dict]]) -> str:
    """A small two-panel chart of a :func:`summarize` document: success
    probability and median time over successes, by target rate.

    Intentionally dependency-free; the CSV stays the canonical output.
    """
    width, panel_h, pad = 640, 200, 45
    height = 2 * panel_h + 3 * pad
    # numeric order: a file's keys sort as text, "100" before "20"
    groups = dict(sorted((int(t), g) for t, g in summary["by_target_rate"].items()))
    rates = list(groups)
    if len(rates) < 2:
        x_of = lambda t: width / 2  # noqa: E731
    else:
        lo, hi = rates[0], rates[-1]
        x_of = lambda t: pad + (t - lo) / (hi - lo) * (width - 2 * pad)  # noqa: E731

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">'
    ]

    def panel(top: int, title: str, heights: dict[int, float], color: str) -> None:
        """A framed panel with a point per rate in ``heights``, each in [0, 1]."""
        points = [(x_of(t), top + (1.0 - h) * panel_h, t) for t, h in heights.items()]
        parts.append(f'<text x="{pad}" y="{top - 25}">{title}</text>')
        parts.append(
            f'<rect x="{pad}" y="{top}" width="{width - 2 * pad}" height="{panel_h}" '
            'fill="none" stroke="#999"/>'
        )
        if points:
            line = " ".join(f"{x:.1f},{y:.1f}" for x, y, _ in points)
            parts.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for x, y, t in points:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
            parts.append(
                f'<text x="{x:.1f}" y="{top + panel_h + 14}" text-anchor="middle">{t}</text>'
            )

    probabilities = {t: g["probability"] for t, g in groups.items()}
    panel(pad, "success probability by target rate", probabilities, "#1f77b4")
    medians = {t: g["time_ms"]["median"] for t, g in groups.items() if g["time_ms"]}
    longest = max(medians.values(), default=0) or 1.0
    heights = {t: median / longest for t, median in medians.items()}
    panel(2 * pad + panel_h, "median time (ms) over successes", heights, "#d62728")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_summary_svg(summary: dict[str, dict[str, dict]], path: str | Path) -> None:
    atomic_write_text(path, summary_svg(summary))
