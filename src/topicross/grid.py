"""Crossword grid patterns: parsing, slot extraction, validation, random generation.

A pattern is a fixed rectangle of black and white cells. Maximal white runs
of at least ``MIN_SLOT_LENGTH`` cells are the slots that receive answer words;
a cell shared by an across and a down slot is a crossing where both answers
must agree. Each slot carries a link per cell to the slot crossing it there.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Iterable

from .util import DataError

BLACK = "#"
WHITE = "."
MIN_SLOT_LENGTH = 2


class PatternError(DataError):
    """Malformed pattern text."""


class EmptyPatternError(PatternError):
    pass


class RaggedRowsError(PatternError):
    pass


class IllegalCharacterError(PatternError):
    pass


class ExhaustedAttemptsError(RuntimeError):
    """Random pattern generation hit its attempt cap before finding enough valid patterns."""


class Orientation(Enum):
    ACROSS = "across"
    DOWN = "down"


@dataclass(frozen=True)
class GridPattern:
    """A fixed black/white cell layout.

    ``cells`` holds one string per row over the alphabet {'#', '.'}.
    Whether the layout is usable (no isolated white cells, etc.) is the
    business of :func:`validate_pattern`, not of construction: degenerate
    layouts such as all-black grids are representable.
    """

    height: int
    width: int
    cells: tuple[str, ...]
    pattern_id: str = ""

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise PatternError("grid dimensions must be positive")
        if len(self.cells) != self.height:
            raise PatternError(f"expected {self.height} rows, got {len(self.cells)}")
        for r, row in enumerate(self.cells):
            if len(row) != self.width:
                raise RaggedRowsError(f"row {r} has length {len(row)}, expected {self.width}")
            for ch in row:
                if ch not in (BLACK, WHITE):
                    raise IllegalCharacterError(f"illegal cell character {ch!r} in row {r}")

    def is_black(self, row: int, col: int) -> bool:
        return self.cells[row][col] == BLACK

    @property
    def n_black(self) -> int:
        return sum(row.count(BLACK) for row in self.cells)

    def white_cells(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(self.height)
            for c in range(self.width)
            if self.cells[r][c] == WHITE
        ]


@dataclass(frozen=True)
class Slot:
    """A maximal white run; receives exactly one answer word."""

    slot_id: int
    orientation: Orientation
    start: tuple[int, int]
    length: int
    cells: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SlotSet:
    """All slots of a pattern in canonical order, plus their crossing links.

    Canonical order: across slots row-major by start, then down slots
    row-major by start; ``slot_id`` equals the position in ``slots``.
    ``crossings[sid][i]`` is ``(other_sid, j)`` when cell ``i`` of slot
    ``sid`` is cell ``j`` of slot ``other_sid``, and ``None`` when no other
    slot passes through it. Links are symmetric, and an across and a down
    slot share at most one cell.
    """

    slots: tuple[Slot, ...]
    crossings: tuple[tuple[tuple[int, int] | None, ...], ...]


@dataclass(frozen=True)
class Violation:
    """A broken rule: ``kind`` names the rule, ``message`` says where and how."""

    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """The violations found by :func:`validate_pattern` or ``verify_puzzle``."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def parse_pattern(text: str, pattern_id: str = "") -> GridPattern:
    """Parse pattern text ('#' black, '.' white, one row per line).

    An optional leading ``id: <label>`` line names the pattern; it takes
    precedence over the ``pattern_id`` argument.
    """
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if lines and lines[0].startswith("id:"):
        pattern_id = lines[0][3:].strip()
        lines = lines[1:]
    if not lines:
        raise EmptyPatternError("pattern text contains no rows")
    return GridPattern(
        height=len(lines), width=len(lines[0]), cells=tuple(lines), pattern_id=pattern_id
    )


def render_pattern(pattern: GridPattern) -> str:
    """Inverse of :func:`parse_pattern`; emits the id line only when set."""
    body = "\n".join(pattern.cells)
    if pattern.pattern_id:
        return f"id: {pattern.pattern_id}\n{body}"
    return body


def parse_pattern_file(text: str) -> list[GridPattern]:
    """Parse a multi-pattern file: blocks separated by runs of whitespace-only lines."""
    patterns = [
        parse_pattern("\n".join(rows))
        for blank, rows in groupby(text.split("\n"), key=lambda line: not line.strip())
        if not blank
    ]
    if not patterns:
        raise EmptyPatternError("no patterns in file")
    return patterns


def render_pattern_file(patterns: list[GridPattern]) -> str:
    return "\n\n".join(render_pattern(p) for p in patterns) + "\n"


# r"\.{2,}": between black cells, a greedy match is a whole white run.
_WHITE_RUN = re.compile(re.escape(WHITE) + f"{{{MIN_SLOT_LENGTH},}}")


def _white_runs(lines: Iterable[str]) -> list[tuple[int, range]]:
    """Maximal white runs of at least ``MIN_SLOT_LENGTH`` cells, as (line, positions)."""
    return [
        (i, range(m.start(), m.end()))
        for i, line in enumerate(lines)
        for m in _WHITE_RUN.finditer(line)
    ]


def extract_slots(pattern: GridPattern) -> SlotSet:
    """Extract all slots of a pattern in canonical order, with their crossing links."""
    across = [tuple((r, c) for c in span) for r, span in _white_runs(pattern.cells)]
    columns = ("".join(column) for column in zip(*pattern.cells))
    # Columns come out column-major; sorting by start cell makes them row-major.
    down = sorted(tuple((r, c) for r in span) for c, span in _white_runs(columns))

    runs = [(Orientation.ACROSS, cells) for cells in across]
    runs += [(Orientation.DOWN, cells) for cells in down]
    slots = tuple(
        Slot(slot_id=sid, orientation=o, start=cells[0], length=len(cells), cells=cells)
        for sid, (o, cells) in enumerate(runs)
    )
    crossings: list[list[tuple[int, int] | None]] = [[None] * s.length for s in slots]
    across_at = {cell: (a, i) for a, cells in enumerate(across) for i, cell in enumerate(cells)}
    for d, cells in enumerate(down, start=len(across)):
        for j, cell in enumerate(cells):
            if cell in across_at:
                a, i = across_at[cell]
                crossings[a][i] = (d, j)
                crossings[d][j] = (a, i)
    return SlotSet(slots=slots, crossings=tuple(tuple(links) for links in crossings))


def validate_pattern(pattern: GridPattern) -> ValidationReport:
    """Check that every white cell lies in a slot; an empty violation list means valid."""
    whites = pattern.white_cells()
    if not whites:
        return ValidationReport((Violation("no-white-cells", "pattern has no white cells"),))
    covered = {cell for slot in extract_slots(pattern).slots for cell in slot.cells}
    return ValidationReport(
        tuple(
            Violation(
                "isolated-white",
                f"white cell {cell} belongs to no slot of length >= {MIN_SLOT_LENGTH}",
            )
            for cell in whites
            if cell not in covered
        )
    )


def generate_random_patterns(
    height: int,
    width: int,
    n_black: int,
    count: int,
    seed: int = 0,
    max_attempts: int = 100_000,
) -> list[GridPattern]:
    """Generate ``count`` distinct valid patterns with exactly ``n_black`` black cells.

    Rejection sampling: black-cell subsets are drawn uniformly and kept only
    when the pattern passes :func:`validate_pattern`. Deterministic for a
    given seed. Raises :class:`ExhaustedAttemptsError` after ``max_attempts``
    draws, or once every layout of ``n_black`` black cells has been drawn.
    """
    if not 0 <= n_black < height * width:
        raise ValueError(f"n_black must be in [0, {height * width})")
    if count < 1:
        raise ValueError("count must be >= 1")

    rng = random.Random(seed)
    all_cells = height * width
    layouts = math.comb(all_cells, n_black)
    out: list[GridPattern] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    while len(out) < count:
        if len(seen) == layouts:
            raise ExhaustedAttemptsError(
                f"found {len(out)}/{count} valid patterns when the layouts ran out:"
                f" {height}x{width} has {layouts} with {n_black} black cells"
            )
        attempts += 1
        if attempts > max_attempts:
            raise ExhaustedAttemptsError(
                f"found {len(out)}/{count} valid patterns in {max_attempts} attempts"
            )
        blacks = set(rng.sample(range(all_cells), n_black))
        cells = tuple(
            "".join(BLACK if r * width + c in blacks else WHITE for c in range(width))
            for r in range(height)
        )
        if cells in seen:
            continue
        seen.add(cells)
        pattern = GridPattern(
            height=height,
            width=width,
            cells=cells,
            pattern_id=f"{height}x{width}-b{n_black}-{len(out):03d}",
        )
        if validate_pattern(pattern).ok:
            out.append(pattern)
    return out
