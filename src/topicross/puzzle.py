"""Distributable puzzles: clue selection, independent verification, JSON and text output."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, Field, dataclass, fields
from enum import Enum, EnumMeta
from random import Random

from .grid import (
    GridPattern,
    Orientation,
    SlotSet,
    ValidationReport,
    Violation,
    extract_slots,
    parse_pattern,
    validate_pattern,
)
from .lexicon import Lexicon, Source
from .solver import FillResult
from .util import DataError, derive_seed, enum_field, json_field

GENERATOR_VERSION = "0.1.0"
PLACEHOLDER_CLUE = "({length} letters)"


class MissingEntryError(KeyError):
    """An assigned answer is absent from the lexicon (index corruption)."""


@dataclass(frozen=True)
class PuzzleEntry:
    slot_id: int
    orientation: Orientation
    row: int
    col: int
    answer: str
    surface: str
    source: Source
    clue: str


# The entry fields that spell the solution: a solution-free file leaves both
# out, and a file that holds the answer may leave out a surface equal to it.
_ANSWER, _SURFACE = "answer", "surface"


@dataclass(frozen=True)
class PuzzleMetadata:
    target_rate: int
    achieved_topic_ratio: float
    seed: int
    elapsed_ms: int
    restarts: int
    generator_version: str = GENERATOR_VERSION


@dataclass(frozen=True)
class Puzzle:
    pattern: GridPattern
    entries: tuple[PuzzleEntry, ...]
    metadata: PuzzleMetadata


def assemble(
    pattern: GridPattern,
    slotset: SlotSet,
    result: FillResult,
    lexicon: Lexicon,
    clue_seed: int = 0,
) -> Puzzle:
    """Pair each assigned answer with one of its clues.

    The clue is drawn uniformly (seeded) from the answer's clue list; answers
    without clues get a placeholder that gives only the answer's length,
    "(5 letters)", and no letter of it. Requires a successful fill.
    """
    if not result.success:
        raise ValueError(f"cannot assemble from a {result.status.value} result")
    rng = Random(derive_seed(clue_seed, "clues"))
    entries = []
    for slot in slotset.slots:
        answer = result.assignment.get(slot.slot_id)
        if answer is None:
            raise MissingEntryError(f"slot {slot.slot_id} has no assignment")
        record = lexicon.get(answer)
        if record is None:
            raise MissingEntryError(f"assigned answer {answer!r} not in lexicon")
        surface, source, clues = record
        clue = rng.choice(clues) if clues else PLACEHOLDER_CLUE.format(length=len(answer))
        entries.append(
            PuzzleEntry(
                slot_id=slot.slot_id,
                orientation=slot.orientation,
                row=slot.start[0],
                col=slot.start[1],
                answer=answer,
                surface=surface,
                source=source,
                clue=clue,
            )
        )
    metadata = PuzzleMetadata(
        target_rate=result.config.target_rate,
        achieved_topic_ratio=result.achieved_topic_ratio,
        seed=result.config.seed,
        elapsed_ms=result.elapsed_ms,
        restarts=result.restarts,
    )
    return Puzzle(pattern=pattern, entries=tuple(entries), metadata=metadata)


def verify_puzzle(puzzle: Puzzle, lexicon: Lexicon, target_rate: int) -> ValidationReport:
    """Re-check a puzzle from scratch; violations are data, not errors.

    Checks the pattern (every white cell lies in a slot), slot coverage,
    entry geometry, crossing-letter agreement, lexicon membership, each
    entry's source against the lexicon's, the duplicate-answer rule, the
    topic quota, and the metadata's ``achieved_topic_ratio`` against the
    share of entries the file tags topic. A topic answer counts toward the
    quota only when the lexicon tags it topic and the entry agrees; the file's
    tag alone counts for nothing. Deliberately independent of the solver:
    letters are re-placed cell by cell here.
    """
    violations = list(validate_pattern(puzzle.pattern).violations)
    slotset = extract_slots(puzzle.pattern)
    slots_by_id = {s.slot_id: s for s in slotset.slots}

    seen_ids: set[int] = set()
    for entry in puzzle.entries:
        if entry.slot_id in seen_ids:
            violations.append(Violation("duplicate-slot", f"slot {entry.slot_id} filled twice"))
        seen_ids.add(entry.slot_id)
    for sid in sorted(set(slots_by_id) - seen_ids):
        violations.append(Violation("missing-slot", f"slot {sid} has no entry"))

    letters: dict[tuple[int, int], str] = {}
    conflicted: set[tuple[int, int]] = set()
    for entry in puzzle.entries:
        slot = slots_by_id.get(entry.slot_id)
        if slot is None:
            violations.append(Violation("unknown-slot", f"slot {entry.slot_id} not in pattern"))
            continue
        if (
            entry.orientation is not slot.orientation
            or (entry.row, entry.col) != slot.start
        ):
            violations.append(
                Violation(
                    "slot-mismatch",
                    f"slot {entry.slot_id}: entry at ({entry.row}, {entry.col}) "
                    f"{entry.orientation.value} does not match the pattern slot",
                )
            )
            continue
        if len(entry.answer) != slot.length:
            violations.append(
                Violation(
                    "length-mismatch",
                    f"slot {entry.slot_id}: answer {entry.answer!r} vs length {slot.length}",
                )
            )
            continue
        for i, cell in enumerate(slot.cells):
            have = letters.get(cell)
            if have is None:
                letters[cell] = entry.answer[i]
            elif have != entry.answer[i] and cell not in conflicted:
                conflicted.add(cell)
                violations.append(
                    Violation(
                        "crossing-conflict",
                        f"cell {cell}: {have!r} vs {entry.answer[i]!r}",
                    )
                )

    uses = Counter(e.answer for e in puzzle.entries)
    for answer in sorted(a for a, n in uses.items() if n > 1):
        violations.append(Violation("duplicate-answer", f"{answer!r} used more than once"))

    topic = 0
    for entry in puzzle.entries:
        record = lexicon.get(entry.answer)
        if record is None:
            violations.append(
                Violation("not-in-lexicon", f"{entry.answer!r} is not a known answer")
            )
            continue
        _, source, _ = record
        if entry.source is not source:
            violations.append(
                Violation(
                    "source-mismatch",
                    f"{entry.answer!r} is marked {entry.source.value}, "
                    f"the lexicon has it as {source.value}",
                )
            )
        elif source is Source.TOPIC:
            topic += 1
    total = len(puzzle.entries)
    if total and topic * 100 < target_rate * total:
        violations.append(
            Violation(
                "quota",
                f"{topic}/{total} topic answers is below the {target_rate}% target",
            )
        )
    tagged = sum(entry.source is Source.TOPIC for entry in puzzle.entries)
    claimed = puzzle.metadata.achieved_topic_ratio
    if total and not math.isclose(claimed, tagged / total, abs_tol=1e-9):
        violations.append(
            Violation(
                "ratio-mismatch",
                f"metadata claims a topic ratio of {claimed!r}, "
                f"but {tagged}/{total} entries are tagged topic",
            )
        )
    return ValidationReport(tuple(violations))


def _to_json(record: object, omit: tuple[str, ...] = ()) -> dict:
    """An unslotted dataclass record's fields by name, but ``omit``; an enum as
    its value."""
    values = vars(record).items()
    return {name: v.value if isinstance(v, Enum) else v for name, v in values if name not in omit}


def serialize_puzzle(puzzle: Puzzle, include_solution: bool = True) -> dict:
    """Puzzle as a JSON-ready dict, each entry and the metadata as their fields;
    set ``include_solution=False`` to omit answers."""
    omit = () if include_solution else (_ANSWER, _SURFACE)
    return {
        "pattern": "\n".join(puzzle.pattern.cells),
        "pattern_id": puzzle.pattern.pattern_id,
        "entries": [_to_json(entry, omit) for entry in puzzle.entries],
        "metadata": _to_json(puzzle.metadata),
    }


def puzzle_to_json(puzzle: Puzzle, include_solution: bool = True) -> str:
    return json.dumps(
        serialize_puzzle(puzzle, include_solution),
        ensure_ascii=False,
        sort_keys=True,
        indent=2,
        allow_nan=False,
    )


# The JSON type of each (string) field annotation; an enum is read from its value.
_KINDS = dict(int=int, str=str, float=(int, float), Orientation=Orientation, Source=Source)


def _from_json(cls: type, doc: object, where: str, defaults: dict[str, object]) -> object:
    """Dataclass ``cls`` read from the JSON object ``doc`` field by field, in field
    order; an absent field takes its value in ``defaults``, else its default."""

    def read(f: Field) -> object:
        kind, default = _KINDS[f.type], defaults.get(f.name, f.default)
        optional = () if default is MISSING else (default,)
        if isinstance(kind, EnumMeta):
            return enum_field(kind, doc, f.name, where, *optional)
        return json_field(doc, f.name, kind, where, *optional)

    return cls(*map(read, fields(cls)))


def deserialize_puzzle(doc: object) -> Puzzle:
    """Inverse of :func:`serialize_puzzle` for documents that include the solution; a
    field missing or of the wrong type or value (a NaN ratio, say) is a :class:`DataError`."""
    pattern = parse_pattern(
        json_field(doc, "pattern", str, "puzzle"),
        pattern_id=json_field(doc, "pattern_id", str, "puzzle", ""),
    )
    entries = []
    for i, e in enumerate(json_field(doc, "entries", list, "puzzle")):
        where = f"puzzle entry {i}"
        if isinstance(e, dict) and _ANSWER not in e:
            raise DataError("solution-free puzzle documents cannot be deserialized")
        answer = json_field(e, _ANSWER, str, where)
        entries.append(_from_json(PuzzleEntry, e, where, {_SURFACE: answer}))
    md = json_field(doc, "metadata", dict, "puzzle")
    metadata = _from_json(PuzzleMetadata, md, "puzzle metadata", {})
    return Puzzle(pattern=pattern, entries=tuple(entries), metadata=metadata)


def render_text(puzzle: Puzzle, include_solution: bool = True) -> str:
    """Letter grid plus numbered ACROSS/DOWN clue lists.

    Clue numbers follow canonical slot order (across row-major, then down).
    Without the solution, white cells render as '.'. An entry that does not
    fit a slot of the pattern places no letters; :func:`verify_puzzle` reports
    it.
    """
    letters: dict[tuple[int, int], str] = {}
    slotset = extract_slots(puzzle.pattern)
    slots_by_id = {s.slot_id: s for s in slotset.slots}
    if include_solution:
        for entry in puzzle.entries:
            slot = slots_by_id.get(entry.slot_id)
            if slot is None or len(entry.answer) != slot.length:
                continue
            for i, cell in enumerate(slot.cells):
                letters[cell] = entry.answer[i]

    lines = []
    for r in range(puzzle.pattern.height):
        row = []
        for c in range(puzzle.pattern.width):
            if puzzle.pattern.is_black(r, c):
                row.append("#")
            else:
                row.append(letters.get((r, c), "."))
        lines.append("".join(row))

    across = []
    down = []
    entries_by_id = {e.slot_id: e for e in puzzle.entries}
    for number, slot in enumerate(slotset.slots, start=1):
        entry = entries_by_id.get(slot.slot_id)
        clue = entry.clue if entry else "(no clue)"
        target = across if slot.orientation is Orientation.ACROSS else down
        target.append(f"{number}. {clue}")

    parts = ["\n".join(lines)]
    if across:
        parts.append("ACROSS\n" + "\n".join(across))
    if down:
        parts.append("DOWN\n" + "\n".join(down))
    return "\n\n".join(parts) + "\n"
