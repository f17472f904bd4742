"""Puzzle assembly, independent verification, and serialization."""

import json
import math
import random
import re
from dataclasses import fields, replace

import pytest

from conftest import UNLIMITED, random_small_instance
from topicross.grid import extract_slots, parse_pattern
from topicross.lexicon import Source, build_index, ingest_lexicon, ingest_records
from topicross.puzzle import (
    GENERATOR_VERSION,
    MissingEntryError,
    PuzzleEntry,
    PuzzleMetadata,
    assemble,
    deserialize_puzzle,
    puzzle_to_json,
    render_text,
    serialize_puzzle,
    verify_puzzle,
)
from topicross.solver import FillResult, SolverConfig, Status, solve
from topicross.util import DataError


def build(words):
    lexicon = ingest_records([(w, src, tuple(c)) for w, src, c in words])
    return lexicon, build_index(lexicon)


def solved_puzzle(pattern_text, words, target_rate=0, clue_seed=0):
    lexicon, index = build(words)
    pattern = parse_pattern(pattern_text)
    slotset = extract_slots(pattern)
    result = solve(slotset, index, replace(UNLIMITED, target_rate=target_rate))
    assert result.success
    return pattern, slotset, result, lexicon, assemble(
        pattern, slotset, result, lexicon, clue_seed=clue_seed
    )


FOUR_WORDS = [
    ("AB", Source.TOPIC, ("first clue [Answer] here", "second clue [Answer] there")),
    ("CD", Source.FILLER, ()),
    ("AC", Source.FILLER, ()),
    ("BD", Source.TOPIC, ("only clue [Answer]",)),
]


class TestAssemble:
    def test_clue_choice_deterministic(self):
        *_, first = solved_puzzle("..\n..", FOUR_WORDS, clue_seed=9)
        *_, second = solved_puzzle("..\n..", FOUR_WORDS, clue_seed=9)
        # Outside deterministic mode elapsed_ms is wall-clock time, so two
        # solves may round to different milliseconds; everything else matches.
        first, second = (
            replace(p, metadata=replace(p.metadata, elapsed_ms=0)) for p in (first, second)
        )
        assert first == second

    def test_clue_seed_changes_choice(self):
        puzzles = {
            solved_puzzle("..\n..", FOUR_WORDS, clue_seed=s)[-1].entries[0].clue
            for s in range(8)
        }
        assert len(puzzles) == 2  # both clues of AB get picked across seeds

    def test_placeholder_for_clueless_filler(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        by_answer = {e.answer: e for e in puzzle.entries}
        assert by_answer["CD"].clue == "Define: CD"

    def test_metadata_populated(self):
        pattern, slotset, result, lexicon, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        assert puzzle.metadata.target_rate == 0
        assert puzzle.metadata.achieved_topic_ratio == result.achieved_topic_ratio
        assert puzzle.metadata.generator_version

    def test_missing_entry(self):
        lexicon, index = build(FOUR_WORDS)
        pattern = parse_pattern("..\n..")
        slotset = extract_slots(pattern)
        result = solve(slotset, index, UNLIMITED)
        corrupted = replace(result, assignment={**result.assignment, 0: "ZZ"})
        with pytest.raises(MissingEntryError):
            assemble(pattern, slotset, corrupted, lexicon)

    def test_requires_success(self):
        lexicon, index = build(FOUR_WORDS)
        pattern = parse_pattern("..\n..")
        slotset = extract_slots(pattern)
        failed = FillResult(
            status=Status.TIMEOUT,
            assignment={},
            achieved_topic_ratio=0.0,
            elapsed_ms=1,
            restarts=0,
            nodes_expanded=1,
            config=UNLIMITED,
        )
        with pytest.raises(ValueError):
            assemble(pattern, slotset, failed, lexicon)


class TestVerify:
    def test_assembled_puzzle_verifies(self):
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", FOUR_WORDS, target_rate=50)
        assert verify_puzzle(puzzle, lexicon, 50).ok

    def test_corrupted_crossing_letter(self):
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        # swap one entry's answer for another real word that disagrees at
        # the crossings; only crossing violations should fire
        entries = list(puzzle.entries)
        victim = entries[0]
        assert victim.answer == "AB"
        entries[0] = replace(victim, answer="BD", surface="BD", source=Source.TOPIC)
        corrupted = replace(puzzle, entries=tuple(entries))
        report = verify_puzzle(corrupted, lexicon, 0)
        crossing = [v for v in report.violations if v.kind == "crossing-conflict"]
        assert len(crossing) >= 1

    def test_single_crossing_conflict(self):
        # 1x2-down-only overlap: corrupt exactly one crossing cell
        words = FOUR_WORDS + [("ZD", Source.FILLER, ())]
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", words)
        entries = list(puzzle.entries)
        idx = next(i for i, e in enumerate(entries) if e.answer == "CD")
        entries[idx] = replace(entries[idx], answer="ZD")
        corrupted = replace(puzzle, entries=tuple(entries))
        report = verify_puzzle(corrupted, lexicon, 0)
        crossing = [v for v in report.violations if v.kind == "crossing-conflict"]
        assert len(crossing) == 1

    def test_quota_violation(self):
        # five independent slots, two topic words available: ratio 0.4 < 0.5
        words = [
            ("AB", Source.TOPIC, ()),
            ("CD", Source.TOPIC, ()),
            ("EF", Source.FILLER, ()),
            ("GH", Source.FILLER, ()),
            ("IJ", Source.FILLER, ()),
        ]
        lexicon, index = build(words)
        pattern = parse_pattern("..#..#..#..#..")
        slotset = extract_slots(pattern)
        assert len(slotset.slots) == 5
        result = solve(slotset, index, replace(UNLIMITED, target_rate=40))
        assert result.success
        puzzle = assemble(pattern, slotset, result, lexicon)
        assert puzzle.metadata.achieved_topic_ratio == pytest.approx(0.4)
        report = verify_puzzle(puzzle, lexicon, 50)
        assert [v.kind for v in report.violations] == ["quota"]
        assert verify_puzzle(puzzle, lexicon, 40).ok

    @pytest.mark.parametrize("ratio", [1.0, 7.5, 0.25])
    def test_claimed_ratio_must_match_the_tags(self, ratio):
        fillers = [(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]]
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", fillers)
        assert puzzle.metadata.achieved_topic_ratio == 0.0
        assert verify_puzzle(puzzle, lexicon, 0).ok
        edited = replace(puzzle, metadata=replace(puzzle.metadata, achieved_topic_ratio=ratio))
        report = verify_puzzle(edited, lexicon, 0)
        assert [v.kind for v in report.violations] == ["ratio-mismatch"]

    def test_claimed_ratio_allows_float_rounding(self):
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", FOUR_WORDS, target_rate=50)
        assert puzzle.metadata.achieved_topic_ratio == 0.5
        for ratio in (0.5 + 1e-10, 0.5 - 1e-10):
            edited = replace(puzzle, metadata=replace(puzzle.metadata, achieved_topic_ratio=ratio))
            assert verify_puzzle(edited, lexicon, 50).ok
        # a puzzle with no entries has no share to compare against
        empty = replace(puzzle, entries=())
        empty = replace(empty, metadata=replace(puzzle.metadata, achieved_topic_ratio=7.5))
        assert "ratio-mismatch" not in [v.kind for v in verify_puzzle(empty, lexicon, 0).violations]

    def test_pattern_must_be_valid(self):
        # (0, 0) is white but lies in no slot: the fill never gives it a letter
        _, _, _, lexicon, puzzle = solved_puzzle(".#.\n#..", FOUR_WORDS)
        report = verify_puzzle(puzzle, lexicon, 0)
        assert [(v.kind, v.message) for v in report.violations] == [
            ("isolated-white", "white cell (0, 0) belongs to no slot of length >= 2")
        ]
        blank = replace(puzzle, pattern=parse_pattern("##"), entries=())
        assert [v.kind for v in verify_puzzle(blank, lexicon, 0).violations] == [
            "no-white-cells"
        ]

    def test_each_duplicate_answer_is_reported_once(self):
        words = [(w, Source.FILLER, ()) for w in ["AB", "CD", "EF", "GH", "IJ"]]
        _, _, _, lexicon, puzzle = solved_puzzle("..#..#..#..#..", words)
        entries = [
            replace(entry, answer=answer, surface=answer)
            for entry, answer in zip(puzzle.entries, ["CD", "CD", "AB", "CD", "AB"])
        ]
        report = verify_puzzle(replace(puzzle, entries=tuple(entries)), lexicon, 0)
        assert [(v.kind, v.message) for v in report.violations] == [
            ("duplicate-answer", "'AB' used more than once"),
            ("duplicate-answer", "'CD' used more than once"),
        ]

    def test_missing_and_unknown_slots(self):
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        report = verify_puzzle(replace(puzzle, entries=puzzle.entries[1:]), lexicon, 0)
        assert any(v.kind == "missing-slot" for v in report.violations)

    def test_not_in_lexicon(self):
        _, _, _, lexicon, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        other, _ = build([("ZZ", Source.FILLER, ())])
        report = verify_puzzle(puzzle, other, 0)
        assert all(v.kind == "not-in-lexicon" for v in report.violations)
        assert len(report.violations) == 4

    def test_fuzzed_assembled_puzzles_verify(self):
        rng = random.Random(4)
        verified = 0
        while verified < 30:
            pattern, slotset, lexicon, index = random_small_instance(rng)
            result = solve(slotset, index, UNLIMITED)
            if not result.success:
                continue
            puzzle = assemble(pattern, slotset, result, lexicon, clue_seed=verified)
            assert verify_puzzle(puzzle, lexicon, 0).ok
            verified += 1

    def test_filtered_lexicon_gives_the_same_report(self, tmp_path):
        # verify ingests only the puzzle's answers; every report, tampered
        # puzzles included, must match the one on the full lexicon.
        accents = str.maketrans({"A": "á", "C": "ç", "E": "é"})
        rng = random.Random(12)
        checked = 0
        while checked < 25:
            pattern, slotset, lexicon, index = random_small_instance(rng)
            result = solve(slotset, index, replace(UNLIMITED, seed=checked))
            if not result.success or len(slotset.slots) < 2:
                continue
            puzzle = assemble(pattern, slotset, result, lexicon, clue_seed=checked)
            split, accented = rng.sample(sorted({e.answer for e in puzzle.entries}), 2)
            # ``split`` is a filler in one file and a topic word in the other;
            # ``accented`` is reachable only through normalization.
            first, second = [], []
            for answer, (_, source, _) in sorted(lexicon.records.items()):
                if answer == split:
                    first.append({"surface": split.lower(), "source": "filler", "clues": ["f"]})
                    second.append({"surface": split, "source": "topic", "clues": ["t", "f"]})
                    continue
                surface = answer.translate(accents) if answer == accented else answer
                rng.choice((first, second)).append(
                    {"surface": surface, "source": source.value, "clues": ["c"]}
                )
            paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
            for path, docs in zip(paths, (first, second)):
                path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
            full = ingest_lexicon(paths)

            i = rng.randrange(len(puzzle.entries))
            entries = list(puzzle.entries)
            missing = replace(entries[i], answer="Z" * len(entries[i].answer))
            flipped = replace(
                entries[i],
                source=Source.FILLER if entries[i].source is Source.TOPIC else Source.TOPIC,
            )
            for changed in (entries[i], missing, flipped):
                tampered = replace(puzzle, entries=tuple(entries[:i] + [changed] + entries[i + 1:]))
                answers = {e.answer for e in tampered.entries}
                filtered = ingest_lexicon(paths, keep=answers.__contains__)
                assert set(filtered.records) <= answers
                for target_rate in (0, 50, 100):
                    assert verify_puzzle(tampered, filtered, target_rate) == verify_puzzle(
                        tampered, full, target_rate
                    )
            checked += 1


# Each field of an entry and of the metadata with the DataError message that
# reading it gives: (part, key, message for a missing key or None where the key
# has a default, a value of the wrong type, its message, an unknown enum value
# or None, its message). Entry messages are for entry 0 ("puzzle entry 0: ..."),
# metadata messages for "puzzle metadata: ...". A missing answer is the
# solution-free error instead.
FIELD_ERRORS = [
    ("entry", "slot_id", "missing 'slot_id'", "0", "'slot_id' must be int, got str", None, None),
    (
        "entry", "orientation", "missing 'orientation'", 5, "'orientation' must be str, got int",
        "diagonal", "unknown orientation 'diagonal'",
    ),
    ("entry", "row", "missing 'row'", True, "'row' must be int, got bool", None, None),
    ("entry", "col", "missing 'col'", 1.0, "'col' must be int, got float", None, None),
    ("entry", "answer", None, 5, "'answer' must be str, got int", None, None),
    ("entry", "surface", None, ["AB"], "'surface' must be str, got list", None, None),
    (
        "entry", "source", "missing 'source'", None, "'source' must be str, got NoneType",
        "news", "unknown source 'news'",
    ),
    ("entry", "clue", "missing 'clue'", {}, "'clue' must be str, got dict", None, None),
    (
        "metadata", "target_rate", "missing 'target_rate'", "30",
        "'target_rate' must be int, got str", None, None,
    ),
    (
        "metadata", "achieved_topic_ratio", "missing 'achieved_topic_ratio'", False,
        "'achieved_topic_ratio' must be int or float, got bool", None, None,
    ),
    ("metadata", "seed", "missing 'seed'", 1.5, "'seed' must be int, got float", None, None),
    (
        "metadata", "elapsed_ms", "missing 'elapsed_ms'", "0",
        "'elapsed_ms' must be int, got str", None, None,
    ),
    (
        "metadata", "restarts", "missing 'restarts'", [], "'restarts' must be int, got list",
        None, None,
    ),
    (
        "metadata", "generator_version", None, 1, "'generator_version' must be str, got int",
        None, None,
    ),
]

# The order in which a document's fields are read: the first bad one is reported.
ENTRY_ORDER = ("answer", "slot_id", "orientation", "row", "col", "surface", "source", "clue")
METADATA_ORDER = (
    "target_rate", "achieved_topic_ratio", "seed", "elapsed_ms", "restarts", "generator_version",
)


def puzzle_doc(puzzle):
    """The JSON document of ``puzzle`` and, to edit, its first entry and its metadata."""
    doc = json.loads(puzzle_to_json(puzzle))
    return doc, {"entry": doc["entries"][0], "metadata": doc["metadata"]}


class TestSerialization:
    def test_round_trip(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        doc = json.loads(puzzle_to_json(puzzle))
        assert deserialize_puzzle(doc) == puzzle

    def test_round_trip_fuzzed(self):
        rng = random.Random(12)
        done = 0
        while done < 15:
            pattern, slotset, lexicon, index = random_small_instance(rng)
            result = solve(slotset, index, UNLIMITED)
            if not result.success:
                continue
            puzzle = assemble(pattern, slotset, result, lexicon)
            assert deserialize_puzzle(json.loads(puzzle_to_json(puzzle))) == puzzle
            done += 1

    def test_schema_keys(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        doc = serialize_puzzle(puzzle)
        assert set(doc) == {"pattern", "pattern_id", "entries", "metadata"}
        assert set(doc["entries"][0]) == {
            "slot_id", "orientation", "row", "col", "answer", "surface", "source", "clue",
        }

    def test_solution_free_export(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        doc = serialize_puzzle(puzzle, include_solution=False)
        assert all("answer" not in e and "surface" not in e for e in doc["entries"])
        with pytest.raises(ValueError):
            deserialize_puzzle(doc)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_rejected(self, ratio):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        bad = replace(puzzle, metadata=replace(puzzle.metadata, achieved_topic_ratio=ratio))
        # JSON has no NaN or Infinity: neither written nor read back
        with pytest.raises(ValueError, match="not JSON compliant"):
            puzzle_to_json(bad)
        doc = serialize_puzzle(bad)
        with pytest.raises(DataError, match="'achieved_topic_ratio' must be finite"):
            deserialize_puzzle(json.loads(json.dumps(doc)))

    def test_field_errors_cover_every_field(self):
        assert [key for part, key, *_ in FIELD_ERRORS if part == "entry"] == [
            f.name for f in fields(PuzzleEntry)
        ]
        assert [key for part, key, *_ in FIELD_ERRORS if part == "metadata"] == [
            f.name for f in fields(PuzzleMetadata)
        ]
        assert sorted(ENTRY_ORDER) == sorted(f.name for f in fields(PuzzleEntry))
        assert METADATA_ORDER == tuple(f.name for f in fields(PuzzleMetadata))

    @pytest.mark.parametrize(
        "part, key, missing, wrong, wrong_message, unknown, unknown_message",
        FIELD_ERRORS,
        ids=[f"{part}-{key}" for part, key, *_ in FIELD_ERRORS],
    )
    def test_field_errors(
        self, part, key, missing, wrong, wrong_message, unknown, unknown_message
    ):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        where = "puzzle entry 0" if part == "entry" else "puzzle metadata"

        doc, parts = puzzle_doc(puzzle)
        del parts[part][key]
        if key == "answer":
            message = "solution-free puzzle documents cannot be deserialized"
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                deserialize_puzzle(doc)
        elif missing is None:
            read = deserialize_puzzle(doc)
            if key == "surface":
                assert read.entries[0].surface == read.entries[0].answer
            else:
                assert read.metadata.generator_version == GENERATOR_VERSION
        else:
            with pytest.raises(DataError, match=f"^{re.escape(f'{where}: {missing}')}$"):
                deserialize_puzzle(doc)

        bad = [(wrong, wrong_message)] + ([(unknown, unknown_message)] if unknown else [])
        for value, message in bad:
            doc, parts = puzzle_doc(puzzle)
            parts[part][key] = value
            with pytest.raises(DataError, match=f"^{re.escape(f'{where}: {message}')}$"):
                deserialize_puzzle(doc)

    def test_first_bad_field_is_reported(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        for part, order in (("entry", ENTRY_ORDER), ("metadata", METADATA_ORDER)):
            where = "puzzle entry 0" if part == "entry" else "puzzle metadata"
            for i, first in enumerate(order):
                for second in order[i + 1:]:
                    doc, parts = puzzle_doc(puzzle)
                    # a list is the wrong type for every field
                    parts[part][first] = parts[part][second] = []
                    message = f"{where}: {first!r} must be"
                    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
                        deserialize_puzzle(doc)
        # entries are read in order, and before the metadata
        doc, parts = puzzle_doc(puzzle)
        parts["metadata"]["target_rate"] = []
        doc["entries"][1]["slot_id"] = []
        parts["entry"]["clue"] = []
        with pytest.raises(DataError, match=r"^puzzle entry 0: 'clue' must be"):
            deserialize_puzzle(doc)

    def test_render_deterministic(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        assert render_text(puzzle) == render_text(puzzle)


class TestRender:
    def test_single_slot(self):
        words = [("AB", Source.TOPIC, ("tiny clue [Answer] text",))]
        *_, puzzle = solved_puzzle("..", words)
        text = render_text(puzzle)
        lines = text.splitlines()
        assert lines[0] == "AB"
        assert "ACROSS" in text and "1. tiny clue [Answer] text" in text
        assert "DOWN" not in text

    def test_seven_by_seven_dimensions(self):
        from conftest import make_lexicon
        from topicross.grid import generate_random_patterns

        lexicon, index = make_lexicon(50, 3000, seed=2)
        pattern = generate_random_patterns(7, 7, 12, 1, seed=5)[0]
        slotset = extract_slots(pattern)
        result = solve(
            slotset,
            index,
            SolverConfig(target_rate=0, node_budget=200_000, seed=3),
        )
        assert result.success
        puzzle = assemble(pattern, slotset, result, lexicon)
        grid_lines = render_text(puzzle).split("\n\n")[0].splitlines()
        assert len(grid_lines) == 7
        assert all(len(line) == 7 for line in grid_lines)

    def test_answer_that_does_not_fit_places_no_letters(self):
        *_, lexicon, puzzle = solved_puzzle("..", [("AB", Source.TOPIC, ())])
        short = replace(puzzle, entries=(replace(puzzle.entries[0], answer="A"),))
        assert render_text(short).splitlines()[0] == ".."
        kinds = [v.kind for v in verify_puzzle(short, lexicon, 0).violations]
        assert "length-mismatch" in kinds

    def test_solution_free_hides_letters(self):
        *_, puzzle = solved_puzzle("..\n..", FOUR_WORDS)
        text = render_text(puzzle, include_solution=False)
        assert text.splitlines()[0] == ".."
