"""Normalization, ingestion/dedup, and the constrained word index."""

import gc
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from topicross import lexicon as lexicon_module
from topicross.lexicon import (
    DEFAULT_TABLE,
    REJECT,
    SKIP,
    IngestStats,
    Lexicon,
    NormalizationTable,
    Source,
    TooShortError,
    UnmappableCharacterError,
    build_index,
    ingest_lexicon,
    ingest_records,
    normalize,
    read_lexicon_file,
    read_word_list,
)
from topicross.util import DataError


def lex(records):
    return ingest_records([(s, src, tuple(c)) for s, src, c in records])


def all_entries(lexicon):
    """Every ``(answer, (surface, source, clues))`` of ``lexicon``, sorted by answer."""
    return sorted(lexicon.records.items())


class TestNormalize:
    def test_case_fold(self):
        assert normalize("Roomba") == "ROOMBA"

    def test_already_normalized(self):
        assert normalize("AB") == "AB"

    def test_strip_diacritics(self):
        # the default table maps each accented letter to its stripped base
        assert DEFAULT_TABLE.mappings["é"] == "E"
        assert normalize("café") == "CAFE"
        assert normalize("Ångström") == "ANGSTROM"

    def test_multi_char_expansion(self):
        assert normalize("straße") == "STRASSE"

    def test_skip_drops_unmappable(self):
        assert normalize("new york") == "NEWYORK"
        assert normalize("a-b") == "AB"

    def test_reject_policy(self):
        table = replace(DEFAULT_TABLE, drop_policy="reject")
        with pytest.raises(UnmappableCharacterError):
            normalize("a-b", table)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            normalize("a!")
        with pytest.raises(ValueError):
            normalize("")

    def test_custom_sequence_table(self):
        table = NormalizationTable(mappings={"ch": "X", "a": "A", "b": "B"})
        assert normalize("bach", table) == "BAX"
        # keys listed shortest first: the longest match still wins
        table = NormalizationTable(mappings={"s": "S", "ss": "Z", "sss": "Y"})
        assert normalize("sssss", table) == "YZ"
        # an empty key never matches, though its value joins the alphabet
        table = NormalizationTable(mappings={"": "Z", "ch": "X", "a": "A"})
        assert normalize("a-chZ", table) == "AXZ"

    @given(st.text(min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_own_output(self, surface):
        try:
            once = normalize(surface)
        except ValueError:
            return
        assert normalize(once) == once

    def test_not_idempotent_when_an_alphabet_key_moves(self):
        # "B" is in the alphabet (a value) and a key that does not map to
        # itself, so the table's output is not a fixed point
        table = NormalizationTable(mappings={"a": "B", "B": "C"})
        assert table.apply("a") == "B"
        assert table.apply("B") == "C"

    def test_table_json_round_trip(self):
        doc = DEFAULT_TABLE.to_json()
        assert NormalizationTable.from_json(doc) == DEFAULT_TABLE

    @pytest.mark.parametrize("value", [" ", "A B", "\t", "A\u3000", "\x1c"])
    def test_whitespace_mapping_rejected(self, value):
        # an answer never holds whitespace, because no table maps to any
        with pytest.raises(ValueError, match="mapping of 'a' contains whitespace"):
            NormalizationTable({"a": value})
        with pytest.raises(DataError, match="^normalization table: mapping of 'a'"):
            NormalizationTable.from_json({"mappings": {"a": value}})


def reference_apply(table, surface):
    """Longest-match scan over ``table.mappings``; the normalization oracle."""
    alphabet = {ch for value in table.mappings.values() for ch in value}
    max_key = max((len(k) for k in table.mappings), default=1)
    out = []
    i = 0
    while i < len(surface):
        for k in range(min(max_key, len(surface) - i), 0, -1):
            if surface[i : i + k] in table.mappings:
                out.append(table.mappings[surface[i : i + k]])
                i += k
                break
        else:
            if surface[i] in alphabet:
                out.append(surface[i])
            elif table.drop_policy == REJECT:
                raise UnmappableCharacterError(surface[i], surface)
            i += 1
    return "".join(out)


def outcome(apply, surface):
    """The normalized string, or the code point a 'reject' table raised on."""
    try:
        return apply(surface)
    except UnmappableCharacterError as exc:
        return ("unmappable", exc.codepoint, exc.surface)


def assert_matches_oracle(table, surface):
    assert outcome(table.apply, surface) == outcome(
        lambda s: reference_apply(table, s), surface
    )


# Input characters mix keys, alphabet letters (some in both roles) and
# characters no drawn table maps; values may be empty or two characters long.
# Either kind of table may hold the empty key, which must never match, and
# "\n", which a 'skip' translate map otherwise keeps for the alphabet check.
SURFACE_CHARS = "abcnAB-' \t\nßéΩж"
VALUE_CHARS = "ABCNÑΩЖ"
single_key_tables = st.dictionaries(
    st.sampled_from(SURFACE_CHARS) | st.just(""), st.text(VALUE_CHARS, max_size=2), max_size=8
)
multi_key_tables = st.dictionaries(
    st.text(SURFACE_CHARS, max_size=3), st.text(VALUE_CHARS, max_size=2), max_size=8
).filter(lambda mappings: any(len(key) > 1 for key in mappings))


@pytest.mark.parametrize("policy", [SKIP, REJECT])
class TestNormalizationEquivalence:
    """``NormalizationTable.apply`` against the longest-match oracle."""

    @given(surface=st.text(max_size=20) | st.text(st.characters(max_codepoint=0x24F), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_default_table(self, policy, surface):
        table = replace(DEFAULT_TABLE, drop_policy=policy)
        assert_matches_oracle(table, surface)

    @given(mappings=single_key_tables, surface=st.text(SURFACE_CHARS + "z", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_single_character_keys(self, policy, mappings, surface):
        table = NormalizationTable(mappings=mappings, drop_policy=policy)
        assert_matches_oracle(table, surface)

    @given(mappings=multi_key_tables, surface=st.text(SURFACE_CHARS + "z", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_multi_character_keys(self, policy, mappings, surface):
        table = NormalizationTable(mappings=mappings, drop_policy=policy)
        assert_matches_oracle(table, surface)


class TestIngest:
    def test_topic_precedence(self):
        lexicon = lex(
            [
                ("liberal", Source.TOPIC, ["news clue"]),
                ("liberal", Source.FILLER, []),
                ("atoll", Source.FILLER, []),
            ]
        )
        assert sorted(lexicon.records) == ["ATOLL", "LIBERAL"]
        assert lexicon.records["LIBERAL"] == ("liberal", Source.TOPIC, ("news clue",))
        assert (lexicon.stats.topic, lexicon.stats.filler) == (1, 1)

    def test_topic_wins_even_when_filler_first(self):
        lexicon = lex(
            [
                ("liberal", Source.FILLER, ["dict clue"]),
                ("Liberal", Source.TOPIC, ["news clue"]),
            ]
        )
        assert lexicon.records["LIBERAL"] == ("Liberal", Source.TOPIC, ("dict clue", "news clue"))
        assert lexicon.stats.collisions == 1

    def test_counts_empty_topic(self):
        lexicon = lex([(w, Source.FILLER, []) for w in ["aa", "bb", "cc"]])
        assert (lexicon.stats.topic, lexicon.stats.filler) == (0, 3)

    def test_skip_counters(self):
        lexicon = lex(
            [
                ("a", Source.FILLER, []),      # too short
                ("!?", Source.FILLER, []),     # nothing mappable
                ("ok", Source.FILLER, []),
            ]
        )
        assert len(lexicon) == 1
        assert lexicon.stats.skipped_short == 2

    def test_filtered_load(self):
        records = [
            ("a", Source.FILLER, ()),          # too short
            ("at?", Source.FILLER, ()),        # unmappable
            ("atoll", Source.FILLER, ()),
            ("liberal", Source.FILLER, ("dict clue",)),
            ("Libéral", Source.TOPIC, ("news clue",)),
            ("ok", Source.TOPIC, ()),
            ("ok", Source.FILLER, ()),
        ]
        table = replace(DEFAULT_TABLE, drop_policy=REJECT)
        full = ingest_records(records, table)
        filtered = ingest_records(records, table, {"LIBERAL", "ZZ"}.__contains__)
        assert list(filtered.records) == ["LIBERAL"]
        assert filtered.records["LIBERAL"] == full.records["LIBERAL"]
        # the skip counters cover every record, the rest only the kept answers
        assert (full.stats.skipped_short, full.stats.skipped_unmappable) == (1, 1)
        assert filtered.stats == replace(full.stats, topic=1, filler=0, collisions=1)
        assert full.stats.collisions == 2

    def test_entries_sorted_and_deduped(self):
        rng = random.Random(5)
        words = ["".join(rng.choices("abcde", k=3)) for _ in range(200)]
        lexicon = lex([(w, Source.FILLER, []) for w in words])
        # one record per distinct answer, in first-seen order
        assert list(lexicon.records) == list(dict.fromkeys(w.upper() for w in words))


def reference_ingest(records, table, keep):
    """The merge as one ``(surface, source, clues)`` per answer, rebuilt on each collision."""
    merged = {}
    short = unmappable = collisions = 0
    for surface, source, clues in records:
        try:
            answer = normalize(surface, table)
        except TooShortError:
            short += 1
            continue
        except UnmappableCharacterError:
            unmappable += 1
            continue
        if keep is not None and not keep(answer):
            continue
        old = merged.get(answer)
        if old is None:
            merged[answer] = (surface, source, clues)
            continue
        collisions += 1
        old_surface, old_source, old_clues = old
        union = old_clues + tuple(c for c in clues if c not in old_clues)
        if old_source is Source.FILLER and source is Source.TOPIC:
            merged[answer] = (surface, Source.TOPIC, union)
        else:
            merged[answer] = (old_surface, old_source, union)
    topic = sum(source is Source.TOPIC for _, source, _ in merged.values())
    return merged, IngestStats(topic, len(merged) - topic, short, unmappable, collisions)


# "é", "E" and "e" all normalize to "E"; "-" is dropped or, under 'reject',
# unmappable; one-letter results are too short.
ingest_record_lists = st.lists(
    st.tuples(
        st.text("aeéE-", min_size=1, max_size=3),
        st.sampled_from(Source),
        st.lists(st.sampled_from(["c1", "c2", "c3"]), max_size=3).map(tuple),
    ),
    max_size=30,
)


# None, a set's membership test, or a test on the answer's length as generate
# passes it.
keep_predicates = (
    st.none()
    | st.sets(st.text("AE", min_size=2, max_size=3), max_size=6).map(lambda s: s.__contains__)
    | st.sets(st.integers(2, 3)).map(lambda lengths: lambda answer: len(answer) in lengths)
)


class TestIngestMatchesReference:
    @given(
        records=ingest_record_lists, policy=st.sampled_from([SKIP, REJECT]), keep=keep_predicates
    )
    @example(
        records=[
            ("ae", Source.FILLER, ("c1",)),
            ("AÉ", Source.TOPIC, ("c2", "c1")),
            ("eee", Source.TOPIC, ("c1",)),
            ("ééé", Source.FILLER, ("c3",)),
            ("EEE", Source.FILLER, ("c1",)),
        ],
        policy=SKIP,
        keep=None,
    )
    @settings(max_examples=300, deadline=None)
    def test_lookup_stats_and_index(self, records, policy, keep):
        table = replace(DEFAULT_TABLE, drop_policy=policy)
        expected, stats = reference_ingest(records, table, keep)
        lexicon = ingest_records(records, table, keep)
        assert lexicon.stats == stats
        assert len(lexicon) == len(expected)
        for answer, record in expected.items():
            assert lexicon.records.get(answer) == record
        assert all_entries(lexicon) == sorted(expected.items())
        # the entries equal the reference's, so this checks the index against it
        assert_index_matches_definition(lexicon, build_index(lexicon))


def per_record_ingest(records, table=DEFAULT_TABLE, keep=None):
    """The load as one :func:`normalize` call per record: the loop
    ``ingest_records`` ran before it normalized in columns, kept as its oracle."""
    merged = {}
    skipped_short = 0
    skipped_unmappable = 0
    collisions = 0
    topic = 0
    for record in records:
        surface, source, clues = record
        try:
            answer = normalize(surface, table)
        except TooShortError:
            skipped_short += 1
            continue
        except UnmappableCharacterError:
            skipped_unmappable += 1
            continue
        if keep is not None and not keep(answer):
            continue
        existing = merged.get(answer)
        if existing is None:
            merged[answer] = record
            topic += source is Source.TOPIC
            continue
        collisions += 1
        kept_surface, kept_source, kept_clues = existing
        if kept_source is Source.FILLER and source is Source.TOPIC:
            kept_surface, kept_source = surface, source
            topic += 1
        clues = kept_clues + tuple(c for c in clues if c not in kept_clues)
        merged[answer] = (kept_surface, kept_source, clues)
    stats = IngestStats(topic, len(merged) - topic, skipped_short, skipped_unmappable, collisions)
    return Lexicon(records=merged, stats=stats)


def load_outcome(load, records, table, keep):
    """The records in insertion order and the stats, or the error a load raised."""
    try:
        lexicon = load(records, table, keep)
    except ValueError as exc:
        return type(exc), str(exc)
    return list(lexicon.records.items()), lexicon.stats


# ASCII, accented, expanding (ß, Æ), padded, '#'-leading and punctuation-only
# surfaces; ones that normalize to zero or one letter; embedded newlines.
ORACLE_SURFACES = [
    "ab", "AB", "Ab", "abc", "café", "CAFE", "straße", "STRASSE", "Æble", "aeble",
    " ab ", "\tab", "#ab", "!?", "a", "-", "é", "é-", "ñ!", "new\nyork", "NEWYORK",
    "new york", "a\n", "\n\n", "bach", "BAX",
]
LETTERS = {ch: ch.upper() for ch in "abcehknorsty"} | {ch: ch for ch in "ABCEHKNORSTY"}
ORACLE_TABLES = {
    "default": DEFAULT_TABLE,
    "reject": replace(DEFAULT_TABLE, drop_policy=REJECT),
    "multi-character keys": NormalizationTable({**LETTERS, "ch": "X", "é": "E", "ß": "SS"}),
    "newline key": NormalizationTable({**LETTERS, "\n": "N", "é": "E"}),
    "reject, newline key": NormalizationTable({**LETTERS, "\n": "N"}, drop_policy=REJECT),
}
oracle_records = st.lists(
    st.tuples(
        st.sampled_from(ORACLE_SURFACES) | st.text("abAé ßÆ-#!\n", min_size=1, max_size=5),
        st.sampled_from(Source),
        st.lists(st.sampled_from(["c1", "c2", "c3"]), max_size=3).map(tuple),
    ),
    max_size=40,
)
ORACLE_KEEPS = {
    "none": None,
    "length": lambda answer: len(answer) in (2, 4),
    "answer set": {"AB", "CAFE", "NEWYORK", "STRASSE", "BAX"}.__contains__,
}


class TestColumnLoadMatchesPerRecordLoop:
    @given(
        records=oracle_records,
        table=st.sampled_from(sorted(ORACLE_TABLES)),
        keep=st.sampled_from(sorted(ORACLE_KEEPS)),
        slice_size=st.sampled_from([1, 3, lexicon_module._SLICE]),
    )
    @example(
        records=[
            ("new\nyork", Source.FILLER, ("c1",)),
            ("NEWYORK", Source.TOPIC, ("c2",)),
            ("café", Source.FILLER, ()),
            ("Cafe", Source.TOPIC, ("c1", "c3")),
        ],
        table="default",
        keep="none",
        slice_size=lexicon_module._SLICE,
    )
    @settings(max_examples=400, deadline=None)
    def test_records_in_order_and_stats(self, records, table, keep, slice_size):
        table, keep = ORACLE_TABLES[table], ORACLE_KEEPS[keep]
        expected = load_outcome(per_record_ingest, records, table, keep)
        with patch.object(lexicon_module, "_SLICE", slice_size):
            assert load_outcome(ingest_records, records, table, keep) == expected

    def test_embedded_newline_joins_the_words(self):
        lexicon = ingest_records([("new\nyork", Source.FILLER, ()), ("ab", Source.FILLER, ())])
        assert list(lexicon.records) == ["NEWYORK", "AB"]

    def test_empty_surface_raises(self):
        with pytest.raises(ValueError, match="surface must be non-empty"):
            ingest_records([("ab", Source.FILLER, ()), ("", Source.FILLER, ())])

    @pytest.mark.parametrize(
        "table, surfaces, calls",
        [
            # under a 'skip' table with single-character keys, only a surface
            # with a non-ASCII character is normalized alone
            ("default", ["ab", "café", "new york", "#ab", "Æble"], ["café", "Æble"]),
            # a 'reject' table, a surface holding a newline, or multi-character
            # keys: each surface alone
            ("reject", ["ab", "café"], ["ab", "café"]),
            ("default", ["ab", "new\nyork", "é"], ["ab", "new\nyork", "é"]),
            ("reject", ["ab", "a-b", "é"], ["ab", "a-b", "é"]),
            ("multi-character keys", ["ab", "bach"], ["ab", "bach"]),
        ],
    )
    def test_which_surfaces_are_normalized_alone(self, monkeypatch, table, surfaces, calls):
        seen = []

        def counting_normalize(surface, table):
            seen.append(surface)
            return normalize(surface, table)

        monkeypatch.setattr(lexicon_module, "normalize", counting_normalize)
        records = [(surface, Source.FILLER, ()) for surface in surfaces]
        ingest_records(records, ORACLE_TABLES[table])
        assert seen == calls

    def test_keep_sees_each_answer_of_two_letters_or_more(self):
        seen = []
        records = [(s, Source.FILLER, ()) for s in ["ab", "a", "café", "!?", "AB", "é-"]]
        ingest_records(records, keep=lambda answer: seen.append(answer) or True)
        assert seen == ["AB", "CAFE", "AB"]


class TestLexiconFiles:
    def test_word_list(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\nalpha\n\nbeta\n", encoding="utf-8")
        records = read_lexicon_file(path)
        assert [(surface, source) for surface, source, _ in records] == [
            ("alpha", Source.FILLER),
            ("beta", Source.FILLER),
        ]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "topic.jsonl"
        path.write_text(
            '{"surface": "liberal", "source": "topic", "clues": ["c1"]}\n'
            '{"surface": "atoll"}\n',
            encoding="utf-8",
        )
        records = read_lexicon_file(path)
        assert records[0] == ("liberal", Source.TOPIC, ("c1",))
        assert records[1] == ("atoll", Source.FILLER, ())

    def test_jsonl_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ok = '{"surface": "ok"}\n'
        for text, line in (
            ("{nope\n", 1),
            (ok + '{"surface": "x", "source": "weird"}\n', 2),
            (ok + '{"surface": 5, "source": "topic"}\n', 2),
            (ok + '\n{"surface": ""}\n', 3),
            (ok + '{"surface": null}\n', 2),
        ):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError) as err:
                read_lexicon_file(path)
            assert str(err.value).startswith(f"{path}:{line}: ")

    def test_word_list_byte_order_mark(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("\ufeffAB\nCD\n", encoding="utf-8")
        assert read_word_list(path) == ["AB", "CD"]
        # Kept as part of the first word, the mark is unmappable under 'reject'.
        lexicon = ingest_lexicon([path], replace(DEFAULT_TABLE, drop_policy=REJECT))
        assert sorted(lexicon.records) == ["AB", "CD"]
        assert lexicon.stats.skipped_unmappable == 0

    def test_jsonl_byte_order_mark(self, tmp_path):
        path = tmp_path / "topic.jsonl"
        path.write_text('\ufeff{"surface": "liberal", "source": "topic"}\n', encoding="utf-8")
        assert read_lexicon_file(path) == [("liberal", Source.TOPIC, ())]

    def test_ingest_multiple_files(self, tmp_path):
        topic = tmp_path / "t.jsonl"
        topic.write_text('{"surface": "liberal", "source": "topic"}\n', encoding="utf-8")
        filler = tmp_path / "f.txt"
        filler.write_text("liberal\natoll\n", encoding="utf-8")
        lexicon = ingest_lexicon([topic, filler])
        assert (lexicon.stats.topic, lexicon.stats.filler) == (1, 1)
        assert lexicon.records["LIBERAL"] == ("liberal", Source.TOPIC, ())


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_restores_the_collector_state(self, tmp_path, monkeypatch, enabled):
        good = tmp_path / "words.txt"
        good.write_text("alpha\nbeta\n", encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"surface": 5}\n', encoding="utf-8")
        seen = []
        read = read_lexicon_file
        monkeypatch.setattr(
            "topicross.lexicon.read_lexicon_file",
            lambda path: seen.append(gc.isenabled()) or read(path),
        )
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert len(ingest_lexicon([good])) == 2
            assert gc.isenabled() is enabled
            with pytest.raises(DataError):
                ingest_lexicon([good, bad])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        # every file was read with the collector off
        assert seen == [False, False, False]


def split_word_list(data):
    """The word-list definition from raw bytes; the reader's oracle."""
    text = data.decode("utf-8").removeprefix("\ufeff")
    lines = (line.strip() for line in re.split("\r\n|\r|\n", text))
    return [line for line in lines if line and not line.startswith("#")]


# Lines of letters, '#', spaces and tabs, with U+2028 and U+0085 inside: both
# are line breaks to str.splitlines but must not split a word-list line.
WORD_LIST_LINES = st.lists(
    st.text(st.sampled_from("ab#  \t\u2028\u0085é"), max_size=6), max_size=8
)


class TestWordListReader:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=WORD_LIST_LINES,
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=8, max_size=8),
        final_newline=st.booleans(),
        bom=st.booleans(),
    )
    @example(
        lines=["\ufeff", "a\u2028b", " \t", "  # note", "#", "a\u0085b"],
        ends=["\r\n", "\r", "\n", "\r\n", "\r", "\n", "\n", "\n"],
        final_newline=False,
        bom=True,
    )
    def test_matches_reference_split(self, lines, ends, final_newline, bom):
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and not final_newline:
            text = text[: -len(ends[len(lines) - 1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "words.txt"
            data = (("\ufeff" if bom else "") + text).encode("utf-8")
            path.write_bytes(data)
            words = read_word_list(path)
            assert words == split_word_list(data)
            assert read_lexicon_file(path) == [(word, Source.FILLER, ()) for word in words]
        for line in lines:
            word = line.strip()
            if word and not word.startswith("#"):
                assert word in words


def canonical(entries):
    """Answers of ``entries`` in canonical candidate order: topic first, then by answer."""
    return [
        answer
        for _, answer in sorted(
            (source is not Source.TOPIC, answer) for answer, (_, source, _) in entries
        )
    ]


def naive_candidates(lexicon, length, fixed, excluded):
    """Brute scan over the whole lexicon; the retrieval oracle."""
    return canonical(
        (answer, record)
        for answer, record in all_entries(lexicon)
        if len(answer) == length
        and all(answer[i] == ch for i, ch in fixed)
        and answer not in excluded
    )


def words_at(index, length, ranks):
    return [index.by_length[length][r] for r in ranks]


def excluded_mask(index, answers):
    """Per-length ``excluded`` masks of a set of answers."""
    masks = {}
    for length, pool in index.by_length.items():
        for rank, answer in enumerate(pool):
            if answer in answers:
                masks[length] = masks.get(length, 0) | 1 << rank
    return masks


class TestWordIndex:
    def test_two_word_example(self):
        lexicon = lex([("AB", Source.FILLER, []), ("BA", Source.FILLER, [])])
        index = build_index(lexicon)
        assert words_at(index, 2, index.candidates(index.domain(2, [(0, "A")]))) == ["AB"]
        assert words_at(index, 2, index.candidates(index.domain(2, [(1, "A")]))) == ["BA"]

    def test_empty_lexicon(self):
        index = build_index(lex([]))
        assert index.masks == {}
        assert index.domain(3) == 0
        assert index.candidates(index.domain(3)) == []
        assert index.count_matches(index.domain(3)) == 0
        assert index.candidates(index.domain(3), excluded=0b101) == []

    def test_single_word_every_position(self):
        index = build_index(lex([("AAA", Source.FILLER, [])]))
        for i in range(3):
            assert index.masks[3, i, "A"] == 1
            assert words_at(index, 3, index.candidates(index.domain(3, [(i, "A")]))) == ["AAA"]

    def test_exclusion(self):
        lexicon = lex([("AB", Source.FILLER, []), ("BA", Source.FILLER, [])])
        index = build_index(lexicon)
        assert index.candidates(index.domain(2), excluded=0b01) == [1]
        assert index.candidates(index.domain(2), excluded=0b10) == [0]
        assert index.candidates(index.domain(2), excluded=0b11) == []
        assert index.count_matches(index.domain(2), excluded=0b01) == 1
        # excluding nothing, or bits past the top rank, changes nothing
        assert index.candidates(index.domain(2), excluded=0) == [0, 1]
        assert index.candidates(index.domain(2), excluded=0b100) == [0, 1]
        # bit 0, the top rank and the empty result; 21 ranks span three bytes
        words = sorted({f"{a}{b}" for a in "ABCDE" for b in "ABCDE"})[:21]
        index = build_index(lex([(w, Source.FILLER, []) for w in words]))
        top = len(words) - 1
        assert index.by_length[2][0] == "AA"
        assert index.candidates(index.domain(2, [(0, "A"), (1, "A")])) == [0]
        last = index.by_length[2][top]
        assert index.candidates(index.domain(2, [(0, last[0]), (1, last[1])])) == [top]
        assert index.candidates(index.domain(2)) == list(range(top + 1))
        assert index.count_matches(index.domain(2)) == top + 1
        full = (1 << (top + 1)) - 1
        assert index.candidates(index.domain(2), excluded=full) == []
        assert index.count_matches(index.domain(2), excluded=full) == 0
        assert index.candidates(index.domain(2), excluded=full ^ 1 << top) == [top]
        assert index.candidates(index.domain(2, [(0, "Z")])) == []

    def test_topic_first_ordering(self):
        lexicon = lex(
            [
                ("zz", Source.TOPIC, []),
                ("aa", Source.FILLER, []),
                ("mm", Source.TOPIC, []),
            ]
        )
        index = build_index(lexicon)
        assert words_at(index, 2, index.candidates(index.domain(2))) == ["MM", "ZZ", "AA"]

    def test_invariants_against_definition(self):
        lexicon, index = _random_lexicon_index(seed=11)
        assert_index_matches_definition(lexicon, index)

    def test_non_ascii_alphabet_and_unsorted_entries(self):
        table = NormalizationTable(mappings={"n": "Ñ", "o": "Ω", "z": "Ж", "a": "A"})
        rng = random.Random(17)
        words = {"".join(rng.choices("noza", k=rng.randint(2, 6))) for _ in range(300)}
        records = [
            (w, Source.TOPIC if rng.random() < 0.3 else Source.FILLER, ())
            for w in sorted(words)
        ]
        ingested = ingest_records(records, table)
        # Lexicon does not order its records; hand the index a shuffled dict
        items = list(ingested.records.items())
        rng.shuffle(items)
        lexicon = Lexicon(records=dict(items), stats=ingested.stats)
        assert list(lexicon.records) != sorted(lexicon.records)
        index = build_index(lexicon)
        assert {letter for (_, _, letter) in index.masks} == {"Ñ", "Ω", "Ж", "A"}
        assert max(len(pool) for pool in index.by_length.values()) > 64
        assert_index_matches_definition(lexicon, index)

    def test_matches_naive_filter_on_random_queries(self):
        lexicon, index = _random_lexicon_index(seed=23)
        rng = random.Random(99)
        answers = sorted(lexicon.records)
        for _ in range(10_000):
            length = rng.randint(2, 6)
            fixed = {
                (rng.randrange(length), rng.choice("ABCDE"))
                for _ in range(rng.randint(0, 3))
            }
            excluded = set(rng.sample(answers, rng.randint(0, 3)))
            mask = excluded_mask(index, excluded).get(length, 0)
            expected = naive_candidates(lexicon, length, fixed, excluded)
            domain = index.domain(length, fixed)
            assert words_at(index, length, index.candidates(domain, mask)) == expected
            assert index.count_matches(index.domain(length, sorted(fixed)), mask) == len(expected)

    def test_bad_position_rejected(self):
        _, index = _random_lexicon_index(seed=1)
        with pytest.raises(ValueError):
            index.domain(3, [(3, "A")])
        with pytest.raises(ValueError):
            index.domain(3, [(-1, "A")])


def assert_index_matches_definition(lexicon, index):
    """``by_length``, ``topic_count`` and every mask, checked against their definitions."""
    entries = all_entries(lexicon)
    lengths = {len(answer) for answer, _ in entries}
    assert set(index.by_length) == lengths
    assert set(index.topic_count) == lengths
    for length in lengths:
        of_length = [(answer, record) for answer, record in entries if len(answer) == length]
        assert list(index.by_length[length]) == canonical(of_length)
        topic = sum(source is Source.TOPIC for _, (_, source, _) in of_length)
        assert index.topic_count[length] == topic
        assert all(
            lexicon.records[answer][1] is (Source.TOPIC if rank < topic else Source.FILLER)
            for rank, answer in enumerate(index.by_length[length])
        )
    for (length, pos, letter), mask in index.masks.items():
        pool = index.by_length[length]
        assert mask > 0 and mask.bit_length() <= len(pool)
        answers = {pool[i] for i in range(len(pool)) if mask >> i & 1}
        assert answers == {answer for answer in pool if answer[pos] == letter}
    for length, pool in index.by_length.items():
        for pos in range(length):
            union = 0
            for (lg, p, _), mask in index.masks.items():
                if lg == length and p == pos:
                    assert not union & mask  # one letter per position
                    union |= mask
            assert union == (1 << len(pool)) - 1


def _random_lexicon_index(seed):
    rng = random.Random(seed)
    words = set()
    while len(words) < 200:
        words.add("".join(rng.choices("ABCDE", k=rng.randint(2, 6))))
    records = [
        (w, Source.TOPIC if rng.random() < 0.3 else Source.FILLER, ())
        for w in sorted(words)
    ]
    lexicon = ingest_records(records)
    return lexicon, build_index(lexicon)
