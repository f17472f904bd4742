"""Answer-word storage: normalization to a grid alphabet, topic/filler tagging,
and a (length, position, letter) index of answer-set masks for candidate
retrieval.

Topic words come from the target corpus, filler words from a word list; a word
in both keeps the topic tag. A lexicon record is one plain ``(surface, source,
clues)`` tuple, and this module owns its JSON Lines format: both
:func:`write_lexicon_jsonl` and :func:`read_lexicon_file` live here.

Normalization maps a surface onto the grid alphabet with a
:class:`NormalizationTable`: its keys substitute, longest first, and one
alphabet check then drops or rejects every character left outside the
alphabet. Under a 'skip' table whose keys are single characters (the default
is one), :func:`ingest_records` joins a load's surfaces, drops the non-ASCII
characters and translates the joined text in one call, because
``str.translate`` takes its ASCII fast path only on a string that is all
ASCII; each surface that held a non-ASCII character then costs one
:func:`normalize` call. Under any other table, each surface costs one call.
"""

from __future__ import annotations

import json
import operator
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, filterfalse, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .util import (
    DataError,
    enum_field,
    gc_paused,
    json_field,
    json_lines,
    longest_first_pattern,
    text_lines,
)


class Source(Enum):
    TOPIC = "topic"
    FILLER = "filler"


class UnmappableCharacterError(ValueError):
    """A code point with no mapping, under the 'reject' drop policy."""

    def __init__(self, codepoint: str, surface: str):
        super().__init__(f"cannot normalize {codepoint!r} in {surface!r}")
        self.codepoint = codepoint
        self.surface = surface


class TooShortError(ValueError):
    """Normalization left fewer than two grid characters."""


REJECT = "reject"
SKIP = "skip"


@dataclass(frozen=True)
class NormalizationTable:
    """Maps surface code-point sequences onto the grid alphabet.

    Keys may be multi-character; the longest key match wins at each input
    position, and an empty key never matches. A character that no key
    matches passes through when it is in the output alphabet (the characters
    of the mapped values). Anything else is handled per ``drop_policy``:
    'reject' raises, 'skip' silently drops the character. A mapped value
    that contains whitespace raises ``ValueError``.

    The table is idempotent on its own output when every key spelled in the
    alphabet maps to itself, as in the default table. Otherwise it need not
    be: with ``{"a": "B", "B": "C"}``, ``apply("a")`` is ``"B"`` but
    ``apply("B")`` is ``"C"``.

    :meth:`apply` substitutes in one step: one ``str.translate`` call when
    every key is one character, else one regex alternation of the keys,
    longest first. One alphabet check then drops or rejects what is left.
    Under 'skip', the translate map also drops the ASCII characters outside
    the alphabet and keeps ``"\\n"`` unless it is a key, so that
    :func:`ingest_records` can translate a load's ASCII surfaces, joined with
    ``"\\n"``, in one call.
    """

    mappings: dict[str, str]
    drop_policy: str = SKIP
    _alphabet: frozenset[str] = field(init=False, repr=False, compare=False)
    _codes: dict[int, str | None] | None = field(init=False, repr=False, compare=False)
    _pattern: re.Pattern[str] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key, value in self.mappings.items():
            if any(ch.isspace() for ch in value):
                raise ValueError(f"mapping of {key!r} contains whitespace")
        if self.drop_policy not in (REJECT, SKIP):
            raise ValueError(f"'drop_policy' must be {REJECT!r} or {SKIP!r}")
        alphabet = frozenset(ch for value in self.mappings.values() for ch in value)
        object.__setattr__(self, "_alphabet", alphabet)
        codes = pattern = None
        if all(len(key) <= 1 for key in self.mappings):
            codes = {}
            if self.drop_policy == SKIP:
                codes = {code: None for code in range(128) if chr(code) not in alphabet}
                codes[ord("\n")] = "\n"
            codes.update((ord(key), value) for key, value in self.mappings.items() if key)
        else:
            pattern = longest_first_pattern(self.mappings)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_pattern", pattern)

    def apply(self, surface: str) -> str:
        if self._pattern is None:
            out = surface.translate(self._codes)
        else:
            out = self._pattern.sub(lambda match: self.mappings[match.group()], surface)
        # Every mapped value is in the alphabet and any other character that
        # survives the substitution is unchanged, so the characters left
        # outside the alphabet are exactly the unmappable ones, in input order.
        if self._alphabet.issuperset(out):
            return out
        if self.drop_policy == REJECT:
            raise UnmappableCharacterError(
                next(ch for ch in out if ch not in self._alphabet), surface
            )
        return "".join(ch for ch in out if ch in self._alphabet)

    def to_json(self) -> dict:
        return {"mappings": dict(sorted(self.mappings.items())), "drop_policy": self.drop_policy}

    @classmethod
    def from_json(cls, doc: object) -> NormalizationTable:
        """Inverse of :meth:`to_json`; raises :class:`DataError` on a malformed document."""
        where = "normalization table"
        mappings = json_field(doc, "mappings", dict, where)
        if not all(isinstance(value, str) for value in mappings.values()):
            raise DataError(f"{where}: every 'mappings' value must be a string")
        drop_policy = json_field(doc, "drop_policy", str, where, SKIP)
        try:
            return cls(mappings=dict(mappings), drop_policy=drop_policy)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None


def _build_default_latin() -> NormalizationTable:
    # Case-fold to uppercase plus diacritic stripping, computed once from
    # Unicode decompositions over the Latin blocks.
    mappings: dict[str, str] = {}
    for code in range(ord("A"), ord("Z") + 1):
        mappings[chr(code)] = chr(code)
    for code in range(ord("a"), ord("z") + 1):
        mappings[chr(code)] = chr(code).upper()
    for code in list(range(0xC0, 0x180)) + list(range(0x180, 0x250)):
        ch = chr(code)
        if not ch.isalpha():
            continue
        stripped = "".join(
            c
            for c in unicodedata.normalize("NFD", ch.upper())
            if not unicodedata.combining(c)
        )
        if stripped and all("A" <= c <= "Z" for c in stripped):
            mappings[ch] = stripped
    mappings.update(
        {
            "ß": "SS",
            "Æ": "AE",
            "æ": "AE",
            "Œ": "OE",
            "œ": "OE",
            "Ø": "O",
            "ø": "O",
            "Đ": "D",
            "đ": "D",
            "Þ": "TH",
            "þ": "TH",
        }
    )
    return NormalizationTable(mappings=mappings, drop_policy=SKIP)


DEFAULT_TABLE = _build_default_latin()


def normalize(surface: str, table: NormalizationTable = DEFAULT_TABLE) -> str:
    """Normalize a surface form into a grid-alphabet answer.

    Raises :class:`UnmappableCharacterError` under the 'reject' policy and
    :class:`TooShortError` when fewer than two characters survive.
    """
    if not surface:
        raise ValueError("surface must be non-empty")
    answer = table.apply(surface)
    if len(answer) < 2:
        raise TooShortError(f"{surface!r} normalizes to {answer!r} (need >= 2 characters)")
    return answer


@dataclass(frozen=True)
class IngestStats:
    topic: int
    filler: int
    skipped_short: int = 0
    skipped_unmappable: int = 0
    collisions: int = 0


# Records one load normalizes at a time, so that the answers of a slice
# are freed before the next slice is read.
_SLICE = 8192

# One lexicon record: (surface, source, clues). A plain tuple, because a
# load builds one per line of every lexicon file.
Record = tuple[str, Source, tuple[str, ...]]


@dataclass(frozen=True)
class Lexicon:
    """At most one record per answer: ``records[answer]`` is its merged
    ``(surface, source, clues)``, and ``records.get(answer)`` is the lookup."""

    records: dict[str, Record]
    stats: IngestStats

    def __len__(self) -> int:
        return len(self.records)


def read_word_list(path: str | Path) -> list[str]:
    """The stripped non-blank lines of a plain word list, ``#`` comment lines dropped."""
    return [word for word in map(str.strip, text_lines(path)) if word and word[0] != "#"]


def write_lexicon_jsonl(records: Iterable[Record]) -> str:
    """Serialize records to the JSON Lines format :func:`read_lexicon_file` reads."""
    return "".join(
        json.dumps(
            {"surface": surface, "source": source.value, "clues": list(clues)},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for surface, source, clues in records
    )


def read_lexicon_file(path: str | Path) -> list[Record]:
    """Read one lexicon source file.

    ``.jsonl``/``.ndjson`` files hold one ``{"surface", "source", "clues"}``
    object per line; anything else is a plain word list (one filler surface
    per line, ``#`` comments ignored).
    """
    path = Path(path)
    if path.suffix.lower() not in (".jsonl", ".ndjson"):
        filler = Source.FILLER
        return [(word, filler, ()) for word in read_word_list(path)]
    records = []
    for where, doc in json_lines(path):
        surface = json_field(doc, "surface", str, where)
        if not surface:
            raise DataError(f"{where}: 'surface' must be non-empty")
        source = enum_field(Source, doc, "source", where, Source.FILLER.value)
        clues = json_field(doc, "clues", list, where, [])
        if not all(isinstance(clue, str) for clue in clues):
            raise DataError(f"{where}: every 'clues' item must be a string")
        records.append((surface, source, tuple(clues)))
    return records


def _answers(surfaces: list[str], table: NormalizationTable) -> tuple[list[str], int]:
    """Each surface's answer, shorter than two letters for one that does not
    normalize, and how many surfaces were unmappable.

    Under a 'skip' table with single-character keys, when no surface is
    empty, the surfaces are joined with ``"\\n"`` and translated in one call;
    each surface that holds a non-ASCII character then gets its own
    :func:`normalize` call. Every surface gets its own call instead under any
    other table, or when a surface holds ``"\\n"``.
    """
    answers: list[str] = []
    if table._pattern is None and table.drop_policy == SKIP and all(surfaces):
        # str.translate takes its fast path only on an all-ASCII string, so
        # the non-ASCII characters are dropped here; their surfaces are redone.
        joined = "\n".join(surfaces).encode("ascii", "ignore").decode("ascii")
        answers = joined.translate(table._codes).split("\n")
    if len(answers) == len(surfaces):
        redo: Iterable[str] = filterfalse(str.isascii, surfaces)
    else:
        answers = [""] * len(surfaces)
        redo = surfaces
    unmappable = 0
    find = surfaces.index
    i = -1
    for surface in redo:
        # the next surface of redo is the next one equal to it
        i = find(surface, i + 1)
        try:
            answers[i] = normalize(surface, table)
        except TooShortError:
            answers[i] = ""
        except UnmappableCharacterError:
            answers[i] = ""
            unmappable += 1
    return answers, unmappable


def ingest_records(
    records: Iterable[Record],
    table: NormalizationTable = DEFAULT_TABLE,
    keep: Callable[[str], bool] | None = None,
) -> Lexicon:
    """Normalize and deduplicate records into a Lexicon.

    Collisions on the same answer keep the topic tag when either side has it,
    and union the clue lists in first-seen order. Records that fail
    normalization are skipped and counted, never fatal.

    With ``keep`` set, every record is still normalized, and ``keep`` is
    called once on each record's answer that has at least two letters, in
    record order, repeats included. A record whose answer fails ``keep`` is
    dropped before the merge: each kept answer gets the same record as in an
    unfiltered load. The ``skipped_short`` and ``skipped_unmappable`` stats
    then still count every record, while ``topic``, ``filler`` and
    ``collisions`` count only the kept answers.
    """
    merged: dict[str, Record] = {}
    skipped_short = 0
    skipped_unmappable = 0
    collisions = 0
    topic = 0
    # Bound once, outside the per-record loop: a global or enum-member lookup
    # costs several times a local one.
    get = merged.get
    topic_tag = Source.TOPIC
    filler_tag = Source.FILLER
    records = iter(records)
    while chunk := list(islice(records, _SLICE)):
        answers, unmappable = _answers(list(map(operator.itemgetter(0), chunk)), table)
        skipped_unmappable += unmappable
        picked: Iterable[Record] = chunk
        if min(map(len, answers)) < 2:
            long_enough = list(map(operator.le, repeat(2), map(len, answers)))
            answers = list(compress(answers, long_enough))
            picked = compress(chunk, long_enough)
        skipped_short += len(chunk) - len(answers) - unmappable
        if keep is not None:
            kept = list(map(keep, answers))
            answers = compress(answers, kept)
            picked = compress(picked, kept)
        for answer, record in zip(answers, picked):
            existing = get(answer)
            if existing is None:
                merged[answer] = record
                topic += record[1] is topic_tag
                continue
            collisions += 1
            surface, source, clues = record
            kept_surface, kept_source, kept_clues = existing
            if kept_source is filler_tag and source is topic_tag:
                kept_surface, kept_source = surface, source
                topic += 1
            clues = kept_clues + tuple(c for c in clues if c not in kept_clues)
            merged[answer] = (kept_surface, kept_source, clues)
    stats = IngestStats(topic, len(merged) - topic, skipped_short, skipped_unmappable, collisions)
    return Lexicon(records=merged, stats=stats)


def ingest_lexicon(
    paths: Sequence[str | Path],
    table: NormalizationTable = DEFAULT_TABLE,
    keep: Callable[[str], bool] | None = None,
) -> Lexicon:
    """Ingest one or more lexicon files (see :func:`read_lexicon_file`).

    Every file is read and validated in full; ``keep`` is passed to
    :func:`ingest_records`, which keeps only the answers it accepts when it
    is set. The records built here hold no reference cycles, so the cyclic
    collector is paused meanwhile: each collection the load would set off
    could free nothing.
    """
    with gc_paused():
        records = [record for path in paths for record in read_lexicon_file(path)]
        return ingest_records(records, table, keep)


class WordIndex:
    """Answer sets of one length as int masks, keyed by (length, position, letter).

    ``by_length[L]`` lists the answers of length L in canonical candidate
    order: the ``topic_count[L]`` topic answers, then the fillers, each group
    sorted. An answer's position in that tuple is its *rank* (topic iff below
    ``topic_count[L]``), and a set of length-L answers is an int mask whose bit
    i stands for ``by_length[L][i]``. ``masks[L, position, letter]`` is the
    mask of the answers with that letter there. :meth:`domain` ANDs the masks
    of some fixed letters; :meth:`candidates` and :meth:`count_matches` read a
    domain mask minus an ``excluded`` mask.
    """

    def __init__(self, lexicon: Lexicon):
        topic: dict[int, list[str]] = {}
        filler: dict[int, list[str]] = {}
        topic_tag = Source.TOPIC
        for answer, (_, source, _) in lexicon.records.items():
            group = topic if source is topic_tag else filler
            group.setdefault(len(answer), []).append(answer)
        self.by_length: dict[int, tuple[str, ...]] = {}
        self.topic_count: dict[int, int] = {}
        self.masks: dict[tuple[int, int, str], int] = {}
        for length in sorted(topic.keys() | filler.keys()):
            topic_answers = sorted(topic.get(length, ()))
            answers = self.by_length[length] = (*topic_answers, *sorted(filler.get(length, ())))
            self.topic_count[length] = len(topic_answers)
            # Column ``position`` of the answers, in rank order, is a slice of
            # their concatenation. Translating it to one '1' per rank holding
            # the letter and reversing it gives the mask in binary.
            joined = "".join(answers)
            for position in range(length):
                column = joined[position::length]
                letters = sorted(set(column))
                zeros = dict.fromkeys(map(ord, letters), "0")
                for letter in letters:
                    one_hot = {**zeros, ord(letter): "1"}
                    # base 2 is exempt from int()'s limit on digit strings
                    self.masks[length, position, letter] = int(
                        column.translate(one_hot)[::-1], 2
                    )

    def domain(self, length: int, fixed: Iterable[tuple[int, str]] = ()) -> int:
        """Mask of the length-``length`` answers with every fixed (position, letter)."""
        mask = (1 << len(self.by_length.get(length, ()))) - 1
        for position, letter in fixed:
            if not 0 <= position < length:
                raise ValueError(f"fixed position {position} outside word of length {length}")
            mask &= self.masks.get((length, position, letter), 0)
        return mask

    def candidates(self, domain: int, excluded: int = 0) -> list[int]:
        """Ranks in ``domain`` and not in ``excluded``, ascending (so in
        canonical order)."""
        bits = bin(domain & ~excluded)[:1:-1]
        ranks = []
        i = bits.find("1")
        while i >= 0:
            ranks.append(i)
            i = bits.find("1", i + 1)
        return ranks

    def count_matches(self, domain: int, excluded: int = 0) -> int:
        """Candidate count without materializing the list."""
        return (domain & ~excluded).bit_count()


def build_index(lexicon: Lexicon) -> WordIndex:
    return WordIndex(lexicon)
