"""Answer-word storage: normalization to a grid alphabet, topic/filler tagging,
and a (length, position, letter) index of answer-set masks for candidate
retrieval.

Topic words come from the target corpus, filler words from a word list; a word
in both keeps the topic tag. A lexicon record is one plain ``(surface, source,
clues)`` tuple, and this module owns its JSON Lines format: both
:func:`write_lexicon_jsonl` and :func:`read_lexicon_file` live here.

A load normalizes and merges one block at a time, as columns: a word list's
stripped lines (a record is built only for an answer the load keeps), or a
slice of records. It holds one block and the records it keeps, however long
its files are.

Normalization maps a surface onto the grid alphabet with a
:class:`NormalizationTable`: its keys substitute, longest first, and one
alphabet check then drops or rejects every character left outside the
alphabet. Under a 'skip' table whose keys are single characters (the default
is one), a load translates each block's joined surfaces in one call. Because
``str.translate`` takes its ASCII fast path only on a string that is all
ASCII, a join that is not ASCII loses its non-ASCII characters first, and
each surface that held one then costs one :func:`normalize` call. Under any
other table, each surface costs one call.

:class:`WordIndex` builds the masks of one answer length from bit-planes: each
letter gets its index in the length's sorted letters, one plane per bit of
that index marks the answers whose letter at a position has the bit set, and
splitting the full mask down the planes, highest bit first, leaves one mask
per letter present at that position. A length with k letters costs
``(k - 1).bit_length()`` translate passes over its answers' letters, not one
per letter.
"""

from __future__ import annotations

import json
import operator
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, filterfalse, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .util import (
    DataError,
    enum_field,
    gc_paused,
    json_field,
    json_lines,
    longest_first_pattern,
    text_blocks,
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

    @classmethod
    def from_json(cls, doc: object) -> NormalizationTable:
        """The table of a JSON document; raises :class:`DataError` on a malformed one."""
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


# Records one block of a load holds when they are read one by one.
_SLICE = 8192

# One lexicon record: (surface, source, clues). A plain tuple, because a
# load builds one per kept answer.
Record = tuple[str, Source, tuple[str, ...]]

# A block: its surfaces, their join with "\n", and their records, or None
# for a word list's block.
Block = tuple[list[str], str, list[Record] | None]


# A lexicon: at most one record per answer. ``lexicon[answer]`` is the
# answer's merged (surface, source, clues), and ``lexicon.get(answer)`` is the
# lookup.
Lexicon = dict[str, Record]


def _word_list_blocks(path: str | Path) -> Iterator[Block]:
    """A word list's non-empty blocks of stripped lines (see :func:`text_blocks`),
    filtered of blank and ``#`` lines only when the join holds either."""
    for lines in text_blocks(path):
        surfaces = list(map(str.strip, lines))
        joined = "\n".join(surfaces)
        if "#" in joined or "\n\n" in f"\n{joined}\n":
            surfaces = [word for word in surfaces if word and word[0] != "#"]
            joined = "\n".join(surfaces)
        if surfaces:
            yield surfaces, joined, None


def read_word_list(path: str | Path) -> Iterator[str]:
    """The stripped non-blank lines of a plain word list, ``#`` comment lines
    dropped, built one block of lines at a time (see :func:`text_blocks`)."""
    return chain.from_iterable(surfaces for surfaces, _, _ in _word_list_blocks(path))


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


_JSONL = (".jsonl", ".ndjson")


def read_lexicon_file(path: str | Path) -> Iterator[Record]:
    """The records of one lexicon source file, yielded lazily.

    ``.jsonl``/``.ndjson`` files hold one ``{"surface", "source", "clues"}``
    object per line; anything else is a plain word list (one filler surface
    per line, ``#`` comments ignored). The file is read when the iterator is
    first advanced, and a malformed line raises :class:`DataError` when the
    iterator reaches it, after the records before it.
    """
    path = Path(path)
    if path.suffix.lower() not in _JSONL:
        return zip(read_word_list(path), repeat(Source.FILLER), repeat(()))
    return _jsonl_records(path)


def _jsonl_records(path: Path) -> Iterator[Record]:
    for where, doc in json_lines(path):
        surface = json_field(doc, "surface", str, where)
        if not surface:
            raise DataError(f"{where}: 'surface' must be non-empty")
        source = enum_field(Source, doc, "source", where, Source.FILLER.value)
        clues = json_field(doc, "clues", list, where, [])
        if not all(isinstance(clue, str) for clue in clues):
            raise DataError(f"{where}: every 'clues' item must be a string")
        yield surface, source, tuple(clues)


def _record_blocks(records: Iterable[Record]) -> Iterator[Block]:
    records = iter(records)
    while chunk := list(islice(records, _SLICE)):
        surfaces = [record[0] for record in chunk]
        yield surfaces, "\n".join(surfaces), chunk
        del chunk, surfaces  # before the next slice is read


def _file_blocks(path: str | Path) -> Iterator[Block]:
    """The blocks of one lexicon file, read one at a time."""
    if Path(path).suffix.lower() in _JSONL:
        return _record_blocks(read_lexicon_file(path))
    return _word_list_blocks(path)


class _Files(tuple):
    """Lexicon file paths, as records that :func:`ingest_records` reads by
    blocks: every load, of files or of records, is one ingest_records call."""


def _answers(surfaces: list[str], joined: str, table: NormalizationTable) -> list[str]:
    """Each surface's answer, shorter than two letters for one that does not
    normalize. ``joined``, the surfaces' join with ``"\\n"``, is translated
    as the module docstring says, unless a surface is empty or holds
    ``"\\n"``: then every surface gets its own :func:`normalize` call."""
    answers: list[str] = []
    redo: Iterable[str] = ()
    if table._pattern is None and table.drop_policy == SKIP and all(surfaces):
        if not joined.isascii():
            # str.translate takes its fast path only on an all-ASCII string, so
            # the non-ASCII characters are dropped here; their surfaces are redone.
            joined = joined.encode("ascii", "ignore").decode("ascii")
            redo = filterfalse(str.isascii, surfaces)
        answers = joined.translate(table._codes).split("\n")
    if len(answers) != len(surfaces):
        answers = [""] * len(surfaces)
        redo = surfaces
    find = surfaces.index
    i = -1
    for surface in redo:
        # the next surface of redo is the next one equal to it
        i = find(surface, i + 1)
        try:
            answers[i] = normalize(surface, table)
        except (TooShortError, UnmappableCharacterError):
            answers[i] = ""
    return answers


def ingest_records(
    records: Iterable[Record],
    table: NormalizationTable = DEFAULT_TABLE,
    keep: Callable[[str], bool] | None = None,
) -> Lexicon:
    """Normalize and deduplicate records into a lexicon: a dict from answer
    to merged record.

    ``records`` is iterated once, ``_SLICE`` records at a time, so an
    iterator such as :func:`read_lexicon_file`'s is never held whole.
    Collisions on the same answer keep the topic tag when either side has it,
    and union the clue lists in first-seen order. Records that fail
    normalization are skipped, never fatal.

    With ``keep`` set, every record is still normalized, and ``keep`` is
    called once on each record's answer that has at least two letters, in
    record order, repeats included. A record whose answer fails ``keep`` is
    dropped before the merge: each kept answer gets the same record as in an
    unfiltered load.

    :func:`ingest_lexicon` passes its files as ``records``, read by blocks.
    """
    merged: Lexicon = {}
    # Bound once, outside the per-record loop: a global or enum-member lookup
    # costs several times a local one.
    get = merged.get
    topic_tag = Source.TOPIC
    filler_tag = Source.FILLER
    if isinstance(records, _Files):
        blocks = chain.from_iterable(map(_file_blocks, records))
    else:
        blocks = _record_blocks(records)
    for surfaces, joined, chunk in blocks:
        answers = _answers(surfaces, joined, table)
        picked: Iterable = surfaces if chunk is None else chunk
        if min(map(len, answers)) < 2:
            long_enough = list(map(operator.le, repeat(2), map(len, answers)))
            answers = list(compress(answers, long_enough))
            picked = compress(picked, long_enough)
        if keep is not None:
            kept = list(map(keep, answers))
            answers = compress(answers, kept)
            picked = compress(picked, kept)
        if chunk is None:
            picked = zip(picked, repeat(filler_tag), repeat(()))
        for answer, record in zip(answers, picked):
            existing = get(answer)
            if existing is None:
                merged[answer] = record
                continue
            surface, source, clues = record
            kept_surface, kept_source, kept_clues = existing
            if kept_source is filler_tag and source is topic_tag:
                kept_surface, kept_source = surface, source
            clues = kept_clues + tuple(c for c in clues if c not in kept_clues)
            merged[answer] = (kept_surface, kept_source, clues)
        # unbound before the next block is read: a load holds one, never two
        del surfaces, joined, chunk, answers, picked
    return merged


def ingest_lexicon(
    paths: Sequence[str | Path],
    table: NormalizationTable = DEFAULT_TABLE,
    keep: Callable[[str], bool] | None = None,
) -> Lexicon:
    """Ingest one or more lexicon files (see :func:`read_lexicon_file`).

    Every file is read and validated in full; ``keep`` is passed to
    :func:`ingest_records`, which keeps only the answers it accepts when it
    is set, and reads the files one block at a time. The records built here
    hold no reference cycles, so the cyclic collector is paused meanwhile:
    each collection the load would set off could free nothing.
    """
    with gc_paused():
        return ingest_records(_Files(paths), table, keep)


class WordIndex:
    """Answer sets of one length as int masks, keyed by (length, position, letter).

    ``by_length[L]`` lists the answers of length L in canonical candidate
    order: the ``topic_count[L]`` topic answers, then the fillers, each group
    sorted. An answer's position in that tuple is its *rank* (topic iff below
    ``topic_count[L]``), and a set of length-L answers is an int mask whose bit
    i stands for ``by_length[L][i]``. ``masks[L, position, letter]`` is the
    mask of the answers with that letter there. :meth:`domain` ANDs the masks
    of some fixed letters; :meth:`candidates` and :meth:`count_matches` decode or
    count a mask.

    The masks of a length come from its bit-planes. Each letter of the length
    gets its index in the sorted letters, and bit b's plane at a position is
    the mask of the answers whose letter there has bit b set in its index: one
    ``str.translate`` of the position's column per bit. Splitting the full
    mask by each plane, highest bit first, into the answers with the bit clear
    and set, and dropping empty halves, leaves exactly the letters present at
    the position, each with its mask.
    """

    def __init__(self, lexicon: Lexicon):
        topic: defaultdict[int, list[str]] = defaultdict(list)
        filler: defaultdict[int, list[str]] = defaultdict(list)
        topic_tag = Source.TOPIC
        for answer, (_, source, _) in lexicon.items():
            (topic if source is topic_tag else filler)[len(answer)].append(answer)
        self.by_length: dict[int, tuple[str, ...]] = {}
        self.topic_count: dict[int, int] = {}
        self.masks: dict[tuple[int, int, str], int] = {}
        for length in sorted(topic.keys() | filler.keys()):
            topic_answers = sorted(topic.get(length, ()))
            answers = self.by_length[length] = (*topic_answers, *sorted(filler.get(length, ())))
            self.topic_count[length] = len(topic_answers)
            joined = "".join(answers)
            # The same sorted letters either way; 128 substring tests cost
            # less than a set of every character.
            if joined.isascii():
                letters = [ch for ch in map(chr, range(128)) if ch in joined]
            else:
                letters = sorted(set(joined))
            digits = [
                {ord(ch): "01"[i >> bit & 1] for i, ch in enumerate(letters)}
                for bit in range((len(letters) - 1).bit_length())
            ]
            top = len(joined) - length
            full = (1 << len(answers)) - 1
            for position in range(length):
                # Position p of rank i is joined[i * length + p], so this slice
                # reads the column from the top rank down, and its translate by
                # one bit's table is that bit's plane in binary (base 2 is
                # exempt from int()'s limit on digit strings).
                column = joined[top + position :: -length]
                # (letter index, mask) parts, split highest bit first, so the
                # leaves come out in letter order
                parts = [(0, full)]
                for bit in reversed(range(len(digits))):
                    plane = int(column.translate(digits[bit]), 2)
                    split = []
                    for i, mask in parts:
                        ones = mask & plane
                        if ones != mask:
                            split.append((i, mask ^ ones))
                        if ones:
                            split.append((i | 1 << bit, ones))
                    parts = split
                for i, mask in parts:
                    self.masks[length, position, letters[i]] = mask

    def domain(self, length: int, fixed: Iterable[tuple[int, str]] = ()) -> int:
        """Mask of the length-``length`` answers with every fixed (position, letter)."""
        mask = (1 << len(self.by_length.get(length, ()))) - 1
        for position, letter in fixed:
            if not 0 <= position < length:
                raise ValueError(f"fixed position {position} outside word of length {length}")
            mask &= self.masks.get((length, position, letter), 0)
        return mask

    def candidates(self, mask: int) -> list[int]:
        """Ranks in ``mask``, ascending (so in canonical order)."""
        bits = bin(mask)[:1:-1]
        ranks = []
        i = bits.find("1")
        while i >= 0:
            ranks.append(i)
            i = bits.find("1", i + 1)
        return ranks

    def count_matches(self, mask: int) -> int:
        """Candidate count without materializing the list."""
        return mask.bit_count()


def build_index(lexicon: Lexicon) -> WordIndex:
    return WordIndex(lexicon)
