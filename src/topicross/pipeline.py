"""Corpus ingestion: keyword occurrence detection and fill-in-the-blank clues.

Keyword detection is pluggable. The built-in extractors either pass through
offsets supplied by an external tagger or run a longest-match gazetteer scan;
swapping in a real NER tool means implementing one ``find`` method.

The output is a list of topic lexicon records, the ``(surface, source,
clues)`` tuples of :mod:`topicross.lexicon`: ``ingest_records`` takes it as
is, and ``write_lexicon_jsonl`` writes it to a lexicon file.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol, Sequence

from .lexicon import (
    DEFAULT_TABLE,
    NormalizationTable,
    Record,
    Source,
    TooShortError,
    UnmappableCharacterError,
    normalize,
)
from .util import DataError, json_field, json_lines, longest_first_pattern

DEFAULT_MASK = "[Answer]"
DEFAULT_TERMINATORS = frozenset(".!?。！？")
DEFAULT_MIN_CLUE_CHARS = 10


class OffsetOutOfRangeError(DataError):
    pass


class SentenceTooShortError(ValueError):
    """The masked sentence carries too little context to be a usable clue."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    pre_tagged_keywords: tuple[tuple[str, int, int], ...] | None = None


class KeywordOccurrence(NamedTuple):
    """One keyword match and the span of the sentences that hold it."""

    surface: str
    doc_id: str
    char_start: int
    char_end: int
    sentence_span: tuple[int, int]


class KeywordFinder(Protocol):
    def find(self, doc: Document) -> Iterable[tuple[str, int, int]]:
        """Yield (surface, char_start, char_end) matches."""


class PreTaggedExtractor:
    """Pass through offsets already attached to the document by an external tagger."""

    def find(self, doc: Document) -> list[tuple[str, int, int]]:
        tags = doc.pre_tagged_keywords or ()
        out = []
        for surface, start, end in tags:
            if not (0 <= start < end <= len(doc.text)):
                raise OffsetOutOfRangeError(
                    f"{doc.doc_id}: tag ({start}, {end}) outside text of length {len(doc.text)}"
                )
            if doc.text[start:end] != surface:
                raise OffsetOutOfRangeError(
                    f"{doc.doc_id}: text at ({start}, {end}) is "
                    f"{doc.text[start:end]!r}, tag says {surface!r}"
                )
            out.append((surface, start, end))
        return out


class GazetteerExtractor:
    """Longest-match, non-overlapping scan for terms from a fixed list."""

    def __init__(self, terms: Iterable[str]):
        self.pattern = longest_first_pattern(terms)

    def find(self, doc: Document) -> list[tuple[str, int, int]]:
        return [(m.group(), m.start(), m.end()) for m in self.pattern.finditer(doc.text)]


# A terminator at the very end needs no match: the tail span ends there too.
# For str patterns ``\s`` matches exactly the characters ``str.isspace`` accepts.
_SENTENCE_END = re.compile("[" + re.escape("".join(sorted(DEFAULT_TERMINATORS))) + r"]\s+")


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Split text into sentence spans covering it entirely.

    A sentence ends at a terminator followed by whitespace or end-of-text.
    This is deliberately crude (abbreviations split); a real segmenter can be
    slotted in upstream by pre-splitting documents.
    """
    spans = []
    start = 0
    for m in _SENTENCE_END.finditer(text):
        spans.append((start, m.start() + 1))
        start = m.end()
    if start < len(text):
        spans.append((start, len(text)))
    return spans


_OFFSETS = itemgetter(1, 2)


def _enclosing_span(spans: Sequence[tuple[int, int]], start: int, end: int) -> tuple[int, int]:
    """Smallest run of sentence spans covering [start, end).

    Spans are non-empty, sorted and disjoint: only the last one starting at
    or before ``start`` can hold it, and only the last one starting before
    ``end`` can hold ``end - 1``. Both are found by comparing the span tuples
    themselves, with no key function: ``(s, e) < (x,)`` exactly when ``s < x``."""
    i = bisect_left(spans, (start + 1,)) - 1
    j = bisect_left(spans, (end,)) - 1
    if i < 0 or start >= spans[i][1] or j < 0 or spans[j][1] < end:
        raise OffsetOutOfRangeError(f"offsets ({start}, {end}) not inside any sentence")
    return spans[i][0], spans[j][1]


def extract_keywords(doc: Document, extractor: KeywordFinder) -> list[KeywordOccurrence]:
    """Run the extractor and attach enclosing-sentence spans, in document order.

    This is the one place occurrences are ordered: by ``(char_start,
    char_end)``, matches with equal offsets in the extractor's order."""
    if not doc.text:
        raise DataError(f"{doc.doc_id}: document text is empty")
    matches = sorted(extractor.find(doc), key=_OFFSETS)
    if not matches:
        return []
    spans = sentence_spans(doc.text)
    doc_id = doc.doc_id
    return [
        KeywordOccurrence(surface, doc_id, start, end, _enclosing_span(spans, start, end))
        for surface, start, end in matches
    ]


def generate_clue(
    doc: Document,
    occ: KeywordOccurrence,
    mask_token: str = DEFAULT_MASK,
    table: NormalizationTable = DEFAULT_TABLE,
    min_chars: int = DEFAULT_MIN_CLUE_CHARS,
) -> tuple[str, str]:
    """Mask the occurrence's sentence into a fill-in-the-blank clue.

    Returns ``(answer, clue_text)``, the answer being the normalized surface.
    Every occurrence of the surface inside the sentence is masked, so the
    answer can never leak into its own clue. Raises
    :class:`SentenceTooShortError` when the remaining sentence (mask removed)
    is shorter than ``min_chars``, and :func:`normalize`'s errors when the
    surface has no usable answer.
    """
    clue_text = _masked_sentence(doc, occ, mask_token, min_chars)
    return normalize(occ.surface, table), clue_text


def _masked_sentence(
    doc: Document, occ: KeywordOccurrence, mask_token: str, min_chars: int
) -> str:
    """The clue text of :func:`generate_clue`, with its checks."""
    start, end = occ.sentence_span
    sentence = doc.text[start:end].strip()
    if occ.surface not in sentence:
        raise OffsetOutOfRangeError(
            f"{doc.doc_id}: occurrence {occ.surface!r} not inside its sentence span"
        )
    clue_text = sentence.replace(occ.surface, mask_token)
    remainder = clue_text.replace(mask_token, "").strip()
    if len(remainder) < min_chars:
        raise SentenceTooShortError(
            f"masked sentence keeps only {len(remainder)} characters (< {min_chars})"
        )
    return clue_text


@dataclass(frozen=True)
class PipelineStats:
    documents: int
    occurrences: int
    records: int
    clues: int
    skipped_short_clues: int
    skipped_short_keywords: int
    skipped_unmappable_keywords: int


@dataclass(frozen=True)
class PipelineResult:
    records: list[Record]
    stats: PipelineStats


# A hit is (doc_id, char_start, surface, clue_text).
_OFFSETS_IN_CORPUS = itemgetter(0, 1)
_CLUE_TEXT = itemgetter(3)


def build_topic_lexicon(
    corpus: Sequence[Document],
    extractor: KeywordFinder,
    table: NormalizationTable = DEFAULT_TABLE,
    mask_token: str = DEFAULT_MASK,
    min_chars: int = DEFAULT_MIN_CLUE_CHARS,
) -> PipelineResult:
    """Turn a corpus into topic lexicon records, one per distinct normalized keyword.

    Each record carries every usable clue for the keyword across the corpus,
    sorted by (doc_id, offset); duplicate clue texts collapse. Records are
    sorted by answer, so output is byte-stable across runs. An occurrence
    whose clue is too short, or whose keyword normalizes to fewer than two
    characters or (under a 'reject' table) hits an unmappable character, is
    skipped and counted.
    """
    if not corpus:
        raise DataError("corpus must be non-empty")
    per_answer: dict[str, list[tuple[str, int, str, str]]] = {}
    occurrences = 0
    skipped_short_clues = 0
    skipped_short_keywords = 0
    skipped_unmappable = 0
    # Each distinct surface is normalized once, by the first generate_clue
    # call that gets past its clue check; later occurrences only mask their
    # sentence. A surface maps to its answer, or to the class of the error
    # that normalizing it raised.
    answers: dict[str, str | type[ValueError]] = {}
    for doc in corpus:
        occs = extract_keywords(doc, extractor)
        occurrences += len(occs)
        for occ in occs:
            answer = answers.get(occ.surface)
            try:
                if answer is None:
                    answer, clue_text = generate_clue(doc, occ, mask_token, table, min_chars)
                else:
                    clue_text = _masked_sentence(doc, occ, mask_token, min_chars)
            except SentenceTooShortError:
                skipped_short_clues += 1
                continue
            except (TooShortError, UnmappableCharacterError) as exc:
                answer = type(exc)
            answers[occ.surface] = answer
            if answer is TooShortError:
                skipped_short_keywords += 1
            elif answer is UnmappableCharacterError:
                skipped_unmappable += 1
            else:
                per_answer.setdefault(answer, []).append(
                    (occ.doc_id, occ.char_start, occ.surface, clue_text)
                )

    records = []
    n_clues = 0
    for answer in sorted(per_answer):
        hits = sorted(per_answer[answer], key=_OFFSETS_IN_CORPUS)
        clues = tuple(dict.fromkeys(map(_CLUE_TEXT, hits)))
        n_clues += len(clues)
        records.append((hits[0][2], Source.TOPIC, clues))

    stats = PipelineStats(
        documents=len(corpus),
        occurrences=occurrences,
        records=len(records),
        clues=n_clues,
        skipped_short_clues=skipped_short_clues,
        skipped_short_keywords=skipped_short_keywords,
        skipped_unmappable_keywords=skipped_unmappable,
    )
    return PipelineResult(records=records, stats=stats)


def read_corpus_jsonl(path: str | Path) -> list[Document]:
    """Read a corpus file: one {"doc_id", "text", "keywords"?} object per line.

    Raises :class:`DataError` with ``path:line`` on a line that is not such an
    object or has a field of the wrong type.
    """
    docs = []
    for where, doc in json_lines(path):
        doc_id = json_field(doc, "doc_id", (str, int), where)
        text = json_field(doc, "text", str, where)
        keywords = json_field(doc, "keywords", list, where, None)
        if keywords is not None:
            keywords = tuple(
                (
                    json_field(k, "surface", str, where),
                    json_field(k, "start", int, where),
                    json_field(k, "end", int, where),
                )
                for k in keywords
            )
        docs.append(Document(doc_id=str(doc_id), text=text, pre_tagged_keywords=keywords))
    return docs
