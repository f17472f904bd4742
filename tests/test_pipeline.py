"""Keyword extraction and fill-in-the-blank clue generation."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from topicross.pipeline import (
    DEFAULT_MASK,
    DEFAULT_TERMINATORS,
    Document,
    GazetteerExtractor,
    KeywordOccurrence,
    OffsetOutOfRangeError,
    PipelineStats,
    PreTaggedExtractor,
    SentenceTooShortError,
    _enclosing_span,
    build_topic_lexicon,
    extract_keywords,
    generate_clue,
    read_corpus_jsonl,
    sentence_spans,
)
from topicross.lexicon import (
    DEFAULT_TABLE,
    REJECT,
    Source,
    TooShortError,
    UnmappableCharacterError,
    ingest_lexicon,
    ingest_records,
    normalize,
    write_lexicon_jsonl,
)
from topicross.util import DataError


def occ_of(doc, surface, extractor=None):
    extractor = extractor or GazetteerExtractor([surface])
    occs = [o for o in extract_keywords(doc, extractor) if o.surface == surface]
    assert occs, f"{surface!r} not found in {doc.doc_id}"
    return occs[0]


class TestGazetteer:
    def test_single_match(self):
        doc = Document("d", "the Roomba sold well")
        occs = extract_keywords(doc, GazetteerExtractor(["Roomba"]))
        assert [(o.surface, o.char_start, o.char_end) for o in occs] == [("Roomba", 4, 10)]

    def test_longest_match_wins(self):
        doc = Document("d", "xABCx")
        occs = extract_keywords(doc, GazetteerExtractor(["AB", "ABC"]))
        assert [(o.surface, o.char_start, o.char_end) for o in occs] == [("ABC", 1, 4)]

    def test_non_overlapping(self):
        doc = Document("d", "ABAB")
        occs = extract_keywords(doc, GazetteerExtractor(["AB"]))
        assert [(o.char_start, o.char_end) for o in occs] == [(0, 2), (2, 4)]

    def test_deterministic(self):
        doc = Document("d", "alpha beta alpha gamma beta")
        ext = GazetteerExtractor(["alpha", "beta", "gamma"])
        assert extract_keywords(doc, ext) == extract_keywords(doc, ext)

    def test_empty_terms(self):
        doc = Document("d", "nothing here")
        assert extract_keywords(doc, GazetteerExtractor([])) == []


def reference_find(terms, text):
    """First-letter index plus a longest-match loop; the gazetteer oracle."""
    by_first = {}
    for term in set(terms):
        if term:
            by_first.setdefault(term[0], []).append(term)
    for bucket in by_first.values():
        bucket.sort(key=len, reverse=True)
    out = []
    i = 0
    while i < len(text):
        for term in by_first.get(text[i], ()):
            if text.startswith(term, i):
                out.append((term, i, i + len(term)))
                i += len(term)
                break
        else:
            i += 1
    return out


def reference_sentence_spans(text):
    """Character-by-character sentence splitter; the sentence oracle."""
    spans = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in DEFAULT_TERMINATORS and (i + 1 == n or text[i + 1].isspace()):
            spans.append((start, i + 1))
            i += 1
            while i < n and text[i].isspace():
                i += 1
            start = i
        else:
            i += 1
    if start < n:
        spans.append((start, n))
    return spans


def reference_enclosing_span(spans, start, end):
    """Scan every span for the ends of [start, end); the enclosing-span oracle."""
    lo = hi = None
    for s, e in spans:
        if s <= start < e:
            lo = s
        if s < end <= e:
            hi = e
    if lo is None or hi is None:
        raise OffsetOutOfRangeError(f"offsets ({start}, {end}) not inside any sentence")
    return lo, hi


# A small alphabet makes shared prefixes and duplicate terms common. The
# regex metacharacters check that terms are matched literally, also as the
# first character of a term, where the grouped pattern puts them outside the
# group of tails. The whitespace characters mix ASCII, C0/C1 separators and
# Unicode spaces.
TERM_CHARS = "ab.?|([\\*^"
WHITESPACE = " \t\n\x1c\x85\xa0\u3000"
TEXT_CHARS = "ab|([\\*^" + "".join(sorted(DEFAULT_TERMINATORS)) + WHITESPACE


class TestScannerEquivalence:
    """The regex scanners against the loops they replaced."""

    @given(
        terms=st.lists(st.text(TERM_CHARS, max_size=4), max_size=8),
        text=st.text(TEXT_CHARS, max_size=40),
    )
    @settings(max_examples=400, deadline=None)
    def test_gazetteer_find(self, terms, text):
        found = GazetteerExtractor(terms).find(Document("d", text))
        assert found == reference_find(terms, text)

    @given(text=st.text(TEXT_CHARS, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_sentence_spans(self, text):
        assert sentence_spans(text) == reference_sentence_spans(text)

    @given(text=st.text("ab .!?\n", max_size=40), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_enclosing_span(self, text, data):
        # Offsets may fall in the gaps between sentences, before the text or
        # past it (``end == len(text) + 1`` included), and start may pass end.
        offset = st.integers(-2, len(text) + 1)
        start, end = data.draw(offset), data.draw(offset)
        spans = sentence_spans(text)
        try:
            expected = reference_enclosing_span(spans, start, end)
        except OffsetOutOfRangeError:
            with pytest.raises(OffsetOutOfRangeError):
                _enclosing_span(spans, start, end)
        else:
            assert _enclosing_span(spans, start, end) == expected


def reference_build(corpus, find, table=DEFAULT_TABLE, mask_token=DEFAULT_MASK, min_chars=10):
    """One loop per occurrence over the scanner oracles and the clue rule;
    the oracle of ``build_topic_lexicon``. ``find(doc)`` gives the matches."""
    if not corpus:
        raise DataError("corpus must be non-empty")
    hits = []  # (answer, doc_id, char_start, surface, clue_text)
    occurrences = short_clues = short_keywords = unmappable = 0
    for doc in corpus:
        if not doc.text:
            raise DataError(f"{doc.doc_id}: document text is empty")
        spans = reference_sentence_spans(doc.text)
        # document order; a stable sort keeps the finder's order on equal offsets
        for surface, start, end in sorted(find(doc), key=lambda m: (m[1], m[2])):
            occurrences += 1
            lo, hi = reference_enclosing_span(spans, start, end)
            sentence = doc.text[lo:hi].strip()
            if surface not in sentence:
                raise OffsetOutOfRangeError(f"{surface!r} not inside its sentence span")
            clue_text = sentence.replace(surface, mask_token)
            if len(clue_text.replace(mask_token, "").strip()) < min_chars:
                short_clues += 1
                continue
            try:
                answer = normalize(surface, table)
            except TooShortError:
                short_keywords += 1
                continue
            except UnmappableCharacterError:
                unmappable += 1
                continue
            hits.append((answer, doc.doc_id, start, surface, clue_text))
    records = []
    for answer in sorted({hit[0] for hit in hits}):
        mine = sorted((hit for hit in hits if hit[0] == answer), key=lambda h: (h[1], h[2]))
        clues = []
        for hit in mine:
            if hit[4] not in clues:
                clues.append(hit[4])
        records.append((mine[0][3], Source.TOPIC, tuple(clues)))
    stats = PipelineStats(
        documents=len(corpus),
        occurrences=occurrences,
        records=len(records),
        clues=sum(len(clues) for _, _, clues in records),
        skipped_short_clues=short_clues,
        skipped_short_keywords=short_keywords,
        skipped_unmappable_keywords=unmappable,
    )
    return records, stats


def build_outcome(build):
    """``(records, stats)``, or the name of the data error raised."""
    try:
        result = build()
    except DataError as exc:
        return type(exc).__name__
    return result if isinstance(result, tuple) else (result.records, result.stats)


class ReferenceGazetteer:
    """The gazetteer oracle as a keyword finder."""

    def __init__(self, terms):
        self.terms = terms

    def find(self, doc):
        return reference_find(self.terms, doc.text)


class ReversedGazetteer(ReferenceGazetteer):
    """The oracle's matches last to first, the first one found twice: a finder
    whose matches are out of document order."""

    def find(self, doc):
        matches = super().find(doc)
        return (matches + matches[:1])[::-1]


# '-' is dropped by the default table and unmappable under 'reject'; a term
# of one letter is too short. Texts are joined from words, terms and
# sentence ends, so that clues of every length occur; NO_MATCH holds none of
# the terms' letters.
PIPELINE_TERM_CHARS = "abAé-"
TEXT_PIECES = ["ab", "baa", "é", "-", " ", " ", ". ", "!\n", "? ", "."]
NO_MATCH = "Quiet on the front, nothing new."
tables = st.sampled_from([DEFAULT_TABLE, replace(DEFAULT_TABLE, drop_policy=REJECT)])


def corpora(pieces):
    """Lists of (doc_id, text); ids repeat and come out of order."""
    text = st.lists(st.sampled_from(pieces), min_size=1, max_size=12).map("".join)
    return st.lists(st.tuples(st.sampled_from(["d1", "d2", "d10"]), text), min_size=1, max_size=5)


class TestBuildTopicLexiconOracle:
    """``build_topic_lexicon``'s records and every stats field against the
    reference loop. Doc ids repeat and are out of order; every corpus holds a
    document with no match."""

    @given(
        terms=st.lists(st.text(PIPELINE_TERM_CHARS, min_size=1, max_size=3), max_size=6),
        table=tables,
        min_chars=st.integers(0, 5),
        reverse=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_gazetteer(self, terms, table, min_chars, reverse, data):
        docs = data.draw(corpora(TEXT_PIECES + terms))
        corpus = [Document(doc_id, text) for doc_id, text in docs] + [Document("d0", NO_MATCH)]
        oracle = ReversedGazetteer(terms) if reverse else ReferenceGazetteer(terms)
        extractor = oracle if reverse else GazetteerExtractor(terms)
        expected = build_outcome(
            lambda: reference_build(corpus, oracle.find, table, min_chars=min_chars)
        )
        got = build_outcome(
            lambda: build_topic_lexicon(corpus, extractor, table, min_chars=min_chars)
        )
        assert got == expected

    @given(
        docs=corpora(TEXT_PIECES),
        table=tables,
        min_chars=st.integers(0, 5),
        tidy=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_pre_tagged(self, docs, table, min_chars, tidy, data):
        # A tidy tag holds two characters or more and neither starts nor ends
        # in whitespace. Any other may fall in the gap between two sentences
        # or outside its stripped sentence.
        corpus = []
        for doc_id, text in docs:
            offsets = [
                (start, end)
                for start in range(len(text))
                for end in range(start + 1, len(text) + 1)
                if not tidy or len(text[start:end].strip()) == end - start > 1
            ]
            spans = data.draw(st.lists(st.sampled_from(offsets), max_size=3)) if offsets else []
            tags = tuple((text[start:end], start, end) for start, end in spans)
            corpus.append(Document(doc_id, text, tags))
        corpus.append(Document("d0", NO_MATCH, ()))
        expected = build_outcome(
            lambda: reference_build(
                corpus, lambda doc: doc.pre_tagged_keywords, table, min_chars=min_chars
            )
        )
        got = build_outcome(
            lambda: build_topic_lexicon(corpus, PreTaggedExtractor(), table, min_chars=min_chars)
        )
        assert got == expected


class TestPreTagged:
    def test_empty(self):
        doc = Document("d", "some text", pre_tagged_keywords=())
        assert extract_keywords(doc, PreTaggedExtractor()) == []

    def test_passthrough_in_document_order(self):
        doc = Document(
            "d",
            "alpha beta gamma",
            pre_tagged_keywords=(("beta", 6, 10), ("alpha", 0, 5)),
        )
        occs = extract_keywords(doc, PreTaggedExtractor())
        assert [o.surface for o in occs] == ["alpha", "beta"]

    def test_offset_out_of_range(self):
        doc = Document("d", "short", pre_tagged_keywords=(("short", 0, 99),))
        with pytest.raises(OffsetOutOfRangeError):
            extract_keywords(doc, PreTaggedExtractor())

    def test_surface_mismatch(self):
        doc = Document("d", "alpha beta", pre_tagged_keywords=(("beta", 0, 4),))
        with pytest.raises(OffsetOutOfRangeError):
            extract_keywords(doc, PreTaggedExtractor())

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(
                '{"doc_id": 1, "text": "Atlas.", "keywords": '
                '[{"surface": "Atlas", "start": true, "end": 5}]}',
                id="start",
            ),
            pytest.param(
                '{"doc_id": 1, "text": "Atlas.", "keywords": '
                '[{"surface": "Atlas", "start": 0, "end": false}]}',
                id="end",
            ),
            pytest.param('{"doc_id": true, "text": "Atlas."}', id="doc_id"),
        ],
    )
    def test_json_booleans_are_not_integers(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="got bool"):
            read_corpus_jsonl(path)

    def test_corpus_byte_order_mark(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('\ufeff{"doc_id": "d1", "text": "Atlas."}\n', encoding="utf-8")
        assert read_corpus_jsonl(path) == [Document("d1", "Atlas.")]


class TestSentences:
    def test_spans_cover_text(self):
        text = "One sentence. Another one! A third? No terminator at the end"
        spans = sentence_spans(text)
        assert [text[s:e] for s, e in spans] == [
            "One sentence.",
            "Another one!",
            "A third?",
            "No terminator at the end",
        ]

    def test_cjk_terminators(self):
        text = "文章。 次。"
        spans = sentence_spans(text)
        assert len(spans) == 2


class TestGenerateClue:
    def test_mask_in_middle(self):
        doc = Document(
            "d",
            "Media coverage of the midterm races was divided between liberal and "
            "conservative outlets. Turnout was high.",
        )
        assert generate_clue(doc, occ_of(doc, "liberal")) == (
            "LIBERAL",
            "Media coverage of the midterm races was divided between [Answer] and "
            "conservative outlets.",
        )

    def test_all_occurrences_masked(self):
        doc = Document("d", "AB is AB.")
        _, clue_text = generate_clue(doc, occ_of(doc, "AB"), min_chars=0)
        assert clue_text == "[Answer] is [Answer]."
        assert "AB" not in clue_text

    def test_keyword_at_sentence_start(self):
        doc = Document("d", "Roomba sales rose sharply.")
        _, clue_text = generate_clue(doc, occ_of(doc, "Roomba"))
        assert clue_text == "[Answer] sales rose sharply."

    def test_sentence_too_short(self):
        doc = Document("d", "Roomba wins.")
        with pytest.raises(SentenceTooShortError):
            generate_clue(doc, occ_of(doc, "Roomba"))

    def test_only_own_sentence_is_used(self):
        doc = Document("d", "First point here. Roomba results improved a lot.")
        _, clue_text = generate_clue(doc, occ_of(doc, "Roomba"))
        assert clue_text == "[Answer] results improved a lot."

    def test_keyword_spanning_sentence_boundary(self):
        # the crude splitter breaks inside "U.S. media"; the enclosing span
        # must still cover the whole occurrence
        doc = Document("d", "It involved U.S. media outlets heavily.")
        occ = occ_of(doc, "U.S. media")
        _, clue_text = generate_clue(doc, occ)
        assert DEFAULT_MASK in clue_text
        assert "U.S. media" not in clue_text


class TestBuildTopicLexicon:
    def test_aggregates_clues_across_sentences(self):
        doc = Document(
            "d1",
            "The Roomba launch was a success story. Analysts expect the Roomba "
            "line to keep growing.",
        )
        result = build_topic_lexicon([doc], GazetteerExtractor(["Roomba"]))
        assert len(result.records) == 1
        surface, source, clues = result.records[0]
        assert (surface, source) == ("Roomba", Source.TOPIC)
        assert len(clues) == 2

    def test_no_keywords(self):
        doc = Document("d1", "Nothing matches in this text at all.")
        result = build_topic_lexicon([doc], GazetteerExtractor(["zzz"]))
        assert result.records == []
        assert result.stats.occurrences == 0

    def test_skip_counters(self):
        docs = [
            Document("d1", "Short X."),
        ]
        result = build_topic_lexicon(docs, GazetteerExtractor(["X"]))
        assert result.records == []
        assert result.stats.skipped_short_clues == 1

    def test_short_and_unmappable_keywords_are_counted_apart(self):
        doc = Document("d1", "Plan A and the Nova-X rollout both beat their schedule.")
        ext = GazetteerExtractor(["A", "Nova-X"])
        # the default table drops '-', so only "A" is skipped: it is too short
        result = build_topic_lexicon([doc], ext)
        assert [surface for surface, _, _ in result.records] == ["Nova-X"]
        stats = result.stats
        assert (stats.skipped_short_keywords, stats.skipped_unmappable_keywords) == (1, 0)
        # under 'reject', '-' has no mapping, so "Nova-X" is unmappable
        table = replace(DEFAULT_TABLE, drop_policy=REJECT)
        result = build_topic_lexicon([doc], ext, table)
        assert result.records == []
        stats = result.stats
        assert (stats.skipped_short_keywords, stats.skipped_unmappable_keywords) == (1, 1)
        assert stats.skipped_short_clues == 0

    def test_each_distinct_surface_is_normalized_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "topicross.pipeline.normalize",
            lambda surface, table: calls.append(surface) or normalize(surface, table),
        )
        docs = [
            Document("a", "Nova. The Nova rollout beat its schedule. Plan A beat it too."),
            Document("b", "The Nova fleet and plan A both shipped this spring. A won."),
        ]
        result = build_topic_lexicon(docs, GazetteerExtractor(["Nova", "A"]))
        # the first "Nova" has too short a clue, so it is counted as such and
        # not normalized; both "A" with a long clue count as short keywords
        assert sorted(calls) == ["A", "Nova"]
        assert [(surface, len(clues)) for surface, _, clues in result.records] == [("Nova", 2)]
        stats = result.stats
        assert (stats.occurrences, stats.skipped_short_clues, stats.skipped_short_keywords) == (
            6, 2, 2
        )

    def test_other_errors_are_not_counted_as_skips(self):
        class Misplaced:
            def find(self, doc):
                return [("Nova", 4, 9)]  # the text there is "Atlas"

        doc = Document("d1", "The Atlas rollout beat its schedule this spring.")
        with pytest.raises(OffsetOutOfRangeError, match="not inside its sentence span"):
            build_topic_lexicon([doc], Misplaced())

    def test_records_ingest_like_their_written_file(self, tmp_path):
        docs = [
            Document("a", "The Nova system shipped on time. Café Nova opened its doors today."),
            Document("b", "Critics called Nova and the Atlas fleet the fastest rollouts."),
            Document("c", "The Atlas crew said Nova-X was next on the list this year."),
        ]
        result = build_topic_lexicon(docs, GazetteerExtractor(["Nova", "Atlas", "Café Nova"]))
        assert len(result.records) == 3
        path = tmp_path / "topic.jsonl"
        path.write_text(write_lexicon_jsonl(result.records), encoding="utf-8")
        assert ingest_records(result.records) == ingest_lexicon([path])

    def test_clues_ordered_by_doc_and_offset(self):
        docs = [
            Document("d2", "Atlas expansion continued in the west region."),
            Document("d1", "Teams praised the Atlas rollout pace overall."),
        ]
        result = build_topic_lexicon(docs, GazetteerExtractor(["Atlas"]))
        _, _, clues = result.records[0]
        assert clues == (
            "Teams praised the [Answer] rollout pace overall.",
            "[Answer] expansion continued in the west region.",
        )

    def test_byte_identical_output(self):
        docs = [
            Document("a", "The Nova system shipped on time this cycle."),
            Document("b", "Reviewers called Nova the fastest rollout yet."),
        ]
        ext = GazetteerExtractor(["Nova"])
        first = write_lexicon_jsonl(build_topic_lexicon(docs, ext).records)
        second = write_lexicon_jsonl(build_topic_lexicon(docs, ext).records)
        assert first == second

    def test_no_clue_contains_its_surface(self):
        docs = [
            Document(
                f"doc{i}",
                f"Project {name} moved ahead of schedule. The {name} rollout was "
                f"praised widely. {name} remains on track.",
            )
            for i, name in enumerate(["Atlas", "Nova", "Iris"])
        ]
        result = build_topic_lexicon(docs, GazetteerExtractor(["Atlas", "Nova", "Iris"]))
        for surface, _, clues in result.records:
            for clue in clues:
                assert surface not in clue
                assert DEFAULT_MASK in clue
