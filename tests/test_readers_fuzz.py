"""Fuzzing the four JSON readers through the CLI: corpus, lexicon, puzzle, table.

Every field of every record is drawn as absent, valid, or an arbitrary JSON
value, and the file may be cut off at any character. Whatever is drawn, the
command must either succeed and write its output, or exit 2 or 3 with a
one-line ``error:`` message and leave no file behind. It must never raise.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from topicross.cli import main

FUZZ = settings(
    max_examples=25,
    deadline=None,
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=5,
)

TERMS = ["Atlas", "Nova", "Iris"]
SENTENCES = [
    "The Atlas rollout beat its schedule this spring.",
    "Critics called Nova the strongest product of the year. Iris followed.",
    "",
    "Iris.",
]
FILLER = "AB\nCD\nAC\nBD\n"


def objects(fields):
    """Valid JSON objects, or ones whose fields are each absent, valid, or any JSON value."""
    return st.fixed_dictionaries(fields) | st.fixed_dictionaries(
        {}, optional={key: valid | JSON_VALUES for key, valid in fields.items()}
    )


def truncated(text):
    """The text as is, or cut off after any character."""
    return st.one_of(st.just(text), st.integers(0, len(text)).map(lambda n: text[:n]))


def jsonl(records):
    return st.lists(records | JSON_VALUES, max_size=4).flatmap(
        lambda docs: truncated("".join(json.dumps(d) + "\n" for d in docs))
    )


def document(records):
    return (records | JSON_VALUES).flatmap(lambda doc: truncated(json.dumps(doc)))


KEYWORD = objects(
    {"surface": st.sampled_from(TERMS), "start": st.integers(-1, 60), "end": st.integers(-1, 60)}
)
CORPUS = jsonl(
    objects(
        {
            "doc_id": st.text(max_size=4) | st.integers(),
            "text": st.sampled_from(SENTENCES),
            "keywords": st.lists(KEYWORD, max_size=2),
        }
    )
)
LEXICON = jsonl(
    objects(
        {
            "surface": st.sampled_from(TERMS + ["é", "a b", "AB"]) | st.text(max_size=5),
            "source": st.sampled_from(["topic", "filler"]),
            "clues": st.lists(st.text(max_size=10), max_size=2),
        }
    )
)
ENTRY = objects(
    {
        "slot_id": st.integers(-1, 4),
        "orientation": st.sampled_from(["across", "down"]),
        "row": st.integers(-1, 2),
        "col": st.integers(-1, 2),
        "answer": st.sampled_from(["AB", "CD", "AC", "BD", "A", "ABC"]),
        "surface": st.text(max_size=4),
        "source": st.sampled_from(["topic", "filler"]),
        "clue": st.text(max_size=10),
    }
)
METADATA = objects(
    {
        "target_rate": st.integers(0, 100),
        "achieved_topic_ratio": st.floats(0, 1),
        "seed": st.integers(),
        "elapsed_ms": st.integers(0, 10),
        "restarts": st.integers(0, 3),
        "generator_version": st.text(max_size=5),
    }
)
PUZZLE = document(
    objects(
        {
            "pattern": st.sampled_from(["..\n..", "..", "#.\n..", ".\n."]) | st.text("#.\nx", max_size=6),
            "pattern_id": st.text(max_size=4),
            "entries": st.lists(ENTRY, max_size=5),
            "metadata": METADATA,
        }
    )
)
TABLE = document(
    objects(
        {
            "mappings": st.dictionaries(
                st.text(max_size=2), st.text(max_size=2) | JSON_VALUES, max_size=4
            ),
            "drop_policy": st.sampled_from(["skip", "reject"]),
        }
    )
)


def run_cli(text, argv, verdict=False):
    """Run ``topicross`` on the drawn file ``bad`` and check the outcome.

    With ``verdict``, exit 1 (the puzzle fails verification) is an outcome
    too; it reports on stdout only.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "bad").write_text(text, encoding="utf-8")
        (tmp / "bad.jsonl").write_text(text, encoding="utf-8")
        (tmp / "terms.txt").write_text("\n".join(TERMS) + "\n", encoding="utf-8")
        (tmp / "filler.txt").write_text(FILLER, encoding="utf-8")
        (tmp / "pattern.txt").write_text("..\n", encoding="utf-8")
        (tmp / "corpus.jsonl").write_text(
            json.dumps({"doc_id": 1, "text": SENTENCES[0]}) + "\n", encoding="utf-8"
        )
        before = sorted(p.name for p in tmp.iterdir())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(tmp / a) if a in before + ["out"] else a for a in argv])
        left = sorted(p.name for p in tmp.iterdir())
        err = err.getvalue()
        if code == 0 and "out" in argv:
            assert "out" in left
            left.remove("out")
        elif code == 1 and verdict:
            assert err == ""
        elif code != 0:
            assert code in (2, 3), (code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert left == before


@FUZZ
@given(CORPUS)
def test_corpus_reader(text):
    run_cli(text, ["ingest", "--corpus", "bad", "--gazetteer", "terms.txt", "--out", "out"])


@FUZZ
@given(CORPUS)
def test_pretagged_corpus_reader(text):
    run_cli(text, ["ingest", "--corpus", "bad", "--extractor", "pretagged", "--out", "out"])


@FUZZ
@given(LEXICON)
def test_lexicon_reader(text):
    run_cli(
        text,
        [
            "generate", "--pattern", "pattern.txt", "--lexicon", "bad.jsonl", "filler.txt",
            "--target-rate", "0", "--node-budget", "100", "--out", "out",
        ],
    )


@FUZZ
@given(PUZZLE)
def test_puzzle_reader(text):
    run_cli(text, ["render", "--puzzle", "bad", "--out", "out"])
    run_cli(text, ["verify", "--puzzle", "bad", "--lexicon", "filler.txt"], verdict=True)


@FUZZ
@given(TABLE)
def test_table_reader(text):
    run_cli(
        text,
        [
            "ingest", "--corpus", "corpus.jsonl", "--gazetteer", "terms.txt",
            "--table", "bad", "--out", "out",
        ],
    )
