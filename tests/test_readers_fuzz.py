"""Fuzzing the input readers through the CLI: corpus, lexicon, puzzle, table
and pattern file.

Every field of every record is drawn as absent, valid, or an arbitrary JSON
value, and the file may be cut off at any character. Whatever is drawn, the
command must either succeed and write its output, or exit 2 or 3 with a
one-line ``error:`` message and leave no file behind. It must never raise.

The drawn file starts with a drawn prefix: none, a UTF-8 byte-order mark, or
a byte that is not UTF-8. The mark changes nothing; the bad byte is a data
error (exit 3) that names the file.
"""

import contextlib
import io
import json
import re
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


PATTERN = st.lists(
    st.sampled_from(["..", "#.", ".#", "...", "", "  ", "\t", "id: p", ".x"]), max_size=8
).flatmap(lambda lines: truncated("\n".join(lines) + "\n"))

BOM = "\ufeff".encode("utf-8")
PREFIX = st.sampled_from([b"", BOM, b"\xff"])


def run_cli(text, prefix, argv, failure=None):
    """Run ``topicross`` on the drawn file, ``bad`` or ``bad.jsonl``, and check the outcome.

    The file holds ``prefix`` and then ``text``. Exit 1 is an outcome too when
    ``failure`` is set, with a stderr that matches that regex in full.
    """
    drawn = next(a for a in argv if a in ("bad", "bad.jsonl"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "terms.txt").write_text("\n".join(TERMS) + "\n", encoding="utf-8")
        (tmp / "filler.txt").write_text(FILLER, encoding="utf-8")
        (tmp / "pattern.txt").write_text("..\n", encoding="utf-8")
        (tmp / "corpus.jsonl").write_text(
            json.dumps({"doc_id": 1, "text": SENTENCES[0]}) + "\n", encoding="utf-8"
        )

        def run(data):
            """Exit code, output file bytes, stdout and stderr of one run."""
            (tmp / drawn).write_bytes(data)
            before = sorted(p.name for p in tmp.iterdir())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(tmp / a) if a in before + ["out"] else a for a in argv])
            left = sorted(p.name for p in tmp.iterdir())
            err = err.getvalue()
            written = None
            if code == 0 and "out" in argv:
                assert "out" in left
                left.remove("out")
                written = (tmp / "out").read_bytes()
                (tmp / "out").unlink()
            elif code == 1 and failure is not None:
                assert re.fullmatch(failure, err), err
            elif code != 0:
                assert code in (2, 3), (code, err)
                assert err.startswith("error: ") and err.count("\n") == 1, err
            assert left == before
            return code, written, out.getvalue(), err

        outcome = run(prefix + text.encode("utf-8"))
        if prefix == BOM:
            assert outcome == run(text.encode("utf-8"))
        elif prefix == b"\xff":
            code, _, _, err = outcome
            assert code == 3, (code, err)
            assert err.startswith(f"error: {tmp / drawn}: not UTF-8 text"), err
            assert err.count(str(tmp / drawn)) == 1, err


@FUZZ
@given(CORPUS, PREFIX)
def test_corpus_reader(text, prefix):
    run_cli(
        text, prefix, ["ingest", "--corpus", "bad", "--gazetteer", "terms.txt", "--out", "out"]
    )


@FUZZ
@given(CORPUS, PREFIX)
def test_pretagged_corpus_reader(text, prefix):
    run_cli(
        text, prefix, ["ingest", "--corpus", "bad", "--extractor", "pretagged", "--out", "out"]
    )


@FUZZ
@given(LEXICON, PREFIX)
def test_lexicon_reader(text, prefix):
    run_cli(
        text,
        prefix,
        [
            "generate", "--pattern", "pattern.txt", "--lexicon", "bad.jsonl", "filler.txt",
            "--target-rate", "0", "--node-budget", "100", "--out", "out",
        ],
    )


@FUZZ
@given(PUZZLE, PREFIX)
def test_puzzle_reader(text, prefix):
    run_cli(text, prefix, ["render", "--puzzle", "bad", "--out", "out"])
    # a puzzle that fails verification reports on stdout only
    run_cli(text, prefix, ["verify", "--puzzle", "bad", "--lexicon", "filler.txt"], failure="")


@FUZZ
@given(TABLE, PREFIX)
def test_table_reader(text, prefix):
    run_cli(
        text,
        prefix,
        [
            "ingest", "--corpus", "corpus.jsonl", "--gazetteer", "terms.txt",
            "--table", "bad", "--out", "out",
        ],
    )


@FUZZ
@given(PATTERN, PREFIX)
def test_pattern_reader(text, prefix):
    # a pattern the four two-letter fillers cannot fill fails generation
    run_cli(
        text,
        prefix,
        [
            "generate", "--pattern", "bad", "--lexicon", "filler.txt", "--target-rate", "0",
            "--node-budget", "100", "--out", "out",
        ],
        failure=r"generation failed: (exhausted|timeout)\n",
    )
