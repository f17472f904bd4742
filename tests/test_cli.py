"""Command-line behavior: exit codes, determinism, atomic outputs."""

import gc
import hashlib
import json
import sys
import weakref
from contextlib import contextmanager

import pytest

from topicross import (
    cli as cli_module, lexicon as lexicon_module, pipeline as pipeline_module, util,
)
from topicross.cli import main


def write_inputs(directory, copies=1, n_words=4000):
    """A corpus of ``copies`` times six documents, its six terms, and ``n_words``
    filler words; a larger list holds every word of a smaller one."""
    import random

    names = ["Atlas", "Nova", "Iris", "Echo", "Onyx", "Opal"]
    docs = []
    for i, name in enumerate(names * copies):
        docs.append(
            {
                "doc_id": f"d{i}",
                "text": (
                    f"The {name} rollout beat its schedule this spring. "
                    f"Critics called {name} the strongest product of the year."
                ),
            }
        )
    corpus = directory / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")

    terms = directory / "terms.txt"
    terms.write_text("".join(name + "\n" for name in names), encoding="utf-8")

    rng = random.Random(9)
    words = set()
    while len(words) < n_words:
        n = rng.randint(2, 5)
        words.add("".join(rng.choices("ABCDEGHILMNOPRST", weights=None, k=n)))
    filler = directory / "filler.txt"
    filler.write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    return directory


@pytest.fixture()
def workdir(tmp_path):
    return write_inputs(tmp_path)


def run(argv):
    return main([str(a) for a in argv])


# A sweep and a generate run whose input files are all missing.
SWEEP_MISSING = ["sweep", "--patterns", "missing.txt", "--lexicon", "missing.txt"]
GENERATE_MISSING = ["generate", "--pattern", "missing.txt", "--lexicon", "missing.txt"]


# A well-formed one-slot puzzle but for its ratio: json.loads accepts NaN, JSON does not.
NAN_RATIO_PUZZLE = (
    '{"pattern": "..", "entries": [{"slot_id": 0, "orientation": "across", '
    '"row": 0, "col": 0, "answer": "AB", "source": "filler", "clue": "c"}], '
    '"metadata": {"target_rate": 0, "achieved_topic_ratio": NaN, "seed": 0, '
    '"elapsed_ms": 0, "restarts": 0}}'
)


# JSON the decoder cannot take: arrays nested past any recursion limit, and an
# integer past the interpreter's digit limit for int(). The digit case needs a
# limit below 5,000 digits: Python 3.10 releases before 3.10.7 have none, and
# PYTHONINTMAXSTRDIGITS=0 turns it off.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
LONG_INT_JSON = "9" * 5_000
NO_DIGIT_LIMIT = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5_000,
    reason="no int digit limit below 5,000 digits",
)


def undecodable_json_cases(kinds):
    """A deeply nested and a 5,000-digit document of each kind of input file."""
    for kind in kinds:
        yield pytest.param(kind, DEEP_JSON, id=f"{kind}-deep-nesting")
        yield pytest.param(kind, LONG_INT_JSON, id=f"{kind}-long-int", marks=NO_DIGIT_LIMIT)


# Each output flag of each command; every input named here is missing, so a
# run that reads an input before checking its outputs fails on that input.
OUTPUT_FLAG_CASES = [
    pytest.param(
        ["ingest", "--corpus", "missing.jsonl", "--gazetteer", "missing.txt"], "--out",
        id="ingest",
    ),
    pytest.param(["patterns", "--size", "4x4", "--black", "2"], "--out", id="patterns"),
    pytest.param(
        ["generate", "--pattern", "missing.txt", "--lexicon", "missing.txt"], "--out",
        id="generate",
    ),
    pytest.param(["sweep", "--lexicon", "missing.txt"], "--out", id="sweep-out"),
    pytest.param(
        ["sweep", "--lexicon", "missing.txt", "--out", "s.csv"], "--summary",
        id="sweep-summary",
    ),
    pytest.param(
        ["sweep", "--lexicon", "missing.txt", "--out", "s.csv"], "--svg", id="sweep-svg"
    ),
    pytest.param(["render", "--puzzle", "missing.json"], "--out", id="render"),
]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["generate", "--bogus"]) == 2

    def test_bad_target_rate(self, workdir, capsys):
        code = run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", workdir / "filler.txt", "--target-rate", "101",
            ]
        )
        assert code == 2
        puzzle = workdir / "puzzle.json"
        assert run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", workdir / "filler.txt", "--target-rate", "0",
                "--node-budget", "100000", "--out", puzzle,
            ]
        ) == 0
        for rate in ("150", "-5"):
            code = run(
                [
                    "verify", "--puzzle", puzzle,
                    "--lexicon", workdir / "filler.txt", "--target-rate", rate,
                ]
            )
            assert code == 2

    def test_missing_file(self, workdir, capsys):
        code = run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", workdir / "nope.txt",
            ]
        )
        assert code == 3

    def test_infeasible_quota(self, workdir, capsys):
        out = workdir / "never.json"
        code = run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", workdir / "filler.txt",
                "--target-rate", "100",
                "--node-budget", "200", "--time-limit", "30",
                "--restart-interval", "10", "--out", out,
            ]
        )
        assert code == 1
        assert not out.exists()  # failed runs leave no partial output
        assert capsys.readouterr().err == "generation failed: exhausted\n"

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_invalid_pattern_is_a_data_error(self, workdir, capsys, command):
        # (0, 0) is white but lies in no slot
        bad = workdir / "bad.txt"
        bad.write_text(".#.\n#..\n", encoding="utf-8")
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        out = workdir / "never"
        flag = "--pattern" if command == "generate" else "--patterns"
        code = run(
            [command, flag, bad, "--lexicon", words, "--node-budget", "100", "--out", out]
        )
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {bad}: white cell (0, 0) belongs to no slot of length >= 2\n"
        )

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_malformed_pattern_file_is_named(self, workdir, capsys, command):
        ragged = workdir / "ragged.txt"
        ragged.write_text("..\n.\n", encoding="utf-8")
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        out = workdir / "never"
        flag = "--pattern" if command == "generate" else "--patterns"
        code = run(
            [command, flag, ragged, "--lexicon", words, "--node-budget", "100", "--out", out]
        )
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {ragged}: row 1 has length 1, expected 2\n"
        )

    @pytest.mark.parametrize(
        "id_lines", [("", ""), ("id: a\n", "id: a\n")], ids=["no-id", "same-id"]
    )
    def test_sweep_rejects_repeated_pattern_ids(self, workdir, capsys, id_lines):
        patterns = workdir / "patterns.txt"
        patterns.write_text("\n".join(f"{i}..\n..\n" for i in id_lines), encoding="utf-8")
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        out, summary = workdir / "records.csv", workdir / "summary.json"
        code = run(
            ["sweep", "--patterns", patterns, "--lexicon", words, "--t-values", "0",
             "--node-budget", "100", "--out", out, "--summary", summary]
        )
        assert code == 3
        assert not out.exists() and not summary.exists()
        pattern_id = id_lines[0][4:].strip()
        assert f"pattern id {pattern_id!r} is used more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("rates", ["10,150", "-5,10"])
    def test_sweep_rejects_rates_outside_0_100(self, workdir, capsys, rates):
        patterns = workdir / "p.txt"
        patterns.write_text("..\n..\n", encoding="utf-8")
        words = workdir / "w.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        out = workdir / "records.csv"
        for lexicon in (words, workdir / "missing.txt"):
            code = run(
                ["sweep", "--patterns", patterns, "--lexicon", lexicon, f"--t-values={rates}",
                 "--node-budget", "10", "--out", out]
            )
            # a usage error, found before any file is read
            assert code == 2
            assert not out.exists()
            assert "--t-values: expected an integer in [0, 100]" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_rejects_jobs_below_one(self, workdir, capsys, jobs):
        patterns = workdir / "p.txt"
        patterns.write_text("..\n..\n", encoding="utf-8")
        words = workdir / "w.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        out = workdir / "records.csv"
        code = run(
            ["sweep", "--patterns", patterns, "--lexicon", words, "--t-values", "0",
             "--node-budget", "10", "--jobs", jobs, "--out", out]
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                [*SWEEP_MISSING, "--node-budget", "10", "--jobs", "0"], "jobs must be >= 1",
                id="--jobs-jobs must be >= 1",
            ),
            pytest.param(
                [*SWEEP_MISSING, "--node-budget", "10", "--trials", "0"],
                "trials_per_cell must be >= 1",
                id="--trials-trials_per_cell must be >= 1",
            ),
            # the seeded patterns are drawn before the lexicon is read
            pytest.param(
                ["sweep", "--size", "2x2", "--black-counts", "4", "--lexicon", "missing.txt"],
                "n_black must be in [0, 4)",
                id="--black-counts-n_black must be in [0, 4)",
            ),
            # two output options that name one file, however it is spelled
            pytest.param(
                [*SWEEP_MISSING, "--summary", "out.txt"],
                "error: --out and --summary both name out.txt\n",
                id="--summary-error: --out and --summary both name out.txt",
            ),
            pytest.param(
                [*SWEEP_MISSING, "--svg", "./out.txt"],
                "error: --out and --svg both name ./out.txt\n",
                id="--svg-error: --out and --svg both name ./out.txt",
            ),
            pytest.param(
                [*SWEEP_MISSING, "--summary", "s.json", "--svg", "s.json"],
                "error: --summary and --svg both name s.json\n",
                id="--svg-error: --summary and --svg both name s.json",
            ),
            pytest.param(
                [*GENERATE_MISSING, "--node-budget", "0"], "node_budget must be >= 1",
                id="--node-budget-node_budget must be >= 1",
            ),
            pytest.param(
                [*GENERATE_MISSING, "--time-limit", "0"],
                "time_limit and restart_interval must be positive",
                id="--time-limit-time_limit and restart_interval must be positive",
            ),
            pytest.param(
                [*GENERATE_MISSING, "--time-limit", "5", "--restart-interval", "10"],
                "restart_interval must not exceed time_limit",
                id="--restart-interval-restart_interval must not exceed time_limit",
            ),
        ],
    )
    def test_sweep_run_arguments_checked_before_any_file_is_read(
        self, workdir, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(workdir)
        out = workdir / "out.txt"
        code = run([*argv, "--out", out])
        # a usage error (2), not the missing files' data error (3)
        assert code == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [GENERATE_MISSING, SWEEP_MISSING], ids=["generate", "sweep"]
    )
    @pytest.mark.parametrize(
        "clock, message",
        [
            pytest.param(
                ["--time-limit", "inf", "--restart-interval", "inf", "--node-budget", "10"],
                "the virtual clock cannot count inf seconds in milliseconds",
                id="infinite-virtual-clock",
            ),
            pytest.param(
                ["--time-limit", "1e308", "--restart-interval", "1e308", "--node-budget", "10"],
                "the virtual clock cannot count 1e+308 seconds in milliseconds",
                id="virtual-clock-overflow",
            ),
            pytest.param(
                ["--time-limit", "1e308", "--restart-interval", "1e-308"],
                "time_limit / restart_interval is too many episodes to count",
                id="episode-count-overflow",
            ),
            pytest.param(
                ["--time-limit", "1e308", "--restart-interval", "1e-308", "--node-budget", "10"],
                "time_limit / restart_interval is too many episodes to count",
                id="episode-count-overflow-node-budget",
            ),
        ],
    )
    def test_clock_overflow_is_a_usage_error(
        self, workdir, monkeypatch, capsys, command, clock, message
    ):
        # a float that no int can hold, found before the (missing) inputs are read
        monkeypatch.chdir(workdir)
        out = workdir / "out.txt"
        assert run([*command, *clock, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(
                ["sweep", "--t-values", ",", "--lexicon", "filler.txt"], "--t-values",
                id="empty-int-list",
            ),
            pytest.param(
                ["ingest", "--corpus", "corpus.jsonl"], "--gazetteer",
                id="ingest-without-extractor",
            ),
            # found before the (here missing) corpus is read
            pytest.param(
                ["ingest", "--corpus", "missing.jsonl", "--extractor", "pretagged",
                 "--gazetteer", "terms.txt"], "--gazetteer",
                id="pretagged-with-gazetteer",
            ),
            pytest.param(
                ["ingest", "--corpus", "missing.jsonl", "--gazetteer", "terms.txt",
                 "--mask", ""], "--mask",
                id="blank-mask",
            ),
            # a side of zero is refused as the option is parsed, not later by
            # the pattern generator
            pytest.param(["patterns", "--size", "0x4", "--black", "0"], "--size", id="zero-height"),
            pytest.param(
                ["generate", "--size", "4x0", "--black", "0", "--lexicon", "filler.txt"], "--size",
                id="zero-width",
            ),
            pytest.param(
                ["sweep", "--size", "0x0", "--lexicon", "filler.txt"], "--size", id="zero-size"
            ),
        ],
    )
    def test_usage_error_names_the_option(self, workdir, capsys, argv, named):
        out = workdir / "never"
        argv = [workdir / a if (workdir / a).is_file() else a for a in argv]
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", OUTPUT_FLAG_CASES)
    def test_missing_output_directory_fails_before_any_input_is_read(
        self, workdir, capsys, argv, flag
    ):
        target = workdir / "no-such-dir" / "out"
        argv = [workdir / a if a.endswith((".txt", ".json", ".jsonl", ".csv")) else a for a in argv]
        assert run(argv + [flag, target]) == 3
        err = capsys.readouterr().err
        # the error names the output path, not a (missing) input file
        assert err.startswith(f"error: {target}: ") and "missing." not in err
        assert not (workdir / "s.csv").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        OUTPUT_FLAG_CASES
        + [
            # with inputs that load, the run must still stop before its search
            # and before it writes the records CSV
            pytest.param(
                ["generate", "--size", "4x4", "--black", "2", "--lexicon", "filler.txt",
                 "--node-budget", "50"], "--out",
                id="generate-inputs",
            ),
            pytest.param(
                ["sweep", "--size", "4x4", "--black-counts", "2", "--patterns-per-count", "1",
                 "--t-values", "0", "--lexicon", "filler.txt", "--node-budget", "50",
                 "--out", "s.csv"], "--summary",
                id="sweep-summary-inputs",
            ),
        ],
    )
    def test_directory_output_path_fails_before_any_input_is_read(
        self, workdir, capsys, argv, flag
    ):
        target = workdir / "a-dir"
        target.mkdir()
        before = sorted(workdir.rglob("*"))
        argv = [workdir / a if a.endswith((".txt", ".json", ".jsonl", ".csv")) else a for a in argv]
        assert run(argv + [flag, target]) == 3
        # the error names the output path, not a (missing) input file, and no
        # output file appears
        assert capsys.readouterr().err == f"error: {target}: is a directory\n"
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--time-limit", "--restart-interval"])
    def test_nan_seconds(self, workdir, capsys, flag):
        out = workdir / "never.json"
        code = run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", workdir / "filler.txt", flag, "nan", "--out", out,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: time_limit and restart_interval must be positive\n"
        assert not out.exists()

    def test_non_string_surface(self, workdir, capsys):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"surface": 5, "source": "topic"}\n', encoding="utf-8")
        out = workdir / "never.json"
        code = run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", bad, workdir / "filler.txt", "--out", out,
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:1: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_program_bug_is_not_a_data_error(self, workdir, monkeypatch):
        # a KeyError is a bug in the program, not bad input: no exit 3, no message
        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr("topicross.cli.pipeline.build_topic_lexicon", broken)
        with pytest.raises(KeyError):
            run(
                [
                    "ingest", "--corpus", workdir / "corpus.jsonl",
                    "--gazetteer", workdir / "terms.txt",
                ]
            )

    @pytest.mark.parametrize(
        "kind, content",
        [
            pytest.param("corpus", '{"doc_id": 1, "text": 5}\n', id="corpus-text-int"),
            pytest.param("corpus", "[1]\n", id="corpus-not-object"),
            pytest.param(
                "corpus",
                '{"doc_id": 1, "text": "Atlas rose.", "keywords": 5}\n',
                id="corpus-keywords-int",
            ),
            pytest.param("corpus", "{bad\n", id="corpus-bad-json"),
            pytest.param("corpus", b"\xff\xfe\n", id="corpus-not-utf8"),
            pytest.param("empty", '{"doc_id": 1, "text": ""}\n', id="corpus-text-empty"),
            pytest.param("empty", "", id="corpus-file-empty"),
            pytest.param(
                "tagged", '{"doc_id": 1, "text": "Atlas.", "keywords": [5]}\n', id="tag-int"
            ),
            pytest.param(
                "tagged",
                '{"doc_id": 1, "text": "Atlas.", '
                '"keywords": [{"surface": "Atlas", "start": 0, "end": 99}]}\n',
                id="tag-outside-text",
            ),
            pytest.param("puzzle", '{"pattern": 5}', id="puzzle-pattern-int"),
            pytest.param("puzzle", "{bad", id="puzzle-bad-json"),
            pytest.param("puzzle", "[1]", id="puzzle-not-object"),
            pytest.param("puzzle", '{"pattern": "..", "entries": [5]}', id="puzzle-entry-int"),
            pytest.param(
                "puzzle",
                '{"pattern": "..", "entries": [{"slot_id": 0, "orientation": "across", '
                '"row": 0, "col": 0, "answer": 5, "source": "topic", "clue": "c"}], '
                '"metadata": {"target_rate": 0, "achieved_topic_ratio": 1.0, "seed": 0, '
                '"elapsed_ms": 0, "restarts": 0}}',
                id="puzzle-answer-int",
            ),
            pytest.param(
                "puzzle",
                '{"pattern": "..", "entries": [{"slot_id": true, "orientation": "across", '
                '"row": true, "col": false, "answer": "AB", "source": "filler", "clue": "c"}], '
                '"metadata": {"target_rate": 0, "achieved_topic_ratio": 1.0, "seed": 0, '
                '"elapsed_ms": 0, "restarts": 0}}',
                id="puzzle-slot-id-bool",
            ),
            pytest.param("puzzle", NAN_RATIO_PUZZLE, id="puzzle-ratio-nan"),
            pytest.param(
                "puzzle", NAN_RATIO_PUZZLE.replace("NaN", "-Infinity"), id="puzzle-ratio-inf"
            ),
            pytest.param("table", '{"mappings": {"a": 5}}', id="table-mapping-int"),
            pytest.param("table", "[1, 2]", id="table-not-object"),
            pytest.param("table", '{"mappings": {"a": " "}}', id="table-mapping-whitespace"),
            pytest.param("table", "{bad", id="table-bad-json"),
            pytest.param("render", '{"pattern": "..", "entries": [5]}', id="render-entry-int"),
            pytest.param("render", NAN_RATIO_PUZZLE, id="render-ratio-nan"),
            *undecodable_json_cases(["corpus", "lexicon", "puzzle", "table", "render"]),
        ],
    )
    def test_malformed_input(self, workdir, capsys, kind, content):
        # a lexicon file is read as JSON Lines only under a .jsonl suffix
        bad = workdir / ("bad.jsonl" if kind == "lexicon" else "bad")
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content, encoding="utf-8")
        ingest = ["ingest", "--gazetteer", workdir / "terms.txt"]
        argv = {
            "corpus": ingest + ["--corpus", bad],
            "empty": ingest + ["--corpus", bad],
            "tagged": ["ingest", "--extractor", "pretagged", "--corpus", bad],
            "puzzle": ["verify", "--puzzle", bad, "--lexicon", workdir / "filler.txt"],
            "table": ingest + ["--corpus", workdir / "corpus.jsonl", "--table", bad],
            "render": ["render", "--puzzle", bad],
            "lexicon": ["generate", "--size", "3x3", "--black", "0", "--lexicon", bad],
        }[kind]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        if kind in ("corpus", "lexicon") and not isinstance(content, bytes):
            assert err.startswith(f"error: {bad}:1: ")
        if kind in ("puzzle", "table", "render"):
            assert err.startswith(f"error: {bad}: ")


class TestPipelineCommands:
    def test_ingest_and_generate_and_verify_and_render(self, workdir, capsys):
        topic = workdir / "topic.jsonl"
        assert run(
            [
                "ingest", "--corpus", workdir / "corpus.jsonl",
                "--gazetteer", workdir / "terms.txt", "--out", topic,
            ]
        ) == 0
        records = [json.loads(line) for line in topic.read_text().splitlines()]
        assert len(records) == 6
        assert all(r["source"] == "topic" and r["clues"] for r in records)

        out = workdir / "puzzle.json"
        code = run(
            [
                "generate", "--size", "5x5", "--black", "6",
                "--lexicon", topic, workdir / "filler.txt",
                "--target-rate", "10", "--node-budget", "100000",
                "--seed", "11", "--out", out,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["target_rate"] == 10

        assert run(
            [
                "verify", "--puzzle", out,
                "--lexicon", topic, workdir / "filler.txt",
                "--target-rate", "10",
            ]
        ) == 0
        assert "puzzle OK" in capsys.readouterr().out

        assert run(["render", "--puzzle", out]) == 0
        rendered = capsys.readouterr().out
        assert "ACROSS" in rendered and "DOWN" in rendered

    @pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "raw"])
    def test_unicode_line_separators_round_trip(self, workdir, capsys, ensure_ascii):
        # U+2028 and U+0085 end a line for str.splitlines but not in JSON Lines;
        # ingest writes them unescaped into its clues.
        corpus = workdir / "corpus.jsonl"
        doc = {"doc_id": "d", "text": "The Atlas rollout beat\u2028its schedule\x85this spring."}
        corpus.write_text(json.dumps(doc, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
        topic = workdir / "topic.jsonl"
        assert run(
            [
                "ingest", "--corpus", corpus,
                "--gazetteer", workdir / "terms.txt", "--out", topic,
            ]
        ) == 0
        assert [json.loads(line) for line in topic.read_text("utf-8").split("\n") if line] == [
            {
                "surface": "Atlas",
                "source": "topic",
                "clues": ["The [Answer] rollout beat\u2028its schedule\x85this spring."],
            }
        ]
        assert run(
            [
                "generate", "--size", "4x4", "--black", "2",
                "--lexicon", topic, workdir / "filler.txt",
                "--target-rate", "0", "--node-budget", "100000",
                "--out", workdir / "puzzle.json",
            ]
        ) == 0

    def test_ingest_reports_short_keywords(self, workdir, capsys):
        corpus = workdir / "corpus.jsonl"
        doc = {"doc_id": "d", "text": "Plan A and the Atlas rollout both beat their schedule."}
        corpus.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        terms = workdir / "terms.txt"
        terms.write_text("A\nAtlas\n", encoding="utf-8")
        topic = workdir / "topic.jsonl"
        assert run(["ingest", "--corpus", corpus, "--gazetteer", terms, "--out", topic]) == 0
        assert capsys.readouterr().err == (
            "ingest: 1 records, 1 clues, 2 occurrences (0 short clues, 1 short keywords, "
            "0 unmappable keywords skipped)\n"
        )

    def test_gazetteer_skips_indented_comments(self, workdir, capsys):
        corpus = workdir / "corpus.jsonl"
        doc = {"doc_id": "d", "text": "Atlas filed a # note on the rollout this spring."}
        corpus.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        terms = workdir / "terms.txt"
        terms.write_text("Atlas\n  # note\n", encoding="utf-8")
        topic = workdir / "topic.jsonl"
        assert run(["ingest", "--corpus", corpus, "--gazetteer", terms, "--out", topic]) == 0
        assert [json.loads(line)["surface"] for line in topic.read_text("utf-8").split("\n")
                if line] == ["Atlas"]

    def test_gazetteer_byte_order_mark(self, workdir, capsys):
        terms = workdir / "terms.txt"
        terms.write_text("\ufeffAtlas\nNova\n", encoding="utf-8")
        topic = workdir / "topic.jsonl"
        ingest = ["ingest", "--corpus", workdir / "corpus.jsonl", "--gazetteer", terms]
        assert run([*ingest, "--out", topic]) == 0
        assert [json.loads(line)["surface"] for line in topic.read_text("utf-8").split("\n")
                if line] == ["Atlas", "Nova"]

    def test_verify_catches_quota_shortfall(self, workdir, capsys):
        topic = workdir / "topic.jsonl"
        run(
            [
                "ingest", "--corpus", workdir / "corpus.jsonl",
                "--gazetteer", workdir / "terms.txt", "--out", topic,
            ]
        )
        out = workdir / "puzzle.json"
        assert run(
            [
                "generate", "--size", "5x5", "--black", "6",
                "--lexicon", topic, workdir / "filler.txt",
                "--target-rate", "0", "--node-budget", "100000",
                "--seed", "2", "--out", out,
            ]
        ) == 0
        code = run(
            [
                "verify", "--puzzle", out,
                "--lexicon", topic, workdir / "filler.txt",
                "--target-rate", "100",
            ]
        )
        captured = capsys.readouterr()
        if json.loads(out.read_text())["metadata"]["achieved_topic_ratio"] < 1.0:
            assert code == 1
            assert "quota" in captured.out

    def test_verify_counts_topic_answers_by_the_lexicon(self, workdir, capsys):
        # a 2x2 fill of four filler words whose puzzle file claims "topic"
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        slots = [("across", 0, 0, "AB"), ("across", 1, 0, "CD"),
                 ("down", 0, 0, "AC"), ("down", 0, 1, "BD")]
        doc = {
            "pattern": "..\n..",
            "entries": [
                {"slot_id": sid, "orientation": o, "row": r, "col": c,
                 "answer": a, "source": "topic", "clue": "c"}
                for sid, (o, r, c, a) in enumerate(slots)
            ],
            "metadata": {"target_rate": 100, "achieved_topic_ratio": 1.0, "seed": 0,
                         "elapsed_ms": 0, "restarts": 0},
        }
        pzl = workdir / "retagged.json"
        pzl.write_text(json.dumps(doc), encoding="utf-8")
        code = run(
            ["verify", "--puzzle", pzl, "--lexicon", words, "--target-rate", "100"]
        )
        assert code == 1
        kinds = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert kinds == ["source-mismatch"] * 4 + ["quota"]

    @pytest.mark.parametrize("ratio", ["1.0", "7.5"])
    def test_verify_checks_the_claimed_ratio(self, workdir, capsys, ratio):
        # the 2x2 grid of four filler words: 0 of 4 entries are tagged topic
        (workdir / "pattern.txt").write_text("..\n..\n", encoding="utf-8")
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        out = workdir / "pz.json"
        assert run(
            ["generate", "--pattern", workdir / "pattern.txt", "--lexicon", words,
             "--target-rate", "0", "--node-budget", "100", "--out", out]
        ) == 0
        assert run(["verify", "--puzzle", out, "--lexicon", words]) == 0
        text = out.read_text(encoding="utf-8")
        assert '"achieved_topic_ratio": 0.0' in text
        edited = workdir / "edited.json"
        edited.write_text(
            text.replace('"achieved_topic_ratio": 0.0', f'"achieved_topic_ratio": {ratio}'),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert run(["verify", "--puzzle", edited, "--lexicon", words]) == 1
        kinds = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert kinds == ["ratio-mismatch"]

    def test_verify_flags_an_isolated_white_cell(self, workdir, capsys):
        # the fill of a pattern whose white cell (0, 0) lies in no slot
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        doc = {
            "pattern": ".#.\n#..",
            "entries": [
                {"slot_id": 0, "orientation": "across", "row": 1, "col": 1,
                 "answer": "BD", "source": "filler", "clue": "c"},
                {"slot_id": 1, "orientation": "down", "row": 0, "col": 2,
                 "answer": "CD", "source": "filler", "clue": "c"},
            ],
            "metadata": {"target_rate": 0, "achieved_topic_ratio": 0.0, "seed": 0,
                         "elapsed_ms": 0, "restarts": 0},
        }
        pzl = workdir / "isolated.json"
        pzl.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["verify", "--puzzle", pzl, "--lexicon", words]) == 1
        kinds = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert kinds == ["isolated-white"]

    def test_verify_checks_records_of_answers_not_in_the_puzzle(self, workdir, capsys):
        words = workdir / "four.txt"
        words.write_text("AB\nCD\nAC\nBD\n", encoding="utf-8")
        (workdir / "p.txt").write_text("..\n..\n", encoding="utf-8")
        pzl = workdir / "pz.json"
        assert run(
            [
                "generate", "--pattern", workdir / "p.txt", "--lexicon", words,
                "--target-rate", "0", "--node-budget", "100", "--out", pzl,
            ]
        ) == 0
        bad = workdir / "bad.jsonl"
        bad.write_text('{"surface": "ZZZ", "source": "nope"}\n', encoding="utf-8")
        capsys.readouterr()
        assert run(["verify", "--puzzle", pzl, "--lexicon", words, bad]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: ")

    def test_patterns_command(self, workdir):
        out = workdir / "patterns.txt"
        assert run(
            ["patterns", "--size", "6x6", "--black", "8", "--count", "4",
             "--seed", "3", "--out", out]
        ) == 0
        from topicross.grid import parse_pattern_file

        patterns = parse_pattern_file(out.read_text())
        assert len(patterns) == 4
        assert all(p.n_black == 8 for p in patterns)

    def test_max_topic_mode(self, workdir):
        import random

        # topic words share the filler alphabet so crossings stay feasible
        rng = random.Random(31)
        topic_words = set()
        while len(topic_words) < 40:
            topic_words.add(
                "".join(rng.choices("ABCDEGHILMNOPRST", k=rng.randint(2, 4)))
            )
        topic = workdir / "short-topic.jsonl"
        topic.write_text(
            "".join(
                json.dumps({"surface": w, "source": "topic"}) + "\n"
                for w in sorted(topic_words)
            ),
            encoding="utf-8",
        )
        out = workdir / "maxed.json"
        code = run(
            [
                "generate", "--size", "5x5", "--black", "6",
                "--lexicon", topic, workdir / "filler.txt",
                "--target-rate", "0", "--max-topic",
                "--node-budget", "4000", "--seed", "11", "--out", out,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # the stored target is the requested rate (FillResult.config is the
        # caller's config), which the maximized fill meets
        assert doc["metadata"]["achieved_topic_ratio"] > 0.0
        assert (
            doc["metadata"]["achieved_topic_ratio"] * 100
            >= doc["metadata"]["target_rate"]
        )

    def test_generate_from_pattern_file(self, workdir):
        patterns = workdir / "patterns.txt"
        run(["patterns", "--size", "4x4", "--black", "3", "--count", "1",
             "--seed", "3", "--out", patterns])
        out = workdir / "p.json"
        assert run(
            [
                "generate", "--pattern", patterns,
                "--lexicon", workdir / "filler.txt",
                "--target-rate", "0", "--node-budget", "50000",
                "--seed", "4", "--out", out,
            ]
        ) == 0
        assert json.loads(out.read_text())["pattern_id"]


class TestDeterminism:
    def test_generate_byte_identical(self, workdir):
        args = [
            "generate", "--size", "5x5", "--black", "5",
            "--lexicon", workdir / "filler.txt",
            "--target-rate", "0", "--node-budget", "50000", "--seed", "21",
        ]
        a, b = workdir / "a.json", workdir / "b.json"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_out_holds_the_bytes_of_stdout(self, workdir, capsys):
        args = [
            "generate", "--size", "5x5", "--black", "5",
            "--lexicon", workdir / "filler.txt",
            "--target-rate", "0", "--node-budget", "50000", "--seed", "21",
        ]
        out = workdir / "pz.json"
        assert run(args) == 0
        stdout = capsys.readouterr().out
        assert run(args + ["--out", out]) == 0
        assert out.read_bytes() == stdout.encode("utf-8")
        assert stdout.endswith("}\n")

    def test_generate_solution_free_digest(self, workdir):
        # Clued topic answers and filler: the file holds each entry's clue,
        # source and place, with no answer and no surface.
        topic = workdir / "topic.jsonl"
        assert run(["ingest", "--corpus", workdir / "corpus.jsonl",
                    "--gazetteer", workdir / "terms.txt", "--out", topic]) == 0
        out = workdir / "pz.json"
        assert run([
            "generate", "--size", "5x5", "--black", "5", "--lexicon", topic,
            workdir / "filler.txt", "--target-rate", "10", "--node-budget", "50000",
            "--seed", "21", "--solution-free", "--out", out,
        ]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert any(e["source"] == "topic" for e in doc["entries"])
        assert not any("answer" in e or "surface" in e for e in doc["entries"])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "91d6a9a3d92225793be8d1c9a14a52af6c667d95731fc3e3eb8423fc3486d785"
        )

    def test_generate_ignores_answer_lengths_the_grid_lacks(self, workdir):
        # Slots of lengths 2 and 3 only; the full lists also hold 4- and
        # 5-letter words, among them every topic answer.
        pattern = workdir / "pattern.txt"
        pattern.write_text("..#\n...\n#..\n", encoding="utf-8")
        words = (workdir / "filler.txt").read_text(encoding="utf-8").split()
        short = workdir / "short.txt"
        short.write_text("".join(w + "\n" for w in words if len(w) <= 3), encoding="utf-8")
        topic = workdir / "topic.jsonl"
        assert run(["ingest", "--corpus", workdir / "corpus.jsonl",
                    "--gazetteer", workdir / "terms.txt", "--out", topic]) == 0
        args = ["generate", "--pattern", pattern, "--target-rate", "0",
                "--node-budget", "5000", "--seed", "3"]
        a, b = workdir / "a.json", workdir / "b.json"
        assert run(args + ["--lexicon", short, "--out", a]) == 0
        assert run(args + ["--lexicon", topic, workdir / "filler.txt", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert run(["verify", "--puzzle", a, "--lexicon", topic, workdir / "filler.txt"]) == 0

    def test_sweep_byte_identical(self, workdir):
        args = [
            "sweep", "--size", "4x4", "--black-counts", "2,3",
            "--patterns-per-count", "2", "--t-values", "10,50",
            "--lexicon", workdir / "filler.txt",
            "--node-budget", "1000", "--time-limit", "60",
            "--restart-interval", "10", "--seed", "5",
        ]
        a, b = workdir / "a.csv", workdir / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b, "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_repeated_black_count_writes_each_row_once(self, workdir):
        args = [
            "sweep", "--size", "2x3", "--patterns-per-count", "1", "--t-values", "0",
            "--lexicon", workdir / "filler.txt", "--node-budget", "1000",
        ]
        once, twice = workdir / "once.csv", workdir / "twice.csv"
        assert run(args + ["--black-counts", "1", "--out", once]) == 0
        assert run(args + ["--black-counts", "1,1", "--out", twice]) == 0
        rows = twice.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2 and rows[1].startswith("2x3-b1-000,1,0,")
        assert twice.read_bytes() == once.read_bytes()

    def test_sweep_summary_and_svg(self, workdir):
        csv_out = workdir / "records.csv"
        summary = workdir / "summary.json"
        svg = workdir / "chart.svg"
        assert run(
            [
                "sweep", "--size", "4x4", "--black-counts", "2",
                "--patterns-per-count", "2", "--t-values", "10,50",
                "--lexicon", workdir / "filler.txt",
                "--node-budget", "1000", "--time-limit", "60",
                "--restart-interval", "10", "--seed", "5",
                "--out", csv_out, "--summary", summary, "--svg", svg,
            ]
        ) == 0
        doc = json.loads(summary.read_text())
        assert "by_target_rate" in doc and "by_black_count" in doc
        assert svg.read_text().startswith("<svg")

    def test_sweep_summary_and_svg_digests(self, workdir):
        # Only 4x4-b4-000 meets T=30 and goes on to T=100; the other three
        # patterns are early-stopped at 30 or 20, and those cells fail in the
        # summary. Rate keys sort as text in the file: "10", "100", "20", "30".
        topic = workdir / "topic.jsonl"
        assert run(["ingest", "--corpus", workdir / "corpus.jsonl",
                    "--gazetteer", workdir / "terms.txt", "--out", topic]) == 0
        summary, svg = workdir / "summary.json", workdir / "chart.svg"
        assert run([
            "sweep", "--size", "4x4", "--black-counts", "4,6", "--patterns-per-count", "2",
            "--t-values", "10,20,30,100", "--lexicon", topic, workdir / "filler.txt",
            "--node-budget", "1000", "--time-limit", "60", "--restart-interval", "10",
            "--seed", "5", "--out", workdir / "records.csv", "--summary", summary, "--svg", svg,
        ]) == 0
        doc = json.loads(summary.read_text())
        assert list(doc["by_target_rate"]) == ["10", "100", "20", "30"]
        assert doc["by_target_rate"]["100"]["n_cells"] == 4
        assert doc["by_target_rate"]["100"]["time_ms"] is None
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == (
            "46aa9764e2830294f3975feebcaf9c0422ac1d20d90bea26b410c321f41dac21"
        )
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "e34bd43631be047a8c0ca1952ffc91f5dfc3c6f609ebc2c388e7d72b4c2ffe76"
        )


GENERATE_4X4 = [
    "generate", "--size", "4x4", "--black", "2", "--target-rate", "0", "--node-budget", "100000",
]
SWEEP_4X4 = [
    "sweep", "--size", "4x4", "--black-counts", "2", "--t-values", "10", "--node-budget", "1000",
]


class WeakrefableDict(dict):
    """A dict that, unlike a plain one, can be the target of a weakref."""


def freed_at_pause_end(monkeypatch, module, name, argv):
    """The exit code of ``argv`` and, at the end of each collector pause that
    ``cli`` takes, whether each object ``module.name`` returned is freed."""
    refs = []
    build = getattr(module, name)

    def tracked(*args, **kwargs):
        built = build(*args, **kwargs)
        if type(built) is dict:
            # a plain dict takes no weakref; the command gets a copy that does
            built = WeakrefableDict(built)
        refs.append(weakref.ref(built))
        return built

    freed = []
    pause = util.gc_paused

    @contextmanager
    def recording_pause():
        with pause():
            yield
            freed.append([ref() is None for ref in refs])

    monkeypatch.setattr(module, name, tracked)
    monkeypatch.setattr(cli_module, "gc_paused", recording_pause)
    return run(argv), freed


def cyclic_garbage(argv):
    """The exit code of ``argv`` and the types of the objects in reference
    cycles that it leaves, which only the cyclic collector could free."""
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = run(argv)
        gc.collect()
        return code, [type(obj) for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


class TestCollectorPauseScope:
    """Each command runs inside one collector pause, which ends after what the
    command built is freed: a lexicon still alive when the collector comes back
    on is walked by the next collection, which can free none of its records.
    Under that one pause, a command must leave no cyclic garbage that grows
    with its input, or the pause would hold back a collection worth making."""

    @pytest.mark.parametrize(
        "setup, argv, built",
        [
            pytest.param(
                [], GENERATE_4X4 + ["--lexicon", "filler.txt", "--out", "out"],
                (lexicon_module, "ingest_lexicon"), id="generate",
            ),
            pytest.param(
                [], SWEEP_4X4 + ["--patterns-per-count", "1", "--lexicon", "filler.txt",
                                 "--out", "out"],
                (lexicon_module, "ingest_lexicon"), id="sweep",
            ),
            pytest.param(
                GENERATE_4X4 + ["--lexicon", "filler.txt", "--out", "pz.json"],
                ["verify", "--puzzle", "pz.json", "--lexicon", "filler.txt"],
                (lexicon_module, "ingest_lexicon"), id="verify",
            ),
            pytest.param(
                [], ["ingest", "--corpus", "corpus.jsonl", "--gazetteer", "terms.txt",
                     "--out", "out"],
                (pipeline_module, "build_topic_lexicon"), id="ingest",
            ),
        ],
    )
    def test_lexicon_dies_inside_the_pause(self, workdir, monkeypatch, setup, argv, built):
        # ingest builds its topic lexicon's records as a PipelineResult
        monkeypatch.chdir(workdir)
        if setup:
            assert run(setup) == 0
        assert freed_at_pause_end(monkeypatch, *built, argv) == (0, [[True]])
        if "--out" in argv:
            assert (workdir / argv[argv.index("--out") + 1]).exists()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_failed_command_restores_the_collector_state(self, workdir, monkeypatch, enabled):
        monkeypatch.chdir(workdir)
        (workdir / "bad.jsonl").write_text('{"surface": "AB"\n', encoding="utf-8")
        argv = GENERATE_4X4 + ["--lexicon", "bad.jsonl", "--out", "out"]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(argv) == 3
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert not (workdir / "out").exists()

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, monkeypatch):
        commands = {
            "ingest": ["ingest", "--corpus", "corpus.jsonl", "--gazetteer", "terms.txt",
                       "--out", "topic.jsonl"],
            "generate": GENERATE_4X4 + ["--lexicon", "topic.jsonl", "filler.txt",
                                        "--out", "pz.json"],
            "verify": ["verify", "--puzzle", "pz.json", "--lexicon", "topic.jsonl",
                       "filler.txt"],
        }
        for jobs in ("1", "2"):
            commands[f"sweep --jobs {jobs}"] = SWEEP_4X4 + [
                "--lexicon", "topic.jsonl", "filler.txt", "--jobs", jobs, "--out", "s.csv",
                "--summary", "s.json",
            ]
        counts = {}
        for size, copies, n_words, patterns in (("small", 1, 2000, "2"), ("large", 4, 8000, "4")):
            (tmp_path / size).mkdir()
            monkeypatch.chdir(write_inputs(tmp_path / size, copies, n_words))
            for command, argv in commands.items():
                if command.startswith("sweep"):
                    argv = argv + ["--patterns-per-count", patterns]
                if size == "small":
                    # a first call builds what a process builds once, whatever
                    # the input: the parser, and the types of a first pool
                    run(argv)
                code, cyclic = cyclic_garbage(argv)
                assert code == 0, command
                counts[command, size] = len(cyclic)
        for command in commands:
            assert counts[command, "small"] == counts[command, "large"], command


class TestParserReuse:
    def test_a_call_leaves_no_argparse_cycle(self, workdir):
        # The parser is built once per process, so after a first call no
        # argparse object is left for the cyclic collector to free.
        argv = [
            "generate", "--size", "4x4", "--black", "2",
            "--lexicon", workdir / "filler.txt", "--target-rate", "0",
            "--node-budget", "100000", "--out", workdir / "puzzle.json",
        ]
        assert run(argv) == 0
        code, cyclic = cyclic_garbage(argv)
        assert code == 0
        assert [kind.__name__ for kind in cyclic if kind.__module__ == "argparse"] == []

    def test_handler_is_looked_up_per_call(self, workdir, monkeypatch):
        argv = ["patterns", "--size", "4x4", "--black", "2", "--out", workdir / "p.txt"]
        assert run(argv) == 0
        monkeypatch.setattr("topicross.cli.cmd_patterns", lambda args: 1)
        assert run(argv) == 1
