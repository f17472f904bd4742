"""Command-line behavior: exit codes, determinism, atomic outputs."""

import gc
import json

import pytest

from topicross.cli import main


@pytest.fixture()
def workdir(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    docs = []
    for i, name in enumerate(["Atlas", "Nova", "Iris", "Echo", "Onyx", "Opal"]):
        docs.append(
            {
                "doc_id": f"d{i}",
                "text": (
                    f"The {name} rollout beat its schedule this spring. "
                    f"Critics called {name} the strongest product of the year."
                ),
            }
        )
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")

    terms = tmp_path / "terms.txt"
    terms.write_text("Atlas\nNova\nIris\nEcho\nOnyx\nOpal\n", encoding="utf-8")

    filler = tmp_path / "filler.txt"
    import random

    rng = random.Random(9)
    words = set()
    while len(words) < 4000:
        n = rng.randint(2, 5)
        words.add(
            "".join(rng.choices("ABCDEGHILMNOPRST", weights=None, k=n))
        )
    filler.write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    return tmp_path


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
        ],
    )
    def test_malformed_input(self, workdir, capsys, kind, content):
        bad = workdir / "bad"
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
        }[kind]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        if kind == "corpus" and not isinstance(content, bytes):
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
        flags = gc.get_debug()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(argv) == 0
            gc.collect()
            cyclic = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert cyclic == []

    def test_handler_is_looked_up_per_call(self, workdir, monkeypatch):
        argv = ["patterns", "--size", "4x4", "--black", "2", "--out", workdir / "p.txt"]
        assert run(argv) == 0
        monkeypatch.setattr("topicross.cli.cmd_patterns", lambda args: 1)
        assert run(argv) == 1
