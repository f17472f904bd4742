"""Acceptance suite: one test per shipping criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The trend criteria use synthetic vocabularies over a concentrated
alphabet so letter collisions behave like a natural-language word pool.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import statistics
import time
from dataclasses import replace

import pytest

from conftest import UNLIMITED, random_small_instance
from topicross.cli import main as cli_main
from topicross.grid import extract_slots, generate_random_patterns
from topicross.harness import SweepConfig, run_sweep
from topicross.lexicon import Source, build_index, ingest_records
from topicross.pipeline import DEFAULT_MASK, Document, GazetteerExtractor, build_topic_lexicon
from topicross.puzzle import assemble, verify_puzzle
from topicross.solver import (
    SolverConfig,
    Status,
    brute_force_solve,
    quota_needed,
    solve,
)
from topicross.util import derive_seed

# Concentrated, vowel-heavy alphabet: letter-collision rates at crossings
# resemble a natural word pool instead of uniform 26-letter noise.
TREND_ALPHABET = "AEIOUKNRSTHM"
TREND_WEIGHTS = [10, 8, 7, 6, 4, 5, 6, 6, 5, 7, 3, 3]
TOPIC_LENGTHS = (2, 3, 3, 4, 4, 5)
FILLER_LENGTHS = (2, 3, 4, 5, 6, 7)

# sha256 of criterion 6's seeded puzzle JSON and sweep CSV. A change that
# alters either output on purpose updates these and says why in CHANGES.md.
CRITERION_6_PUZZLE_SHA256 = "29060663f4af84c55af3955dd09037d4ba0157f8c7f724911f700e4afcf2027a"
CRITERION_6_SWEEP_SHA256 = "8a83befd407dc8bb4064a42e27a991d27c8586d1e4fbe9e201569893235e6317"
# sha256 of the topic lexicon that ``ingest`` writes for the seeded corpus of
# test_ingest_output_digest; the same rule applies.
INGEST_SHA256 = "f7b0dee0dcb9897ab5cf37271c027fbcdd2e1f7a551493a3c80b89ed5e56373f"


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorate


def synthetic_words(rng: random.Random, count: int, lengths, avoid=frozenset()):
    out: set[str] = set()
    while len(out) < count:
        k = rng.choice(lengths)
        word = "".join(rng.choices(TREND_ALPHABET, weights=TREND_WEIGHTS, k=k))
        if word not in avoid:
            out.add(word)
    return sorted(out)


def synthetic_index(n_topic: int, n_filler: int, seed: int):
    rng = random.Random(seed)
    topic = synthetic_words(rng, n_topic, TOPIC_LENGTHS)
    filler = synthetic_words(rng, n_filler, FILLER_LENGTHS, avoid=set(topic))
    lexicon = ingest_records(
        [(w, Source.TOPIC, ()) for w in topic]
        + [(w, Source.FILLER, ()) for w in filler]
    )
    return lexicon, build_index(lexicon)


# --------------------------------------------------------------------------
# Criteria 1 and 2 share one randomized-instance run.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_run():
    rng = random.Random(20260809)
    started = time.monotonic()
    cases = []
    for _ in range(200):
        pattern, slotset, lexicon, index = random_small_instance(rng)
        for rate in (0, 50, 100):
            oracle = brute_force_solve(slotset, index, rate)
            result = solve(slotset, index, replace(UNLIMITED, target_rate=rate))
            cases.append((pattern, slotset, lexicon, index, rate, oracle, result))
    return cases, time.monotonic() - started


@criterion(1, "solver agrees with the exhaustive oracle on 200 random instances")
def test_criterion_1_oracle_equivalence(oracle_run):
    cases, elapsed = oracle_run
    assert len(cases) == 600
    sat = unsat = 0
    for pattern, slotset, lexicon, index, rate, oracle, result in cases:
        assert result.success == oracle.satisfiable, (
            f"disagreement at T={rate}: solver={result.status}, "
            f"oracle_sat={oracle.satisfiable}"
        )
        if result.success:
            sat += 1
            puzzle = assemble(pattern, slotset, result, lexicon)
            report = verify_puzzle(puzzle, lexicon, rate)
            assert report.ok, report.violations
        else:
            unsat += 1
    # the sample must exercise both outcomes, and stay within budget
    assert sat >= 50 and unsat >= 50
    assert elapsed < 120, f"oracle suite took {elapsed:.0f}s (budget 120s)"


@criterion(2, "quota holds exactly on every success; one-entry mutation breaks it")
def test_criterion_2_quota_correctness(oracle_run):
    cases, _ = oracle_run
    flips = 0
    for pattern, slotset, lexicon, index, rate, oracle, result in cases:
        if not result.success:
            continue
        total = len(slotset.slots)
        topic_count = round(result.achieved_topic_ratio * total)
        assert topic_count >= quota_needed(total, rate)
        assert result.achieved_topic_ratio * 100 >= rate - 1e-9

        if topic_count == 0:
            continue
        # tightest rate for which this fill exactly meets the quota
        tight = next(
            t for t in range(100, -1, -1) if quota_needed(total, t) == topic_count
        )
        puzzle = assemble(pattern, slotset, result, lexicon)
        assert verify_puzzle(puzzle, lexicon, tight).ok
        entries = list(puzzle.entries)
        victim = next(i for i, e in enumerate(entries) if e.source is Source.TOPIC)
        entries[victim] = replace(entries[victim], source=Source.FILLER)
        mutated = replace(puzzle, entries=tuple(entries))
        report = verify_puzzle(mutated, lexicon, tight)
        assert any(v.kind == "quota" for v in report.violations)
        flips += 1
    assert flips >= 50


# --------------------------------------------------------------------------
# Criteria 3 and 4 share one full-scale 7x7 sweep.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trend_sweep():
    _, index = synthetic_index(n_topic=90, n_filler=20_000, seed=101)
    config = SweepConfig(
        height=7,
        width=7,
        t_values=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
        black_counts=(9, 10, 11, 12),
        patterns_per_count=10,
        trials_per_cell=1,
        seed=2026,
        solver=SolverConfig(node_budget=5000, time_limit=300, restart_interval=10),
        early_stop=True,
    )
    started = time.monotonic()
    records = run_sweep(config, index, jobs=2)
    return records, time.monotonic() - started


@criterion(3, "success probability falls and median time rises with the target rate")
def test_criterion_3_target_rate_trend(trend_sweep):
    records, elapsed = trend_sweep
    assert elapsed < 1800, f"sweep took {elapsed:.0f}s (budget 30 min)"

    cells = {(r.pattern_id, r.trial) for r in records}
    rates = sorted({r.t for r in records})
    prob = {}
    median = {}
    for t in rates:
        successes = [r.time_ms for r in records if r.t == t and r.success]
        prob[t] = len(successes) / len(cells)
        if successes:
            median[t] = statistics.median(successes)

    # non-vacuity: the sweep actually generates puzzles at low rates
    assert prob[rates[0]] >= 0.5
    assert len(median) >= 3

    # probability non-increasing within a 10-percentage-point noise band
    for prev, nxt in zip(rates, rates[1:]):
        assert prob[nxt] <= prob[prev] + 0.10 + 1e-9, (
            f"probability rose {prob[prev]:.2f} -> {prob[nxt]:.2f} at T={nxt}"
        )

    # median time over successes non-decreasing within noise: dips bounded by
    # 25% of the previous median plus a tenth of one (virtual) episode
    succ_rates = sorted(median)
    for prev, nxt in zip(succ_rates, succ_rates[1:]):
        floor = 0.75 * median[prev] - 1000
        assert median[nxt] >= floor, (
            f"median fell {median[prev]} -> {median[nxt]} ms at T={nxt}"
        )


@criterion(4, "more black cells do not slow generation at the 50% target")
def test_criterion_4_black_cell_trend(trend_sweep):
    records, _ = trend_sweep
    at50 = [r for r in records if r.t == 50 and r.success]
    times9 = [r.time_ms for r in at50 if r.n_black == 9]
    times12 = [r.time_ms for r in at50 if r.n_black == 12]
    assert times9 and times12, "need successes at T=50 for both black counts"
    assert statistics.median(times12) <= statistics.median(times9)


# --------------------------------------------------------------------------


@criterion(5, "median wall-clock generation under 10 s with a 100k-word index")
def test_criterion_5_throughput(tmp_path_factory):
    _, index = synthetic_index(n_topic=450, n_filler=99_550, seed=55)
    patterns = generate_random_patterns(7, 7, 11, 5, seed=derive_seed(9, "throughput"))
    walls = []
    for i in range(20):
        slotset = extract_slots(patterns[i % len(patterns)])
        config = SolverConfig(
            target_rate=50,
            time_limit=300,
            restart_interval=10,
            seed=derive_seed("throughput-run", i),
        )
        started = time.monotonic()
        result = solve(slotset, index, config)
        walls.append(time.monotonic() - started)
        assert result.success, f"run {i} ended {result.status}"
    assert statistics.median(walls) < 10.0, f"median {statistics.median(walls):.2f}s"


@criterion(6, "seeded CLI runs produce byte-identical puzzle JSON and sweep CSV")
def test_criterion_6_cli_determinism(tmp_path):
    filler = tmp_path / "filler.txt"
    rng = random.Random(17)
    filler.write_text(
        "\n".join(synthetic_words(rng, 6000, FILLER_LENGTHS)) + "\n", encoding="utf-8"
    )
    topic = tmp_path / "topic.jsonl"
    topic_words = synthetic_words(rng, 60, TOPIC_LENGTHS)
    topic.write_text(
        "".join(
            json.dumps({"surface": w, "source": "topic", "clues": [f"clue for {w} [Answer]"]})
            + "\n"
            for w in topic_words
        ),
        encoding="utf-8",
    )

    generate_args = [
        "generate", "--size", "7x7", "--black", "11",
        "--lexicon", str(topic), str(filler),
        "--target-rate", "30", "--node-budget", "20000",
        "--time-limit", "300", "--restart-interval", "10", "--seed", "77",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(generate_args + ["--out", str(a)]) == 0
    assert cli_main(generate_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == CRITERION_6_PUZZLE_SHA256

    sweep_args = [
        "sweep", "--size", "5x5", "--black-counts", "4,6",
        "--patterns-per-count", "2", "--t-values", "10,30,50",
        "--lexicon", str(topic), str(filler),
        "--node-budget", "2000", "--time-limit", "60",
        "--restart-interval", "10", "--seed", "31",
    ]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert cli_main(sweep_args + ["--out", str(c)]) == 0
    assert cli_main(sweep_args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    assert hashlib.sha256(c.read_bytes()).hexdigest() == CRITERION_6_SWEEP_SHA256


# Terms that share a first letter, a term that is a prefix of another
# (Nova/Nova-X), regex metacharacters (U.S., C++) and an accented term.
INGEST_TERMS = [
    "Atlas", "Aurora", "Arc", "Nova", "Nova-X", "U.S.", "Union", "C++", "Café", "Cairo",
]
INGEST_WORDS = (
    "the report said officials in the capital praised plan for next year and "
    "critics called it late while markets rose after talks with partners"
).split()


def test_ingest_output_digest(tmp_path):
    rng = random.Random(25)
    lines = []
    for _ in range(40):
        sentences = []
        for _ in range(rng.randint(1, 4)):
            words = rng.sample(INGEST_WORDS, rng.randint(4, 9))
            for _ in range(rng.choice((0, 1, 1, 2))):
                words.insert(rng.randint(0, len(words)), rng.choice(INGEST_TERMS))
            sentence = " ".join(words)
            sentences.append(sentence[0].upper() + sentence[1:] + rng.choice(".!?"))
        doc_id = f"doc-{rng.randrange(100):02d}"  # repeated and out of order
        text = " ".join(sentences)
        lines.append(json.dumps({"doc_id": doc_id, "text": text}, ensure_ascii=False))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    terms = INGEST_TERMS[:]
    rng.shuffle(terms)
    gazetteer = tmp_path / "terms.txt"
    gazetteer.write_text("# gazetteer\n" + "\n".join(terms) + "\n", encoding="utf-8")

    args = ["ingest", "--corpus", str(corpus), "--gazetteer", str(gazetteer)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    surfaces = {json.loads(line)["surface"] for line in a.read_text("utf-8").splitlines()}
    assert {"Nova", "Nova-X", "U.S.", "Café"} <= surfaces
    assert hashlib.sha256(a.read_bytes()).hexdigest() == INGEST_SHA256


@criterion(7, "pipeline emits exactly the expected keywords with leak-free clues")
def test_criterion_7_pipeline_correctness():
    terms = [
        "Altona", "Brixton", "Caldera", "Dunmore", "Elmira", "Fenwick",
        "Galena", "Harlow", "Iverson", "Juneau", "Kelso", "Loreto",
    ]
    rng = random.Random(7)
    templates = [
        "The {k} initiative finished ahead of its original schedule. "
        "Planners called {k} a model for the next cycle.",
        "Residents near {k} reported steady improvements all year. "
        "A review board credited {k} with most of the gains.",
        "Funding for {k} doubled after the spring audit closed.",
    ]
    corpus = []
    used_terms = set()
    for i in range(50):
        term = terms[i % len(terms)]
        used_terms.add(term)
        text = templates[rng.randrange(len(templates))].format(k=term)
        corpus.append(Document(doc_id=f"doc{i:02d}", text=text))

    result = build_topic_lexicon(corpus, GazetteerExtractor(terms))
    expected = {t.upper() for t in used_terms}
    got_answers = set()
    for surface, source, clues in result.records:
        got_answers.add(surface.upper())
        assert source is Source.TOPIC
        assert clues
        for clue in clues:
            assert surface not in clue
            assert DEFAULT_MASK in clue
    assert got_answers == expected


@criterion(8, "an infeasible quota ends EXHAUSTED in one episode, never succeeds")
def test_criterion_8_restart_semantics():
    rng = random.Random(88)
    filler = synthetic_words(rng, 500, FILLER_LENGTHS)
    lexicon = ingest_records([(w, Source.FILLER, ()) for w in filler])
    index = build_index(lexicon)
    pattern = generate_random_patterns(7, 7, 11, 1, seed=3)[0]
    slotset = extract_slots(pattern)

    wall_config = SolverConfig(
        target_rate=100, time_limit=30, restart_interval=10, seed=4
    )
    result = solve(slotset, index, wall_config)
    assert result.status is Status.EXHAUSTED
    assert result.restarts == 0

    det_config = replace(wall_config, node_budget=1000)
    result = solve(slotset, index, det_config)
    assert result.status is Status.EXHAUSTED
    assert result.restarts == 0
    again = solve(slotset, index, det_config)
    assert again == result
