"""Shared test helpers: synthetic word pools and random small instances."""

from __future__ import annotations

import math
import random

import pytest

from topicross.grid import (
    GridPattern,
    extract_slots,
    generate_random_patterns,
    validate_pattern,
)
from topicross.lexicon import Lexicon, Source, WordIndex, build_index, ingest_records
from topicross.solver import SolverConfig

# No time limit: only an exhausted search space or a fill ends the solve.
UNLIMITED = SolverConfig(target_rate=0, time_limit=math.inf, restart_interval=math.inf)

# Rough natural-language letter weights so random words cross each other at
# plausible rates; uniform letters make grids needlessly hostile.
FULL_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
FULL_WEIGHTS = [
    8, 2, 3, 4, 13, 2, 2, 6, 7, 1, 1, 4, 2, 7, 8, 2, 1, 6, 6, 9, 3, 1, 2, 1, 2, 1,
]


def make_words(
    rng: random.Random,
    count: int,
    alphabet: str = FULL_ALPHABET,
    weights: list[int] | None = None,
    lengths: tuple[int, ...] = (2, 3, 4, 5, 6, 7),
) -> list[str]:
    """Distinct random words, deterministic for a given rng state."""
    if weights is None:
        weights = FULL_WEIGHTS[: len(alphabet)]
    words: set[str] = set()
    while len(words) < count:
        n = rng.choice(lengths)
        words.add("".join(rng.choices(alphabet, weights=weights, k=n)))
    return sorted(words)


def make_lexicon(
    n_topic: int,
    n_filler: int,
    seed: int,
    alphabet: str = FULL_ALPHABET,
    weights: list[int] | None = None,
    lengths: tuple[int, ...] = (2, 3, 4, 5, 6, 7),
) -> tuple[Lexicon, WordIndex]:
    rng = random.Random(seed)
    words = make_words(rng, n_topic + n_filler, alphabet, weights, lengths)
    rng.shuffle(words)
    records = [(w, Source.TOPIC, ()) for w in words[:n_topic]] + [
        (w, Source.FILLER, ()) for w in words[n_topic:]
    ]
    lexicon = ingest_records(records)
    return lexicon, build_index(lexicon)


ORACLE_ALPHABET = "ABCDE"
ORACLE_WEIGHTS = [5, 4, 3, 2, 2]


def random_small_instance(rng: random.Random):
    """A random instance small enough for the exhaustive oracle.

    Grid up to 5x5 with 0-8 black cells; lexicon of at most 60 words over a
    5-letter alphabet with mixed topic/filler tags. Instances whose raw
    per-slot candidate product exceeds the oracle's enumeration budget are
    resampled (the oracle is only contracted for small products).
    """
    while True:
        height = rng.randint(2, 5)
        width = rng.randint(2, 5)
        n_black = rng.randint(0, min(8, height * width - 1))
        try:
            pattern = generate_random_patterns(
                height,
                width,
                n_black,
                count=1,
                seed=rng.randrange(2**32),
                max_attempts=200,
            )[0]
        except Exception:
            continue
        slotset = extract_slots(pattern)
        if not slotset.slots:
            continue

        n_words = rng.randint(8, 60)
        words = make_words(
            rng, n_words, ORACLE_ALPHABET, ORACLE_WEIGHTS, lengths=(2, 3, 4, 5)
        )
        rng.shuffle(words)
        records = [
            (w, Source.TOPIC if rng.random() < 0.4 else Source.FILLER, ())
            for w in words
        ]
        lexicon = ingest_records(records)
        index = build_index(lexicon)

        product = 1
        for slot in slotset.slots:
            product *= len(index.by_length.get(slot.length, ()))
            if product > 1_000_000:
                break
        if product > 1_000_000:
            continue
        return pattern, slotset, lexicon, index


@pytest.fixture(scope="session")
def tiny_lexicon():
    """Four two-letter words with exactly two 2x2 fills, one the transpose of the other."""
    records = [
        ("AB", Source.FILLER, ()),
        ("CD", Source.FILLER, ()),
        ("AC", Source.FILLER, ()),
        ("BD", Source.FILLER, ()),
    ]
    lexicon = ingest_records(records)
    return lexicon, build_index(lexicon)


def assert_pattern_valid(pattern: GridPattern):
    report = validate_pattern(pattern)
    assert report.ok, report.violations
