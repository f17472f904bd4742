"""Seeded input synthesis for the topicross benchmark.

Every file the program reads is written here. Two seeds are involved:

* The *instance* fixes what the solver sees: the normalized answer sets, the
  grid patterns and the solver seeds. Instance 0 is the reference instance;
  its 20k lexicon and sweep seed are the ones behind the ROADMAP baseline
  (1,092,265 nodes, 12 of 18 cells), and the same word generator as the
  acceptance suite makes the 100k lexicon.
* The run seed (the benchmark's ``--seed``) fixes how those answers are
  presented: spelling (case and accents), file line order, the corpus prose
  and the clue sentences. Work per run therefore stays the same from seed to
  seed, which keeps run-to-run spread small, while lexicon reading and
  normalization see a different real-looking word list on every seed.

The generator is stdlib-only and independent of the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Same alphabet, weights and lengths as the acceptance suite's trend lexicon:
# letter collisions at crossings then resemble a natural word pool.
ALPHABET = "AEIOUKNRSTHM"
WEIGHTS = [10, 8, 7, 6, 4, 5, 6, 6, 5, 7, 3, 3]
TOPIC_LENGTHS = (2, 3, 3, 4, 4, 5)
FILLER_LENGTHS = (2, 3, 4, 5, 6, 7)

# Lowercase accented forms that the default normalization table folds back
# onto the answer letter.
ACCENTS = {"A": "á", "E": "é", "O": "ö", "U": "ü", "N": "ñ"}

MASK = "[Answer]"

# Sentence starters begin with letters outside ALPHABET and body words are
# lowercase, so a capitalised gazetteer term can only match where it was put.
STARTERS = (
    "Before", "During", "Despite", "Local", "Police", "Critics", "Few",
    "Groups", "Both", "Voters", "Public", "Late", "By", "Doctors", "Court",
    "Funding", "Prices", "Business", "Fans", "Leaders", "Plans", "Gradually",
    "Yesterday", "Viewers", "Council", "Bankers", "Workers", "Dozens",
    "Lawmakers", "Committee", "Visitors", "Forecasters",
)
BODY = (
    "the", "a", "of", "to", "and", "in", "on", "for", "with", "at", "from",
    "said", "after", "over", "new", "city", "report", "officials", "week",
    "year", "government", "people", "market", "team", "plan", "season",
    "school", "company", "state", "water", "energy", "prices", "match",
    "election", "budget", "rain", "storm", "bridge", "hospital", "museum",
    "festival", "council", "court", "police", "river", "road", "train",
    "airport", "village", "coast", "border", "minister", "mayor", "players",
    "coach", "fans", "league", "record", "growth", "workers", "strike",
    "talks", "agreement", "vote", "campaign", "survey", "study", "data",
    "scientists", "doctors", "patients", "students", "teachers", "farmers",
    "crops", "harvest", "weather", "forecast", "traffic", "delays", "tourists",
    "visitors", "exhibition", "concert", "film", "award", "winner", "crowd",
    "morning", "evening", "yesterday", "today", "later", "early", "again",
    "still", "more", "less", "most", "many", "several", "local", "national",
    "regional", "public", "private", "small", "large", "first", "last",
    "second", "third", "major", "minor", "rising", "falling", "strong",
    "weak", "quiet", "busy", "opened", "closed", "announced", "confirmed",
    "denied", "expected", "planned", "reported", "warned", "welcomed",
    "criticised", "approved", "rejected", "visited", "won", "lost", "met",
    "left", "joined", "raised", "cut", "built", "moved", "began", "ended",
)


def synthetic_words(
    rng: random.Random, count: int, lengths: tuple[int, ...], avoid: frozenset[str] = frozenset()
) -> list[str]:
    """``count`` distinct words over ALPHABET, sorted; deterministic per rng state."""
    out: set[str] = set()
    while len(out) < count:
        k = rng.choice(lengths)
        word = "".join(rng.choices(ALPHABET, weights=WEIGHTS, k=k))
        if word not in avoid:
            out.add(word)
    return sorted(out)


def answer_sets(n_topic: int, n_filler: int, seed: int) -> tuple[list[str], list[str]]:
    """Disjoint topic and filler answer lists for one lexicon instance."""
    rng = random.Random(seed)
    topic = synthetic_words(rng, n_topic, TOPIC_LENGTHS)
    filler = synthetic_words(rng, n_filler, FILLER_LENGTHS, avoid=frozenset(topic))
    return topic, filler


def _accented(word: str, rng: random.Random) -> str:
    positions = [i for i, ch in enumerate(word) if ch in ACCENTS]
    low = word.lower()
    if not positions:
        return low
    i = rng.choice(positions)
    return low[:i] + ACCENTS[word[i]] + low[i + 1 :]


def filler_spelling(word: str, rng: random.Random) -> str:
    """A word-list spelling of ``word``: ~60% lowercase, ~5% accented,
    ~25% capitalised, ~10% upper case."""
    r = rng.random()
    if r < 0.05:
        return _accented(word, rng)
    if r < 0.65:
        return word.lower()
    if r < 0.90:
        return word.capitalize()
    return word


def term_spelling(word: str, rng: random.Random) -> str:
    """A proper-noun spelling: capitalised or upper case, ~15% accented.

    Terms always start with an upper-case letter, which keeps them apart from
    the lowercase corpus prose.
    """
    r = rng.random()
    if r < 0.15:
        return _accented(word, rng).capitalize()
    if r < 0.85:
        return word.capitalize()
    return word


def _sentence(rng: random.Random, terms: list[str]) -> str:
    words = [rng.choice(STARTERS)] + [rng.choice(BODY) for _ in range(rng.randint(9, 15))]
    for term in terms:
        words.insert(rng.randint(1, len(words)), term)
    return " ".join(words) + rng.choice((".", ".", ".", "!", "?"))


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_filler(path: Path, filler: list[str], rng: random.Random) -> None:
    """Plain word list in seeded order and spelling, with a comment header."""
    words = [filler_spelling(w, rng) for w in filler]
    rng.shuffle(words)
    write_lines(path, ["# filler word list"] + words)


def write_topic_jsonl(path: Path, topic: list[str], rng: random.Random) -> None:
    """Clued topic lexicon in the pipeline's output format."""
    surfaces = [term_spelling(w, rng) for w in topic]
    order = list(range(len(topic)))
    rng.shuffle(order)
    lines = []
    for i in order:
        clue = _sentence(rng, [MASK])
        lines.append(json.dumps({"surface": surfaces[i], "source": "topic", "clues": [clue]}))
    write_lines(path, lines)


@dataclass(frozen=True)
class Corpus:
    documents: int
    bytes: int


def write_corpus(
    corpus_path: Path, gazetteer_path: Path, topic: list[str], n_docs: int, rng: random.Random
) -> Corpus:
    """News-like JSONL corpus plus the gazetteer of its topic terms.

    Every term occurs at least once, in a sentence long enough to survive
    masking, so the expected ingest record set is exactly the gazetteer.
    """
    terms = [term_spelling(w, rng) for w in topic]
    pending = terms[:]
    rng.shuffle(pending)
    lines = []
    size = 0
    for d in range(n_docs):
        sentences = []
        for _ in range(rng.randint(2, 4)):
            r = rng.random()
            k = 0 if r < 0.35 else 1 if r < 0.85 else 2
            chosen = [pending.pop() if pending else rng.choice(terms) for _ in range(k)]
            sentences.append(_sentence(rng, chosen))
        text = " ".join(sentences)
        line = json.dumps({"doc_id": f"doc-{d:05d}", "text": text}, ensure_ascii=False)
        size += len(line.encode("utf-8")) + 1
        lines.append(line)
    if pending:
        raise ValueError(f"{len(pending)} terms left unplaced; raise n_docs")
    write_lines(corpus_path, lines)
    gazetteer = terms[:]
    rng.shuffle(gazetteer)
    write_lines(gazetteer_path, ["# gazetteer"] + gazetteer)
    return Corpus(documents=n_docs, bytes=size)


def random_patterns(
    height: int, width: int, n_black: int, count: int, rng: random.Random
) -> list[tuple[str, ...]]:
    """Distinct patterns with exactly ``n_black`` black cells in which every
    white cell lies in a horizontal or vertical run of length >= 2."""
    out: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    while len(out) < count:
        blacks = set(rng.sample(range(height * width), n_black))
        rows = tuple(
            "".join("#" if r * width + c in blacks else "." for c in range(width))
            for r in range(height)
        )
        if rows in seen:
            continue
        seen.add(rows)

        def white(r: int, c: int) -> bool:
            return 0 <= r < height and 0 <= c < width and rows[r][c] == "."

        if all(
            white(r, c - 1) or white(r, c + 1) or white(r - 1, c) or white(r + 1, c)
            for r in range(height)
            for c in range(width)
            if rows[r][c] == "."
        ):
            out.append(rows)
    return out


def write_patterns(path: Path, patterns: list[tuple[str, tuple[str, ...]]]) -> None:
    """Pattern file: ``id:`` line plus rows, blocks separated by a blank line."""
    blocks = [f"id: {pid}\n" + "\n".join(rows) for pid, rows in patterns]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
