"""Per-layer metrics computed from a trace, and the spans each workload must fire.

Names ending in ``_s`` are inclusive seconds of a span, ``_self_s`` are
seconds not covered by traced child spans. A layer's ``self_s`` is the self
time of all its spans. Counts come from hooks on return values at the same
boundaries. Times are traced times, so they include tracing overhead; the
``trace.*`` metrics state that overhead.

Metrics whose third field is true go into the benchmark's per-layer result
on every workload. A time that is structurally zero on some workload (for
example pipeline time on ``sweep_20k``) is listed only in the run's report,
so that no time metric reads the same constant on every run.
"""

from __future__ import annotations

from typing import Callable

from tracer import LAYERS


def _add(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _solve_hook(counters: dict, args: tuple, kwargs: dict, result) -> None:
    _add(counters, "solver.nodes", result.nodes_expanded)
    _add(counters, "solver.restarts", result.restarts)
    _add(counters, "solver.successes", int(result.success))
    _add(counters, "solver.timeouts", int(result.status.value == "timeout"))


def _write_hook(counters: dict, args: tuple, kwargs: dict, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    _add(counters, "util.bytes_written", len(text.encode("utf-8")))


HOOKS: dict[str, Callable] = {
    "pipeline.extract_keywords": lambda c, a, k, r: _add(c, "pipeline.occurrences", len(r)),
    "pipeline.generate_clue": lambda c, a, k, r: _add(c, "pipeline.clues_kept", 1),
    "lexicon.ingest_records": lambda c, a, k, r: _add(c, "lexicon.entries", len(r)),
    "solver.solve": _solve_hook,
    "grid.extract_slots": lambda c, a, k, r: _add(c, "grid.slots", len(r.slots)),
    "harness.run_sweep": lambda c, a, k, r: _add(c, "harness.records", len(r)),
    "util.atomic_write_text": _write_hook,
}

# Per-node predicates called from inside the solver's own search loop, about
# a million times per sweep. A span on each would cost more than the call and
# double the tracing overhead; their time stays in the solver's self time.
UNTRACED = frozenset({"solver.quota_needed", "solver.quota_feasible"})

COUNT_MATCHES = "lexicon.WordIndex.count_matches"
CANDIDATES = "lexicon.WordIndex.candidates"

_COMMON = [
    "lexicon.read_lexicon_file", "lexicon.normalize", "lexicon.ingest_records",
    "lexicon.build_index", COUNT_MATCHES, CANDIDATES,
    "solver.solve", "solver.choose_next_slot", "grid.extract_slots",
]
EXPECTED: dict[str, list[str]] = {
    "daily_100k": _COMMON + [
        "cli.main", "pipeline.read_corpus_jsonl", "pipeline.extract_keywords",
        "pipeline.generate_clue", "pipeline.build_topic_lexicon", "grid.parse_pattern_file",
        "puzzle.assemble", "puzzle.puzzle_to_json", "puzzle.deserialize_puzzle",
        "puzzle.verify_puzzle", "util.atomic_write_text",
    ],
    "sweep_20k": _COMMON + [
        "cli.main", "harness.run_sweep", "harness.summarize", "harness.write_records_csv",
        "harness.write_summary_svg", "util.atomic_write_text",
    ],
    "fill_100k": _COMMON + ["grid.parse_pattern_file", "puzzle.assemble", "puzzle.puzzle_to_json"],
}


class View:
    """Read access to aggregated span stats and hook counters."""

    def __init__(self, stats: dict[str, dict[str, float]], counters: dict[str, float]):
        self.stats = stats
        self.counters = counters

    def total(self, name: str) -> float:
        return self.stats.get(name, {}).get("total_s", 0.0)

    def self_time(self, name: str) -> float:
        return self.stats.get(name, {}).get("self_s", 0.0)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, {}).get("calls", 0))

    def layer(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s["self_s"] for n, s in self.stats.items() if n.startswith(prefix))

    def count(self, key: str) -> float:
        return self.counters.get(key, 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (name, unit, on every workload, value)
METRICS: list[tuple[str, str, bool, Callable[[View], float]]] = [
    ("pipeline.read_corpus_s", "s", False, lambda v: v.total("pipeline.read_corpus_jsonl")),
    ("pipeline.extract_keywords_s", "s", False, lambda v: v.total("pipeline.extract_keywords")),
    ("pipeline.generate_clue_s", "s", False, lambda v: v.total("pipeline.generate_clue")),
    ("pipeline.build_topic_lexicon_self_s", "s", False,
     lambda v: v.self_time("pipeline.build_topic_lexicon")),
    ("pipeline.occurrences", "count", True, lambda v: v.count("pipeline.occurrences")),
    ("pipeline.clue_yield", "ratio", True,
     lambda v: _ratio(v.count("pipeline.clues_kept"), v.count("pipeline.occurrences"))),
    ("lexicon.read_s", "s", True, lambda v: v.total("lexicon.read_lexicon_file")),
    ("lexicon.normalize_s", "s", True, lambda v: v.total("lexicon.normalize")),
    ("lexicon.ingest_records_self_s", "s", True, lambda v: v.self_time("lexicon.ingest_records")),
    ("lexicon.build_index_s", "s", True, lambda v: v.total("lexicon.build_index")),
    ("lexicon.entries", "count", True, lambda v: v.count("lexicon.entries")),
    ("lexicon.count_matches_calls", "count", True, lambda v: v.calls(COUNT_MATCHES)),
    ("lexicon.count_matches_s", "s", True, lambda v: v.total(COUNT_MATCHES)),
    ("lexicon.candidates_calls", "count", True, lambda v: v.calls(CANDIDATES)),
    ("lexicon.candidates_s", "s", True, lambda v: v.total(CANDIDATES)),
    ("solver.choose_next_slot_s", "s", True, lambda v: v.total("solver.choose_next_slot")),
    ("solver.solves", "count", True, lambda v: v.calls("solver.solve")),
    ("solver.nodes", "count", True, lambda v: v.count("solver.nodes")),
    ("solver.real_nodes", "count", True, lambda v: v.calls("solver.choose_next_slot")),
    ("solver.real_node_ratio", "ratio", True,
     lambda v: _ratio(v.calls("solver.choose_next_slot"), v.count("solver.nodes"))),
    ("solver.nodes_per_s", "1/s", True,
     lambda v: _ratio(v.count("solver.nodes"), v.total("solver.solve"))),
    ("solver.nodes_per_success", "count", True,
     lambda v: _ratio(v.count("solver.nodes"), v.count("solver.successes"))),
    ("solver.restarts", "count", True, lambda v: v.count("solver.restarts")),
    ("solver.timeouts", "count", True, lambda v: v.count("solver.timeouts")),
    ("solver.solve_self_s", "s", True,
     lambda v: v.layer("solver") - v.self_time("solver.choose_next_slot")),
    ("grid.extract_slots_s", "s", True, lambda v: v.total("grid.extract_slots")),
    ("grid.parse_pattern_file_s", "s", False, lambda v: v.total("grid.parse_pattern_file")),
    ("grid.slots", "count", True, lambda v: v.count("grid.slots")),
    ("puzzle.assemble_s", "s", False, lambda v: v.total("puzzle.assemble")),
    ("puzzle.verify_puzzle_s", "s", False, lambda v: v.total("puzzle.verify_puzzle")),
    ("puzzle.puzzle_to_json_s", "s", False, lambda v: v.total("puzzle.puzzle_to_json")),
    ("puzzle.deserialize_puzzle_s", "s", False, lambda v: v.total("puzzle.deserialize_puzzle")),
    ("harness.run_sweep_self_s", "s", False, lambda v: v.self_time("harness.run_sweep")),
    ("harness.summarize_s", "s", False, lambda v: v.total("harness.summarize")),
    ("harness.write_s", "s", False,
     lambda v: v.total("harness.write_records_csv") + v.total("harness.write_summary_svg")),
    ("harness.records", "count", True, lambda v: v.count("harness.records")),
    ("util.atomic_write_text_s", "s", False, lambda v: v.total("util.atomic_write_text")),
    ("util.bytes_written", "count", True, lambda v: v.count("util.bytes_written")),
    ("cli.main_self_s", "s", False, lambda v: v.layer("cli")),
] + [
    (f"{layer}.self_s", "s", layer in ("lexicon", "grid", "solver", "util", "bench"),
     (lambda layer: lambda v: v.layer(layer))(layer))
    for layer in LAYERS + ("bench",)
    if layer != "cli"
]
