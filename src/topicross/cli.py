"""Command-line entry point.

Subcommands: ingest, patterns, generate, sweep, verify, render.
Exit codes: 0 success, 1 generation/verification failure, 2 usage or config
error, 3 I/O or data error. Output files are written atomically, so a failed
run never leaves partial output behind.

:func:`main` runs each command with the cyclic garbage collector paused: a
command makes almost no reference cycles, so a collection during it would
free next to nothing and walk every record it holds. What a command builds
dies when its handler returns, before the collector comes back on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, TypeVar

from . import grid, harness, lexicon, pipeline, puzzle, solver
from .util import DataError, atomic_write_text, derive_seed, gc_paused, read_json, read_text

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DATA = 3

T = TypeVar("T")


def _parse_size(value: str) -> tuple[int, int]:
    try:
        v, h = (int(side) for side in value.lower().split("x"))
    except ValueError:
        v = h = 0
    if v < 1 or h < 1:
        raise argparse.ArgumentTypeError(
            f"size must look like 7x7, with both sides positive, got {value!r}"
        )
    return v, h


def _parse_int_list(value: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in value.split(",") if part)
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")
    return values


def _parse_target_rate(value: str) -> int:
    try:
        rate = int(value)
        if 0 <= rate <= 100:
            return rate
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer in [0, 100], got {value!r}")


def _parse_rate_list(value: str) -> tuple[int, ...]:
    """Comma-separated target rates, each checked as by :func:`_parse_target_rate`."""
    rates = tuple(_parse_target_rate(part) for part in value.split(",") if part)
    if not rates:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")
    return rates


def _parse_file(path: str, parse: Callable[[Any], T], read: Callable = read_text) -> T:
    """``parse`` of what ``read`` gives of an input file: its text, or its JSON
    document with :func:`read_json`; a malformed file is a DataError naming it."""
    contents = read(path)
    try:
        return parse(contents)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _load_table(path: str | None) -> lexicon.NormalizationTable:
    if path is None:
        return lexicon.DEFAULT_TABLE
    return _parse_file(path, lexicon.NormalizationTable.from_json, read_json)


def _write_output(out: str | None, text: str) -> None:
    """``text`` written atomically to the ``--out`` path, or to stdout without one."""
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _check_output_dirs(*paths: str | None) -> None:
    """An OSError naming the first output path that is a directory or whose
    directory is missing, so that a run fails before it reads any input, not
    at its last write."""
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise OSError(f"{path}: is a directory")
        if not Path(path).parent.is_dir():
            raise OSError(f"{path}: {str(Path(path).parent)!r} is not an existing directory")


def _solver_config(args: argparse.Namespace, target_rate: int) -> solver.SolverConfig:
    return solver.SolverConfig(
        target_rate=target_rate,
        time_limit=args.time_limit,
        restart_interval=args.restart_interval,
        node_budget=args.node_budget,
        seed=args.seed,
    )


def _checked_pattern(pattern: grid.GridPattern, path: str) -> grid.GridPattern:
    """``pattern`` if it passes validation; otherwise a DataError naming ``path``."""
    violations = grid.validate_pattern(pattern).violations
    if violations:
        where = f"{path}: pattern {pattern.pattern_id!r}" if pattern.pattern_id else path
        raise DataError(f"{where}: " + "; ".join(v.message for v in violations))
    return pattern


def _resolve_pattern(args: argparse.Namespace) -> grid.GridPattern:
    if args.pattern:
        patterns = _parse_file(args.pattern, grid.parse_pattern_file)
        return _checked_pattern(patterns[0], args.pattern)
    if args.size and args.black is not None:
        height, width = args.size
        return grid.generate_random_patterns(
            height, width, args.black, count=1, seed=derive_seed(args.seed, "pattern")
        )[0]
    raise ValueError("either --pattern or both --size and --black are required")


def cmd_ingest(args: argparse.Namespace) -> int:
    # Usage errors (exit 2) come before any file is read.
    pretagged = args.extractor == "pretagged"
    if pretagged == bool(args.gazetteer):
        raise ValueError("use --gazetteer FILE or --extractor pretagged, not both or neither")
    if not args.mask.strip():
        # a blank mask would delete the answer from its clue and leave no gap
        raise ValueError(f"--mask must hold a non-space character, got {args.mask!r}")
    _check_output_dirs(args.out)
    table = _load_table(args.table)
    if pretagged:
        extractor: pipeline.KeywordFinder = pipeline.PreTaggedExtractor()
    else:
        extractor = pipeline.GazetteerExtractor(lexicon.read_word_list(args.gazetteer))
    result = pipeline.build_topic_lexicon(
        pipeline.read_corpus_jsonl(args.corpus), extractor, table, args.mask,
        args.min_clue_chars,
    )
    _write_output(args.out, lexicon.write_lexicon_jsonl(result.records))
    print(
        f"ingest: {result.stats.records} records, {result.stats.clues} clues, "
        f"{result.stats.occurrences} occurrences "
        f"({result.stats.skipped_short_clues} short clues, "
        f"{result.stats.skipped_short_keywords} short keywords, "
        f"{result.stats.skipped_unmappable_keywords} unmappable keywords skipped)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_patterns(args: argparse.Namespace) -> int:
    _check_output_dirs(args.out)
    height, width = args.size
    patterns = grid.generate_random_patterns(
        height, width, args.black, args.count, seed=args.seed
    )
    text = grid.render_pattern_file(patterns)
    _write_output(args.out, text)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    # Usage errors (exit 2) come before any file is read.
    config = _solver_config(args, args.target_rate)
    _check_output_dirs(args.out)
    pattern = _resolve_pattern(args)
    slotset = grid.extract_slots(pattern)
    # The search and the clues read only answers of the grid's slot lengths.
    lengths = {slot.length for slot in slotset.slots}
    lex = lexicon.ingest_lexicon(
        args.lexicon, _load_table(args.table), lambda answer: len(answer) in lengths
    )
    result = solver.solve(slotset, lexicon.build_index(lex), config, maximize=args.max_topic)
    if not result.success:
        print(f"generation failed: {result.status.value}", file=sys.stderr)
        return EXIT_FAILURE
    pzl = puzzle.assemble(pattern, slotset, result, lex, clue_seed=args.seed)
    text = puzzle.puzzle_to_json(pzl, include_solution=not args.solution_free) + "\n"
    _write_output(args.out, text)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    # Usage errors (exit 2) come before any file is read.
    height, width = args.size
    config = harness.SweepConfig(
        height=height,
        width=width,
        t_values=args.t_values,
        black_counts=args.black_counts,
        patterns_per_count=args.patterns_per_count,
        trials_per_cell=args.trials,
        seed=args.seed,
        solver=_solver_config(args, target_rate=args.t_values[0]),
        early_stop=not args.no_early_stop,
    )
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    # a file named by two output options would keep only the last one written
    named: dict[str, str] = {}  # real path -> the first option naming it
    for option, path in (("--out", args.out), ("--summary", args.summary), ("--svg", args.svg)):
        if path is not None:
            first = named.setdefault(os.path.realpath(path), option)
            if first != option:
                raise ValueError(f"{first} and {option} both name {path}")
    _check_output_dirs(args.out, args.summary, args.svg)
    if args.patterns:
        patterns = _parse_file(args.patterns, grid.parse_pattern_file)
        seen: set[str] = set()
        for pattern in patterns:
            _checked_pattern(pattern, args.patterns)
            # records, seeds and summaries are keyed by pattern id
            if pattern.pattern_id in seen:
                raise DataError(
                    f"{args.patterns}: pattern id {pattern.pattern_id!r} is used more than "
                    "once; give each pattern its own 'id:' line"
                )
            seen.add(pattern.pattern_id)
    else:
        # drawn before the lexicon load, so a black count too large for
        # --size is a usage error before any file is read
        patterns = harness.default_sweep_patterns(config)
    index = lexicon.build_index(lexicon.ingest_lexicon(args.lexicon, _load_table(args.table)))
    records = harness.run_sweep(config, index, patterns=patterns, jobs=args.jobs)
    harness.write_records_csv(records, args.out)
    if args.summary or args.svg:
        summary = harness.summarize(records)
        if args.summary:
            atomic_write_text(
                args.summary, json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
        if args.svg:
            harness.write_summary_svg(summary, args.svg)
    print(f"sweep: {len(records)} records -> {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    pzl = _parse_file(args.puzzle, puzzle.deserialize_puzzle, read_json)
    # verify_puzzle reads only the records of the puzzle's answers, so no other is kept.
    answers = {entry.answer for entry in pzl.entries}
    lex = lexicon.ingest_lexicon(args.lexicon, _load_table(args.table), answers.__contains__)
    report = puzzle.verify_puzzle(pzl, lex, args.target_rate)
    if report.ok:
        print("puzzle OK")
        return EXIT_OK
    for violation in report.violations:
        print(f"{violation.kind}: {violation.message}")
    return EXIT_FAILURE


def cmd_render(args: argparse.Namespace) -> int:
    _check_output_dirs(args.out)
    pzl = _parse_file(args.puzzle, puzzle.deserialize_puzzle, read_json)
    text = puzzle.render_text(pzl, include_solution=not args.solution_free)
    _write_output(args.out, text)
    return EXIT_OK


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--time-limit", type=float, default=300.0, metavar="SECS")
    parser.add_argument("--restart-interval", type=float, default=10.0, metavar="SECS")
    parser.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="nodes per episode; enables deterministic mode",
    )
    parser.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: an argparse parser is
    full of reference cycles, which only the cyclic collector could free."""
    parser = argparse.ArgumentParser(
        prog="topicross",
        description="Generate crossword puzzles with a guaranteed share of topic words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="corpus -> clued topic lexicon (JSON Lines)")
    p.add_argument("--corpus", required=True, help="JSONL corpus file")
    p.add_argument("--gazetteer", help="term list for gazetteer extraction")
    p.add_argument(
        "--extractor", choices=["gazetteer", "pretagged"], default="gazetteer"
    )
    p.add_argument("--mask", default=pipeline.DEFAULT_MASK)
    p.add_argument("--min-clue-chars", type=int, default=pipeline.DEFAULT_MIN_CLUE_CHARS)
    p.add_argument("--table", help="normalization table JSON")
    p.add_argument("--out")

    p = sub.add_parser("patterns", help="generate random valid patterns")
    p.add_argument("--size", type=_parse_size, required=True, metavar="VxH")
    p.add_argument("--black", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("generate", help="fill one pattern into a puzzle")
    p.add_argument("--pattern", help="pattern file (first pattern is used)")
    p.add_argument("--size", type=_parse_size, metavar="VxH")
    p.add_argument("--black", type=int)
    p.add_argument("--lexicon", nargs="+", required=True, metavar="FILE")
    p.add_argument("--table", help="normalization table JSON")
    p.add_argument("--target-rate", type=_parse_target_rate, default=50, metavar="T")
    p.add_argument("--max-topic", action="store_true", help="maximize the topic rate")
    p.add_argument("--solution-free", action="store_true")
    p.add_argument("--out")
    _add_solver_flags(p)

    p = sub.add_parser("sweep", help="success-probability / time sweep")
    p.add_argument("--size", type=_parse_size, default=(7, 7), metavar="VxH")
    p.add_argument("--black-counts", type=_parse_int_list, default=(9, 10, 11, 12))
    p.add_argument("--patterns-per-count", type=int, default=10)
    p.add_argument(
        "--t-values",
        type=_parse_rate_list,
        default=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    )
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--lexicon", nargs="+", required=True, metavar="FILE")
    p.add_argument("--table")
    p.add_argument("--patterns", help="pattern file instead of random generation")
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="records CSV path")
    p.add_argument("--summary", help="summary JSON path")
    p.add_argument("--svg", help="summary chart path")
    _add_solver_flags(p)

    p = sub.add_parser("verify", help="re-check a puzzle JSON file")
    p.add_argument("--puzzle", required=True)
    p.add_argument("--lexicon", nargs="+", required=True, metavar="FILE")
    p.add_argument("--table")
    p.add_argument("--target-rate", type=_parse_target_rate, default=0, metavar="T")

    p = sub.add_parser("render", help="puzzle JSON -> text grid and clues")
    p.add_argument("--puzzle", required=True)
    p.add_argument("--solution-free", action="store_true")
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    with gc_paused():
        try:
            # looked up per call, not bound into the cached parser, so that a
            # handler replaced after the first call is the one that runs
            return globals()[f"cmd_{args.command}"](args)
        except (DataError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except grid.ExhaustedAttemptsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
