"""The three benchmark workloads: input synthesis, one unit of work, output checks.

Why these workloads (ROADMAP aim 1, open items 2-4):

* ``daily_100k`` is the README quick start as three CLI calls (ingest,
  generate, verify) on a 100k-word lexicon. It is the cold-start user path:
  lexicon reading, normalization and index building take over 95% of
  generate and verify, the pipeline owns ingest, and the solver expands only
  a few dozen nodes. Lexicon-loading work (open item 4) shows here, and so
  does any extra index-building cost (open item 2).
* ``sweep_20k`` is the ROADMAP baseline sweep (7x7, black counts 9 and 12,
  3 patterns each, T in {10, 50, 90}, node budget 5000, early stop, jobs=1)
  on a 20k-word lexicon: the paper's probability/time study. About 94% of
  its nodes are filler placements that the quota bound rejects as soon as
  they are placed, so node cost here is the cheap, pruned kind. Open item 3
  turns these into real nodes and should show here as a loss.
* ``fill_100k`` is the library loop on a 100k index built once (the build is
  the set-up): 120 seeded 7x7 patterns, 30 each at 9-12 black cells, each
  extracted, solved at T=50, assembled and serialized. The search ends on
  success, nodes are mostly real MRV nodes over 5x larger domains, and a few
  slow fills set the throughput while the median fill stays small. Open
  items 2 and 3 should show here as gains.

All load comes from one process: a closed loop with one client, ``jobs=1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
from tracer import Tracer

TARGET_RATE = 50


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; ``SMOKE`` is for the self-test."""

    topic_100k: int = 450
    filler_100k: int = 99_550
    documents: int = 3000
    topic_20k: int = 90
    filler_20k: int = 20_000
    sweep_patterns_per_count: int = 3
    sweep_black_counts: tuple[int, ...] = (9, 12)
    sweep_t_values: tuple[int, ...] = (10, 50, 90)
    fill_patterns_per_count: int = 30
    fill_black_counts: tuple[int, ...] = (9, 10, 11, 12)
    node_budget: int = 5000


FULL = Scale()
SMOKE = Scale(
    topic_100k=120,
    filler_100k=10_000,
    documents=200,
    topic_20k=60,
    filler_20k=5000,
    sweep_patterns_per_count=1,
    sweep_t_values=(10, 50),
    fill_patterns_per_count=2,
    node_budget=500,
)


@dataclass(frozen=True)
class Instance:
    """What the solver sees: answer sets, patterns and solver seeds.

    Instance 0 is the reference: the acceptance suite's 100k lexicon (seed
    55), and the ROADMAP baseline's 20k lexicon (seed 101) and sweep seed
    (2026). Any other number derives a different instance, for checking a
    claim on inputs not used while the change was written.
    """

    lex_100k: int
    lex_20k: int
    sweep_seed: int
    patterns: int
    generate_seed: int

    @classmethod
    def number(cls, k: int) -> Instance:
        if k == 0:
            return cls(lex_100k=55, lex_20k=101, sweep_seed=2026, patterns=0, generate_seed=7)
        rng = random.Random(f"instance-{k}")
        return cls(*(rng.getrandbits(31) for _ in range(5)))


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)


def timing(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    out: dict = {"p50": statistics.median(values) if values else None, "n": len(values),
                 "values": values}
    n = len(values)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        ordered = sorted(values)
        out[f"p{pct}"] = ordered[min(n - 1, int(n * pct / 100))]
    return out


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int | str, str]:
    """One in-process CLI call; returns (exit code or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = cli.main(argv)
        except Exception:
            code = traceback.format_exc(limit=3)
    return code, out.getvalue()


def import_seconds(src: Path) -> float:
    """Time ``import topicross.cli`` takes in a fresh interpreter: the set-up a
    CLI user pays before any command runs."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "t = time.perf_counter()\n"
        "import topicross.cli\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def closed_loop(seconds: float, minimum: int, op: Callable[[int], None]) -> None:
    """Run ``op(k)`` back to back until ``seconds`` have passed and at least
    ``minimum`` operations completed."""
    started = time.perf_counter()
    k = 0
    while k < minimum or time.perf_counter() - started < seconds:
        op(k)
        k += 1


def _words(text: str) -> set[str]:
    return set(re.findall(r"[^\W\d_]+", text))


# --------------------------------------------------------------------------
# daily_100k
# --------------------------------------------------------------------------


def synth_daily(work: Path, seed: int, inst: Instance, scale: Scale) -> dict:
    rng = random.Random(seed)
    topic, filler = inputs.answer_sets(scale.topic_100k, scale.filler_100k, inst.lex_100k)
    corpus = inputs.write_corpus(
        work / "corpus.jsonl", work / "terms.txt", topic, scale.documents, rng
    )
    inputs.write_filler(work / "filler.txt", filler, rng)
    rows = inputs.random_patterns(7, 7, 11, 1, random.Random(f"daily-{inst.patterns}"))[0]
    inputs.write_patterns(work / "pattern.txt", [("7x7-b11-daily", rows)])
    return {"corpus_documents": corpus.documents, "corpus_bytes": corpus.bytes}


DAILY_CALLS = ("ingest", "generate", "verify")


def daily_argv(work: Path, inst: Instance, scale: Scale) -> list[list[str]]:
    """Arguments of the three CLI calls, in ``DAILY_CALLS`` order."""
    topic, filler = str(work / "topic.jsonl"), str(work / "filler.txt")
    puzzle = str(work / "puzzle.json")
    return [
        ["ingest", "--corpus", str(work / "corpus.jsonl"), "--gazetteer", str(work / "terms.txt"),
         "--out", topic],
        ["generate", "--pattern", str(work / "pattern.txt"), "--lexicon", topic, filler,
         "--target-rate", str(TARGET_RATE), "--node-budget", str(scale.node_budget),
         "--seed", str(inst.generate_seed), "--out", puzzle],
        ["verify", "--puzzle", puzzle, "--lexicon", topic, filler,
         "--target-rate", str(TARGET_RATE)],
    ]


def daily_unit(
    tc, work: Path, inst: Instance, scale: Scale, tracer: Tracer | None, request: int
) -> dict:
    """One operation: the three CLI calls, each timed. Call ``i`` runs as
    request ``request * len(DAILY_CALLS) + i``."""
    for name in ("topic.jsonl", "puzzle.json"):
        (work / name).unlink(missing_ok=True)
    record: dict = {"seconds": [], "codes": [], "stdout": []}
    for i, argv in enumerate(daily_argv(work, inst, scale)):
        with _maybe_span(tracer, "bench.cli_call", request * len(DAILY_CALLS) + i):
            t = time.perf_counter()
            code, out = run_cli(tc.cli, argv)
            record["seconds"].append(time.perf_counter() - t)
        record["codes"].append(code)
        record["stdout"].append(out)
    for name in ("topic.jsonl", "puzzle.json"):
        path = work / name
        record[name] = path.read_text("utf-8") if path.exists() else None
    return record


def occurring_terms(work: Path) -> set[str]:
    """Gazetteer terms that occur as whole words in the corpus."""
    corpus_text = (work / "corpus.jsonl").read_text("utf-8")
    terms = [
        line for line in (work / "terms.txt").read_text("utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    return set(terms) & _words(corpus_text)


def check_daily_op(tc, occurring: set[str], rec: dict, out: Outcome, k: int) -> dict:
    """Check one daily operation. Returns the record with its output texts
    replaced by their digests, so a run's memory does not grow with the
    number of operations it fits in."""
    ok = True
    if rec["codes"] != [0, 0, 0]:
        out.problem(f"op {k}: exit codes {rec['codes']}")
        ok = False
    elif rec["stdout"][2].strip() != "puzzle OK":
        out.problem(f"op {k}: verify printed {rec['stdout'][2]!r}")
        ok = False
    if ok:
        ok = _check_ingest(rec["topic.jsonl"], occurring, out, k)
        try:
            tc.puzzle.deserialize_puzzle(json.loads(rec["puzzle.json"]))
        except (ValueError, KeyError, TypeError) as exc:
            out.problem(f"op {k}: puzzle does not deserialize: {exc!r}")
            ok = False
    if not ok:
        out.failed += 1
    digests = (sha256(rec["topic.jsonl"] or ""), sha256(rec["puzzle.json"] or ""))
    return {"seconds": rec["seconds"], "codes": rec["codes"], "digests": digests}


def finish_daily(records: list[dict], out: Outcome) -> None:
    digests = {r["digests"] for r in records}
    if len(digests) != 1:
        out.problem(f"outputs differ between operations: {len(digests)} digests")
    topic_digest, puzzle_digest = sorted(digests)[0]
    out.report["digests"] = {"topic_jsonl": topic_digest, "puzzle_json": puzzle_digest}


def check_daily(tc, work: Path, records: list[dict], out: Outcome) -> None:
    occurring = occurring_terms(work)
    finish_daily([check_daily_op(tc, occurring, r, out, k) for k, r in enumerate(records)], out)


def _check_ingest(text: str | None, occurring: set[str], out: Outcome, k: int) -> bool:
    if text is None:
        out.problem(f"op {k}: no topic.jsonl")
        return False
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    surfaces = {r["surface"] for r in records}
    if surfaces != occurring:
        out.problem(
            f"op {k}: ingest records {len(surfaces)} != {len(occurring)} occurring terms "
            f"(missing {sorted(occurring - surfaces)[:5]}, "
            f"extra {sorted(surfaces - occurring)[:5]})"
        )
        return False
    for r in records:
        if r.get("source") != "topic" or not r.get("clues"):
            out.problem(f"op {k}: record {r['surface']!r} has no clues or wrong source")
            return False
        for clue in r["clues"]:
            parts = clue.split(inputs.MASK)
            if len(parts) < 2 or any(r["surface"] in part for part in parts):
                out.problem(f"op {k}: clue {clue!r} for {r['surface']!r} leaks or lacks the mask")
                return False
    return True


# --------------------------------------------------------------------------
# sweep_20k
# --------------------------------------------------------------------------


def synth_sweep(work: Path, seed: int, inst: Instance, scale: Scale) -> dict:
    rng = random.Random(seed)
    topic, filler = inputs.answer_sets(scale.topic_20k, scale.filler_20k, inst.lex_20k)
    inputs.write_topic_jsonl(work / "topic.jsonl", topic, rng)
    inputs.write_filler(work / "filler.txt", filler, rng)
    return {}


def sweep_argv(work: Path, inst: Instance, scale: Scale) -> list[str]:
    return [
        "sweep", "--size", "7x7",
        "--black-counts", ",".join(map(str, scale.sweep_black_counts)),
        "--patterns-per-count", str(scale.sweep_patterns_per_count),
        "--t-values", ",".join(map(str, scale.sweep_t_values)),
        "--node-budget", str(scale.node_budget), "--time-limit", "300", "--restart-interval", "10",
        "--seed", str(inst.sweep_seed), "--jobs", "1",
        "--lexicon", str(work / "topic.jsonl"), str(work / "filler.txt"),
        "--out", str(work / "records.csv"), "--summary", str(work / "summary.json"),
        "--svg", str(work / "summary.svg"),
    ]


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def sweep_unit(
    tc, work: Path, inst: Instance, scale: Scale, tracer: Tracer | None, request: int
) -> dict:
    outputs = ("records.csv", "summary.json", "summary.svg")
    for name in outputs:
        (work / name).unlink(missing_ok=True)
    with _maybe_span(tracer, "bench.cli_call", request):
        t = time.perf_counter()
        code, _ = run_cli(tc.cli, sweep_argv(work, inst, scale))
        seconds = time.perf_counter() - t
    return {"seconds": seconds, "code": code, **{name: _read(work / name) for name in outputs}}


def check_sweep(
    tc, work: Path, inst: Instance, scale: Scale, records: list[dict], out: Outcome
) -> None:
    config = tc.harness.SweepConfig(
        height=7, width=7, t_values=scale.sweep_t_values, black_counts=scale.sweep_black_counts,
        patterns_per_count=scale.sweep_patterns_per_count, seed=inst.sweep_seed,
    )
    n_slots = {
        p.pattern_id: len(tc.grid.extract_slots(p).slots)
        for p in tc.harness.default_sweep_patterns(config)
    }
    seen: set[tuple] = set()
    for k, rec in enumerate(records):
        summary = _check_sweep_op(tc, work, rec, n_slots, out, k)
        if summary is None:
            out.failed += 1
        else:
            seen.add(summary)
    if len(seen) > 1:
        out.problem(f"sweep outputs differ between operations: {sorted(seen)}")
    if seen:
        digest, successes, nodes, rows = sorted(seen)[0]
        out.report["digests"] = {"records_csv": digest}
        out.report["sweep"] = {
            "cells": len(n_slots) * len(scale.sweep_t_values),
            "records": rows, "successes": successes, "nodes": nodes,
        }


def _check_sweep_op(tc, work: Path, rec: dict, n_slots: dict, out: Outcome, k: int):
    """(CSV digest, successes, nodes, rows) of a correct sweep, else None."""
    if rec["code"] != 0 or rec["records.csv"] is None:
        out.problem(f"sweep {k}: exit code {rec['code']!r}")
        return None
    (work / "check.csv").write_bytes(rec["records.csv"])
    try:
        rows = tc.harness.read_records_csv(work / "check.csv")
        summary = json.loads(rec["summary.json"] or b"null")
    except ValueError as exc:
        out.problem(f"sweep {k}: unreadable output: {exc!r}")
        return None
    for r in rows:
        need = tc.solver.quota_needed(n_slots[r.pattern_id], r.t)
        if r.success and round(r.achieved_topic_ratio * n_slots[r.pattern_id]) < need:
            out.problem(f"sweep {k}: {r.pattern_id} T={r.t} misses its quota")
            return None
    if not summary:
        out.problem(f"sweep {k}: empty summary")
        return None
    if not (rec["summary.svg"] or b"").lstrip().startswith(b"<svg"):
        out.problem(f"sweep {k}: summary chart is not SVG")
        return None
    return (sha256(rec["records.csv"]), sum(r.success for r in rows),
            sum(r.nodes_expanded for r in rows), len(rows))


# --------------------------------------------------------------------------
# fill_100k
# --------------------------------------------------------------------------


def synth_fill(work: Path, seed: int, inst: Instance, scale: Scale) -> dict:
    rng = random.Random(seed)
    topic, filler = inputs.answer_sets(scale.topic_100k, scale.filler_100k, inst.lex_100k)
    inputs.write_topic_jsonl(work / "topic.jsonl", topic, rng)
    inputs.write_filler(work / "filler.txt", filler, rng)
    prng = random.Random(inst.patterns)
    patterns = []
    for n_black in scale.fill_black_counts:
        for i, rows in enumerate(
            inputs.random_patterns(7, 7, n_black, scale.fill_patterns_per_count, prng)
        ):
            patterns.append((f"7x7-b{n_black}-{i:03d}", rows))
    rng.shuffle(patterns)
    inputs.write_patterns(work / "patterns.txt", patterns)
    return {"patterns": len(patterns)}


def fill_solver_seed(pattern_id: str, inst: Instance) -> int:
    return random.Random(f"{inst.patterns}-{pattern_id}").getrandbits(31)


def fill_setup(tc, work: Path):
    lexicon = tc.ingest_lexicon([work / "topic.jsonl", work / "filler.txt"])
    return lexicon, tc.build_index(lexicon)


def fill_pass(
    tc, work: Path, inst: Instance, scale: Scale, lexicon, index, tracer: Tracer | None,
    request: int,
) -> dict:
    """One pass over the pattern file; every fill is timed on its own."""
    started = time.perf_counter()
    patterns = tc.grid.parse_pattern_file((work / "patterns.txt").read_text("utf-8"))
    fills = []
    for j, pattern in enumerate(patterns):
        seed = fill_solver_seed(pattern.pattern_id, inst)
        with _maybe_span(tracer, "bench.fill", request * 1000 + j):
            t = time.perf_counter()
            try:
                slotset = tc.extract_slots(pattern)
                result = tc.solve(
                    slotset, index,
                    tc.SolverConfig(
                        target_rate=TARGET_RATE, node_budget=scale.node_budget, seed=seed
                    ),
                )
                text = None
                if result.success:
                    puzzle = tc.assemble(pattern, slotset, result, lexicon, clue_seed=seed)
                    text = tc.puzzle_to_json(puzzle)
                fill = {"id": pattern.pattern_id, "status": result.status.value,
                        "nodes": result.nodes_expanded, "json": text}
            except Exception:
                fill = {"id": pattern.pattern_id, "error": traceback.format_exc(limit=3)}
            fill["seconds"] = time.perf_counter() - t
        fills.append(fill)
    return {"seconds": time.perf_counter() - started, "fills": fills}


def check_fill(tc, lexicon, passes: list[dict], out: Outcome) -> None:
    seen: set[tuple] = set()
    for k, p in enumerate(passes):
        ordered = sorted(p["fills"], key=lambda f: f["id"])
        for f in ordered:
            if "error" in f:
                out.problem(f"pass {k}: {f['id']} raised {f['error']}")
                out.failed += 1
                continue
            if f["json"] is None:
                continue
            try:
                puzzle = tc.puzzle.deserialize_puzzle(json.loads(f["json"]))
                ok = tc.verify_puzzle(puzzle, lexicon, TARGET_RATE).ok
            except (ValueError, KeyError, TypeError) as exc:
                out.problem(f"pass {k}: {f['id']} puzzle unreadable: {exc!r}")
                ok = False
            if not ok:
                out.problem(f"pass {k}: {f['id']} fails verify_puzzle")
                out.failed += 1
        digest = sha256("".join(f.get("json") or f.get("status", "error") for f in ordered))
        seen.add((digest, sum(f.get("nodes", 0) for f in ordered),
                  sum(f.get("status") == "success" for f in ordered)))
    if len(seen) != 1:
        out.problem(f"fill passes differ: {sorted(seen)}")
    digest, nodes, successes = sorted(seen)[0]
    out.report["digests"] = {"puzzles_json": digest}
    out.report["fill"] = {"fills": len(passes[0]["fills"]), "successes": successes, "nodes": nodes}


@contextlib.contextmanager
def _maybe_span(tracer: Tracer | None, name: str, request: int):
    if tracer is None:
        yield
    else:
        with tracer.span(name, request):
            yield
