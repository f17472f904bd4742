"""Smoke-size self-test of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == {
        (name, unit) for name, (unit, _) in run.END_TO_END.items()
    }
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for entry in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert "unit" not in entry or UNIT.match(entry["unit"]), entry
        assert "why" not in entry or len(entry["why"]) <= 200, entry


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-2])["report"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.END_TO_END if trace == "0" else dict(run.PER_LAYER)
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][n]["value"] > 0 for n in run.END_TO_END)
    else:
        assert report["trace"]["absent_spans"] == []


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "daily_100k", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_seed_changes_presentation_not_the_instance(tmp_path):
    topic, filler = inputs.answer_sets(20, 500, 7)
    texts = []
    for seed in (1, 1, 2):
        path = tmp_path / f"filler-{len(texts)}.txt"
        inputs.write_filler(path, filler, random.Random(seed))
        texts.append(path.read_text("utf-8"))
    assert texts[0] == texts[1] and texts[0] != texts[2]
    run.load_program()
    from topicross.lexicon import normalize

    for text in texts:
        words = [w for w in text.splitlines() if not w.startswith("#")]
        assert sorted(normalize(w) for w in words) == filler


def test_tracer_restores_bindings_and_accounts_self_time():
    tc = run.load_program()
    originals = (tc.solve, tc.harness.solve, tc.lexicon.WordIndex.count_matches)
    tracer = Tracer()
    tracer.install()
    try:
        assert tc.harness.solve is tc.solve is tc.solver.solve is not originals[0]
        lexicon = tc.ingest_lexicon([])
        with tracer.span("bench.op", request=1):
            tc.build_index(lexicon)
    finally:
        tracer.uninstall()
    assert (tc.solve, tc.harness.solve, tc.lexicon.WordIndex.count_matches) == originals
    stats = tracer.aggregate()
    assert stats["lexicon.build_index"]["calls"] == 1
    op = stats["bench.op"]
    assert op["self_s"] <= op["total_s"]
    assert abs(sum(s["self_s"] for s in stats.values()) - op["total_s"]
               - stats["lexicon.ingest_lexicon"]["total_s"]) < 1e-9
    assert tracer.aggregate(request=1)["lexicon.ingest_lexicon"]["calls"] == 0


def test_timing_reports_tail_only_with_ten_samples_beyond():
    assert set(wl.timing([1.0] * 19)) == {"p50", "n", "values"}
    stats = wl.timing([float(i) for i in range(100)])
    assert stats["n"] == 100 and "p90" in stats


def test_rescaling_divides_by_the_reference_times_around_each_step():
    class FakeReference:
        times = iter([0.1, 0.3, 0.2])

        def measure(self) -> float:
            return next(self.times)

    steps: list[int] = []
    factors = run._rescaled_loop(0, 2, FakeReference(), steps.append)
    assert steps == [0, 1]
    assert factors == pytest.approx([hostref.REF_S / 0.2, hostref.REF_S / 0.25])
    assert 0 < hostref.HostReference().measure() < 10
