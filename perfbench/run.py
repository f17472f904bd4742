"""topicross benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload daily_100k --seed 1 --seconds 55 --trace 0

Workloads: daily_100k, sweep_20k, fill_100k (see ``workloads.py`` for what
each does and why it was chosen). The program under test is the package in
``src/topicross`` of the same checkout; it is driven only through
``cli.main`` and the package's public library API.

``--trace 0`` measures end-to-end metrics with tracing off. ``--trace 1``
runs one untraced and one traced unit of the workload and reports per-layer
metrics from the traced one, plus the tracing overhead. Every output that
is timed is checked after the timed part.

Standard output ends with two JSON lines: a ``report`` object (machine
record, speed probe, per-command timings with median, tail percentile and
sample count, error rate, output digests, all layer metrics), then the
result object ``{"correct", "attempted", "failed", "metrics"}``.

``--instance N`` (default 0) selects another solver-visible instance for
checking a claim on inputs not used while the change was written;
``--scale smoke`` shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("daily_100k", "sweep_20k", "fill_100k")
# Import-time samples taken before every daily or sweep operation.
SETUP_SAMPLES = 2

# name -> (unit, how it is measured); every workload reports each of them.
END_TO_END = {
    "ops_per_s": ("1/s", "successful operations per reference second spent in operations"),
    "success_rate": ("ratio", "solver successes per attempted fill or sweep cell"),
    "peak_rss_mb": ("MB", "peak resident set size of the benchmark process"),
    "setup_s": ("s", "median program set-up in reference seconds"),
}
PER_LAYER = [(name, unit) for name, unit, everywhere, _ in layers.METRICS if everywhere] + [
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_est_pct", "%"),
    ("trace.spans", "count"),
]


class ProgramMissing(Exception):
    pass


def load_program():
    """Import topicross from this checkout's ``src`` and nowhere else."""
    init = SRC / "topicross" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"{init} not found: run from a topicross checkout")
    sys.path.insert(0, str(SRC))
    import topicross
    import topicross.cli

    if Path(topicross.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported topicross from {topicross.__file__}, not {init}")
    return topicross


def probe_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    started = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return (time.perf_counter() - started) * 1000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "topicross").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# --------------------------------------------------------------------------


def _rescaled_loop(seconds: float, minimum: int, ref, op) -> list[float]:
    """``closed_loop`` with the host reference timed before the first step
    and after each one. Returns, per step, the factor that turns its measured
    seconds into reference seconds: ``REF_S`` over the mean of the reference
    times on either side of it."""
    refs = [ref.measure()]

    def step(k: int) -> None:
        op(k)
        refs.append(ref.measure())

    wl.closed_loop(seconds, minimum, step)
    return [2 * hostref.REF_S / (a + b) for a, b in zip(refs, refs[1:])]


def _cli_loop(seconds: float, minimum: int, ref, unit):
    """Closed loop over a CLI unit, with ``SETUP_SAMPLES`` import-time samples
    before every operation, so set-up samples spread over the run."""
    setup: list[list[float]] = []
    records: list[dict] = []

    def op(k: int) -> None:
        setup.append([wl.import_seconds(SRC) for _ in range(SETUP_SAMPLES)])
        records.append(unit(k))

    factors = _rescaled_loop(seconds, minimum, ref, op)
    return records, setup, factors


def measure_daily(tc, work, inst, scale, seconds, ref, out: wl.Outcome) -> None:
    occurring = wl.occurring_terms(work)

    def unit(k: int) -> dict:
        return wl.check_daily_op(
            tc, occurring, wl.daily_unit(tc, work, inst, scale, None, k), out, k
        )

    records, setup, factors = _cli_loop(seconds, 3, ref, unit)
    rss = peak_rss_mb()
    out.attempted = len(records)
    wl.finish_daily(records, out)
    timings = {f"{name}_s": wl.timing([r["seconds"][i] for r in records])
               for i, name in enumerate(wl.DAILY_CALLS)}
    timings["op_s"] = wl.timing([sum(r["seconds"]) for r in records])
    out.report["timings"] = timings
    out.report["workload_metrics"] = {
        "ingest_p50_s": timings["ingest_s"]["p50"],
        "generate_p50_s": timings["generate_s"]["p50"],
        "verify_p50_s": timings["verify_s"]["p50"],
    }
    generated = sum(r["codes"][1] == 0 for r in records)
    _end_to_end(out, out.attempted - out.failed, [[t] for t in timings["op_s"]["values"]],
                setup, factors, generated / out.attempted, rss)


def measure_sweep(tc, work, inst, scale, seconds, ref, out: wl.Outcome) -> None:
    records, setup, factors = _cli_loop(
        seconds, 2, ref, lambda k: wl.sweep_unit(tc, work, inst, scale, None, k)
    )
    rss = peak_rss_mb()
    out.attempted = len(records)
    wl.check_sweep(tc, work, inst, scale, records, out)
    timings = {"sweep_s": wl.timing([r["seconds"] for r in records])}
    out.report["timings"] = timings
    counts = out.report.get("sweep", {"successes": 0, "cells": 1})
    rate = counts["successes"] / counts["cells"]
    out.report["workload_metrics"] = {
        "sweep_s": timings["sweep_s"]["p50"], "fill_success_rate": rate,
    }
    _end_to_end(out, out.attempted - out.failed, [[t] for t in timings["sweep_s"]["values"]],
                setup, factors, rate, rss)


def measure_fill(tc, work, inst, scale, seconds, ref, out: wl.Outcome) -> None:
    """Each step builds the index (the set-up) and runs one fill pass."""
    setup: list[list[float]] = []
    passes: list[dict] = []
    built: list = []

    def op(k: int) -> None:
        built.clear()
        gc.collect()
        started = time.perf_counter()
        built.extend(wl.fill_setup(tc, work))
        setup.append([time.perf_counter() - started])
        passes.append(wl.fill_pass(tc, work, inst, scale, *built, None, k))

    factors = _rescaled_loop(seconds, 1, ref, op)
    rss = peak_rss_mb()
    fills = [f for p in passes for f in p["fills"]]
    out.attempted = len(fills)
    wl.check_fill(tc, built[0], passes, out)
    successes = sum(f.get("status") == "success" for f in fills)
    timings = {
        "fill_s": wl.timing([f["seconds"] for f in fills]),
        "pass_s": wl.timing([p["seconds"] for p in passes]),
    }
    out.report["timings"] = timings
    out.report["workload_metrics"] = {
        "fill_p50_ms": timings["fill_s"]["p50"] * 1000,
        "fills_per_s": successes / sum(timings["fill_s"]["values"]),
        "fill_success_rate": successes / len(fills),
    }
    _end_to_end(out, successes, [[f["seconds"] for f in p["fills"]] for p in passes],
                setup, factors, successes / len(fills), rss)


def _end_to_end(out, successes, ops, setup, factors, success_rate, rss) -> None:
    """``ops[k]`` and ``setup[k]`` are the operation and set-up times measured
    in loop step ``k``, and ``factors[k]`` turns both into reference seconds
    (see ``hostref``). ``ops_per_s`` counts successful operations per
    reference second spent in operations, so the benchmark's own bookkeeping
    between them is left out. The report keeps the raw values too."""

    def raw(groups: list[list[float]]) -> list[float]:
        return [t for ts in groups for t in ts]

    def rescaled(groups: list[list[float]]) -> list[float]:
        return [t * f for ts, f in zip(groups, factors) for t in ts]

    values = {
        "ops_per_s": successes / sum(rescaled(ops)),
        "success_rate": success_rate,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(rescaled(setup)),
    }
    out.report["setup_samples_s"] = raw(setup)
    out.report["host_ref"] = {
        "ref_s": hostref.REF_S,
        "factors": factors,
        "raw_ops_per_s": successes / sum(raw(ops)),
        "raw_setup_s": statistics.median(raw(setup)),
    }
    out.report["workload_metrics"].update(peak_rss_mb=rss, setup_s=values["setup_s"])
    out.metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


# --------------------------------------------------------------------------
# traced runs: per-layer metrics
# --------------------------------------------------------------------------


def _unit(workload, tc, work, inst, scale, tracer, request):
    """One unit of work: a daily operation, a sweep, or set-up plus one fill
    pass. Returns its record, its wall time and, for fill_100k, the lexicon."""
    started = time.perf_counter()
    lexicon = None
    if workload == "daily_100k":
        record = wl.daily_unit(tc, work, inst, scale, tracer, request)
    elif workload == "sweep_20k":
        record = wl.sweep_unit(tc, work, inst, scale, tracer, request)
    else:
        lexicon, index = wl.fill_setup(tc, work)
        record = wl.fill_pass(tc, work, inst, scale, lexicon, index, tracer, request)
    return record, time.perf_counter() - started, lexicon


def trace_run(workload, tc, work, inst, scale, out: wl.Outcome) -> None:
    """Untraced, traced, untraced: the overhead is the traced unit's time over
    the mean of the two untraced ones, which cancels warm-up and linear drift."""
    first = _unit(workload, tc, work, inst, scale, None, 0)
    gc.collect()
    tracer = Tracer(layers.HOOKS, layers.UNTRACED)
    tracer.install()
    try:
        traced = _unit(workload, tc, work, inst, scale, tracer, 1)
    finally:
        tracer.uninstall()
    gc.collect()
    last = _unit(workload, tc, work, inst, scale, None, 2)
    untraced_s = (first[1] + last[1]) / 2
    traced_s = traced[1]

    records = [first[0], traced[0], last[0]]
    if workload == "daily_100k":
        out.attempted = len(records)
        wl.check_daily(tc, work, records, out)
    elif workload == "sweep_20k":
        out.attempted = len(records)
        wl.check_sweep(tc, work, inst, scale, records, out)
    else:
        out.attempted = sum(len(p["fills"]) for p in records)
        wl.check_fill(tc, last[2], records, out)

    stats = tracer.aggregate()
    view = layers.View(stats, tracer.counters)
    values = {name: fn(view) for name, _, _, fn in layers.METRICS}
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = len(tracer.span_name)
    span_cost = Tracer.span_cost_s()
    values["trace.overhead_est_pct"] = 100 * span_cost * len(tracer.span_name) / untraced_s
    out.metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    absent = [n for n in layers.EXPECTED[workload] if n not in tracer.installed]
    for name in layers.EXPECTED[workload]:
        if name in tracer.installed and view.calls(name) == 0:
            out.problem(f"span {name} never fired")
    for name, error in tracer.hook_errors.items():
        out.problem(f"count hook on {name} failed: {error}")
    layer_self = {layer: view.layer(layer) for layer in layers.LAYERS + ("bench",)}
    out.report["layers"] = {
        name: {"value": values[name], "unit": unit} for name, unit, _, _ in layers.METRICS
    }
    out.report["trace"] = {
        "absent_spans": absent,
        "span_cost_us": span_cost * 1e6,
        "self_s_by_layer": layer_self,
        "unaccounted_s": traced_s - sum(layer_self.values()),
        "by_request": {
            name: _layer_view(tracer.aggregate(len(wl.DAILY_CALLS) + i), tracer)
            for i, name in enumerate(wl.DAILY_CALLS)
        } if workload == "daily_100k" else {},
        "top_spans_by_self_s": sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:25],
    }


def _layer_view(stats, tracer) -> dict:
    view = layers.View(stats, tracer.counters)
    return {
        "self_s_by_layer": {layer: view.layer(layer) for layer in layers.LAYERS},
        "lexicon.build_index_s": view.total("lexicon.build_index"),
    }


# --------------------------------------------------------------------------


SYNTH = {"daily_100k": wl.synth_daily, "sweep_20k": wl.synth_sweep, "fill_100k": wl.synth_fill}
MEASURE = {"daily_100k": measure_daily, "sweep_20k": measure_sweep, "fill_100k": measure_fill}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance", type=int, default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        tc = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scale = wl.SMOKE if args.scale == "smoke" else wl.FULL
    inst = wl.Instance.number(args.instance)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    out = wl.Outcome()
    probes = [probe_ms()]
    try:
        started = time.perf_counter()
        out.report["inputs"] = SYNTH[args.workload](work, args.seed, inst, scale)
        out.report["inputs"]["synthesis_s"] = time.perf_counter() - started
        gc.collect()
        if args.trace:
            trace_run(args.workload, tc, work, inst, scale, out)
        else:
            MEASURE[args.workload](
                tc, work, inst, scale, args.seconds, hostref.HostReference(), out
            )
    except Exception:
        # A program bug that escapes the per-operation handlers still ends in
        # a result, marked incorrect, rather than in a traceback.
        out.problem(traceback.format_exc(limit=5))
        out.attempted = max(out.attempted, 1)
        out.failed = out.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    probes.append(probe_ms())
    out.report.update(
        workload=args.workload, seed=args.seed, instance=args.instance, scale=args.scale,
        traced=args.trace, machine=machine(), probe_ms={"before": probes[0], "after": probes[1]},
        problems=out.problems,
    )
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    out.report["error_rate"] = error_rate
    if "workload_metrics" in out.report:
        out.report["workload_metrics"]["error_rate"] = error_rate
    print(json.dumps({"report": out.report}, sort_keys=True))
    result = {
        "correct": not out.problems and out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
