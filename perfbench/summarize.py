"""Summarize saved benchmark runs into one trajectory record.

    python3 perfbench/summarize.py RUN_OUTPUT... > perfbench/results/NAME.json

Each argument is the saved standard output of one ``run.py`` call. Runs are
grouped by workload and by traced/untraced. For every metric the record
holds the values in run order, their median and quartiles, and the spread:
the distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them. Untraced groups also
keep the speed probe, the raw (not rescaled) throughput and set-up time,
the per-command timings and the output digests, and traced groups keep the
layer metrics of the report.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def load(path: Path) -> tuple[dict, dict]:
    lines = path.read_text("utf-8").splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(paths: list[Path]) -> dict:
    groups: dict[tuple[str, int], list[tuple[dict, dict]]] = {}
    for path in paths:
        report, result = load(path)
        groups.setdefault((report["workload"], report["traced"]), []).append((report, result))
    record: dict = {"machine": None, "workloads": {}}
    for (workload, traced), runs in sorted(groups.items()):
        record["machine"] = record["machine"] or runs[0][0]["machine"]
        metrics = {
            name: spread([r["metrics"][name]["value"] for _, r in runs])
            for name in runs[0][1]["metrics"]
        }
        entry = {
            "seeds": [rep["seed"] for rep, _ in runs],
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {
                name: {**m, "unit": runs[0][1]["metrics"][name]["unit"]}
                for name, m in metrics.items()
            },
        }
        if traced:
            entry["layers"] = {
                name: spread([rep["layers"][name]["value"] for rep, _ in runs])
                for name in runs[0][0]["layers"]
            }
            entry["trace"] = [rep["trace"] for rep, _ in runs]
        else:
            entry["probe_ms"] = [rep["probe_ms"] for rep, _ in runs]
            entry["host_ref"] = {
                name: spread([rep["host_ref"][name] for rep, _ in runs])
                for name in ("raw_ops_per_s", "raw_setup_s")
            }
            entry["timings"] = [
                {name: {k: v for k, v in t.items() if k != "values"}
                 for name, t in rep["timings"].items()}
                for rep, _ in runs
            ]
            entry["workload_metrics"] = {
                name: spread([rep["workload_metrics"][name] for rep, _ in runs])
                for name in runs[0][0]["workload_metrics"]
            }
            entry["digests"] = {rep["seed"]: rep.get("digests") for rep, _ in runs}
            entry["counts"] = runs[0][0].get("sweep") or runs[0][0].get("fill")
        record["workloads"].setdefault(workload, {})["traced" if traced else "untraced"] = entry
    return record


if __name__ == "__main__":
    json.dump(summarize([Path(p) for p in sys.argv[1:]]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
