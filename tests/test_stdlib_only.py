"""The runtime imports nothing outside the standard library, and the CLI's
start-up loads none of the modules that only a sweep needs."""

import os
import subprocess
import sys
from pathlib import Path

import topicross

# multiprocessing's alias of __main__, which concurrent.futures loads
ALLOWED = {"topicross", "__mp_main__"}

# Lists the top-level modules the import adds to those the interpreter
# loaded at startup (site hooks may load non-stdlib modules of their own).
# Then it runs the paths that import modules only when they are taken: a
# two-job sweep of two patterns, its summary and a records-CSV round trip
# through an atomic write in the directory named by argv[1].
PROBE = """
import os, sys
before = set(sys.modules)
import topicross
from topicross import cli, grid, harness, lexicon, pipeline, puzzle, solver

words = [(w, lexicon.Source.TOPIC, ()) for w in ("AB", "CD", "AC", "BD")]
index = lexicon.build_index(lexicon.ingest_records(words))
config = harness.SweepConfig(height=2, width=2, t_values=(0,), black_counts=(0,))
# two patterns: a sweep of one pattern runs in process, whatever --jobs says
patterns = [grid.parse_pattern("..\\n..", pattern_id) for pattern_id in ("p0", "p1")]
records = harness.run_sweep(config, index, patterns, jobs=2)
assert [r.success for r in records] == [True, True]
harness.summarize(records)
path = os.path.join(sys.argv[1], "records.csv")
harness.write_records_csv(records, path)
assert harness.read_records_csv(path) == records
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""

# Loaded only by sweep: the process pool by --jobs N>1, the others by the
# records CSV and the summary; tempfile by nothing.
SWEEP_ONLY = ("concurrent", "multiprocessing", "tempfile", "statistics", "csv")


def _run(*args: str) -> list[str]:
    src = str(Path(topicross.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env=env
    ).stdout.split()


def test_runtime_imports_only_the_standard_library(tmp_path):
    loaded = _run("-c", PROBE, str(tmp_path))
    assert "topicross" in loaded
    assert set(SWEEP_ONLY) - {"tempfile"} <= set(loaded)
    outside = [
        name for name in loaded if name not in sys.stdlib_module_names and name not in ALLOWED
    ]
    assert outside == []


def test_cli_start_up_loads_no_sweep_only_module():
    # -S: no site hooks, which may load any of these before the import does
    loaded = _run("-S", "-c", "import sys, topicross.cli; print(*sys.modules, sep='\\n')")
    assert "topicross.cli" in loaded
    assert [name for name in loaded if name.partition(".")[0] in SWEEP_ONLY] == []
