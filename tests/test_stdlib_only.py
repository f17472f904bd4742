"""The runtime imports nothing outside the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import topicross

# multiprocessing's alias of __main__, which concurrent.futures loads
ALLOWED = {"topicross", "__mp_main__"}

# Lists the top-level modules the import adds to those the interpreter
# loaded at startup (site hooks may load non-stdlib modules of their own).
PROBE = """
import sys
before = set(sys.modules)
import topicross
from topicross import cli, harness, pipeline, puzzle, solver
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_the_standard_library():
    src = str(Path(topicross.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert "topicross" in loaded
    outside = [
        name for name in loaded if name not in sys.stdlib_module_names and name not in ALLOWED
    ]
    assert outside == []
