"""Host-speed reference: a fixed task timed next to every operation.

On the shared 2-vCPU host this benchmark was built on, the speed of the
whole machine drifts by up to ~1.8x for periods from seconds to several
minutes, and a run of a minute cannot average that out. The gated times are
therefore given in reference seconds: every measured time is multiplied by
``REF_S / t_ref``, where ``t_ref`` is the time this task took right next to
it. Over ten 55 s runs, that cut the spread of ``ops_per_s`` (quartile
distance over median) from 0.19 to 0.075 on ``sweep_20k`` and from 0.094 to
0.046 on ``daily_100k``.

The task never changes with ``--seed`` or with the program, so a change to
the program moves the rescaled time by the same share as the raw time. It
mixes the kinds of work the workloads spend their time on: Unicode
decomposition and case folding of word surfaces, building a positional
letter index of sets, and intersecting those sets. It keeps about 2 MB
alive and peaks near 10 MB, under the peak RSS of every workload.
"""

from __future__ import annotations

import random
import statistics
import time
import unicodedata

# Reference seconds: the time one task takes on the reference host. Rescaled
# times read as seconds on a host where the task takes exactly this long.
REF_S = 0.1
# Timings per measurement; ``measure`` returns their median.
REPEATS = 3

_LETTERS = "etaoinshrdlucmfwypvbgkjqxz"
_WEIGHTS = (12, 9, 8, 8, 7, 7, 6, 6, 6, 4, 4, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)


class HostReference:
    """Times the fixed task; ``measure`` returns the median of ``REPEATS``."""

    def __init__(self) -> None:
        rng = random.Random(12345)
        self.words = sorted({
            "".join(rng.choices(_LETTERS, _WEIGHTS, k=rng.randint(3, 7))) for _ in range(20_000)
        })
        self.surfaces = [
            w.capitalize() if i % 3 else w.upper() + "é"
            for i, w in enumerate(self.words[:6000])
        ]
        self.queries = [
            (n, [(p, rng.choice(_LETTERS[:12])) for p in rng.sample(range(n), 2)])
            for n in (rng.randint(3, 7) for _ in range(2500))
        ]
        self.expected = self._task()

    def _task(self) -> int:
        folded = {
            unicodedata.normalize("NFKD", s).encode("ascii", "ignore").decode().lower()
            for s in self.surfaces
        }
        index: dict[tuple[int, int, str], set[int]] = {}
        by_length: dict[int, set[int]] = {}
        for i, w in enumerate(self.words):
            by_length.setdefault(len(w), set()).add(i)
            for p, c in enumerate(w):
                index.setdefault((len(w), p, c), set()).add(i)
        total = len(folded)
        for n, constraints in self.queries:
            matches = by_length[n]
            for p, c in constraints:
                matches = matches & index.get((n, p, c), set())
            total += len(matches)
        return total

    def measure(self) -> float:
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = self._task()
            times.append(time.perf_counter() - started)
            if result != self.expected:
                raise RuntimeError(f"host reference returned {result}, not {self.expected}")
        return statistics.median(times)
