"""Host-speed calibration of measured times.

On a shared host the speed of the same code drifts by up to 2x within a
minute, because other tenants share the cores and caches. That drift is far
wider than any bound a benchmark could gate on, so every timed interval is
scaled to a reference speed: it is multiplied by ``reference_s / probe_s``,
where ``probe_s`` is the rolling median duration of a fixed probe run just
before the interval, and ``reference_s`` the probe's duration on a quiet
host (a 2-vCPU Intel Xeon VM). A scaled time reads as the time the interval
would have taken on that quiet host. The probes run no package code, so a
change to the package cannot move them.

Two probes match the two kinds of work measured: a pure-Python rule scan for
work inside this process, and an interpreter importing numpy for CLI
processes.
"""
from __future__ import annotations

import random
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path
from time import perf_counter


class _Set:
    def __init__(self, rng: random.Random) -> None:
        self.a1, self.a2, self.a3, self.a4 = sorted(rng.random() for _ in range(4))


class _Rule:
    def __init__(self, rng: random.Random) -> None:
        self.antecedents = (_Set(rng),)
        self.consequent = _Set(rng)


def _precedes(x: _Set, y: _Set) -> bool:
    return x.a1 < y.a1 and x.a2 < y.a2 and x.a3 < y.a3 and x.a4 < y.a4


_RNG = random.Random(0)
_RULES = [_Rule(_RNG) for _ in range(600)]
_OBS = _Set(_RNG)


def _scan() -> int:
    """A rule scan shaped like the package's hot loops (a generator, a call
    and attribute reads per rule) but running none of its code. Of the
    probes tried, it tracked the library workloads' drift best."""
    hits = 0
    for rule in _RULES:
        if all(_precedes(rule.antecedents[d], _OBS) for d in range(1)):
            hits += 1
    return hits


class Calibration:
    """Rolling probe timings and the scale they give."""

    def __init__(self, probe, reference_s: float, window: int) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.recent: deque[float] = deque(maxlen=window)
        self.sample(window)

    def sample(self, count: int = 1) -> float:
        """Run the probe ``count`` times; return the current scale."""
        for _ in range(count):
            start = perf_counter()
            self.probe()
            self.recent.append(perf_counter() - start)
        return self.reference_s / statistics.median(self.recent)

    def sample_for(self, seconds: float) -> float:
        """Run the probe for at least ``seconds``, and at least once."""
        deadline = perf_counter() + seconds
        scale = self.sample()
        while perf_counter() < deadline:
            scale = self.sample()
        return scale


def loop_calibration() -> Calibration:
    return Calibration(_scan, reference_s=0.4e-3, window=21)


def process_calibration(root: Path, env: dict[str, str]) -> Calibration:
    """An interpreter start plus ``import numpy``: of the child probes tried
    (bare start, standard-library imports, numpy), it tracked CLI drift best."""

    def start() -> None:
        cmd = [sys.executable, "-c", "import numpy"]
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=60)

    return Calibration(start, reference_s=0.115, window=5)
