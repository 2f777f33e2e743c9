"""The four benchmark workloads: inputs, set-up, one operation, its check.

Each workload is a closed loop driven by ``run.py``: one client, one thread,
and the next operation starts only after the previous one has ended. An
operation calls the package's public functions through a tracer, which
records a span around each call when tracing is on. Checks run outside the
timed region and never use the code under test as their reference.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

from fri_lab import (
    GradedPointList,
    Observation,
    TrapezoidSet,
    Verdict,
    assemble_conclusion,
    builtin_cases,
    compare_reference,
    direct_normality,
    full_report,
    kh_alpha_profile,
    kh_characteristic_points,
    khstab_points,
    load_document,
    render_interpolation_svg,
    run_all,
    select_flanking,
    sweep_oracle,
    to_rulebase,
)
import inputs
from calibrate import loop_calibration, process_calibration

N_LEVELS = 1001
SVG_TAG = "{http://www.w3.org/2000/svg}svg"


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _observation(sets: list[list[float]]) -> Observation:
    return Observation(tuple(TrapezoidSet(*pts) for pts in sets))


def _setup_document(tracer, data: bytes):
    doc = tracer.call("rulebase_io.load_document", load_document, data)
    # to_rulebase is RuleBase(doc.rules) plus a field read
    return tracer.call("interpolate.RuleBase", to_rulebase, doc)


def _points_ok(points, reference) -> bool:
    return all(inputs.close(a, b) for a, b in zip(points.as_tuple(), reference))


def _direct_ok(direct, points) -> bool:
    return [v is Verdict.NORMAL for v in direct.values()] == list(inputs.ordered(points.as_tuple()))


def _shape_ok(shape, points) -> bool:
    return isinstance(shape, TrapezoidSet) == all(inputs.ordered(points.as_tuple()))


class Workload:
    """Defaults: every operation is a ``query`` timed in this process."""

    def kind(self, query) -> str:
        return "query"

    def calibration(self):
        return loop_calibration()


class Chain(Workload):
    """Shared by ``sparse-1d`` and ``allrules-kd``: a generated chain and
    observations placed in random gaps, each with known flanking rules."""

    n_queries = 8192

    def __init__(self, seed: int, n: int, k: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.raw_rules, self.document, self.raw_queries = inputs.chain(rng, n, k, self.n_queries)
        self.hashes = {
            f"{self.name}.json": inputs.sha256(self.document),
            f"{self.name}-queries": inputs.sha256(repr(self.raw_queries).encode()),
        }
        self.queries = [
            (idx, gap, _observation(sets)) for idx, (gap, sets) in enumerate(self.raw_queries)
        ]
        self.n, self.k = n, k
        self._references: dict[tuple[str, int], list[float]] = {}

    def setup(self, tracer) -> None:
        self.rulebase, _ = _setup_document(tracer, self.document)

    def _flanks_ok(self, query, lower, upper) -> bool:
        _, gap, _ = query
        return lower is self.rulebase.rules[gap] and upper is self.rulebase.rules[gap + 1]

    def _kh_reference(self, query) -> list[float]:
        idx, gap, _ = query
        key = ("kh", idx)
        if key not in self._references:
            sets = self.raw_queries[idx][1]
            self._references[key] = inputs.kh_reference(
                self.raw_rules[gap], self.raw_rules[gap + 1], sets
            )
        return self._references[key]


class Sparse1D(Chain):
    name = "sparse-1d"

    def __init__(self, root: Path, seed: int, in_process: bool) -> None:
        super().__init__(seed, n=2000, k=1)

    def op(self, tracer, query):
        _, _, obs = query
        lower, upper = tracer.call("interpolate.select_flanking", select_flanking, self.rulebase, obs)
        points = tracer.call(
            "interpolate.kh_characteristic_points", kh_characteristic_points, lower, upper, obs
        )
        report = tracer.call("normality.full_report", full_report, lower, upper, obs)
        shape = tracer.call("interpolate.assemble_conclusion", assemble_conclusion, points)
        return lower, upper, points, report, shape

    def check(self, query, out) -> bool:
        lower, upper, points, report, shape = out
        reference = self._kh_reference(query)
        return (
            self._flanks_ok(query, lower, upper)
            and _points_ok(points, reference)
            and _points_ok(report.points, reference)
            and _direct_ok(report.direct, report.points)
            and _shape_ok(shape, points)
        )

    def work_counts(self) -> dict[str, int]:
        return {
            "interpolate.RuleBase.pair_checks_computed": self.n * (self.n - 1) * self.k // 2,
            "interpolate.select_flanking.rules_scanned_computed": self.n,
        }


class AllRulesKD(Chain):
    name = "allrules-kd"
    n_queries = 4096

    def __init__(self, root: Path, seed: int, in_process: bool) -> None:
        super().__init__(seed, n=400, k=3)
        self._rule_points = [inputs.by_point(r["antecedents"]) for r in self.raw_rules]
        self._consequents = [r["consequent"] for r in self.raw_rules]

    def op(self, tracer, query):
        _, _, obs = query
        lower, upper = tracer.call("interpolate.select_flanking", select_flanking, self.rulebase, obs)
        stab = tracer.call("interpolate.khstab_points", khstab_points, self.rulebase, obs)
        points = tracer.call(
            "interpolate.kh_characteristic_points", kh_characteristic_points, lower, upper, obs
        )
        direct = tracer.call("normality.direct_normality", direct_normality, points)
        return lower, upper, stab, points, direct

    def check(self, query, out) -> bool:
        lower, upper, stab, points, direct = out
        return (
            self._flanks_ok(query, lower, upper)
            and _points_ok(stab, self._stab_reference(query))
            and _points_ok(points, self._kh_reference(query))
            and _direct_ok(direct, points)
        )

    def _stab_reference(self, query) -> list[float]:
        key = ("khstab", query[0])
        if key not in self._references:
            sets = self.raw_queries[query[0]][1]
            self._references[key] = inputs.khstab_reference(self._rule_points, self._consequents, sets)
        return self._references[key]

    def work_counts(self) -> dict[str, int]:
        return {
            "interpolate.RuleBase.pair_checks_computed": self.n * (self.n - 1) * self.k // 2,
            "interpolate.select_flanking.rules_scanned_computed": self.n,
            "interpolate.khstab_points.distance_evals_computed": 4 * self.n * self.k,
        }


class DenseProfile(Workload):
    """Fresh two-rule configurations; each query resolves the full profile."""

    name = "dense-profile"
    n_configs = 4096

    def __init__(self, root: Path, seed: int, in_process: bool) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.documents, self.references = [], []
        for _ in range(self.n_configs):
            data, rules, obs = inputs.flanked_pair(rng)
            self.documents.append(data)
            self.references.append(inputs.kh_reference(rules[0], rules[1], obs))
        self.hashes = {f"{self.name}.jsonl": inputs.sha256(b"".join(self.documents))}
        inverted = sum(1 for ref in self.references if not all(inputs.ordered(ref)))
        if not 0 < inverted < self.n_configs:
            raise RuntimeError(f"generator gave {inverted} inverted configurations of {self.n_configs}")

    def setup(self, tracer) -> None:
        self.queries = []
        for idx, data in enumerate(self.documents):
            rulebase, obs = _setup_document(tracer, data)
            self.queries.append((idx, rulebase.rules[0], rulebase.rules[1], obs))

    def op(self, tracer, query):
        _, lower, upper, obs = query
        points = tracer.call(
            "interpolate.kh_characteristic_points", kh_characteristic_points, lower, upper, obs
        )
        report = tracer.call("normality.full_report", full_report, lower, upper, obs)
        profile = tracer.call(
            "interpolate.kh_alpha_profile", kh_alpha_profile, lower, upper, obs, N_LEVELS
        )
        oracle = tracer.call("benchmark.sweep_oracle", sweep_oracle, lower, upper, obs, N_LEVELS)
        shape = tracer.call("interpolate.assemble_conclusion", assemble_conclusion, points)
        return points, report, profile, oracle, shape

    def check(self, query, out) -> bool:
        points, report, profile, oracle, shape = out
        y = self.references[query[0]]
        ends = (profile.infs[0], profile.infs[-1], profile.sups[-1], profile.sups[0])
        inverted = any(y[k] > y[k + 1] + 1e-6 for k in range(3))
        return (
            _points_ok(points, y)
            and _points_ok(report.points, y)
            and len(profile) == N_LEVELS
            and all(inputs.close(float(a), b) for a, b in zip(ends, y))
            and (oracle.abnormal or not inverted)
            and _direct_ok(report.direct, report.points)
            and _shape_ok(shape, points)
        )

    def work_counts(self) -> dict[str, int]:
        return {
            "interpolate.RuleBase.pair_checks_computed": 1,
            "interpolate.kh_alpha_profile.profile_points_computed": 2 * N_LEVELS,
        }


class CliFixtures(Workload):
    """Whole CLI processes over the nine shipped fixtures.

    One round is ``validate``, ``interpolate`` and ``interpolate --sweep``
    on every fixture plus one ``bench`` and one ``plot``, in an order shuffled
    by the seed. With ``in_process`` the same call sequence of each command
    is replayed inside this process instead, for the traced run.
    """

    name = "cli-fixtures"
    rounds = 16

    def __init__(self, root: Path, seed: int, in_process: bool) -> None:
        self.root = root
        self.in_process = in_process
        self.env = child_env(root)
        self.svg_path = root / "perfbench" / "out" / "cli-plot.svg"
        self.svg_path.parent.mkdir(parents=True, exist_ok=True)
        self.fixtures = sorted((root / "fixtures").glob("example_0*.json"))
        if len(self.fixtures) != 9:
            raise RuntimeError(f"expected 9 fixtures, found {len(self.fixtures)}")
        rng = random.Random(f"{self.name}:{seed}")
        self.queries = []
        for _ in range(self.rounds):
            one = [(cmd, i) for i in range(9) for cmd in ("validate", "interpolate", "sweep")]
            one += [("bench", None), ("plot", rng.randrange(9))]
            rng.shuffle(one)
            self.queries += one
        self.hashes = {f.name: inputs.sha256(f.read_bytes()) for f in self.fixtures}
        self.hashes["cli-schedule"] = inputs.sha256(repr(self.queries).encode())
        self.setup(None)  # writes the bytecode caches before any timing

    def setup(self, tracer) -> None:
        done = self._child(["-c", "import fri_lab"], module=False)
        if done.returncode != 0:
            raise RuntimeError(f"import fri_lab failed: {done.stderr.strip()}")

    def kind(self, query) -> str:
        return query[0]

    def calibration(self):
        return loop_calibration() if self.in_process else process_calibration(self.root, self.env)

    def _child(self, args: list[str], module: bool = True):
        prefix = [sys.executable, "-m", "fri_lab"] if module else [sys.executable]
        return subprocess.run(
            prefix + args, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60
        )

    def _args(self, query) -> list[str]:
        cmd, i = query
        if cmd == "bench":
            return ["bench"]
        path = str(self.fixtures[i].relative_to(self.root))
        if cmd == "sweep":
            return ["interpolate", path, "--sweep", str(N_LEVELS)]
        if cmd == "plot":
            return ["plot", path, "-o", str(self.svg_path)]
        return [cmd, path]

    def op(self, tracer, query):
        if not self.in_process:
            return self._child(self._args(query))
        cmd, i = query
        if cmd == "bench":
            report = tracer.call("benchmark.run_all", run_all)
            refs = [compare_reference(case) for case in builtin_cases()]
            return report, refs
        data = self.fixtures[i].read_bytes()
        rulebase, obs = _setup_document(tracer, data)
        lower, upper = tracer.call("interpolate.select_flanking", select_flanking, rulebase, obs)
        if cmd == "validate":
            return tracer.call("normality.full_report", full_report, lower, upper, obs)
        points = tracer.call(
            "interpolate.kh_characteristic_points", kh_characteristic_points, lower, upper, obs
        )
        if cmd == "plot":
            y = points.as_tuple()
            graded = GradedPointList(((y[0], 0.0), (y[1], 1.0), (y[2], 1.0), (y[3], 0.0)))
            return tracer.call(
                "plotting.render_interpolation_svg", render_interpolation_svg, lower, upper, obs, graded
            )
        tracer.call("interpolate.assemble_conclusion", assemble_conclusion, points)
        report = tracer.call("normality.full_report", full_report, lower, upper, obs)
        if cmd == "sweep":
            tracer.call("benchmark.sweep_oracle", sweep_oracle, lower, upper, obs, N_LEVELS)
        return report

    def check(self, query, out) -> bool:
        cmd, i = query
        problem = i is not None and i >= 5  # fixtures 6-9 are the abnormal cases
        if self.in_process:
            if cmd == "bench":
                report, refs = out
                return report.n_passed == 9 and all(r.passed is not False for rows in refs for r in rows)
            if cmd == "plot":
                return _svg_ok(out)
            return (out.overall is Verdict.PROBLEM) == problem
        if cmd == "bench":
            return out.returncode == 0 and "9/9 cases passed" in out.stdout
        if cmd == "plot":
            return out.returncode == 0 and _svg_ok(self.svg_path.read_text(encoding="utf-8"))
        if cmd == "sweep" and f"sweep({N_LEVELS}):" not in out.stdout:
            return False
        return out.returncode == (1 if problem else 0) and "overall:" in out.stdout

    def work_counts(self) -> dict[str, int]:
        return {
            "interpolate.RuleBase.pair_checks_computed": 1,
            "interpolate.select_flanking.rules_scanned_computed": 2,
        }


def _svg_ok(text: str) -> bool:
    try:
        return ET.fromstring(text).tag == SVG_TAG
    except ET.ParseError:
        return False


def startup_ms(root: Path, repeats: int) -> dict[str, float]:
    """Child-process costs: bare interpreter, ``import numpy``, ``import fri_lab``.

    The interpreter is timed from outside as the wall time of ``-c pass``;
    each import is timed inside its own fresh child.
    """
    env = child_env(root)
    timed = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    samples: dict[str, list[float]] = {"interpreter_ms": [], "import_numpy_ms": [], "import_fri_lab_ms": []}
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
        samples["interpreter_ms"].append(1e3 * (perf_counter() - start))
        for module, key in (("numpy", "import_numpy_ms"), ("fri_lab", "import_fri_lab_ms")):
            out = subprocess.run(
                [sys.executable, "-c", timed.format(module)],
                cwd=root, env=env, check=True, timeout=60, capture_output=True, text=True,
            )
            samples[key].append(1e3 * float(out.stdout))
    return samples


WORKLOADS = {w.name: w for w in (CliFixtures, Sparse1D, DenseProfile, AllRulesKD)}
