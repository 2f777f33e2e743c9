"""Performance benchmark of fri-lab: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs, each in a fresh process. The code
measured is the checkout's ``src/`` (``PYTHONPATH=src``; CLI children run as
``sys.executable -m fri_lab``). The last line of the output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. See README.md beside this file for what each number means.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli-fixtures", "sparse-1d", "dense-profile", "allrules-kd")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Child processes per start-up cost in a traced run.
STARTUP_REPEATS = 5
#: Operations run before measuring, to let lazy set-up inside the package finish.
WARMUP_S = 0.5
#: Probing before and after each set-up, in seconds.
SETUP_PROBE_S = 0.01

#: Package functions wrapped in a span when tracing is on.
LAYERS = (
    "rulebase_io.load_document",
    "interpolate.RuleBase",
    "interpolate.select_flanking",
    "interpolate.kh_characteristic_points",
    "interpolate.kh_alpha_profile",
    "interpolate.khstab_points",
    "interpolate.assemble_conclusion",
    "normality.full_report",
    "normality.direct_normality",
    "benchmark.sweep_oracle",
    "benchmark.run_all",
    "plotting.render_interpolation_svg",
)
LAYER_STATS = (("self_ms_p50", "ms"), ("calls", "count"), ("share_pct", "%"))
#: Work per call, computed from the input sizes rather than counted.
WORK_COUNTS = (
    "interpolate.RuleBase.pair_checks_computed",
    "interpolate.select_flanking.rules_scanned_computed",
    "interpolate.khstab_points.distance_evals_computed",
    "interpolate.kh_alpha_profile.profile_points_computed",
)
NULL = NullTracer()


def tail(values: list[float]) -> tuple[float, float]:
    """The nearest-rank p99, or a lower percentile if fewer than ten
    samples lie beyond p99; returns the value and the percentile used."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.99 * n), n - 10))
    return ordered[rank - 1], 100.0 * rank / n


def run_ops(wl, seconds: float, tracer: NullTracer, cal):
    """Closed loop over the workload's queries for ``seconds`` after a warm-up.

    Each operation follows one host-speed probe and its time is scaled by
    the calibration. With a :class:`Tracer`, every other measured operation
    is traced, so the traced and untraced latencies come from the same
    stretch of time. Returns the samples ``(kind, scaled ms, traced, raw
    ms)`` of every measured operation, failed ones included, with the
    attempts and failures.
    """
    alternate = isinstance(tracer, Tracer)
    samples: list[tuple[str, float, bool, float]] = []
    attempted = failed = 0
    begin = perf_counter()
    warm = begin + WARMUP_S
    k = 0
    while (now := perf_counter()) < warm + seconds:
        measured = now >= warm
        query = wl.queries[k % len(wl.queries)]
        traced = alternate and measured and k % 2 == 1
        t = tracer if traced else NULL
        kind = wl.kind(query)
        ok = False
        scale = cal.sample()
        start = perf_counter_ns()
        try:
            t.begin(kind, scale)
            try:
                out = wl.op(t, query)
            finally:
                t.end()
                elapsed_ms = (perf_counter_ns() - start) / 1e6
            ok = wl.check(query, out)
        except Exception:  # an operation that raises is a failed operation
            if failed == 0:
                traceback.print_exc(file=sys.stderr)
        attempted += 1
        if not ok:
            failed += 1
            if failed == 1:
                print(f"first failure: operation {k}, query {query[:2]!r}", file=sys.stderr)
        if measured:
            samples.append((kind, elapsed_ms * scale, traced, elapsed_ms))
        k += 1
    return samples, attempted, failed


def peak_rss_mb(of_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name](ROOT, seed, in_process=trace)
    tracer = Tracer() if trace else NULL
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    for input_name, digest in wl.hashes.items():
        print(f"input {input_name} sha256 {digest}")

    cal = wl.calibration()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        # a set-up is long, so it is scaled by probes both before and after it
        scale = cal.sample_for(SETUP_PROBE_S)
        start = perf_counter()
        tracer.begin("setup", scale)
        wl.setup(tracer)
        tracer.end()
        elapsed = perf_counter() - start
        setup_s.append(elapsed * (scale + cal.sample_for(SETUP_PROBE_S)) / 2)

    samples, attempted, failed = run_ops(wl, seconds, tracer, cal)
    if not samples:
        raise RuntimeError("no operation completed")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [ms for _, ms, on, _ in samples if on]
        plain = [ms for _, ms, on, _ in samples if not on]
        stats = tracer.layer_stats()
        for layer in LAYERS:
            found = stats.get(layer, {})
            for stat, unit in LAYER_STATS:
                metrics[f"{layer}.{stat}"] = (found.get(stat, 0), unit)
        for key, values in workloads.startup_ms(ROOT, STARTUP_REPEATS).items():
            metrics[f"cli.{key}"] = (statistics.median(values), "ms")
        counts = wl.work_counts()
        for count in WORK_COUNTS:
            metrics[count] = (counts.get(count, 0), "count")
        metrics["trace.overhead_op_ms_p50"] = (
            statistics.median(traced) - statistics.median(plain), "ms"
        )
        spans = ROOT / "perfbench" / "out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        print(f"traced ops {len(traced)}, untraced ops {len(plain)}")
    else:
        latencies = [ms for _, ms, _, _ in samples]
        value, pct = tail(latencies)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["op_ms_p50"] = (statistics.median(latencies), "ms")
        metrics["op_ms_p99"] = (value, "ms")
        metrics["ops_per_s"] = (1e3 * len(latencies) / sum(latencies), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb(of_children=name == "cli-fixtures"), "MB")
        raw = statistics.median(ms for _, _, _, ms in samples)
        scale = statistics.median(ms / raw_ms for _, ms, _, raw_ms in samples)
        print(f"samples {len(latencies)}; op_ms_p99 is p{pct:.4g} "
              f"(highest percentile <= 99 with at least 10 samples beyond it)")
        print(f"times are scaled to the reference host speed (median scale {scale:.4g}); "
              f"unscaled op_ms_p50 = {raw:.6g} ms")
        if name == "cli-fixtures":
            for kind in ("validate", "interpolate", "sweep", "bench", "plot"):
                per_kind = [ms for k, ms, _, _ in samples if k == kind]
                if per_kind:
                    print(f"cli_{kind}_ms = {statistics.median(per_kind):.6g} ms "
                          f"(median of {len(per_kind)})")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def check_checkout() -> str | None:
    """Why the checkout cannot be benchmarked, or None if it can."""
    if not (ROOT / "src" / "fri_lab" / "__init__.py").is_file():
        return f"no package source at {ROOT / 'src' / 'fri_lab'}"
    if not (ROOT / "fixtures").is_dir():
        return f"no fixtures directory at {ROOT / 'fixtures'}"
    sys.path.insert(0, str(ROOT / "src"))
    import fri_lab

    if Path(fri_lab.__file__).resolve().parent != ROOT / "src" / "fri_lab":
        return f"imported fri_lab from {fri_lab.__file__}, not from the checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload is None:
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
