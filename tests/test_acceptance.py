"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances: 0.011 absolute against published (rounded) values, 1e-9
against closed-form values and for every invariant identity.
"""
import json
import random
from pathlib import Path

from fri_lab import (
    Observation,
    Rule,
    Segment,
    TrapezoidSet,
    Verdict,
    alpha_cut,
    builtin_cases,
    direct_normality,
    extract_segment_params,
    full_report,
    kh_characteristic_points,
    khstab_points,
    length_condition,
    load_document,
    ratio_condition,
    save_document,
    sweep_oracle,
)
from fri_lab.benchmark import PRINTED_TOL
from fri_lab.cli import main as cli_main

from genutil import (
    shared_shape_config,
    matched_observation_config,
    uniform_core_config,
    random_flanked_config,
    random_trapezoid,
    random_uniform_config,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

N_TRIALS = 1000
EXACT = 1e-9


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_conclusion_reproduction():
    worst = 0.0
    for case in builtin_cases():
        points = kh_characteristic_points(
            case.rule_lower, case.rule_upper, case.observation
        )
        for computed, printed in zip(points.as_tuple(), case.expected_points):
            worst = max(worst, abs(computed - printed))
    _report(
        1,
        worst <= PRINTED_TOL,
        f"9 cases x 4 points within {PRINTED_TOL} of published conclusions "
        f"(worst deviation {worst:.4g})",
    )


def test_criterion_2_verdict_reproduction():
    mismatches = []
    for case in builtin_cases():
        report = full_report(case.rule_lower, case.rule_upper, case.observation)
        for seg in Segment:
            expected = case.expected_segments[seg].verdict
            if report.lengths[seg].verdict is not expected:
                mismatches.append((case.case_id, seg.name))
        if report.overall is not case.expected_overall:
            mismatches.append((case.case_id, "overall"))
    _report(
        2,
        not mismatches,
        "27 segment verdicts plus overall labels match the published tables"
        if not mismatches
        else f"mismatches: {mismatches}",
    )


def test_criterion_3_diagnostic_reproduction():
    worst = 0.0
    path_errors = []
    for case in builtin_cases():
        for seg in Segment:
            expected = case.expected_segments[seg]
            diag = length_condition(
                extract_segment_params(case.rule_lower, case.rule_upper,
                                       case.observation)[seg]
            )
            worst = max(worst, abs(diag.length1 - expected.length1),
                        abs(diag.length2 - expected.length2))
            if diag.path is not expected.path:
                path_errors.append((case.case_id, seg.name))
    # spot checks the criterion names explicitly
    spots = {
        (7, Segment.LTB): (30.15, 6.80),
        (6, Segment.RTB): (-9.25, 17.28),
        (5, Segment.LTB): (-2.0, 6.5),
        (5, Segment.CORE): (0.0, 6.0),
        (9, Segment.LTB): (27.0, 0.0),
        (9, Segment.CORE): (3.0, 0.0),
        (9, Segment.RTB): (9.0, 0.0),
    }
    for (case_id, seg), (l1, l2) in spots.items():
        case = next(c for c in builtin_cases() if c.case_id == case_id)
        diag = length_condition(
            extract_segment_params(case.rule_lower, case.rule_upper,
                                   case.observation)[seg]
        )
        worst = max(worst, abs(diag.length1 - l1), abs(diag.length2 - l2))
    ok = worst <= PRINTED_TOL and not path_errors
    _report(
        3,
        ok,
        f"all 27 published length pairs within {PRINTED_TOL} with the published "
        f"uniform/general path selection (worst deviation {worst:.4g})"
        if ok
        else f"worst={worst:.4g}, path errors {path_errors}",
    )


def test_criterion_4_ratio_reproduction():
    worst = 0.0
    for case in builtin_cases():
        for seg in Segment:
            expected = case.expected_segments[seg]
            diag = ratio_condition(extract_segment_params(
                case.rule_lower, case.rule_upper, case.observation)[seg])
            worst = max(worst, abs(diag.ratio1 - expected.ratio1),
                        abs(diag.ratio2 - expected.ratio2))
    spots = {
        (6, Segment.CORE): (1.25, 1.0),
        (1, Segment.LTB): (1.20, 1.25),
        (8, Segment.RTB): (1.40, 1.14),
    }
    for (case_id, seg), (r1, r2) in spots.items():
        case = next(c for c in builtin_cases() if c.case_id == case_id)
        diag = ratio_condition(extract_segment_params(
            case.rule_lower, case.rule_upper, case.observation)[seg])
        worst = max(worst, abs(diag.ratio1 - r1), abs(diag.ratio2 - r2))
    _report(
        4,
        worst <= PRINTED_TOL,
        f"all 27 published ratio pairs within {PRINTED_TOL} "
        f"(worst deviation {worst:.4g})",
    )


def test_criterion_5_khstab_degeneracy():
    worst = 0.0
    for case in builtin_cases():
        plain = kh_characteristic_points(
            case.rule_lower, case.rule_upper, case.observation
        )
        stab = khstab_points(case.rule_base(), case.observation)
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(plain.as_tuple(), stab.as_tuple())),
        )
    _report(
        5,
        worst <= EXACT,
        f"two-rule stabilised variant equals plain interpolation on all nine "
        f"bases (worst deviation {worst:.3g})",
    )


def _overall(lower, upper, obs) -> Verdict:
    verdicts = [
        length_condition(p).verdict
        for p in extract_segment_params(lower, upper, obs).values()
    ]
    return Verdict.NORMAL if all(v is Verdict.NORMAL for v in verdicts) else Verdict.PROBLEM


def _ratio_all_normal(lower, upper, obs) -> bool:
    for p in extract_segment_params(lower, upper, obs).values():
        diag = ratio_condition(p)
        if diag.verdict is not Verdict.NORMAL:
            return False
    return True


def _shift_set(s: TrapezoidSet, c: float) -> TrapezoidSet:
    return TrapezoidSet(s.a1 + c, s.a2 + c, s.a3 + c, s.a4 + c)


def _scale_set(s: TrapezoidSet, f: float) -> TrapezoidSet:
    return TrapezoidSet(s.a1 * f, s.a2 * f, s.a3 * f, s.a4 * f)


def _mirror_set(s: TrapezoidSet) -> TrapezoidSet:
    return TrapezoidSet(-s.a4, -s.a3, -s.a2, -s.a1)


def test_criterion_6_property_suites():
    failures = []

    rng = random.Random(60001)
    for _ in range(N_TRIALS):
        lower, upper, obs = shared_shape_config(rng)
        if _overall(lower, upper, obs) is not Verdict.NORMAL:
            failures.append("shared-shape")
            break

    rng = random.Random(60002)
    for _ in range(N_TRIALS):
        lower, upper, obs = random_uniform_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        direct = direct_normality(points)
        for seg, p in extract_segment_params(lower, upper, obs).items():
            verdict = length_condition(p).verdict
            if verdict is not direct[seg]:
                failures.append("uniform-exactness")
                break

    rng = random.Random(60003)
    for _ in range(N_TRIALS):
        lower, upper, obs = matched_observation_config(rng)
        if _overall(lower, upper, obs) is not Verdict.NORMAL:
            failures.append("matched-observation")
            break

    rng = random.Random(60004)
    kept = attempts = 0
    while kept < N_TRIALS and attempts < 50 * N_TRIALS:
        attempts += 1
        lower, upper, obs = uniform_core_config(rng)
        if not _ratio_all_normal(lower, upper, obs):
            continue
        kept += 1
        if _overall(lower, upper, obs) is not Verdict.NORMAL:
            failures.append("uniform-core-ratio")
            break
    if kept < N_TRIALS:
        failures.append("uniform-core-generator-starved")

    rng = random.Random(60005)
    for _ in range(N_TRIALS):
        s = random_trapezoid(rng)
        a1, a2 = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
        outer, inner = alpha_cut(s, a1), alpha_cut(s, a2)
        if not (outer.lo <= inner.lo and inner.hi <= outer.hi):
            failures.append("alpha-nesting")
            break

    rng = random.Random(60006)
    for _ in range(N_TRIALS):
        lower, upper, obs = random_flanked_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        a1 = lower.antecedents[0].points()
        a2 = upper.antecedents[0].points()
        b1 = lower.consequent.points()
        b2 = upper.consequent.points()
        x = obs.sets[0].points()
        for j, y in enumerate(points.as_tuple()):
            d1, d2 = x[j] - a1[j], a2[j] - x[j]
            if abs(b2[j] - y) > 1e-4:
                if abs((y - b1[j]) / (b2[j] - y) - d1 / d2) > EXACT:
                    failures.append("fundamental-ratio")
                    break

    rng = random.Random(60007)
    for _ in range(N_TRIALS):
        lower, upper, obs = random_flanked_config(rng)
        base = kh_characteristic_points(lower, upper, obs).as_tuple()
        c = rng.uniform(-20, 20)
        moved = kh_characteristic_points(
            Rule((_shift_set(lower.antecedents[0], c),), lower.consequent),
            Rule((_shift_set(upper.antecedents[0], c),), upper.consequent),
            Observation((_shift_set(obs.sets[0], c),)),
        ).as_tuple()
        if max(abs(a - b) for a, b in zip(base, moved)) > EXACT:
            failures.append("translation-antecedents")
            break
        moved = kh_characteristic_points(
            Rule((lower.antecedents[0],), _shift_set(lower.consequent, c)),
            Rule((upper.antecedents[0],), _shift_set(upper.consequent, c)),
            obs,
        ).as_tuple()
        if max(abs(a + c - b) for a, b in zip(base, moved)) > EXACT:
            failures.append("translation-consequents")
            break
        f = rng.uniform(0.1, 5.0)
        scaled = kh_characteristic_points(
            Rule((_scale_set(lower.antecedents[0], f),), _scale_set(lower.consequent, f)),
            Rule((_scale_set(upper.antecedents[0], f),), _scale_set(upper.consequent, f)),
            Observation((_scale_set(obs.sets[0], f),)),
        ).as_tuple()
        if max(abs(a * f - b) for a, b in zip(base, scaled)) > EXACT:
            failures.append("scale")
            break
        mirrored = kh_characteristic_points(
            Rule((_mirror_set(upper.antecedents[0]),), _mirror_set(upper.consequent)),
            Rule((_mirror_set(lower.antecedents[0]),), _mirror_set(lower.consequent)),
            Observation((_mirror_set(obs.sets[0]),)),
        ).as_tuple()
        expected = tuple(-v for v in reversed(base))
        if max(abs(a - b) for a, b in zip(expected, mirrored)) > EXACT:
            failures.append("mirror")
            break

    _report(
        6,
        not failures,
        f"shared-shape, uniform-exactness, matched-observation and uniform-core "
        f"ratio scenarios, cut nesting, the proportionality identity and the "
        f"equivariances all hold over {N_TRIALS} seeded trials each"
        if not failures
        else f"failing suites: {sorted(set(failures))}",
    )


def test_criterion_7_oracle_agreement(tmp_path):
    # benchmark: the dense sweep flags abnormality exactly on the cases whose
    # overall verdict is PROBLEM
    sweep_mismatch = []
    for case in builtin_cases():
        report = full_report(case.rule_lower, case.rule_upper, case.observation)
        oracle = sweep_oracle(case.rule_lower, case.rule_upper, case.observation,
                              n_levels=1001)
        if oracle.abnormal != (report.overall is Verdict.PROBLEM):
            sweep_mismatch.append(case.case_id)

    # randomized agreement with counterexample logging
    log_path = tmp_path / "agreement_counterexamples.jsonl"
    uniform_mismatches = []
    conservative_logged = []
    strict_violations = []

    rng = random.Random(70001)
    for trial in range(N_TRIALS):
        lower, upper, obs = random_uniform_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        direct = direct_normality(points)
        for seg, p in extract_segment_params(lower, upper, obs).items():
            verdict = length_condition(p).verdict
            if verdict is not direct[seg]:
                uniform_mismatches.append(
                    {
                        "suite": "uniform",
                        "trial": trial,
                        "segment": seg.name,
                        "length_verdict": verdict.value,
                        "direct_verdict": direct[seg].value,
                        "lower": lower.antecedents[0].points(),
                        "upper": upper.antecedents[0].points(),
                        "b1": lower.consequent.points(),
                        "b2": upper.consequent.points(),
                        "obs": obs.sets[0].points(),
                    }
                )

    # free-shape probe: the general length condition is one-sidedly safe;
    # conservative disagreements are recorded, never silently resolved
    rng = random.Random(70002)
    for trial in range(N_TRIALS):
        lower, upper, obs = random_flanked_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        direct = direct_normality(points)
        for seg, p in extract_segment_params(lower, upper, obs).items():
            verdict = length_condition(p).verdict
            if verdict is direct[seg]:
                continue
            record = {
                "suite": "free-shape",
                "trial": trial,
                "segment": seg.name,
                "length_verdict": verdict.value,
                "direct_verdict": direct[seg].value,
                "lower": lower.antecedents[0].points(),
                "upper": upper.antecedents[0].points(),
                "b1": lower.consequent.points(),
                "b2": upper.consequent.points(),
                "obs": obs.sets[0].points(),
            }
            if verdict is Verdict.NORMAL and direct[seg] is Verdict.PROBLEM:
                strict_violations.append(record)
            else:
                conservative_logged.append(record)

    with open(log_path, "w", encoding="utf-8") as handle:
        for record in uniform_mismatches + strict_violations + conservative_logged:
            handle.write(json.dumps(record) + "\n")

    ok = not sweep_mismatch and not uniform_mismatches and not strict_violations
    _report(
        7,
        ok,
        f"sweep oracle matches all nine verdicts; 0 disagreements on "
        f"{N_TRIALS} uniform trials; free-shape probe logged "
        f"{len(conservative_logged)} conservative-only records to "
        f"{log_path}"
        if ok
        else f"sweep mismatches {sweep_mismatch}, uniform mismatches "
             f"{len(uniform_mismatches)}, unsafe disagreements {len(strict_violations)}",
    )


def test_criterion_8_io_and_cli(tmp_path, capsys):
    problems = []

    for case_id in range(1, 10):
        data = (FIXTURES / f"example_{case_id:02d}.json").read_bytes()
        if save_document(load_document(data)) != data:
            problems.append(f"fixture {case_id} round-trip")

    if cli_main(["bench"]) != 0:
        problems.append("bench exit code")
    if cli_main(["validate", str(FIXTURES / "example_09.json")]) != 1:
        problems.append("expected-problem exit code")
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    if cli_main(["validate", str(broken)]) != 2:
        problems.append("malformed-input exit code")

    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    cli_main(["plot", str(FIXTURES / "example_06.json"), "-o", str(first)])
    cli_main(["plot", str(FIXTURES / "example_06.json"), "-o", str(second)])
    if first.read_bytes() != second.read_bytes():
        problems.append("plot determinism")

    capsys.readouterr()  # swallow CLI output; the criterion line stays visible
    _report(
        8,
        not problems,
        "nine fixture documents round-trip byte-identically; exit codes 0/1/2 "
        "verified; plot output deterministic byte for byte"
        if not problems
        else f"failures: {problems}",
    )
