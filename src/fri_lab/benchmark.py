"""Golden benchmark: nine fixed interpolation cases with published expectations.

Cases 1-5 produce normal conclusions, cases 6-9 provoke an inversion on at
least one segment. Expected conclusion points, length/ratio diagnostics and
verdicts are frozen from the published tables; two inputs (cases 5 and 9)
are reconstructed because the printed rows are internally inconsistent, and
each case records its provenance. The module also provides a dense cut-level
sweep that serves as an independent abnormality oracle.
"""
from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping

from ._frozen import frozen
from .errors import DomainError, ZeroSpan
from .interpolate import (
    TOL,
    Observation,
    Rule,
    RuleBase,
    _require_flanked,
    kh_alpha_profile,
    kh_characteristic_points,
    khstab_points,
)
from .normality import CaseTag, ConditionPath, NormalityReport, Segment, Verdict, full_report
from .sets import TrapezoidSet

__all__ = [
    "ExpectedSegment",
    "ReferenceRow",
    "BenchmarkCase",
    "CheckResult",
    "CaseReport",
    "BenchmarkReport",
    "SweepOracleResult",
    "ReferenceComparison",
    "PRINTED_TOL",
    "builtin_cases",
    "run_case",
    "run_all",
    "sweep_oracle",
    "compare_reference",
]

#: Tolerance against published values, which are rounded to 2-3 decimals.
PRINTED_TOL = 0.011


@frozen
class ExpectedSegment:
    """Published per-segment diagnostics: lengths, ratios, path and verdict."""

    length1: float
    length2: float
    ratio1: float
    ratio2: float
    path: ConditionPath
    verdict: Verdict


@frozen
class ReferenceRow:
    """One row of the published method-comparison table.

    ``points`` is None for rows printed without numbers (marked by
    ``note``). Rows for methods this package does not implement are kept as
    inert reference data.
    """

    method: str
    label: str
    points: tuple[float, ...] | None
    note: str = ""


@frozen
class BenchmarkCase:
    case_id: int
    name: str
    rule_lower: Rule
    rule_upper: Rule
    observation: Observation
    expected_points: tuple[float, float, float, float]
    exact_points: tuple[float, float, float, float]
    expected_segments: Mapping[Segment, ExpectedSegment]
    expected_overall: Verdict
    expected_tags: frozenset[CaseTag]
    reference_rows: tuple[ReferenceRow, ...]
    provenance_note: str

    def rule_base(self) -> RuleBase:
        return RuleBase((self.rule_lower, self.rule_upper))


@frozen
class CheckResult:
    """One compared quantity: numeric values carry a deviation, labels do not."""

    name: str
    segment: Segment | None
    computed: float | str
    expected: float | str
    deviation: float | None
    tolerance: float | None
    passed: bool


@frozen
class CaseReport:
    """One case's checks, the normality report they read and its reference rows."""

    case_id: int
    name: str
    checks: tuple[CheckResult, ...]
    report: NormalityReport
    references: tuple[ReferenceComparison, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[CheckResult | ReferenceComparison, ...]:
        """The failed checks, then the KH and KHstab reference rows that do not match."""
        return tuple(c for c in self.checks if not c.passed) + tuple(
            r for r in self.references if r.passed is False
        )


@frozen
class BenchmarkReport:
    case_reports: tuple[CaseReport, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.case_reports if r.passed)

    @property
    def n_cases(self) -> int:
        return len(self.case_reports)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.case_reports)


@frozen
class SweepOracleResult:
    """Aggregated dense-sweep diagnostics.

    ``min_gap`` is the smallest ``sup - inf`` across levels (ties resolved
    toward the highest level in ``gap_argmin``); ``abnormal_levels`` lists
    levels with an inverted interval. The monotonicity flags check the
    nesting of the swept intervals: a conclusion is abnormal when a level
    inverts or when nesting fails, which is what :attr:`abnormal` reports.
    """

    min_gap: float
    gap_argmin: float
    inf_monotone: bool
    sup_monotone: bool
    abnormal_levels: tuple[float, ...]

    @property
    def abnormal(self) -> bool:
        return (
            self.min_gap < -TOL
            or not self.inf_monotone
            or not self.sup_monotone
        )


@frozen
class ReferenceComparison:
    """A reference row next to this package's computation, when applicable."""

    method: str
    label: str
    expected_points: tuple[float, ...] | None
    note: str
    computed_points: tuple[float, float, float, float] | None
    deviation: float | None
    passed: bool | None


def _rule(antecedent: Iterable[float], consequent: Iterable[float]) -> Rule:
    return Rule(
        (TrapezoidSet.from_points(tuple(antecedent)),),
        TrapezoidSet.from_points(tuple(consequent)),
    )


def _obs(values: Iterable[float]) -> Observation:
    return Observation((TrapezoidSet.from_points(tuple(values)),))


_GEN = ConditionPath.GENERAL
_UNZ = ConditionPath.UNIFORM_NONZERO
_UZE = ConditionPath.UNIFORM_ZERO
_N = Verdict.NORMAL
_P = Verdict.PROBLEM

_PRINTED_NOTE = "all set values and expectations as printed in the source tables"


def _segments(
    ltb: ExpectedSegment, core: ExpectedSegment, rtb: ExpectedSegment
) -> Mapping[Segment, ExpectedSegment]:
    return {Segment.LTB: ltb, Segment.CORE: core, Segment.RTB: rtb}


def builtin_cases() -> tuple[BenchmarkCase, ...]:
    """The nine embedded benchmark cases, ordered by id."""
    cases = (
        BenchmarkCase(
            case_id=1,
            name="observation at least as long as the antecedents",
            rule_lower=_rule((1, 2, 3), (2, 2, 2)),
            rule_upper=_rule((7, 8, 9), (8, 8, 8)),
            observation=_obs((4, 5, 5, 6)),
            expected_points=(5.0, 5.0, 5.0, 5.0),
            exact_points=(5.0, 5.0, 5.0, 5.0),
            expected_segments=_segments(
                ExpectedSegment(0.0, 0.0, 1.20, 1.25, _UNZ, _N),
                ExpectedSegment(0.0, 0.0, 1.0, 1.0, _UZE, _N),
                ExpectedSegment(0.0, 0.0, 1.20, 1.25, _UNZ, _N),
            ),
            expected_overall=_N,
            expected_tags=frozenset({CaseTag.CASE1}),
            reference_rows=(),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=2,
            name="identical triangular antecedent and consequent shapes",
            rule_lower=_rule((1, 2.5, 2.5, 4), (1, 2.5, 2.5, 4)),
            rule_upper=_rule((6, 7.5, 7.5, 9), (6, 7.5, 7.5, 9)),
            observation=_obs((4.5, 5, 5.5)),
            expected_points=(4.5, 5.0, 5.0, 5.5),
            exact_points=(4.5, 5.0, 5.0, 5.5),
            expected_segments=_segments(
                ExpectedSegment(3.5, 6.0, 1.0, 1.16, _UNZ, _N),
                ExpectedSegment(0.0, 0.0, 1.0, 1.0, _UZE, _N),
                ExpectedSegment(3.5, 6.0, 1.0, 1.16, _UNZ, _N),
            ),
            expected_overall=_N,
            expected_tags=frozenset({CaseTag.CASE2}),
            reference_rows=(),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=3,
            name="identical trapezoidal antecedent and consequent shapes",
            rule_lower=_rule((1, 2, 3, 4), (1, 2, 3, 4)),
            rule_upper=_rule((6, 7, 8, 9), (6, 7, 8, 9)),
            observation=_obs((4, 4.8, 5.2, 6)),
            expected_points=(4.0, 4.8, 5.2, 6.0),
            exact_points=(4.0, 4.8, 5.2, 6.0),
            expected_segments=_segments(
                ExpectedSegment(0.8, 4.8, 1.0, 1.25, _UNZ, _N),
                ExpectedSegment(2.4, 4.4, 1.0, 1.11, _UNZ, _N),
                ExpectedSegment(0.8, 4.8, 1.0, 1.25, _UNZ, _N),
            ),
            expected_overall=_N,
            expected_tags=frozenset({CaseTag.CASE2, CaseTag.COROLLARY4}),
            reference_rows=(),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=4,
            name="wider consequents, singleton observation",
            rule_lower=_rule((1.5, 2, 2, 2.5), (1, 2, 3, 4)),
            rule_upper=_rule((6.5, 7, 7, 7.5), (6, 7, 8, 9)),
            observation=_obs((4.5, 4.5, 4.5, 4.5)),
            expected_points=(4.0, 4.5, 5.5, 6.0),
            exact_points=(4.0, 4.5, 5.5, 6.0),
            expected_segments=_segments(
                ExpectedSegment(2.0, 4.5, 0.88, 1.0, _UZE, _N),
                ExpectedSegment(0.0, 5.0, 0.80, 1.0, _UZE, _N),
                ExpectedSegment(2.0, 4.5, 0.88, 1.0, _UZE, _N),
            ),
            expected_overall=_N,
            expected_tags=frozenset({CaseTag.CASE3}),
            reference_rows=(),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=5,
            name="singleton antecedents, wider consequents",
            rule_lower=_rule((2, 2, 2), (1, 2, 3, 4)),
            rule_upper=_rule((8, 8, 8), (6, 7, 8, 9)),
            observation=_obs((4.5, 5, 5, 5.5)),
            expected_points=(3.08, 4.5, 5.5, 6.916),
            exact_points=(18.5 / 6.0, 4.5, 5.5, 41.5 / 6.0),
            expected_segments=_segments(
                ExpectedSegment(-2.0, 6.5, 0.66, 1.09, _UNZ, _N),
                ExpectedSegment(0.0, 6.0, 0.66, 1.0, _UZE, _N),
                ExpectedSegment(-2.0, 6.5, 0.66, 1.09, _UNZ, _N),
            ),
            expected_overall=_N,
            expected_tags=frozenset({CaseTag.CASE1, CaseTag.CASE3}),
            reference_rows=(),
            provenance_note=(
                "observation right support reconstructed: the printed "
                "(4.5, 5, 5, 5) cannot yield the printed conclusion point "
                "6.916; the value 5.5 reproduces it exactly together with "
                "every printed diagnostic (-2, 6.5, 0, 6, -2, 6.5)"
            ),
        ),
        BenchmarkCase(
            case_id=6,
            name="core-length inversion",
            rule_lower=_rule((1, 2, 3, 4), (1.5, 2.5, 2.5, 3.8)),
            rule_upper=_rule((6, 7, 8, 9), (6.5, 7.5, 7.5, 9)),
            observation=_obs((4.2, 5.2, 5.2, 6.7)),
            expected_points=(4.7, 5.7, 4.7, 6.6),
            exact_points=(4.7, 5.7, 4.7, 6.608),
            expected_segments=_segments(
                ExpectedSegment(0.0, 5.0, 1.0, 1.33, _UNZ, _N),
                ExpectedSegment(5.0, 0.0, 1.25, 1.0, _UZE, _P),
                ExpectedSegment(-9.25, 17.28, 0.92, 1.6, _GEN, _N),
            ),
            expected_overall=_P,
            expected_tags=frozenset(),
            reference_rows=(
                ReferenceRow("KH", "Abnormality", (4.7, 5.7, 4.7, 6.6)),
                ReferenceRow("KHstab", "Abnormality", (4.7, 5.7, 4.7, 6.6)),
                ReferenceRow("MACI", "Normal", (4.2, 5.2, 5.2, 6.6)),
                ReferenceRow("VKK", "Normal", (4.6, 5.2, 5.2, 6.66)),
                ReferenceRow("CRF", "Normal", (3.9, 5.25, 5.25, 6.75)),
            ),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=7,
            name="left-boundary inversion",
            rule_lower=_rule((1, 2.5, 2.5, 4), (1, 2, 3, 4.5)),
            rule_upper=_rule((5.5, 7.5, 7.5, 9), (6.5, 7, 8, 9.5)),
            observation=_obs((4.5, 4.9, 5.1, 5.5)),
            expected_points=(5.27, 4.4, 5.6, 6.0),
            exact_points=(23.75 / 4.5, 4.4, 5.6, 6.0),
            expected_segments=_segments(
                ExpectedSegment(30.15, 6.80, 1.5, 1.15, _GEN, _P),
                ExpectedSegment(-0.8, 5.2, 0.8, 1.04, _UNZ, _N),
                ExpectedSegment(3.85, 5.85, 1.0, 1.12, _UNZ, _N),
            ),
            expected_overall=_P,
            expected_tags=frozenset(),
            reference_rows=(
                ReferenceRow("KH", "Abnormality", (5.27, 4.4, 5.6, 6.0)),
                ReferenceRow("KHstab", "Abnormality", (5.27, 4.4, 5.6, 6.0)),
                ReferenceRow("MACI", "Normal", (3.8, 4.5, 5.5, 7.0)),
                ReferenceRow("VKK", "Abnormality", None, note="out range"),
                ReferenceRow("CRF", "Normal", (4.5, 4.9, 5.0, 5.1)),
            ),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=8,
            name="right-boundary inversion",
            rule_lower=_rule((1.5, 2.5, 2.5, 4.3), (1, 2, 3, 3.5)),
            rule_upper=_rule((6.5, 7.5, 7.5, 8.8), (6, 7, 8, 8.9)),
            observation=_obs((4.5, 4.9, 5.1, 5.5)),
            expected_points=(4.0, 4.4, 5.6, 4.94),
            exact_points=(4.0, 4.4, 5.6, 4.94),
            expected_segments=_segments(
                ExpectedSegment(2.4, 4.4, 1.0, 1.11, _UNZ, _N),
                ExpectedSegment(-0.8, 5.2, 0.80, 1.04, _UNZ, _N),
                ExpectedSegment(25.65, 6.76, 1.40, 1.14, _GEN, _P),
            ),
            expected_overall=_P,
            expected_tags=frozenset(),
            reference_rows=(),
            provenance_note=_PRINTED_NOTE,
        ),
        BenchmarkCase(
            case_id=9,
            name="inversion on every segment",
            rule_lower=_rule((2, 2, 2.5, 3), (2, 2, 2, 2)),
            rule_upper=_rule((6, 7.5, 8, 8), (8, 8, 8, 8)),
            observation=_obs((5, 5, 5, 5)),
            expected_points=(6.5, 5.27, 4.72, 4.4),
            exact_points=(6.5, 29.0 / 5.5, 26.0 / 5.5, 4.4),
            expected_segments=_segments(
                ExpectedSegment(27.0, 0.0, 1.5, 1.0, _GEN, _P),
                ExpectedSegment(3.0, 0.0, 1.2, 1.0, _UZE, _P),
                ExpectedSegment(9.0, 0.0, 1.2, 1.0, _GEN, _P),
            ),
            expected_overall=_P,
            expected_tags=frozenset(),
            reference_rows=(
                ReferenceRow("KH", "Abnormality", (6.5, 5.27, 4.72, 4.4)),
                ReferenceRow("KHstab", "Abnormality", (6.5, 5.27, 4.72, 4.4)),
                ReferenceRow("MACI", "Normal", (5.0, 5.0, 5.0)),
                ReferenceRow("VKK", "Abnormality", (5.3, 5.5, 5.3)),
                ReferenceRow("CRF", "Normal", (5.0, 5.0, 5.0)),
            ),
            provenance_note=(
                "antecedents reconstructed: the printed rows are garbled; "
                "(2, 2, 2.5, 3) and (6, 7.5, 8, 8) reproduce all four "
                "printed conclusion points and all six printed diagnostics "
                "(27, 0, 3, 0, 9, 0)"
            ),
        ),
    )
    return cases


def _num_check(
    name: str,
    segment: Segment | None,
    computed: float,
    expected: float,
    tolerance: float,
) -> CheckResult:
    dev = abs(computed - expected)
    return CheckResult(name, segment, computed, expected, dev, tolerance, dev <= tolerance)


def _label_check(
    name: str, segment: Segment | None, computed: str, expected: str
) -> CheckResult:
    return CheckResult(name, segment, computed, expected, None, None, computed == expected)


def run_case(case: BenchmarkCase) -> CaseReport:
    """Compare one case's computed results against its stored expectations
    and its reference rows."""
    report = full_report(case.rule_lower, case.rule_upper, case.observation)
    points = report.points
    checks: list[CheckResult] = []

    for j, (computed, printed) in enumerate(zip(points.as_tuple(), case.expected_points)):
        checks.append(_num_check(f"point_y{j + 1}", None, computed, printed, PRINTED_TOL))
    exact_dev = max(
        abs(c - e) for c, e in zip(points.as_tuple(), case.exact_points)
    )
    checks.append(
        CheckResult(
            "points_exact", None, exact_dev, 0.0, exact_dev, TOL, exact_dev <= TOL,
        )
    )

    for seg in Segment:
        expected = case.expected_segments[seg]
        lend = report.lengths[seg]
        rato = report.ratios[seg]
        checks.append(_num_check("length1", seg, lend.length1, expected.length1, PRINTED_TOL))
        checks.append(_num_check("length2", seg, lend.length2, expected.length2, PRINTED_TOL))
        checks.append(_label_check("path", seg, lend.path.value, expected.path.value))
        checks.append(
            _label_check("length_verdict", seg, lend.verdict.value, expected.verdict.value)
        )
        if rato.ratio1 is not None:
            checks.append(_num_check("ratio1", seg, rato.ratio1, expected.ratio1, PRINTED_TOL))
            checks.append(_num_check("ratio2", seg, rato.ratio2, expected.ratio2, PRINTED_TOL))
        checks.append(
            _label_check(
                "direct_verdict", seg, report.direct[seg].value, expected.verdict.value
            )
        )

    checks.append(_label_check("overall", None, report.overall.value, case.expected_overall.value))
    computed_tags = ",".join(sorted(t.value for t in report.tags))
    expected_tags = ",".join(sorted(t.value for t in case.expected_tags))
    checks.append(_label_check("case_tags", None, computed_tags, expected_tags))
    return CaseReport(case.case_id, case.name, tuple(checks), report, compare_reference(case))


def run_all() -> BenchmarkReport:
    """Run every embedded case, ordered by case id."""
    return BenchmarkReport(tuple(run_case(c) for c in builtin_cases()))


def sweep_oracle(
    r1: Rule, r2: Rule, obs: Observation, n_levels: int = 1001
) -> SweepOracleResult:
    """Dense sweep over cut levels, summarising gaps and nesting.

    Independent of the segment diagnostics: it looks only at the sampled
    interval endpoints. A conclusion is flagged abnormal when some level's
    interval inverts (negative gap) or when the interval family is not
    nested (an endpoint curve runs the wrong way).
    """
    import numpy as np

    profile = kh_alpha_profile(r1, r2, obs, n_levels=n_levels)
    gaps = profile.sups - profile.infs
    min_raw = float(gaps.min())
    # near-ties resolve toward the highest level, where inversions concentrate
    idx = int(np.nonzero(gaps <= min_raw + TOL)[0][-1])
    inf_steps = np.diff(profile.infs)
    sup_steps = np.diff(profile.sups)
    abnormal_levels = tuple(profile.levels[gaps < -TOL].tolist())
    return SweepOracleResult(
        min_gap=min_raw,
        gap_argmin=float(profile.levels[idx]),
        inf_monotone=bool((inf_steps >= -TOL).all()),
        sup_monotone=bool((sup_steps <= TOL).all()),
        abnormal_levels=abnormal_levels,
    )


def _sweep_in_floats(
    lower: Rule, upper: Rule, obs: Observation, n_levels: int
) -> SweepOracleResult:
    """:func:`sweep_oracle` in plain floats, so that a CLI call does not import numpy.

    It repeats :func:`~fri_lab.interpolate.kh_alpha_profile` and the summary
    step by step, with the same checks in the same order. The levels are
    those of ``np.linspace``. A clamped cut endpoint is the computed value
    on a tie or a nan, as with ``np.minimum`` and ``np.maximum``, and a nan
    end distance makes the scale that of a nan, as ``ndarray.max`` does. So
    in one dimension every result has the library's bits. Across several
    dimensions the distances chain ``math.hypot`` where the library chains
    ``np.hypot``, which may differ in the last bit. A 1001-level sweep takes
    a few milliseconds this way, against well under one with numpy, so the
    library keeps numpy and only the CLI, which would pay for its import,
    calls this.
    """
    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    _require_flanked(lower, upper, obs)
    step = 1.0 / (n_levels - 1)
    levels = [i * step for i in range(n_levels)]
    levels[-1] = 1.0

    def cuts(s):
        a1, a2, a3, a4 = s.a1, s.a2, s.a3, s.a4
        lo, hi = a2 - a1, a4 - a3
        return (
            [a2 if (x := a1 + level * lo) > a2 else x for level in levels],
            [a3 if (x := a4 - level * hi) < a3 else x for level in levels],
        )

    k = obs.dimension
    placed = [cuts(s) for s in (*lower.antecedents, *obs.sets, *upper.antecedents)]
    # per cut side (inf, sup), the distances observation - lower and
    # upper - observation: abs in dimension 0, then np.hypot's reduce order
    dists = []
    for side in (0, 1):
        for near, far in ((0, k), (k, 2 * k)):
            diffs = [map(operator.sub, placed[far + d][side], placed[near + d][side])
                     for d in range(k)]
            norm = list(map(abs, diffs[0]))
            for diff in diffs[1:]:
                norm = list(map(math.hypot, norm, diff))
            dists.append(norm)
    ends = [d[i] for d in dists for i in (0, -1)]
    top = math.nan if any(map(math.isnan, ends)) else max(ends)
    scale = math.ldexp(1.0, min(-1 - math.frexp(top)[1], 1023))
    sides = [[[d * scale for d in norm] for norm in pair] for pair in (dists[:2], dists[2:])]
    spans = [list(map(operator.add, d1, d2)) for d1, d2 in sides]
    if not all(map(all, spans)):
        raise ZeroSpan("flanking antecedents coincide at some level")
    b1s, b2s = cuts(lower.consequent), cuts(upper.consequent)
    infs, sups = (
        [(d2 * p + d1 * q) / s for d1, d2, p, q, s in zip(*scaled, b1, b2, span)]
        for scaled, b1, b2, span in zip(sides, b1s, b2s, spans)
    )
    if not all(map(math.isfinite, infs + sups)):
        raise DomainError("profile endpoints must be finite")

    gaps = list(map(operator.sub, sups, infs))
    min_raw = min(gaps)
    idx = max(i for i, gap in enumerate(gaps) if gap <= min_raw + TOL)
    return SweepOracleResult(
        min_gap=min_raw,
        gap_argmin=levels[idx],
        inf_monotone=all(b - a >= -TOL for a, b in zip(infs, infs[1:])),
        sup_monotone=all(b - a <= TOL for a, b in zip(sups, sups[1:])),
        abnormal_levels=tuple(level for level, gap in zip(levels, gaps) if gap < -TOL),
    )


def compare_reference(case: BenchmarkCase) -> tuple[ReferenceComparison, ...]:
    """Check the KH and KHstab reference rows; render the rest verbatim."""
    rows: list[ReferenceComparison] = []
    for row in case.reference_rows:
        if row.method == "KH":
            computed = kh_characteristic_points(
                case.rule_lower, case.rule_upper, case.observation
            ).as_tuple()
        elif row.method == "KHstab":
            computed = khstab_points(case.rule_base(), case.observation).as_tuple()
        else:
            rows.append(
                ReferenceComparison(
                    row.method, row.label, row.points, row.note, None, None, None
                )
            )
            continue
        dev = max(abs(c - e) for c, e in zip(computed, row.points))
        rows.append(
            ReferenceComparison(
                row.method, row.label, row.points, row.note, computed, dev,
                dev <= PRINTED_TOL,
            )
        )
    return tuple(rows)
