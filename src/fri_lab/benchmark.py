"""Golden benchmark: nine fixed interpolation cases with published expectations.

Cases 1-5 produce normal conclusions, cases 6-9 provoke an inversion on at
least one segment. Each case's rules and observation are read, with
``load_document``, from its document ``fixtures/example_0N.json`` shipped in
this package; the document's ``notes`` metadata is the case's provenance.
Expected conclusion points, length/ratio diagnostics and verdicts are frozen
here from the published tables. Two inputs (cases 5 and 9) are reconstructed
because the printed rows are internally inconsistent, and their notes say so.
"""
from __future__ import annotations

from pathlib import Path
from typing import Mapping

from ._frozen import frozen
from .interpolate import (
    TOL,
    Observation,
    Rule,
    RuleBase,
    kh_characteristic_points,
    khstab_points,
)
from .normality import CaseTag, ConditionPath, NormalityReport, Segment, Verdict, full_report
from .rulebase_io import load_document

_FIXTURES = Path(__file__).with_name("fixtures")

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
class ReferenceComparison:
    """A reference row next to this package's computation, when applicable."""

    method: str
    label: str
    expected_points: tuple[float, ...] | None
    note: str
    computed_points: tuple[float, float, float, float] | None
    deviation: float | None
    passed: bool | None


def _inputs(case_id: int) -> dict:
    """A case's rules, observation and provenance note, read from its document."""
    doc = load_document((_FIXTURES / f"example_{case_id:02d}.json").read_bytes())
    lower, upper = doc.rules
    return {"rule_lower": lower, "rule_upper": upper, "observation": doc.observation,
            "provenance_note": doc.metadata["notes"]}


_GEN = ConditionPath.GENERAL
_UNZ = ConditionPath.UNIFORM_NONZERO
_UZE = ConditionPath.UNIFORM_ZERO
_N = Verdict.NORMAL
_P = Verdict.PROBLEM


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
            **_inputs(1),
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
        ),
        BenchmarkCase(
            case_id=2,
            name="identical triangular antecedent and consequent shapes",
            **_inputs(2),
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
        ),
        BenchmarkCase(
            case_id=3,
            name="identical trapezoidal antecedent and consequent shapes",
            **_inputs(3),
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
        ),
        BenchmarkCase(
            case_id=4,
            name="wider consequents, singleton observation",
            **_inputs(4),
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
        ),
        BenchmarkCase(
            case_id=5,
            name="singleton antecedents, wider consequents",
            **_inputs(5),
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
        ),
        BenchmarkCase(
            case_id=6,
            name="core-length inversion",
            **_inputs(6),
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
        ),
        BenchmarkCase(
            case_id=7,
            name="left-boundary inversion",
            **_inputs(7),
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
        ),
        BenchmarkCase(
            case_id=8,
            name="right-boundary inversion",
            **_inputs(8),
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
        ),
        BenchmarkCase(
            case_id=9,
            name="inversion on every segment",
            **_inputs(9),
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
    checks.append(_num_check("points_exact", None, exact_dev, 0.0, TOL))

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
