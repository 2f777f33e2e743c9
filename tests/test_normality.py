import pytest

from fri_lab import (
    CaseTag,
    ConclusionPoints,
    ConditionPath,
    Observation,
    Rule,
    Segment,
    TrapezoidSet,
    Verdict,
    classify_case,
    direct_normality,
    extract_segment_params,
    full_report,
    length_condition,
    ratio_condition,
)
from fri_lab.benchmark import builtin_cases
from fri_lab.errors import DimensionError


def case(case_id):
    return next(c for c in builtin_cases() if c.case_id == case_id)


def triple(case_id):
    c = case(case_id)
    return c.rule_lower, c.rule_upper, c.observation


def all_params(case_id):
    return tuple(extract_segment_params(*triple(case_id), seg) for seg in Segment)


class TestExtractSegmentParams:
    def test_left_boundary_of_case7(self):
        p = extract_segment_params(*triple(7), Segment.LTB)
        assert (p.ka1, p.ka2, p.kb1, p.kb2) == (1.5, 2.0, 1.0, 0.5)
        assert p.kastar == pytest.approx(0.4)
        assert (p.da1, p.da2, p.db) == pytest.approx((2.0, 0.6, 4.5))
        assert not p.uniform_a and not p.uniform_b

    def test_core_of_case3(self):
        p = extract_segment_params(*triple(3), Segment.CORE)
        assert (p.ka1, p.ka2, p.kb1, p.kb2) == (1.0, 1.0, 1.0, 1.0)
        assert p.kastar == pytest.approx(0.4)
        assert p.da1 == pytest.approx(1.8)
        assert p.da2 == pytest.approx(1.8)
        assert p.db == 4.0
        assert p.uniform_a and p.uniform_b

    def test_right_boundary_of_case9(self):
        p = extract_segment_params(*triple(9), Segment.RTB)
        assert (p.ka1, p.ka2, p.kb1, p.kb2) == (0.5, 0.0, 0.0, 0.0)
        assert p.kastar == 0.0
        assert (p.da1, p.da2, p.db) == (2.0, 3.0, 6.0)

    def test_da_gap_identity(self):
        for case_id in range(1, 10):
            for seg in Segment:
                p = extract_segment_params(*triple(case_id), seg)
                assert p.da_gap == pytest.approx(p.da1 + p.kastar + p.da2, abs=1e-12)

    def test_requires_one_dimension(self):
        two_d = Rule((TrapezoidSet(0, 1, 2, 3), TrapezoidSet(0, 1, 2, 3)),
                     TrapezoidSet(0, 1, 2, 3))
        with pytest.raises(DimensionError):
            extract_segment_params(
                two_d, two_d,
                Observation((TrapezoidSet(4, 5, 6, 7), TrapezoidSet(4, 5, 6, 7))),
                Segment.CORE,
            )


class TestLengthCondition:
    def test_general_path_problem(self):
        diag = length_condition(extract_segment_params(*triple(7), Segment.LTB))
        assert diag.path is ConditionPath.GENERAL
        assert diag.length1 == pytest.approx(30.15)
        assert diag.length2 == pytest.approx(6.80)
        assert diag.verdict is Verdict.PROBLEM

    def test_general_path_normal_with_negative_length1(self):
        diag = length_condition(extract_segment_params(*triple(6), Segment.RTB))
        assert diag.path is ConditionPath.GENERAL
        assert diag.length1 == pytest.approx(-9.25)
        assert diag.length2 == pytest.approx(17.282)
        assert diag.verdict is Verdict.NORMAL

    def test_uniform_nonzero_path(self):
        diag = length_condition(extract_segment_params(*triple(5), Segment.LTB))
        assert diag.path is ConditionPath.UNIFORM_NONZERO
        assert diag.length1 == pytest.approx(-2.0)
        assert diag.length2 == pytest.approx(6.5)
        assert diag.verdict is Verdict.NORMAL

    def test_uniform_zero_path_problem(self):
        diag = length_condition(extract_segment_params(*triple(9), Segment.CORE))
        assert diag.path is ConditionPath.UNIFORM_ZERO
        assert diag.length1 == pytest.approx(3.0)
        assert diag.length2 == pytest.approx(0.0)
        assert diag.verdict is Verdict.PROBLEM

    def test_equality_counts_as_normal(self):
        diag = length_condition(extract_segment_params(*triple(1), Segment.LTB))
        assert diag.length1 == diag.length2 == 0.0
        assert diag.verdict is Verdict.NORMAL


class TestRatioCondition:
    def test_core_problem_of_case6(self):
        diag = ratio_condition(extract_segment_params(*triple(6), Segment.CORE))
        assert diag.ratio1 == pytest.approx(1.25)
        assert diag.ratio2 == pytest.approx(1.0)
        assert diag.verdict is Verdict.PROBLEM

    def test_left_boundary_normal_of_case1(self):
        diag = ratio_condition(extract_segment_params(*triple(1), Segment.LTB))
        assert diag.ratio1 == pytest.approx(1.20)
        assert diag.ratio2 == pytest.approx(1.25)
        assert diag.verdict is Verdict.NORMAL

    def test_right_boundary_problem_of_case8(self):
        diag = ratio_condition(extract_segment_params(*triple(8), Segment.RTB))
        assert diag.ratio1 == pytest.approx(1.40625)
        assert diag.ratio2 == pytest.approx(1.142857, abs=1e-5)
        assert diag.verdict is Verdict.PROBLEM

    @pytest.mark.parametrize(
        "lower, upper, observed",
        [
            ((0, 2, 2, 3), (2, 4, 4, 6), (2.5, 3, 3, 3.5)),
            # the summed gap da1 + kastar + da2 rounds to 1.1e-16 here
            ((0, 0.2, 0.7, 1.2), (0.2, 3.2, 3.7, 4.2), (0.1, 0.9, 1.1, 1.3)),
        ],
        ids=["integers", "decimals"],
    )
    def test_zero_denominator_is_undefined(self, lower, upper, observed):
        r1 = Rule((TrapezoidSet(*lower),), TrapezoidSet(0, 1, 1, 2))
        r2 = Rule((TrapezoidSet(*upper),), TrapezoidSet(5, 6, 6, 7))
        obs = Observation((TrapezoidSet(*observed),))
        p = extract_segment_params(r1, r2, obs, Segment.LTB)
        assert p.da_gap == 0.0
        diag = ratio_condition(p)
        assert diag.verdict is Verdict.UNDEFINED
        assert diag.ratio1 is None and diag.ratio2 is None
        # the length condition still decides
        assert length_condition(p).verdict in (Verdict.NORMAL, Verdict.PROBLEM)


class TestClassifyCase:
    def test_case1(self):
        assert classify_case(all_params(1)) == frozenset({CaseTag.CASE1})

    def test_case2_with_uniform_cores(self):
        assert classify_case(all_params(3)) == frozenset(
            {CaseTag.CASE2, CaseTag.COROLLARY4}
        )

    def test_no_hypothesis_for_core_inversion(self):
        assert classify_case(all_params(6)) == frozenset()

    def test_case3(self):
        assert classify_case(all_params(4)) == frozenset({CaseTag.CASE3})


class TestDirectNormality:
    def test_left_boundary_inversion(self):
        verdicts = direct_normality(ConclusionPoints(5.2778, 4.4, 5.6, 6.0))
        assert verdicts[Segment.LTB] is Verdict.PROBLEM
        assert verdicts[Segment.CORE] is Verdict.NORMAL
        assert verdicts[Segment.RTB] is Verdict.NORMAL

    def test_all_three_problem(self):
        verdicts = direct_normality(ConclusionPoints(6.5, 5.2727, 4.7272, 4.4))
        assert all(v is Verdict.PROBLEM for v in verdicts.values())

    def test_all_normal(self):
        verdicts = direct_normality(ConclusionPoints(4, 4.5, 5.5, 6))
        assert all(v is Verdict.NORMAL for v in verdicts.values())


class TestFullReport:
    def test_all_normal_case(self):
        report = full_report(*triple(1))
        assert report.overall is Verdict.NORMAL
        assert all(d.verdict is Verdict.NORMAL for d in report.lengths)
        assert report.tags == frozenset({CaseTag.CASE1})

    def test_core_problem_case(self):
        report = full_report(*triple(6))
        assert report.overall is Verdict.PROBLEM
        assert report.length_for(Segment.CORE).verdict is Verdict.PROBLEM
        assert report.length_for(Segment.LTB).verdict is Verdict.NORMAL
        assert report.length_for(Segment.RTB).verdict is Verdict.NORMAL

    def test_everything_problem_case(self):
        report = full_report(*triple(9))
        assert all(d.verdict is Verdict.PROBLEM for d in report.lengths)
        assert report.overall is Verdict.PROBLEM

    def test_direct_and_length_verdicts_agree_on_benchmark(self):
        for case_id in range(1, 10):
            report = full_report(*triple(case_id))
            for seg in Segment:
                assert report.length_for(seg).verdict is report.direct[seg]

    def test_ratio_agrees_with_length_when_defined_on_benchmark(self):
        for case_id in range(1, 10):
            report = full_report(*triple(case_id))
            for seg in Segment:
                ratio = report.ratio_for(seg)
                if ratio.verdict is not Verdict.UNDEFINED:
                    assert ratio.verdict is report.length_for(seg).verdict
