import pickle

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


def params(case_id, seg):
    return extract_segment_params(*triple(case_id))[seg]


class TestExtractSegmentParams:
    def test_left_boundary_of_case7(self):
        p = params(7, Segment.LTB)
        assert (p.ka1, p.ka2, p.kb1, p.kb2) == (1.5, 2.0, 1.0, 0.5)
        assert p.kastar == pytest.approx(0.4)
        assert (p.da1, p.da2, p.db) == pytest.approx((2.0, 0.6, 4.5))
        assert not p.uniform_a and not p.uniform_b

    def test_core_of_case3(self):
        p = params(3, Segment.CORE)
        assert (p.ka1, p.ka2, p.kb1, p.kb2) == (1.0, 1.0, 1.0, 1.0)
        assert p.kastar == pytest.approx(0.4)
        assert p.da1 == pytest.approx(1.8)
        assert p.da2 == pytest.approx(1.8)
        assert p.db == 4.0
        assert p.uniform_a and p.uniform_b

    def test_right_boundary_of_case9(self):
        p = params(9, Segment.RTB)
        assert (p.ka1, p.ka2, p.kb1, p.kb2) == (0.5, 0.0, 0.0, 0.0)
        assert p.kastar == 0.0
        assert (p.da1, p.da2, p.db) == (2.0, 3.0, 6.0)

    def test_every_segment_in_order(self):
        assert list(extract_segment_params(*triple(1))) == list(Segment)
        report = full_report(*triple(1))
        assert list(report.lengths) == list(report.ratios) == list(report.direct) == list(Segment)

    def test_da_gap_identity(self):
        for case_id in range(1, 10):
            for p in extract_segment_params(*triple(case_id)).values():
                assert p.da_gap == pytest.approx(p.da1 + p.kastar + p.da2, abs=1e-12)

    def test_requires_one_dimension(self):
        two_d = Rule((TrapezoidSet(0, 1, 2, 3), TrapezoidSet(0, 1, 2, 3)),
                     TrapezoidSet(0, 1, 2, 3))
        with pytest.raises(DimensionError):
            extract_segment_params(
                two_d, two_d,
                Observation((TrapezoidSet(4, 5, 6, 7), TrapezoidSet(4, 5, 6, 7))),
            )


class TestLengthCondition:
    def test_general_path_problem(self):
        diag = length_condition(params(7, Segment.LTB))
        assert diag.path is ConditionPath.GENERAL
        assert diag.length1 == pytest.approx(30.15)
        assert diag.length2 == pytest.approx(6.80)
        assert diag.verdict is Verdict.PROBLEM

    def test_general_path_normal_with_negative_length1(self):
        diag = length_condition(params(6, Segment.RTB))
        assert diag.path is ConditionPath.GENERAL
        assert diag.length1 == pytest.approx(-9.25)
        assert diag.length2 == pytest.approx(17.282)
        assert diag.verdict is Verdict.NORMAL

    def test_uniform_nonzero_path(self):
        diag = length_condition(params(5, Segment.LTB))
        assert diag.path is ConditionPath.UNIFORM_NONZERO
        assert diag.length1 == pytest.approx(-2.0)
        assert diag.length2 == pytest.approx(6.5)
        assert diag.verdict is Verdict.NORMAL

    def test_uniform_zero_path_problem(self):
        diag = length_condition(params(9, Segment.CORE))
        assert diag.path is ConditionPath.UNIFORM_ZERO
        assert diag.length1 == pytest.approx(3.0)
        assert diag.length2 == pytest.approx(0.0)
        assert diag.verdict is Verdict.PROBLEM

    def test_equality_counts_as_normal(self):
        diag = length_condition(params(1, Segment.LTB))
        assert diag.length1 == diag.length2 == 0.0
        assert diag.verdict is Verdict.NORMAL


class TestRatioCondition:
    def test_core_problem_of_case6(self):
        diag = ratio_condition(params(6, Segment.CORE))
        assert diag.ratio1 == pytest.approx(1.25)
        assert diag.ratio2 == pytest.approx(1.0)
        assert diag.verdict is Verdict.PROBLEM

    def test_left_boundary_normal_of_case1(self):
        diag = ratio_condition(params(1, Segment.LTB))
        assert diag.ratio1 == pytest.approx(1.20)
        assert diag.ratio2 == pytest.approx(1.25)
        assert diag.verdict is Verdict.NORMAL

    def test_right_boundary_problem_of_case8(self):
        diag = ratio_condition(params(8, Segment.RTB))
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
        p = extract_segment_params(r1, r2, obs)[Segment.LTB]
        assert p.da_gap == 0.0
        diag = ratio_condition(p)
        assert diag.verdict is Verdict.UNDEFINED
        assert diag.ratio1 is None and diag.ratio2 is None
        # the length condition still decides
        assert length_condition(p).verdict in (Verdict.NORMAL, Verdict.PROBLEM)


class TestClassifyCase:
    def test_case1(self):
        assert classify_case(extract_segment_params(*triple(1))) == frozenset({CaseTag.CASE1})

    def test_case2_with_uniform_cores(self):
        assert classify_case(extract_segment_params(*triple(3))) == frozenset(
            {CaseTag.CASE2, CaseTag.COROLLARY4}
        )

    def test_no_hypothesis_for_core_inversion(self):
        assert classify_case(extract_segment_params(*triple(6))) == frozenset()

    def test_case3(self):
        assert classify_case(extract_segment_params(*triple(4))) == frozenset({CaseTag.CASE3})

    # A tag is no normality guarantee. Draws 0 and 138 of
    # random_uniform_config(random.Random(13)), as antecedent, consequent of
    # the lower rule, of the upper rule, and the observation: each is tagged,
    # and one segment of its conclusion is inverted.
    @pytest.mark.parametrize("sets, tags, inverted", [
        (
            ((-3.528400818315822, -3.010383834884875, -1.6398678489558012, -0.2717040129235797),
             (-2.0534324623663744, -0.3547601395865141, 0.01668820816095673, 0.4778054260918929),
             (3.9146566155743843, 4.432673599005332, 5.8031895849344055, 7.171353420966627),
             (2.6641280516333454, 4.362800374413206, 4.734248722160677, 5.195365940091613),
             (0.4425266469846527, 1.9105738514101986, 2.1709998969297124, 3.233629400623749)),
            {CaseTag.COROLLARY4},
            Segment.CORE,
        ),
        (
            ((1.6276111981914596, 2.0712493485618033, 3.0021109818566636, 4.084054387474374),
             (-4.981672928517122, -3.9661488188953498, -2.8354243010925253, -1.7058759324606043),
             (7.7893740131667135, 8.233012163537058, 9.163873796831918, 10.24581720244963),
             (2.026228410349588, 3.0417525199713604, 4.172477037774184, 5.302025406406106),
             (4.271559042381087, 5.867122781012475, 5.9492146791610185, 5.976355309605731)),
            {CaseTag.CASE3, CaseTag.COROLLARY4},
            Segment.RTB,
        ),
    ], ids=["corollary4-core", "case3-rtb"])
    def test_tagged_configuration_can_be_abnormal(self, sets, tags, inverted):
        a1, b1, a2, b2, x = (TrapezoidSet(*s) for s in sets)
        report = full_report(Rule((a1,), b1), Rule((a2,), b2), Observation((x,)))
        assert report.tags == frozenset(tags)
        y = report.points.as_tuple()
        j = list(Segment).index(inverted)
        assert y[j] > y[j + 1]
        for seg in Segment:
            expected = Verdict.PROBLEM if seg is inverted else Verdict.NORMAL
            assert report.lengths[seg].verdict is expected
            assert report.direct[seg] is expected
        assert report.overall is Verdict.PROBLEM


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
        assert all(d.verdict is Verdict.NORMAL for d in report.lengths.values())
        assert report.tags == frozenset({CaseTag.CASE1})

    def test_core_problem_case(self):
        report = full_report(*triple(6))
        assert report.overall is Verdict.PROBLEM
        assert report.lengths[Segment.CORE].verdict is Verdict.PROBLEM
        assert report.lengths[Segment.LTB].verdict is Verdict.NORMAL
        assert report.lengths[Segment.RTB].verdict is Verdict.NORMAL

    def test_everything_problem_case(self):
        report = full_report(*triple(9))
        assert all(d.verdict is Verdict.PROBLEM for d in report.lengths.values())
        assert report.overall is Verdict.PROBLEM

    def test_direct_and_length_verdicts_agree_on_benchmark(self):
        for case_id in range(1, 10):
            report = full_report(*triple(case_id))
            for seg in Segment:
                assert report.lengths[seg].verdict is report.direct[seg]

    def test_ratio_agrees_with_length_when_defined_on_benchmark(self):
        for case_id in range(1, 10):
            report = full_report(*triple(case_id))
            for seg in Segment:
                ratio = report.ratios[seg]
                if ratio.verdict is not Verdict.UNDEFINED:
                    assert ratio.verdict is report.lengths[seg].verdict


_MEMBERS = [
    (Segment, [("LTB", "LTB"), ("CORE", "Core"), ("RTB", "RTB")]),
    (Verdict, [("NORMAL", "NORMAL"), ("PROBLEM", "PROBLEM"), ("UNDEFINED", "UNDEFINED")]),
    (ConditionPath, [("GENERAL", "GENERAL"), ("UNIFORM_NONZERO", "UNIFORM_NONZERO"),
                     ("UNIFORM_ZERO", "UNIFORM_ZERO")]),
    (CaseTag, [("CASE1", "CASE1"), ("CASE2", "CASE2"), ("CASE3", "CASE3"),
               ("COROLLARY4", "COROLLARY4")]),
]


class TestEnums:
    @pytest.mark.parametrize("enum, members", _MEMBERS, ids=[e.__name__ for e, _ in _MEMBERS])
    def test_names_values_reprs_and_order(self, enum, members):
        assert [(m.name, m.value) for m in enum] == members
        assert [repr(m) for m in enum] == [f"<{enum.__name__}.{n}: {v!r}>" for n, v in members]

    @pytest.mark.parametrize("enum", [e for e, _ in _MEMBERS], ids=lambda e: e.__name__)
    def test_hash_is_identity_and_pickle_keeps_the_member(self, enum):
        for member in enum:
            assert hash(member) == object.__hash__(member)
            assert pickle.loads(pickle.dumps(member)) is member

    def test_dict_keyed_by_segment_finds_its_entries(self):
        verdicts = direct_normality(ConclusionPoints(4, 4.5, 5.5, 6))
        assert [verdicts[seg] for seg in Segment] == [Verdict.NORMAL] * 3
        assert Segment("Core") in verdicts and Segment["RTB"] in verdicts
