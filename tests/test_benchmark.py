import pytest

from fri_lab import (
    CaseTag,
    Segment,
    TrapezoidSet,
    Verdict,
    assemble_conclusion,
    builtin_cases,
    compare_reference,
    extract_segment_params,
    full_report,
    run_all,
    run_case,
    sweep_oracle,
)
from fri_lab.benchmark import PRINTED_TOL
from fri_lab.interpolate import TOL
from fri_lab.profile import _sweep_in_floats


def case(case_id):
    return next(c for c in builtin_cases() if c.case_id == case_id)


class TestBuiltinCases:
    def test_exactly_nine_with_unique_ids(self):
        cases = builtin_cases()
        assert len(cases) == 9
        assert [c.case_id for c in cases] == list(range(1, 10))

    def test_case5_uses_reconstructed_observation(self):
        c = case(5)
        assert c.observation.sets[0].points() == (4.5, 5.0, 5.0, 5.5)
        assert "reconstructed" in c.provenance_note

    def test_case9_uses_reconstructed_antecedents(self):
        c = case(9)
        assert c.rule_lower.antecedents[0].points() == (2.0, 2.0, 2.5, 3.0)
        assert c.rule_upper.antecedents[0].points() == (6.0, 7.5, 8.0, 8.0)
        assert "reconstructed" in c.provenance_note

    def test_case3_is_verbatim(self):
        c = case(3)
        assert c.expected_points == (4.0, 4.8, 5.2, 6.0)
        assert "as printed" in c.provenance_note

    def test_every_case_has_a_provenance_note(self):
        assert all(c.provenance_note for c in builtin_cases())


class TestRunCase:
    @pytest.mark.parametrize("case_id", range(1, 10))
    def test_each_case_passes(self, case_id):
        report = run_case(case(case_id))
        # the failed checks and reference rows, each with its values
        assert report.passed, report.failures

    def test_case6_verdict_pattern(self):
        c = case(6)
        assert [c.expected_segments[s].verdict for s in Segment] == [
            Verdict.NORMAL, Verdict.PROBLEM, Verdict.NORMAL,
        ]

    def test_case1_singleton_conclusion(self):
        report = run_case(case(1)).report
        assert report.points.as_tuple() == (5.0, 5.0, 5.0, 5.0)

    @pytest.mark.parametrize("case_id", range(1, 10))
    def test_holds_the_report_and_reference_rows_it_checked(self, case_id):
        c = case(case_id)
        result = run_case(c)
        assert result.report == full_report(c.rule_lower, c.rule_upper, c.observation)
        assert result.references == compare_reference(c)

    def test_case7_verdict_pattern(self):
        c = case(7)
        assert [c.expected_segments[s].verdict for s in Segment] == [
            Verdict.PROBLEM, Verdict.NORMAL, Verdict.NORMAL,
        ]


class TestRunAll:
    def test_full_suite_passes(self):
        report = run_all()
        assert report.passed
        assert report.n_passed == report.n_cases == 9

    def test_failed_reference_row_fails_the_case(self, monkeypatch):
        # test_cli checks that the bench command fails case 7 on the same fault
        import fri_lab.benchmark as benchmark

        real = benchmark.khstab_points
        case7 = case(7)

        def off_by_one(rb, obs):
            points = real(rb, obs)
            if obs == case7.observation:
                return type(points)(*(y + 1.0 for y in points.as_tuple()))
            return points

        monkeypatch.setattr(benchmark, "khstab_points", off_by_one)
        result = run_case(case7)
        assert result.passed is False
        assert all(c.passed for c in result.checks)
        assert [r.passed for r in result.references if r.method == "KHstab"] == [False]
        # the failed row is the case's one failure, so a failed case names its reason
        assert result.failures == tuple(r for r in result.references if r.method == "KHstab")
        report = run_all()
        assert report.n_passed == 8 and not report.passed
        assert [r.case_id for r in report.case_reports if not r.passed] == [7]

    def test_swapped_weights_fail_case5(self):
        # an engine attaching the near distance to the near consequent
        # (instead of the far one) is caught by the asymmetric case 5
        c = case(5)
        a1 = c.rule_lower.antecedents[0].points()
        a2 = c.rule_upper.antecedents[0].points()
        b1 = c.rule_lower.consequent.points()
        b2 = c.rule_upper.consequent.points()
        x = c.observation.sets[0].points()
        swapped = []
        for j in range(4):
            d1 = x[j] - a1[j]
            d2 = a2[j] - x[j]
            swapped.append((d1 * b1[j] + d2 * b2[j]) / (d1 + d2))
        assert swapped[0] == pytest.approx(23.5 / 6)
        assert abs(swapped[0] - c.expected_points[0]) > PRINTED_TOL

    def test_skipping_uniform_path_breaks_case9_core_value(self):
        # the general form evaluated on case 9's core parameters gives 16.5,
        # far from the published 3, although the verdict stays PROBLEM
        c = case(9)
        p = extract_segment_params(c.rule_lower, c.rule_upper, c.observation)[Segment.CORE]
        general1 = p.db * (
            (p.ka1 + p.da1) * (p.ka2 + p.da2)
            - (p.kastar + p.da1) * (p.kastar + p.da2)
        )
        general2 = (p.ka1 + p.da1) * (p.da1 + p.kastar) * p.kb2 + (
            p.ka2 + p.da2
        ) * (p.da2 + p.kastar) * p.kb1
        assert general1 == pytest.approx(16.5)
        assert abs(general1 - c.expected_segments[Segment.CORE].length1) > PRINTED_TOL
        assert general1 > general2  # verdict would still be PROBLEM


class TestGroupStructure:
    def test_cases_1_to_5_normal_6_to_9_problem(self):
        for c in builtin_cases():
            report = full_report(c.rule_lower, c.rule_upper, c.observation)
            if c.case_id <= 5:
                assert report.overall is Verdict.NORMAL
            else:
                assert report.overall is Verdict.PROBLEM

    def test_reconstruction_soundness(self):
        # the two reconstructed inputs reproduce every printed output
        for case_id in (5, 9):
            report = run_case(case(case_id))
            numeric = [c for c in report.checks if c.deviation is not None]
            assert all(c.passed for c in numeric)

    def test_exact_points_within_machine_tolerance(self):
        for c in builtin_cases():
            report = run_case(c)
            exact = next(ch for ch in report.checks if ch.name == "points_exact")
            assert exact.deviation <= TOL


class TestSweepOracle:
    def test_case6_min_gap_at_top(self):
        c = case(6)
        oracle = sweep_oracle(c.rule_lower, c.rule_upper, c.observation)
        assert oracle.min_gap == pytest.approx(-1.0, abs=1e-9)
        assert oracle.gap_argmin == pytest.approx(1.0)
        assert oracle.abnormal
        assert oracle.abnormal_levels  # inverted levels exist

    def test_case2_nested_and_normal(self):
        c = case(2)
        oracle = sweep_oracle(c.rule_lower, c.rule_upper, c.observation)
        assert oracle.min_gap >= -1e-9
        assert oracle.inf_monotone and oracle.sup_monotone
        assert not oracle.abnormal

    def test_case1_singleton_kernel_gap(self):
        c = case(1)
        oracle = sweep_oracle(c.rule_lower, c.rule_upper, c.observation)
        assert oracle.min_gap == pytest.approx(0.0, abs=1e-9)
        assert oracle.gap_argmin == pytest.approx(1.0)
        assert not oracle.abnormal

    def test_boundary_inversions_caught_by_nesting(self):
        # cases 7 and 8 invert a flank: every level interval stays proper
        # but the interval family is not nested
        for case_id, flag in ((7, "inf_monotone"), (8, "sup_monotone")):
            c = case(case_id)
            oracle = sweep_oracle(c.rule_lower, c.rule_upper, c.observation)
            assert oracle.min_gap > 0
            assert not getattr(oracle, flag)
            assert oracle.abnormal

    def test_oracle_agrees_with_verdict_on_every_case(self):
        for c in builtin_cases():
            report = full_report(c.rule_lower, c.rule_upper, c.observation)
            oracle = sweep_oracle(c.rule_lower, c.rule_upper, c.observation)
            assert oracle.abnormal == (report.overall is Verdict.PROBLEM)

    def test_profiles_of_normal_cases_are_nested(self):
        for c in builtin_cases():
            report = full_report(c.rule_lower, c.rule_upper, c.observation)
            if report.overall is Verdict.NORMAL:
                oracle = sweep_oracle(c.rule_lower, c.rule_upper, c.observation)
                assert oracle.inf_monotone and oracle.sup_monotone
                assert oracle.min_gap >= -1e-9


def test_every_tie_reads_the_tolerance_rule(monkeypatch):
    # case 9 is PROBLEM on every segment, with no tag: its points fall all
    # the way and its lengths miss by up to 27. A tolerance of 100 forgives
    # that, and every test that decides by the rule has to see it
    monkeypatch.setattr("fri_lab.interpolate.TOL", 100.0)
    c = case(9)
    report = full_report(c.rule_lower, c.rule_upper, c.observation)
    assert all(d.verdict is Verdict.NORMAL for d in report.lengths.values())
    assert all(d.verdict is Verdict.NORMAL for d in report.ratios.values())
    assert all(v is Verdict.NORMAL for v in report.direct.values())
    assert report.overall is Verdict.NORMAL
    assert report.tags == {CaseTag.CASE1, CaseTag.CASE2}
    assert isinstance(assemble_conclusion(report.points), TrapezoidSet)
    for sweep in (sweep_oracle, _sweep_in_floats):
        assert not sweep(c.rule_lower, c.rule_upper, c.observation, 11).abnormal


class TestCompareReference:
    def test_case7_kh_row_matches(self):
        rows = {r.method: r for r in compare_reference(case(7))}
        assert rows["KH"].passed
        assert rows["KH"].computed_points[0] == pytest.approx(23.75 / 4.5)

    def test_case9_khstab_equals_kh(self):
        rows = {r.method: r for r in compare_reference(case(9))}
        assert rows["KH"].expected_points == rows["KHstab"].expected_points
        assert rows["KHstab"].passed

    def test_case6_crf_row_is_reference_only(self):
        rows = {r.method: r for r in compare_reference(case(6))}
        assert rows["CRF"].computed_points is None
        assert rows["CRF"].passed is None
        assert rows["CRF"].label == "Normal"
        assert rows["CRF"].expected_points == (3.9, 5.25, 5.25, 6.75)

    def test_case7_vkk_out_of_range_marker(self):
        rows = {r.method: r for r in compare_reference(case(7))}
        assert rows["VKK"].expected_points is None
        assert rows["VKK"].note == "out range"
