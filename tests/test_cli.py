import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fri_lab
from fri_lab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(case_id: int) -> str:
    return str(FIXTURES / f"example_{case_id:02d}.json")


# two rules and an observation spaced near 1e-310, where 1/d overflows
SUBNORMAL_DOC = {
    "version": "1",
    "dimension": 1,
    "rules": [
        {"antecedents": [[1e-310, 2e-310, 3e-310, 4e-310]], "consequent": [1, 2, 3, 4]},
        {"antecedents": [[7e-310, 8e-310, 9e-310, 1e-309]], "consequent": [6, 7, 8, 9]},
    ],
    "observation": [[4.5e-310, 5e-310, 5e-310, 5.5e-310]],
}

# a valid document whose lower antecedent spans more than the largest float:
# its a2 - a1 is inf, so a cut of that set would be nan at level 0; the gaps
# between the sets do not overflow
SPAN_OVERFLOW_DOC = {
    "version": "1",
    "dimension": 1,
    "rules": [
        {"antecedents": [[-1.7e308, 1e308, 1.1e308, 1.2e308]], "consequent": [1, 2, 3, 4]},
        {"antecedents": [[0, 1.6e308, 1.65e308, 1.7e308]], "consequent": [6, 7, 8, 9]},
    ],
    "observation": [[-1e308, 1.3e308, 1.4e308, 1.5e308]],
}

# a valid document whose distances are 1e-30 at cut level 0 and near 5e299 at
# level 1, so the sweep must scale each level on its own
DISTANT_SCALES_DOC = {
    "version": "1",
    "dimension": 1,
    "rules": [
        {"antecedents": [[0, 0, 0, 0]], "consequent": [1, 2, 3, 4]},
        {"antecedents": [[2e-30, 1e300, 1e300, 1.1e300]], "consequent": [6, 7, 8, 9]},
    ],
    "observation": [[1e-30, 5e299, 5e299, 6e299]],
}


# a valid document whose observation lies one ulp above the lower antecedent
# at every point, and the upper antecedent one ulp above that: cut endpoints
# rounded set by set would round onto each other
NEARLY_TOUCHING_DOC = {
    "version": "1",
    "dimension": 1,
    "rules": [
        {"antecedents": [[0.3, 3.3, 6.3, 9.3]], "consequent": [1, 2, 3, 4]},
        {"antecedents": [[0.3000000000000001, 3.3000000000000007, 6.300000000000002,
                          9.300000000000004]], "consequent": [6, 7, 8, 9]},
    ],
    "observation": [[0.30000000000000004, 3.3000000000000003, 6.300000000000001,
                     9.300000000000002]],
}

# a valid document in which every ratio has a zero denominator: the two
# antecedents' left flanks abut, and the observation's core and right flank
# abut those of both antecedents; its points (3, 4, 5, 6) are in order and a
# 1001-level sweep finds nothing abnormal
ZERO_DENOMINATOR_DOC = {
    "version": "1",
    "dimension": 1,
    "rules": [
        {"antecedents": [[0, 2, 3, 4]], "consequent": [0, 1, 2, 3]},
        {"antecedents": [[2, 4, 5, 6]], "consequent": [6, 7, 8, 9]},
    ],
    "observation": [[1, 3, 4, 5]],
}

# a valid flanked document of two input dimensions
TWO_DIMENSIONAL_DOC = {
    "version": "1",
    "dimension": 2,
    "rules": [
        {"antecedents": [[0, 1, 2, 3]] * 2, "consequent": [0, 1, 2, 3]},
        {"antecedents": [[10, 11, 12, 13]] * 2, "consequent": [6, 7, 8, 9]},
    ],
    "observation": [[5, 6, 7, 8]] * 2,
}


# KH's flanks give (5, 6, 7, 8), NORMAL; KHstab's weight on the far rule
# inverts every segment of its own points
KHSTAB_WITNESS_DOC = {
    "version": "1",
    "dimension": 1,
    "rules": [
        {"antecedents": [[0, 1, 2, 3]], "consequent": [0, 1, 2, 3]},
        {"antecedents": [[10, 11, 12, 13]], "consequent": [10, 11, 12, 13]},
        {"antecedents": [[20, 20, 20, 20]], "consequent": [-100, -100, -100, -100]},
    ],
    "observation": [[5, 6, 7, 8]],
}


class TestBench:
    def test_full_run_passes(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "9/9 cases passed" in out

    def test_single_expected_abnormal_case_passes(self, capsys):
        assert main(["bench", "--case", "6"]) == 0
        out = capsys.readouterr().out
        assert "1/1 cases passed" in out
        assert "PROBLEM" in out

    def test_csv_rows(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert main(["bench", "--csv", str(target)]) == 0
        with open(target, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {"case_id", "segment", "metric", "computed", "expected", "deviation", "pass"} == set(rows[0])
        assert all(r["pass"] == "pass" for r in rows)
        case6_core = [
            r for r in rows
            if r["case_id"] == "6" and r["segment"] == "CORE" and r["metric"] == "length1"
        ]
        assert len(case6_core) == 1
        assert float(case6_core[0]["computed"]) == pytest.approx(5.0)
        # every row, byte for byte
        golden = Path(__file__).resolve().parent / "bench_golden.csv"
        assert target.read_bytes() == golden.read_bytes()

    def test_csv_into_a_missing_directory_prints_no_partial_report(self, tmp_path, capsys):
        assert main(["bench", "--csv", str(tmp_path / "missing" / "report.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_sweep_flag_reports_agreement(self, capsys):
        assert main(["bench", "--case", "7", "--sweep", "101"]) == 0
        out = capsys.readouterr().out
        assert "agrees_with_verdict=yes" in out

    def test_sweep_that_contradicts_the_verdict_fails_the_case(self, monkeypatch, capsys):
        import fri_lab.profile as profile

        # the command sweeps with the plain-float twin of sweep_oracle
        real = profile._sweep_in_floats
        case3 = next(c for c in fri_lab.builtin_cases() if c.case_id == 3)

        def contradicting(r1, r2, obs, n_levels):
            if obs == case3.observation:  # a NORMAL case, swept as inverted
                return profile.SweepOracleResult(-1.0, 1.0, True, True, (1.0,))
            return real(r1, r2, obs, n_levels)

        monkeypatch.setattr(profile, "_sweep_in_floats", contradicting)
        assert main(["bench", "--sweep", "11"]) == 1
        out = capsys.readouterr().out
        assert out.count("agrees_with_verdict=NO") == 1
        assert f"Case 3 ({case3.name}): FAIL" in out
        assert "8/9 cases passed" in out

    def test_failed_reference_row_fails_the_case(self, monkeypatch, capsys):
        import fri_lab.benchmark as benchmark

        real = benchmark.khstab_points
        case7 = next(c for c in benchmark.builtin_cases() if c.case_id == 7)

        def off_by_one(rb, obs):
            points = real(rb, obs)
            if obs == case7.observation:
                return type(points)(*(y + 1.0 for y in points.as_tuple()))
            return points

        monkeypatch.setattr(benchmark, "khstab_points", off_by_one)
        assert main(["bench"]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 2
        assert f"Case 7 ({case7.name}): FAIL" in out
        assert "8/9 cases passed" in out
        reference = next(l for l in out.splitlines() if "reference KHstab" in l and "FAIL" in l)
        assert "computed (6.2778, 5.4, 6.6, 7)" in reference

    def test_missed_published_value_prints_a_mismatch(self, monkeypatch, capsys):
        import fri_lab.benchmark as benchmark

        def replaced(value, **changes):
            fields = {name: getattr(value, name) for name in type(value).__annotations__}
            return type(value)(**{**fields, **changes})

        real = benchmark.builtin_cases()
        # case 2's published LTB length2 of 6.0, misprinted as 7.0
        published = real[1].expected_segments
        misprinted = {**published, fri_lab.Segment.LTB: replaced(
            published[fri_lab.Segment.LTB], length2=7.0)}
        cases = (real[0], replaced(real[1], expected_segments=misprinted), *real[2:])
        monkeypatch.setattr(benchmark, "builtin_cases", lambda: cases)
        assert main(["bench"]) == 1
        out = capsys.readouterr().out
        assert out.count("MISMATCH") == 1
        assert "  MISMATCH LTB/length2: computed=6.0 expected=7.0\n" in out
        assert f"Case 2 ({real[1].name}): FAIL" in out
        assert "8/9 cases passed" in out

    def test_bad_case_number_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--case", "10"])
        assert err.value.code == 2


class TestInterpolate:
    def test_abnormal_case_prints_points_and_problem(self, capsys):
        code = main(["interpolate", fixture(6)])
        out = capsys.readouterr().out
        assert code == 1
        assert "conclusion points: (4.7, 5.7, 4.7, 6.608)" in out
        assert "ABNORMAL" in out
        assert "The length (Core) is (PROBLEM)" in out

    def test_normal_case_exits_zero(self, capsys):
        code = main(["interpolate", fixture(2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "conclusion: trapezoid (4.5, 5, 5, 5.5)" in out

    def test_khstab_matches_kh_on_two_rule_base(self, capsys):
        main(["interpolate", fixture(6)])
        kh_out = capsys.readouterr().out
        main(["interpolate", fixture(6), "--method", "khstab"])
        stab_out = capsys.readouterr().out
        kh_points = [l for l in kh_out.splitlines() if l.startswith("conclusion points")]
        stab_points = [l for l in stab_out.splitlines() if l.startswith("conclusion points")]
        assert kh_points == stab_points

    def test_unflanked_observation_is_input_error(self, tmp_path, capsys):
        doc = {
            "version": "1",
            "dimension": 1,
            "rules": [
                {"antecedents": [[10, 11, 12, 13]], "consequent": [0, 1, 2, 3]},
                {"antecedents": [[20, 21, 22, 23]], "consequent": [5, 6, 7, 8]},
            ],
            "observation": [[0, 1, 1, 2]],
        }
        path = tmp_path / "unflanked.json"
        path.write_text(json.dumps(doc))
        assert main(["interpolate", str(path)]) == 2
        assert "precedes" in capsys.readouterr().err

    def test_missing_observation_is_input_error(self, tmp_path, capsys):
        doc = {
            "version": "1",
            "dimension": 1,
            "rules": [{"antecedents": [[1, 2, 3, 4]], "consequent": [1, 2, 3, 4]}],
        }
        path = tmp_path / "no_obs.json"
        path.write_text(json.dumps(doc))
        assert main(["interpolate", str(path)]) == 2
        assert "no observation" in capsys.readouterr().err

    def test_sweep_output(self, capsys):
        code = main(["interpolate", fixture(6), "--sweep", "101"])
        assert code == 1
        assert "min_gap=-1" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coordinates_do_not_overflow_the_distance(self, tmp_path, capsys):
        big = [[1e200, 2e200, 3e200, 4e200], [1e200, 2e200, 3e200, 4e200]]
        far = [[7e200, 8e200, 9e200, 1e201], [7e200, 8e200, 9e200, 1e201]]
        doc = {
            "version": "1",
            "dimension": 2,
            "rules": [
                {"antecedents": big, "consequent": [1, 2, 3, 4]},
                {"antecedents": far, "consequent": [6, 7, 8, 9]},
            ],
            "observation": [[4.5e200, 5e200, 5e200, 5.5e200]] * 2,
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for sweep in ([], ["--sweep", "101"]):
            code = main(["interpolate", str(path), *sweep])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert captured.err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [[], ["--method", "khstab"], ["--sweep", "101"]])
    def test_huge_consequents_do_not_overflow_the_mean(self, tmp_path, capsys, flags):
        doc = json.loads(Path(fixture(2)).read_text())
        for rule in doc["rules"]:
            rule["consequent"] = [1e307 * b for b in rule["consequent"]]
        path = tmp_path / "huge_consequents.json"
        path.write_text(json.dumps(doc))
        code = main(["interpolate", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == ""
        assert "conclusion points: (4.5e+307, 5e+307, 5e+307, 5.5e+307)" in captured.out

    def test_subnormal_spacing_completes_the_sweep(self, tmp_path, capsys):
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(SUBNORMAL_DOC))
        assert main(["interpolate", str(path), "--sweep", "101"]) == 0
        out = capsys.readouterr().out
        assert "conclusion points: (3.9167, 4.5, 4.6667, 5.25)" in out
        assert out.splitlines()[-1].startswith("sweep(101): min_gap=0.1667 at level 1,")

    def test_sweep_over_distances_of_distant_scales_completes(self, tmp_path, capsys):
        path = tmp_path / "distant_scales.json"
        path.write_text(json.dumps(DISTANT_SCALES_DOC))
        # the exit code is left open: the RTB length condition overflows to
        # nan > inf, a PROBLEM verdict of its own
        main(["interpolate", str(path), "--sweep", "11"])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == (
            "sweep(11): min_gap=1 at level 1, inf_monotone=True, sup_monotone=True, abnormal=no"
        )

    def test_sweep_over_an_overflowing_antecedent_span_completes(self, tmp_path):
        path = tmp_path / "span_overflow.json"
        path.write_text(json.dumps(SPAN_OVERFLOW_DOC))
        # a fresh process, whose stderr would also show any warning; the exit
        # code is left open: the length conditions overflow to nan > nan, a
        # PROBLEM verdict of their own
        proc = subprocess.run(
            [sys.executable, "-m", "fri_lab", "interpolate", str(path), "--sweep", "11"],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == (
            "sweep(11): min_gap=1.2273 at level 1, inf_monotone=True, sup_monotone=True, "
            "abnormal=no"
        )

    @pytest.mark.parametrize("levels", ["3", "11"])
    def test_sweep_over_nearly_touching_antecedents_completes(self, tmp_path, capsys, levels):
        path = tmp_path / "nearly_touching.json"
        path.write_text(json.dumps(NEARLY_TOUCHING_DOC))
        assert main(["interpolate", str(path), "--sweep", levels]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].endswith(
            "inf_monotone=True, sup_monotone=True, abnormal=no"
        )

    def test_khstab_on_subnormal_spacing_matches_kh(self, tmp_path, capsys):
        # inverse distances near 1e310 overflow; weights relative to the
        # nearest rule do not
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(SUBNORMAL_DOC))
        lines = {}
        for method in ("kh", "khstab"):
            assert main(["interpolate", str(path), "--method", method]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            lines[method] = [
                l for l in captured.out.splitlines() if l.startswith("conclusion points")
            ]
        assert lines["khstab"] == lines["kh"] == ["conclusion points: (3.9167, 4.5, 4.6667, 5.25)"]

    def test_khstab_on_huge_consequents_matches_kh(self, tmp_path, capsys):
        # the weighted sum of three consequent points near 1e308 exceeds the
        # largest float; their mean does not
        doc = {
            "version": "1",
            "dimension": 1,
            "rules": [
                {"antecedents": [[x, x + 1, x + 2, x + 3]],
                 "consequent": [1e308, 1.1e308, 1.2e308, 1.3e308]}
                for x in (0, 10, 20)
            ],
            "observation": [[5, 6, 7, 8]],
        }
        path = tmp_path / "huge_consequents.json"
        path.write_text(json.dumps(doc))
        outputs = {}
        for method in ("kh", "khstab"):
            code = main(["interpolate", str(path), "--method", method])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert captured.err == ""
            outputs[method] = captured.out.splitlines()
        points = "conclusion points: (1e+308, 1.1e+308, 1.2e+308, 1.3e+308)"
        assert outputs["khstab"][1] == outputs["kh"][1] == points
        # over three rules KHstab's own points are judged, not KH's two flanks
        assert outputs["khstab"][3:] == [f"{seg}: NORMAL (direct)" for seg in ("LTB", "CORE", "RTB")]

    def test_khstab_over_three_rules_judges_its_own_points(self, tmp_path, capsys):
        path = tmp_path / "khstab_witness.json"
        path.write_text(json.dumps(KHSTAB_WITNESS_DOC))
        assert main(["interpolate", str(path), "--method", "khstab"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "method: khstab",
            "conclusion points: (-10, -10.0606, -10.2581, -10.6207)",
            "conclusion: ABNORMAL, graded points (-10, 0) (-10.0606, 1) (-10.2581, 1) "
            "(-10.6207, 0)",
            "LTB: PROBLEM (direct)",
            "CORE: PROBLEM (direct)",
            "RTB: PROBLEM (direct)",
        ]

    def test_khstab_over_three_rules_refuses_the_sweep(self, tmp_path, capsys):
        path = tmp_path / "khstab_witness.json"
        path.write_text(json.dumps(KHSTAB_WITNESS_DOC))
        assert main(["interpolate", str(path), "--method", "khstab", "--sweep", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --sweep follows the two flanking rules, not KHstab over 3 rules\n"
        )


@pytest.mark.parametrize("levels", [1, 0, -3])
@pytest.mark.parametrize(
    "command", [["interpolate", fixture(6)], ["bench"]], ids=["interpolate", "bench"]
)
def test_failed_sweep_prints_no_partial_report(capsys, command, levels):
    assert main([*command, "--sweep", str(levels)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least 2 levels, got {levels}\n"


@pytest.mark.parametrize("levels", [100002, 10**30])
@pytest.mark.parametrize(
    "command", [["interpolate", fixture(6)], ["bench"]], ids=["interpolate", "bench"]
)
def test_sweep_of_too_many_levels_builds_no_profile(monkeypatch, capsys, command, levels):
    from fri_lab import profile

    def unbuilt(*args):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(profile, "_float_profile", unbuilt)
    assert main([*command, "--sweep", str(levels)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at most 100001 levels, got {levels}\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        *(
            ([command, fixture(5), *options], f"conclusion points: ({points})")
            for command in ("validate", "interpolate")
            for options, points in [
                (["--decimals", "8"], "3.08333, 4.5, 5.5, 6.91667"),
                ([], "3.0833, 4.5, 5.5, 6.9167"),
                (["--decimals", "1"], "3.1, 4.5, 5.5, 6.9"),
            ]
        ),
        (["bench", "--case", "5", "--decimals", "8"],
         "  points computed=(3.08333, 4.5, 5.5, 6.91667) expected=(3.08, 4.5, 5.5, 6.916) "
         "max|dev|=0.00333333"),
    ],
    ids=[f"{command}-{decimals}" for command in ("validate", "interpolate")
         for decimals in ("8", "default", "1")] + ["bench-8"],
)
def test_decimals_sets_the_printed_precision(capsys, argv, line):
    assert main(argv) == 0
    assert line in capsys.readouterr().out.splitlines()


class TestValidate:
    def test_all_normal_document(self, capsys):
        code = main(["validate", fixture(1)])
        out = capsys.readouterr().out
        assert code == 0
        assert "The length (Core) is (NORMAL)" in out
        assert "case tags: CASE1" in out

    def test_all_problem_document(self, capsys):
        code = main(["validate", fixture(9)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("PROBLEM") >= 3

    def test_general_path_line(self, capsys):
        code = main(["validate", fixture(7)])
        out = capsys.readouterr().out
        assert code == 1
        assert "LTB: GENERAL, 30.15 > 6.8, PROBLEM" in out

    def test_zero_denominators_leave_the_ratios_undefined(self, tmp_path, capsys):
        path = tmp_path / "zero_denominator.json"
        path.write_text(json.dumps(ZERO_DENOMINATOR_DOC))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conclusion points: (3, 4, 5, 6)\n" in out
        assert out.endswith(
            "LTB ratio: UNDEFINED (zero denominator)\n"
            "CORE ratio: UNDEFINED (zero denominator)\n"
            "RTB ratio: UNDEFINED (zero denominator)\n"
            "case tags: CASE1, COROLLARY4\n"
            "overall: NORMAL\n"
        )

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not valid json")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/path.json"]) == 2

    def test_deeply_nested_document_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["1e400", "401-digit-integer"])
    def test_number_beyond_float_range_is_not_finite(self, tmp_path, capsys, literal):
        text = Path(fixture(1)).read_text().replace("9.0", literal, 1)
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rules[1].antecedents[0][2]: value must be finite\n"

    def test_integer_literal_with_too_many_digits_is_parse_error(self, tmp_path, capsys):
        # longer than the interpreter converts to int (4300 digits by default)
        text = Path(fixture(1)).read_text().replace("9.0", "1" + "0" * 5000, 1)
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        if hasattr(sys, "get_int_max_str_digits"):
            assert captured.err == "error: an integer literal has too many digits\n"


class TestPlot:
    def test_abnormal_conclusion_polyline_is_non_monotone(self, tmp_path, capsys):
        out_path = tmp_path / "ex6.svg"
        assert main(["plot", fixture(6), "-o", str(out_path)]) == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        # the conclusion polyline doubles back: its x coordinates decrease
        conclusion = [
            line for line in svg.splitlines() if "stroke-width=\"2.0\"" in line
        ][0]
        pairs = [
            tuple(map(float, p.split(",")))
            for p in conclusion.split('points="')[1].split('"')[0].split()
        ]
        xs = [x for x, _ in pairs]
        assert any(b < a for a, b in zip(xs, xs[1:]))

    def test_normal_triangle_conclusion(self, tmp_path):
        out_path = tmp_path / "ex2.svg"
        assert main(["plot", fixture(2), "-o", str(out_path)]) == 0
        assert "B*" in out_path.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert main(["plot", fixture(6), "-o", str(first)]) == 0
        assert main(["plot", fixture(6), "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_output_is_error(self, capsys):
        assert main(["plot", fixture(6), "-o", "/nonexistent/dir/out.svg"]) == 2

    def test_antecedent_span_overflow_draws_finite_coordinates(self, tmp_path, capsys):
        path = tmp_path / "span_overflow.json"
        path.write_text(json.dumps(SPAN_OVERFLOW_DOC))
        out_path = tmp_path / "span_overflow.svg"
        assert main(["plot", str(path), "-o", str(out_path)]) == 0
        svg = out_path.read_text()
        assert "nan" not in svg and "inf" not in svg
        coords = [
            float(v)
            for line in svg.splitlines() if "<polyline" in line
            for pair in line.split('points="')[1].split('"')[0].split()
            for v in pair.split(",")
        ]
        assert len(coords) == 48 and all(map(math.isfinite, coords))


@pytest.mark.parametrize(
    "command, message",
    [
        ("validate", "validation diagnostics are defined for dimension 1"),
        ("plot", "plotting is defined for dimension 1"),
    ],
)
def test_one_dimensional_commands_reject_a_2d_document(tmp_path, capsys, command, message):
    path = tmp_path / "two_dimensional.json"
    path.write_text(json.dumps(TWO_DIMENSIONAL_DOC))
    svg = tmp_path / "two_dimensional.svg"
    options = ["-o", str(svg)] if command == "plot" else []
    assert main([command, str(path), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not svg.exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fri_lab", "bench", "--case", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/1 cases passed" in proc.stdout


# stdout and exit code of validate, interpolate (KH and KHstab, with and
# without a 1001-level sweep) on the nine fixtures, and of bench --sweep
# 1001; fixture paths are relative to the checkout
GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_output_matches_golden_transcript(record, capsys):
    argv = [str(FIXTURES.parent / a) if a.startswith("fixtures/") else a for a in record["argv"]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])


# prints, after the command's own output, every module that importing the
# package and running the command loaded
MODULES_PROBE = """
import json
import math
import sys
before = set(sys.modules)
import fri_lab
if sys.argv[1:]:
    from fri_lab.cli import main
    main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# after a bare import: which package modules are loaded, what a submodule
# attribute and an unknown attribute resolve to, and which public names a
# star import leaves unbound or binds to another object
NAMESPACE_PROBE = """
import json
import math
import sys
import fri_lab
report = {"loaded": sorted(m for m in sys.modules if m.startswith("fri_lab."))}
report["submodules"] = [fri_lab.normality.__name__, fri_lab.errors.__name__]
try:
    fri_lab.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
star = {}
exec("from fri_lab import *", star)
report["unbound"] = [n for n in fri_lab.__all__ if star.get(n) is not getattr(fri_lab, n)]
report["dir"] = dir(fri_lab) == sorted(fri_lab.__all__)
print(json.dumps(report))
"""


def package_env() -> dict[str, str]:
    """This environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(fri_lab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def run_probe(probe: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``probe`` with ``argv`` in a fresh interpreter on this checkout's package."""
    return subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=package_env()
    )


def modules_loaded(tmp_path, argv: list[str], probe: str = MODULES_PROBE) -> set[str]:
    proc = run_probe(probe, [a.format(tmp=tmp_path) for a in argv])
    assert proc.stdout, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


# the modules that a library sweep loads, with no command around it
LIBRARY_SWEEP_PROBE = """
import json
import math
import sys
before = set(sys.modules)
from fri_lab import builtin_cases, sweep_oracle
case = builtin_cases()[5]
sweep_oracle(case.rule_lower, case.rule_upper, case.observation, 11)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


# without numpy: the CLI's float sweep of case 6, and what each name of the
# library profile raises
NO_NUMPY_PROBE = """
import json
import sys
sys.modules["numpy"] = None
from fri_lab import AlphaProfile, builtin_cases, kh_alpha_profile, sweep_oracle
from fri_lab.profile import _sweep_in_floats
case = builtin_cases()[5]
args = (case.rule_lower, case.rule_upper, case.observation)
report = {"abnormal": _sweep_in_floats(*args, 11).abnormal}
for name, call in [("kh_alpha_profile", lambda: kh_alpha_profile(*args, 11)),
                   ("sweep_oracle", lambda: sweep_oracle(*args, 11)),
                   ("AlphaProfile", lambda: AlphaProfile([0.0, 1.0], [0.0, 0.0], [1.0, 1.0]))]:
    try:
        call()
    except ModuleNotFoundError as exc:
        report[name] = exc.name
print(json.dumps(report))
"""


def test_library_without_numpy_sweeps_in_floats_and_names_numpy():
    proc = run_probe(NO_NUMPY_PROBE, [])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "abnormal": True, "kh_alpha_profile": "numpy", "sweep_oracle": "numpy",
        "AlphaProfile": "numpy",
    }


# every command line of the module-loading contract, by id; each runs once,
# and the four tests below check their part of what it loaded
COMMAND_LINES = {
    "import": (MODULES_PROBE, []),
    "validate": (MODULES_PROBE, ["validate", fixture(6)]),
    "interpolate": (MODULES_PROBE, ["interpolate", fixture(6)]),
    "bench": (MODULES_PROBE, ["bench"]),
    "plot": (MODULES_PROBE, ["plot", fixture(6), "-o", "{tmp}/ex6.svg"]),
    "interpolate-khstab": (MODULES_PROBE, ["interpolate", fixture(6), "--method", "khstab"]),
    "interpolate-sweep": (MODULES_PROBE, ["interpolate", fixture(6), "--sweep", "11"]),
    "bench-sweep": (MODULES_PROBE, ["bench", "--sweep", "11"]),
    "library-sweep": (LIBRARY_SWEEP_PROBE, []),
}


@pytest.fixture(scope="module")
def loaded_by(tmp_path_factory):
    """The modules that the command line of an id loaded, run on first request."""
    tmp = tmp_path_factory.mktemp("modules")
    loaded: dict[str, set[str]] = {}

    def lookup(name: str) -> set[str]:
        if name not in loaded:
            probe, argv = COMMAND_LINES[name]
            loaded[name] = modules_loaded(tmp, argv, probe)
        return loaded[name]

    return lookup


# the commands sweep in plain floats; the library's sweep keeps numpy
@pytest.mark.parametrize("name", COMMAND_LINES)
def test_numpy_loads_only_for_profiles_and_sweeps(loaded_by, name):
    assert ("numpy" in loaded_by(name)) == (name == "library-sweep")


@pytest.mark.parametrize(
    "name", ["validate", "interpolate", "interpolate-khstab", "interpolate-sweep"]
)
def test_document_commands_load_no_benchmark_plotting_or_csv(loaded_by, name):
    loaded = loaded_by(name)
    assert "fri_lab.normality" in loaded
    assert not loaded & {"fri_lab.benchmark", "fri_lab.plotting", "csv"}


@pytest.mark.parametrize("name", ["validate", "interpolate", "interpolate-khstab", "bench"])
def test_commands_without_a_sweep_load_no_profile(loaded_by, name):
    loaded = loaded_by(name)
    assert "fri_lab.interpolate" in loaded
    assert "fri_lab.profile" not in loaded


@pytest.mark.parametrize(
    "name", ["validate", "interpolate", "interpolate-khstab", "plot", "bench"]
)
def test_commands_load_neither_dataclasses_nor_inspect(loaded_by, name):
    loaded = loaded_by(name)
    assert "fri_lab.sets" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "unbuffered, argv",
    [
        (False, ["validate", fixture(1)]),
        (True, ["validate", fixture(1)]),
        (False, ["--help"]),
        (True, ["--help"]),
    ],
    ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered"],
)
def test_closed_stdout_exits_141_quietly(unbuffered, argv):
    # the read end is closed before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fri_lab", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    # unbuffered, argparse from Python 3.11 on swallows the failed write of
    # the help text itself and exits 0
    codes = {0, 141} if unbuffered and argv == ["--help"] else {141}
    assert proc.returncode in codes and proc.stderr == b""


def test_package_namespace_is_lazy_and_complete():
    proc = run_probe(NAMESPACE_PROBE, [])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["submodules"] == ["fri_lab.normality", "fri_lab.errors"]
    assert report["unknown"] == "module 'fri_lab' has no attribute 'no_such_name'"
    assert report["unbound"] == []
    assert report["dir"]


def test_every_public_name_is_listed_under_the_module_that_defines_it():
    # a name listed under a module that only imports it still resolves, but
    # loads that module for nothing
    public = {name: getattr(fri_lab, name) for name in fri_lab._OWNER}
    constants = {name for name, value in public.items() if isinstance(value, str)}
    assert constants == {"FORMAT_VERSION"}
    defined = {name: value.__module__ for name, value in public.items() if name not in constants}
    assert defined == {name: f"fri_lab.{fri_lab._OWNER[name]}" for name in defined}
