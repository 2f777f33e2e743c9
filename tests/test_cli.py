import csv
import json
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

    def test_sweep_flag_reports_agreement(self, capsys):
        assert main(["bench", "--case", "7", "--sweep", "101"]) == 0
        out = capsys.readouterr().out
        assert "agrees_with_verdict=yes" in out

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

    def test_failed_sweep_prints_no_partial_report(self, capsys):
        assert main(["interpolate", fixture(6), "--sweep", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least 2 levels, got 1\n"


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fri_lab", "bench", "--case", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1/1 cases passed" in proc.stdout


NUMPY_PROBE = """
import sys
import fri_lab
if sys.argv[1:]:
    from fri_lab.cli import main
    main(sys.argv[1:])
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ([], False),
        (["validate", fixture(6)], False),
        (["interpolate", fixture(6)], False),
        (["bench"], False),
        (["plot", fixture(6), "-o", "{tmp}/ex6.svg"], False),
        (["interpolate", fixture(6), "--method", "khstab"], False),
        (["interpolate", fixture(6), "--sweep", "11"], True),
    ],
    ids=["import", "validate", "interpolate", "bench", "plot", "interpolate-khstab",
         "interpolate-sweep"],
)
def test_numpy_loads_only_for_profiles_and_sweeps(tmp_path, argv, loads_numpy):
    src = str(Path(fri_lab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    args = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *args], capture_output=True, text=True, env=env
    )
    assert proc.stdout.splitlines()[-1] == str(loads_numpy), proc.stderr
