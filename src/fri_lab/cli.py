"""Command-line front end: benchmark runner, interpolation, validation, plots.

Exit codes: 0 success / all checks passed; 1 a verdict was PROBLEM or a
benchmark expectation was missed; 2 usage or input errors; 141 (128 +
SIGPIPE, as a shell reports a process that signal ended) when standard
output is closed before everything is written.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import DimensionError, DomainError, FriError, ValidationError
from .interpolate import (
    assemble_conclusion,
    kh_characteristic_points,
    khstab_points,
    select_flanking,
)
from .normality import Segment, Verdict, direct_normality, full_report
from .rulebase_io import load_document, to_rulebase
from .sets import GradedPointList, TrapezoidSet

_EXIT_BROKEN_PIPE = 141
_VERDICT_HEADERS = {Segment.LTB: "LFBound", Segment.CORE: "Core", Segment.RTB: "RFBound"}


def _fmt(value: float, decimals: int) -> str:
    return f"{round(value, decimals):g}"


def _fmt_points(points, decimals: int) -> str:
    return "(" + ", ".join(_fmt(p, decimals) for p in points) + ")"


def _print_verdict_block(report, decimals: int) -> None:
    for seg, diag in report.lengths.items():
        print(f"The length ({_VERDICT_HEADERS[seg]}) is ({diag.verdict.value})")
    for seg, diag in report.lengths.items():
        op = "<=" if diag.verdict is Verdict.NORMAL else ">"
        print(
            f"{seg.name}: {diag.path.value}, {_fmt(diag.length1, decimals)} {op} "
            f"{_fmt(diag.length2, decimals)}, {diag.verdict.value}"
        )
    for seg, diag in report.ratios.items():
        if diag.verdict is Verdict.UNDEFINED:
            print(f"{seg.name} ratio: UNDEFINED (zero denominator)")
        else:
            op = "<=" if diag.verdict is Verdict.NORMAL else ">"
            print(
                f"{seg.name} ratio: {_fmt(diag.ratio1, decimals)} {op} "
                f"{_fmt(diag.ratio2, decimals)}, {diag.verdict.value}"
            )
    tags = ", ".join(sorted(t.value for t in report.tags)) or "(none)"
    print(f"case tags: {tags}")
    print(f"overall: {report.overall.value}")


def _sweep(n_levels: int | None, lower, upper, observation):
    """The float sweep at 2 to 100001 levels; None, and no profile import, without one."""
    if n_levels is None:
        return None
    if n_levels > 100001:
        raise DomainError(f"need at most 100001 levels, got {n_levels}")
    from .profile import _sweep_in_floats

    return _sweep_in_floats(lower, upper, observation, n_levels)


def cmd_bench(args: argparse.Namespace) -> int:
    from .benchmark import builtin_cases, run_case

    cases = builtin_cases()
    if args.case is not None:
        cases = tuple(c for c in cases if c.case_id == args.case)
    # the sweeps and the CSV write, which can fail, run before the first line is
    # printed; each case's sweep follows its run, whose KH points and gaps it reuses
    out = []
    rows = []
    n_passed = 0
    for case in cases:
        result = run_case(case)
        report = result.report
        passed = result.passed
        oracle = _sweep(args.sweep, case.rule_lower, case.rule_upper, case.observation)
        if oracle is not None:
            agrees = oracle.abnormal == (report.overall is Verdict.PROBLEM)
            # a sweep that contradicts the verdict fails the case
            passed = passed and agrees
        n_passed += passed
        out.append(f"Case {case.case_id} ({case.name}): {'pass' if passed else 'FAIL'}")
        computed = report.points.as_tuple()
        dev = max(abs(c - e) for c, e in zip(computed, case.expected_points))
        out.append(
            f"  points computed={_fmt_points(computed, args.decimals)} "
            f"expected={_fmt_points(case.expected_points, args.decimals)} "
            f"max|dev|={_fmt(dev, args.decimals)}"
        )
        for check in result.checks:
            seg = check.segment.name if check.segment is not None else "-"
            # csv writes a float as its repr and None as an empty field
            rows.append((case.case_id, seg, check.name, check.computed, check.expected,
                         check.deviation, "pass" if check.passed else "fail"))
            if not check.passed:
                out.append(
                    f"  MISMATCH {seg}/{check.name}: computed={check.computed} "
                    f"expected={check.expected}"
                )
        for seg, diag in report.lengths.items():
            out.append(
                f"  {seg.name:4} {diag.path.value:15} "
                f"lengths ({_fmt(diag.length1, args.decimals)}, "
                f"{_fmt(diag.length2, args.decimals)}) "
                f"verdict {diag.verdict.value} "
                f"(expected {case.expected_segments[seg].verdict.value})"
            )
        if oracle is not None:
            out.append(
                f"  sweep({args.sweep}): min_gap={_fmt(oracle.min_gap, args.decimals)} "
                f"at level {_fmt(oracle.gap_argmin, args.decimals)}, "
                f"nested={'yes' if oracle.inf_monotone and oracle.sup_monotone else 'no'}, "
                f"abnormal={'yes' if oracle.abnormal else 'no'}, "
                f"agrees_with_verdict={'yes' if agrees else 'NO'}"
            )
        for ref in result.references:
            if ref.computed_points is None:
                shown = ref.note or _fmt_points(ref.expected_points, args.decimals)
                out.append(f"  reference {ref.method}: {ref.label} {shown} (reference only)")
            else:
                out.append(
                    f"  reference {ref.method}: {ref.label} "
                    f"{_fmt_points(ref.expected_points, args.decimals)} "
                    f"computed {_fmt_points(ref.computed_points, args.decimals)} "
                    f"{'pass' if ref.passed else 'FAIL'}"
                )
    out.append(f"{n_passed}/{len(cases)} cases passed")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ("case_id", "segment", "metric", "computed", "expected", "deviation", "pass")
            )
            writer.writerows(rows)
        out.append(f"wrote {len(rows)} rows to {args.csv}")
    print("\n".join(out))
    return 0 if n_passed == len(cases) else 1


def _flanked_document(path: str, one_dimension_only: str | None = None):
    """Load a document; return it, its rule base, observation and flanks.

    ``one_dimension_only`` is the error message with which a command defined
    for one input dimension rejects any other document, before selection.
    """
    doc = load_document(Path(path).read_bytes())
    rulebase, observation = to_rulebase(doc)
    if observation is None:
        raise ValidationError("document has no observation")
    if one_dimension_only is not None and rulebase.dimension != 1:
        raise DimensionError(one_dimension_only)
    lower, upper = select_flanking(rulebase, observation)
    return doc, rulebase, observation, lower, upper


def cmd_interpolate(args: argparse.Namespace) -> int:
    _, rulebase, observation, lower, upper = _flanked_document(args.file)
    # KHstab over more than two rules weights them all: KH's length report and
    # the sweep follow the two flanks, so its own points are judged directly
    own_points = args.method == "khstab" and len(rulebase) > 2
    if own_points and args.sweep is not None:
        raise DomainError(
            f"--sweep follows the two flanking rules, not KHstab over {len(rulebase)} rules"
        )
    # everything that can fail runs before the first line is printed
    if args.method == "khstab":
        points = khstab_points(rulebase, observation)
    else:
        points = kh_characteristic_points(lower, upper, observation)
    report = (full_report(lower, upper, observation)
              if rulebase.dimension == 1 and not own_points else None)
    oracle = _sweep(args.sweep, lower, upper, observation)
    print(f"method: {args.method}")
    print(f"conclusion points: {_fmt_points(points.as_tuple(), args.decimals)}")
    shape = assemble_conclusion(points)
    if isinstance(shape, TrapezoidSet):
        print(f"conclusion: trapezoid {_fmt_points(shape.points(), args.decimals)}")
    else:
        graded = " ".join(
            f"({_fmt(x, args.decimals)}, {_fmt(g, args.decimals)})" for x, g in shape
        )
        print(f"conclusion: ABNORMAL, graded points {graded}")
    if report is not None:
        _print_verdict_block(report, args.decimals)
        problem = report.overall is Verdict.PROBLEM
    else:
        verdicts = direct_normality(points)
        for seg, verdict in verdicts.items():
            print(f"{seg.name}: {verdict.value} (direct)")
        problem = any(v is Verdict.PROBLEM for v in verdicts.values())
    if oracle is not None:
        print(
            f"sweep({args.sweep}): min_gap={_fmt(oracle.min_gap, args.decimals)} "
            f"at level {_fmt(oracle.gap_argmin, args.decimals)}, "
            f"inf_monotone={oracle.inf_monotone}, sup_monotone={oracle.sup_monotone}, "
            f"abnormal={'yes' if oracle.abnormal else 'no'}"
        )
    return 1 if problem else 0


def cmd_validate(args: argparse.Namespace) -> int:
    doc, _, observation, lower, upper = _flanked_document(
        args.file, "validation diagnostics are defined for dimension 1"
    )
    report = full_report(lower, upper, observation)
    name = doc.metadata.get("name")
    if name:
        print(name)
    print(f"conclusion points: {_fmt_points(report.points.as_tuple(), args.decimals)}")
    _print_verdict_block(report, args.decimals)
    return 1 if report.overall is Verdict.PROBLEM else 0


def cmd_plot(args: argparse.Namespace) -> int:
    from .plotting import render_interpolation_svg

    _, _, observation, lower, upper = _flanked_document(
        args.file, "plotting is defined for dimension 1"
    )
    points = kh_characteristic_points(lower, upper, observation)
    y = points.as_tuple()
    graded = GradedPointList(((y[0], 0.0), (y[1], 1.0), (y[2], 1.0), (y[3], 0.0)))
    svg = render_interpolation_svg(lower, upper, observation, graded)
    Path(args.out).write_bytes(svg.encode("utf-8"))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fri-lab",
        description=(
            "Inverse-distance fuzzy rule interpolation with conclusion-normality "
            "diagnostics and an embedded golden benchmark."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the embedded benchmark cases")
    bench.add_argument("--case", type=int, choices=range(1, 10), metavar="N",
                       help="run a single case (1-9)")
    bench.add_argument("--csv", metavar="PATH", help="write per-check rows as CSV")
    bench.add_argument("--sweep", type=int, metavar="N",
                       help="also run the dense sweep oracle at N levels")
    bench.add_argument("--decimals", type=int, default=4,
                       help="decimals for rendered numbers (default 4)")
    bench.set_defaults(func=cmd_bench)

    interp = sub.add_parser("interpolate", help="interpolate a rule-base document")
    interp.add_argument("file", help="rule-base document (JSON)")
    interp.add_argument("--method", choices=("kh", "khstab"), default="kh")
    interp.add_argument("--sweep", type=int, metavar="N",
                        help="also run the dense sweep oracle at N levels")
    interp.add_argument("--decimals", type=int, default=4)
    interp.set_defaults(func=cmd_interpolate)

    validate = sub.add_parser("validate", help="run normality diagnostics on a document")
    validate.add_argument("file", help="rule-base document (JSON)")
    validate.add_argument("--decimals", type=int, default=4)
    validate.set_defaults(func=cmd_validate)

    plot = sub.add_parser("plot", help="render an interpolation as SVG")
    plot.add_argument("file", help="rule-base document (JSON)")
    plot.add_argument("-o", "--out", required=True, help="output SVG path")
    plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            # a reader that closed the pipe fails this flush, not the one at
            # exit; it also runs when --help leaves through SystemExit
            sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to the null device when the interpreter
        # flushes at exit, so it reports nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except (FriError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
