"""The frozen value classes: reprs, equality, hashing, immutability, construction,
and copies, pickles and weak references of the slotted instances."""
import copy
import pickle
import weakref
from enum import Enum

import pytest

import fri_lab
from fri_lab import (
    AlphaProfile,
    BenchmarkCase,
    BenchmarkReport,
    CaseReport,
    CheckResult,
    ConclusionPoints,
    ConditionPath,
    ExpectedSegment,
    GradedPointList,
    Interval,
    LengthDiagnostics,
    Observation,
    RatioDiagnostics,
    ReferenceComparison,
    ReferenceRow,
    Rule,
    RuleBase,
    RuleBaseDocument,
    Segment,
    SweepOracleResult,
    TrapezoidSet,
    Verdict,
    extract_segment_params,
    full_report,
)


def flanked() -> tuple[Rule, Rule, Observation]:
    return (
        Rule((TrapezoidSet(0.0, 1.0, 2.0, 3.0),), TrapezoidSet(0.0, 0.0, 0.0, 0.0)),
        Rule((TrapezoidSet(6.0, 7.0, 8.0, 9.0),), TrapezoidSet(4.0, 4.0, 4.0, 4.0)),
        Observation((TrapezoidSet(3.0, 4.0, 4.0, 5.0),)),
    )


LOWER, UPPER, OBS = flanked()


def examples():
    """A fresh small instance of every public value class."""
    lower, upper, obs = flanked()
    report = full_report(lower, upper, obs)
    check = CheckResult("point_y1", None, 2.0, 2.0, 0.0, 0.011, True)
    reference = ReferenceComparison("KH", "y", (1.0,), "", (1.0, 1.0, 1.0, 1.0), 0.0, True)
    case_report = CaseReport(1, "one", (check,), report, (reference,))
    return {
        "Interval": Interval(1.0, 2.0),
        "TrapezoidSet": TrapezoidSet(0.0, 1.0, 2.0, 3.0),
        "GradedPointList": GradedPointList(((0.0, 0.0), (1.0, 1.0))),
        "Rule": lower,
        "Observation": obs,
        "RuleBase": RuleBase((lower, upper)),
        "ConclusionPoints": ConclusionPoints(1.5, 2.0, 2.0, 2.5),
        "AlphaProfile": AlphaProfile([0.0, 1.0], [1.0, 2.0], [3.0, 2.0]),
        "SegmentParams": extract_segment_params(lower, upper, obs)[Segment.CORE],
        "LengthDiagnostics": report.lengths[Segment.CORE],
        "RatioDiagnostics": report.ratios[Segment.LTB],
        "NormalityReport": report,
        "RuleBaseDocument": RuleBaseDocument("1", 1, (lower,), obs, {"name": "x"}),
        "ExpectedSegment": ExpectedSegment(
            0.0, 0.5, 1.2, 1.25, ConditionPath.GENERAL, Verdict.NORMAL
        ),
        "ReferenceRow": ReferenceRow("KH", "y", (1.0, 2.0)),
        "BenchmarkCase": BenchmarkCase(
            1, "one", lower, upper, obs, (2.0,) * 4, (2.0,) * 4, {}, Verdict.NORMAL,
            frozenset(), (), "note",
        ),
        "CheckResult": check,
        "CaseReport": case_report,
        "BenchmarkReport": BenchmarkReport((case_report,)),
        "SweepOracleResult": SweepOracleResult(0.5, 1.0, True, False, ()),
        "ReferenceComparison": reference,
    }


# as printed by the classes when the standard library generated their
# methods; the two reports also appear nested in the reprs of the classes
# that hold them
NORMALITY_REPORT = (
    'NormalityReport(points=ConclusionPoints(y1=2.0, y2=2.0, y3=1.3333333333333333, '
    "y4=1.3333333333333333), lengths={<Segment.LTB: 'LTB'>: LengthDiagnostics("
    "path=<ConditionPath.UNIFORM_NONZERO: 'UNIFORM_NONZERO'>, length1=0.0, length2=0.0, "
    "verdict=<Verdict.NORMAL: 'NORMAL'>), "
    "<Segment.CORE: 'Core'>: LengthDiagnostics("
    "path=<ConditionPath.UNIFORM_ZERO: 'UNIFORM_ZERO'>, length1=4.0, length2=0.0, "
    "verdict=<Verdict.PROBLEM: 'PROBLEM'>), "
    "<Segment.RTB: 'RTB'>: LengthDiagnostics("
    "path=<ConditionPath.UNIFORM_NONZERO: 'UNIFORM_NONZERO'>, length1=0.0, length2=0.0, "
    "verdict=<Verdict.NORMAL: 'NORMAL'>)}, "
    "ratios={<Segment.LTB: 'LTB'>: RatioDiagnostics(ratio1=0.8, ratio2=1.25, "
    "verdict=<Verdict.NORMAL: 'NORMAL'>), "
    "<Segment.CORE: 'Core'>: RatioDiagnostics(ratio1=0.8, ratio2=1.0, "
    "verdict=<Verdict.NORMAL: 'NORMAL'>), <Segment.RTB: 'RTB'>: RatioDiagnostics("
    "ratio1=0.8, ratio2=1.25, verdict=<Verdict.NORMAL: 'NORMAL'>)}, "
    "direct={<Segment.LTB: 'LTB'>: <Verdict.NORMAL: 'NORMAL'>, "
    "<Segment.CORE: 'Core'>: <Verdict.PROBLEM: 'PROBLEM'>, "
    "<Segment.RTB: 'RTB'>: <Verdict.NORMAL: 'NORMAL'>}, tags=frozenset(), "
    "overall=<Verdict.PROBLEM: 'PROBLEM'>)"
)

CASE_REPORT = (
    "CaseReport(case_id=1, name='one', checks=(CheckResult(name='point_y1', "
    'segment=None, computed=2.0, expected=2.0, deviation=0.0, tolerance=0.011, '
    f'passed=True),), report={NORMALITY_REPORT}, '
    "references=(ReferenceComparison(method='KH', label='y', expected_points=(1.0,), "
    "note='', computed_points=(1.0, 1.0, 1.0, 1.0), deviation=0.0, passed=True),))"
)

REPRS = {
    "AlphaProfile": (
        'AlphaProfile(levels=array([0., 1.]), infs=array([1., 2.]), sups=array([3., 2.]))'
    ),
    "BenchmarkCase": (
        "BenchmarkCase(case_id=1, name='one', "
        'rule_lower=Rule(antecedents=(TrapezoidSet(a1=0.0, a2=1.0, a3=2.0, a4=3.0),), '
        'consequent=TrapezoidSet(a1=0.0, a2=0.0, a3=0.0, a4=0.0)), '
        'rule_upper=Rule(antecedents=(TrapezoidSet(a1=6.0, a2=7.0, a3=8.0, a4=9.0),), '
        'consequent=TrapezoidSet(a1=4.0, a2=4.0, a3=4.0, a4=4.0)), '
        'observation=Observation(sets=(TrapezoidSet(a1=3.0, a2=4.0, a3=4.0, a4=5.0),)), '
        'expected_points=(2.0, 2.0, 2.0, 2.0), exact_points=(2.0, 2.0, 2.0, 2.0), '
        "expected_segments={}, expected_overall=<Verdict.NORMAL: 'NORMAL'>, "
        "expected_tags=frozenset(), reference_rows=(), provenance_note='note')"
    ),
    "BenchmarkReport": f"BenchmarkReport(case_reports=({CASE_REPORT},))",
    "CaseReport": CASE_REPORT,
    "CheckResult": (
        "CheckResult(name='point_y1', segment=None, computed=2.0, expected=2.0, "
        'deviation=0.0, tolerance=0.011, passed=True)'
    ),
    "ConclusionPoints": 'ConclusionPoints(y1=1.5, y2=2.0, y3=2.0, y4=2.5)',
    "ExpectedSegment": (
        'ExpectedSegment(length1=0.0, length2=0.5, ratio1=1.2, ratio2=1.25, '
        "path=<ConditionPath.GENERAL: 'GENERAL'>, verdict=<Verdict.NORMAL: 'NORMAL'>)"
    ),
    "GradedPointList": 'GradedPointList(points=((0.0, 0.0), (1.0, 1.0)))',
    "Interval": 'Interval(lo=1.0, hi=2.0)',
    "LengthDiagnostics": (
        "LengthDiagnostics(path=<ConditionPath.UNIFORM_ZERO: 'UNIFORM_ZERO'>, "
        "length1=4.0, length2=0.0, verdict=<Verdict.PROBLEM: 'PROBLEM'>)"
    ),
    "NormalityReport": NORMALITY_REPORT,
    "Observation": 'Observation(sets=(TrapezoidSet(a1=3.0, a2=4.0, a3=4.0, a4=5.0),))',
    "RatioDiagnostics": (
        "RatioDiagnostics(ratio1=0.8, ratio2=1.25, verdict=<Verdict.NORMAL: 'NORMAL'>)"
    ),
    "ReferenceComparison": (
        "ReferenceComparison(method='KH', label='y', expected_points=(1.0,), note='', "
        'computed_points=(1.0, 1.0, 1.0, 1.0), deviation=0.0, passed=True)'
    ),
    "ReferenceRow": "ReferenceRow(method='KH', label='y', points=(1.0, 2.0), note='')",
    "Rule": (
        'Rule(antecedents=(TrapezoidSet(a1=0.0, a2=1.0, a3=2.0, a4=3.0),), '
        'consequent=TrapezoidSet(a1=0.0, a2=0.0, a3=0.0, a4=0.0))'
    ),
    "RuleBase": (
        'RuleBase(rules=(Rule(antecedents=(TrapezoidSet(a1=0.0, a2=1.0, a3=2.0, a4=3.0),), '
        'consequent=TrapezoidSet(a1=0.0, a2=0.0, a3=0.0, a4=0.0)), '
        'Rule(antecedents=(TrapezoidSet(a1=6.0, a2=7.0, a3=8.0, a4=9.0),), '
        'consequent=TrapezoidSet(a1=4.0, a2=4.0, a3=4.0, a4=4.0))))'
    ),
    "RuleBaseDocument": (
        "RuleBaseDocument(version='1', dimension=1, "
        'rules=(Rule(antecedents=(TrapezoidSet(a1=0.0, a2=1.0, a3=2.0, a4=3.0),), '
        'consequent=TrapezoidSet(a1=0.0, a2=0.0, a3=0.0, a4=0.0)),), '
        'observation=Observation(sets=(TrapezoidSet(a1=3.0, a2=4.0, a3=4.0, a4=5.0),)), '
        "metadata={'name': 'x'})"
    ),
    "SegmentParams": (
        "SegmentParams(ka1=1.0, ka2=1.0, kb1=0.0, kb2=0.0, "
        'kastar=0.0, da1=2.0, da2=3.0, da_gap=5.0, db=4.0)'
    ),
    "SweepOracleResult": (
        'SweepOracleResult(min_gap=0.5, gap_argmin=1.0, inf_monotone=True, '
        'sup_monotone=False, abnormal_levels=())'
    ),
    "TrapezoidSet": 'TrapezoidSet(a1=0.0, a2=1.0, a3=2.0, a4=3.0)',
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_unchanged(name):
    assert repr(examples()[name]) == REPRS[name]


def test_every_public_value_class_is_covered():
    public = (getattr(fri_lab, name) for name in fri_lab.__all__)
    classes = {c.__name__ for c in public if isinstance(c, type) and not issubclass(c, Enum)}
    assert classes == set(REPRS) == set(examples())


# a field holding a dict or an array makes these unhashable, as it always did
UNHASHABLE = {
    "AlphaProfile", "BenchmarkCase", "BenchmarkReport", "CaseReport", "NormalityReport",
    "RuleBaseDocument",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_fresh_instances_are_equal_and_hash_alike(name):
    first, second = examples()[name], examples()[name]
    assert first is not second
    if name == "AlphaProfile":  # comparing arrays has no single truth value
        with pytest.raises(ValueError):
            first == second
    else:
        assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_equality_between_classes_is_not_implemented():
    points = TrapezoidSet(1.0, 2.0, 2.0, 3.0)
    conclusion = ConclusionPoints(1.0, 2.0, 2.0, 3.0)
    assert points.__eq__(conclusion) is NotImplemented
    assert points != conclusion
    assert points != (1.0, 2.0, 2.0, 3.0)
    assert points != TrapezoidSet(1.0, 2.0, 2.0, 4.0)


def test_hash_is_over_the_compared_fields():
    points = TrapezoidSet(1.0, 2.0, 2.0, 3.0)
    assert hash(points) == hash((1.0, 2.0, 2.0, 3.0))
    graded = GradedPointList(((0.0, 0.0), (1.0, 1.0)))
    assert hash(graded) == hash((((0.0, 0.0), (1.0, 1.0)),))
    assert hash(RuleBase((LOWER, UPPER))) == hash(((LOWER, UPPER),))


@pytest.mark.parametrize("name", sorted(REPRS))
def test_assignment_and_deletion_raise(name):
    value = examples()[name]
    field_name = next(iter(type(value).__annotations__))
    before = getattr(value, field_name)
    for attribute in (field_name, "x"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attribute}'"):
            setattr(value, attribute, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attribute}'"):
            delattr(value, attribute)
    assert getattr(value, field_name) is before


COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)),
          "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(REPRS))
def test_copies_are_equal(name, how):
    value = examples()[name]
    copied = COPIES[how](value)
    assert type(copied) is type(value)
    if name == "AlphaProfile":  # comparing arrays has no single truth value
        for field in ("levels", "infs", "sups"):
            assert (getattr(copied, field) == getattr(value, field)).all()
            assert not getattr(copied, field).flags.writeable
    else:
        assert copied == value and repr(copied) == repr(value)


def test_instances_take_weak_references():
    value = TrapezoidSet(0.0, 1.0, 2.0, 3.0)
    ref = weakref.ref(value)
    assert ref() is value


def test_fields_live_in_slots_not_in_the_instance_dict():
    value = TrapezoidSet(0.0, 1.0, 2.0, 3.0)
    assert "a1" not in vars(value)
    assert type(value).__slots__ == ("a1", "a2", "a3", "a4", "__dict__", "__weakref__")


@pytest.mark.parametrize("how", sorted(COPIES))
def test_rule_base_keeps_its_cached_views_when_copied(how):
    base = RuleBase((UPPER, LOWER))
    assert base._point_rows and base._chain_columns  # built and cached
    copied = COPIES[how](base)
    for name in ("dimension", "_ranked", "_chain", "_point_rows", "_chain_columns"):
        assert name in vars(copied) and getattr(copied, name) == getattr(base, name)
    # the copied chain holds the copy's own rules, not further copies of them
    assert copied._chain[0] is copied.rules[1] and copied._chain[1] is copied.rules[0]


def test_keyword_construction():
    assert TrapezoidSet(a4=3.0, a3=2.0, a2=2.0, a1=1.0) == TrapezoidSet(1.0, 2.0, 2.0, 3.0)
    assert RuleBaseDocument(version="1", dimension=1, rules=(LOWER,)).observation is None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TrapezoidSet(1.0, 2.0, 3.0), r"TrapezoidSet.__init__\(\) missing 1 required "
         r"positional argument: 'a4'"),
        (lambda: Rule(), r"Rule.__init__\(\) missing 2 required positional arguments: "
         r"'antecedents' and 'consequent'"),
        (lambda: TrapezoidSet(1.0, 2.0, 3.0, a5=4.0), "unexpected keyword argument 'a5'"),
        (lambda: RuleBase((LOWER, UPPER), dimension=1),
         "unexpected keyword argument 'dimension'"),
    ],
    ids=["missing", "missing-two", "unknown-keyword", "derived-field"],
)
def test_bad_arguments_raise_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_each_document_gets_its_own_metadata():
    first = RuleBaseDocument("1", 1, (LOWER,))
    second = RuleBaseDocument("1", 1, (LOWER,))
    assert first.metadata == {} and first.metadata is not second.metadata


def test_excluded_fields_stay_out_of_repr_and_equality():
    base = RuleBase((UPPER, LOWER))
    assert "_chain" not in repr(base) and base._chain == (LOWER, UPPER)
    assert base == RuleBase((UPPER, LOWER))
    assert base != RuleBase((LOWER, UPPER))
