"""Fuzzy rule interpolation over sparse rule bases, with normality diagnostics.

The library interpolates fuzzy conclusions between the two rules flanking an
observation, diagnoses whether the interpolated conclusion is a valid convex
normal fuzzy set, and ships a nine-case golden benchmark reproducing the
published expectations for both the normal and the abnormal regimes.
"""
from . import errors
from .benchmark import (
    BenchmarkCase,
    BenchmarkReport,
    CaseReport,
    CheckResult,
    ExpectedSegment,
    ReferenceComparison,
    ReferenceRow,
    SweepOracleResult,
    builtin_cases,
    compare_reference,
    run_all,
    run_case,
    sweep_oracle,
)
from .fixtures import export_fixtures, fixture_document, fixture_filename
from .interpolate import (
    AlphaProfile,
    ConclusionPoints,
    Observation,
    Rule,
    RuleBase,
    assemble_conclusion,
    kh_alpha_profile,
    kh_characteristic_points,
    khstab_points,
    select_flanking,
)
from .normality import (
    CaseTag,
    ConditionPath,
    LengthDiagnostics,
    NormalityReport,
    RatioDiagnostics,
    Segment,
    SegmentParams,
    Verdict,
    classify_case,
    direct_normality,
    extract_segment_params,
    full_report,
    length_condition,
    ratio_condition,
)
from .plotting import render_interpolation_svg
from .rulebase_io import (
    FORMAT_VERSION,
    RuleBaseDocument,
    document_from_sets,
    load_document,
    save_document,
    to_rulebase,
)
from .sets import (
    GradedPointList,
    Interval,
    TrapezoidSet,
    alpha_cut,
    membership_grade,
    precedes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    # sets
    "Interval",
    "TrapezoidSet",
    "GradedPointList",
    "membership_grade",
    "alpha_cut",
    "precedes",
    # interpolation
    "Rule",
    "RuleBase",
    "Observation",
    "ConclusionPoints",
    "AlphaProfile",
    "select_flanking",
    "kh_characteristic_points",
    "kh_alpha_profile",
    "khstab_points",
    "assemble_conclusion",
    # normality
    "Segment",
    "Verdict",
    "ConditionPath",
    "CaseTag",
    "SegmentParams",
    "LengthDiagnostics",
    "RatioDiagnostics",
    "NormalityReport",
    "extract_segment_params",
    "length_condition",
    "ratio_condition",
    "classify_case",
    "direct_normality",
    "full_report",
    # benchmark
    "BenchmarkCase",
    "ExpectedSegment",
    "ReferenceRow",
    "ReferenceComparison",
    "CheckResult",
    "CaseReport",
    "BenchmarkReport",
    "SweepOracleResult",
    "builtin_cases",
    "run_case",
    "run_all",
    "sweep_oracle",
    "compare_reference",
    # documents
    "FORMAT_VERSION",
    "RuleBaseDocument",
    "load_document",
    "save_document",
    "document_from_sets",
    "to_rulebase",
    "fixture_document",
    "fixture_filename",
    "export_fixtures",
    # plotting
    "render_interpolation_svg",
]
