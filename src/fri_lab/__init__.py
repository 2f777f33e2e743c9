"""Fuzzy rule interpolation over sparse rule bases, with normality diagnostics.

The library interpolates fuzzy conclusions between the two rules flanking an
observation, diagnoses whether the interpolated conclusion is a valid convex
normal fuzzy set, and ships a nine-case golden benchmark reproducing the
published expectations for both the normal and the abnormal regimes.

Importing the package loads none of its modules: each public name, and each
module, is imported on first access. ``_EXPORTS`` is the one list of public
names and of the module that owns each; the modules declare no ``__all__``.
"""
from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the public names the package re-exports from it.
_EXPORTS = {
    "errors": (),
    "cli": (),
    "sets": (
        "Interval", "TrapezoidSet", "GradedPointList", "membership_grade", "alpha_cut",
        "precedes",
    ),
    "interpolate": (
        "Rule", "RuleBase", "Observation", "ConclusionPoints", "select_flanking",
        "kh_characteristic_points", "khstab_points", "assemble_conclusion",
    ),
    "profile": ("AlphaProfile", "SweepOracleResult", "kh_alpha_profile", "sweep_oracle"),
    "normality": (
        "Segment", "Verdict", "ConditionPath", "CaseTag", "SegmentParams",
        "LengthDiagnostics", "RatioDiagnostics", "NormalityReport", "extract_segment_params",
        "length_condition", "ratio_condition", "classify_case", "direct_normality",
        "full_report",
    ),
    "benchmark": (
        "BenchmarkCase", "ExpectedSegment", "ReferenceRow", "ReferenceComparison",
        "CheckResult", "CaseReport", "BenchmarkReport", "builtin_cases", "run_case",
        "run_all", "compare_reference",
    ),
    "rulebase_io": (
        "FORMAT_VERSION", "RuleBaseDocument", "load_document", "save_document", "to_rulebase",
    ),
    "plotting": ("render_interpolation_svg",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "errors", *_OWNER]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
