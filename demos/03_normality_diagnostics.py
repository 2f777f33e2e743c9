"""Walkthrough: diagnosing whether an interpolated conclusion is well formed.

The validator inspects three segments of the 4-point description: the left
boundary, the core and the right boundary. Each segment has a length
condition (with uniform-length shortcut forms) and a gap-ratio condition;
a conclusion is valid exactly when no segment inverts.

Run from the repository root:  python demos/03_normality_diagnostics.py
"""
from fri_lab import (
    Observation,
    Rule,
    Segment,
    TrapezoidSet,
    extract_segment_params,
    full_report,
    length_condition,
    ratio_condition,
)

# A configuration whose conclusion inverts on the left boundary.
rule_low = Rule((TrapezoidSet(1, 2.5, 2.5, 4),), TrapezoidSet(1, 2, 3, 4.5))
rule_high = Rule((TrapezoidSet(5.5, 7.5, 7.5, 9),), TrapezoidSet(6.5, 7, 8, 9.5))
observation = Observation((TrapezoidSet(4.5, 4.9, 5.1, 5.5),))

# Segment parameters, keyed by segment: lengths of the two antecedents, the
# two consequents and the observation on each segment, plus the gaps
# between them.
params = extract_segment_params(rule_low, rule_high, observation)[Segment.LTB]
print("left-boundary parameters:")
print(f"  antecedent lengths {params.ka1}, {params.ka2} (uniform: {params.uniform_a})")
print(f"  consequent lengths {params.kb1}, {params.kb2} (uniform: {params.uniform_b})")
print(f"  observation length {params.kastar}, gaps {params.da1}, {params.da2}, {params.db}")

# Non-uniform lengths route to the general condition; it flags the problem.
diag = length_condition(params)
print(f"  path {diag.path.value}: {diag.length1} vs {diag.length2} -> {diag.verdict.value}")

# The ratio condition reaches the same verdict from the same parameters,
# as gap proportions.
ratio = ratio_condition(params)
print(f"  ratios {ratio.ratio1:.4f} vs {ratio.ratio2:.4f} -> {ratio.verdict.value}")

# The full report keys every segment's length, ratio and direct
# point-order verdicts by segment, next to the scenario tags; the CLI
# renders the published-style verdict lines from it.
report = full_report(rule_low, rule_high, observation)
print("full report:")
print("  points:", report.points.as_tuple())
for seg, lengths in report.lengths.items():
    print(
        f"  {seg.name}: length {lengths.verdict.value}, "
        f"ratio {report.ratios[seg].verdict.value}, "
        f"direct {report.direct[seg].value}"
    )
print("  overall:", report.overall.value)
