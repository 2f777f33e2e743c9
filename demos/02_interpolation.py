"""Walkthrough: interpolating a conclusion between two flanking rules.

A sparse rule base leaves gaps between rule antecedents. When an observation
falls into a gap, no rule fires, but a conclusion can still be interpolated
from the two closest surrounding rules: each conclusion point is the
inverse-distance weighted mean of the corresponding consequent points.

Run from the repository root:  python demos/02_interpolation.py
"""
from fri_lab import (
    GradedPointList,
    Observation,
    Rule,
    RuleBase,
    TrapezoidSet,
    assemble_conclusion,
    kh_alpha_profile,
    kh_characteristic_points,
    khstab_points,
    select_flanking,
)

# Two rules with a wide gap between their antecedents.
rule_low = Rule((TrapezoidSet(1, 2, 3, 4),), TrapezoidSet(1, 2, 3, 4))
rule_high = Rule((TrapezoidSet(6, 7, 8, 9),), TrapezoidSet(6, 7, 8, 9))
base = RuleBase((rule_low, rule_high))

observation = Observation((TrapezoidSet(4, 4.8, 5.2, 6),))
lower, upper = select_flanking(base, observation)
points = kh_characteristic_points(lower, upper, observation)
print("well-behaved case")
print("  conclusion points:", points.as_tuple())
print("  assembled:", assemble_conclusion(points))

# The same machinery can produce points that are NOT monotone. Here the
# consequents have singleton cores while the antecedents do not, and the
# interpolated core inverts: the conclusion is not a valid fuzzy set.
rule_low = Rule((TrapezoidSet(1, 2, 3, 4),), TrapezoidSet(1.5, 2.5, 2.5, 3.8))
rule_high = Rule((TrapezoidSet(6, 7, 8, 9),), TrapezoidSet(6.5, 7.5, 7.5, 9))
observation = Observation((TrapezoidSet(4.2, 5.2, 5.2, 6.7),))
points = kh_characteristic_points(rule_low, rule_high, observation)
print("abnormal case")
print("  conclusion points:", points.as_tuple())
shape = assemble_conclusion(points)
assert isinstance(shape, GradedPointList)
print("  assembled: raw graded points", tuple(shape))

# Sweeping the cut levels shows where the inversion lives: the interval at
# the top level is inverted (its lower endpoint is above its upper one).
profile = kh_alpha_profile(rule_low, rule_high, observation, n_levels=5)
for level, inf, sup in profile:
    marker = "  <-- inverted" if inf > sup else ""
    print(f"  level {level:4.2f}: [{inf:.3f}, {sup:.3f}]{marker}")

# The stabilised variant weights every rule by its inverse distance. With
# just two flanking rules it coincides with the plain form.
stab = khstab_points(RuleBase((rule_low, rule_high)), observation)
print("stabilised variant on the two-rule base:", stab.as_tuple())
