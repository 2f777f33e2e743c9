"""Walkthrough: trapezoidal fuzzy sets and their primitive operations.

Run from the repository root:  python demos/01_sets_and_cuts.py
"""
from fri_lab import TrapezoidSet, alpha_cut, membership_grade, precedes

# A fuzzy set is described by four ordered abscissas: membership rises
# linearly from a1 to a2, is 1 between a2 and a3, falls back to 0 at a4.
wide = TrapezoidSet(1, 2, 3, 4)
print("set:", wide.points())

for x in (0.5, 1.5, 2.5, 3.5):
    print(f"  membership at {x}: {membership_grade(wide, x)}")

# Triangles and singletons are degenerate trapezoids.
triangle = TrapezoidSet.from_points((1, 2, 3))
spike = TrapezoidSet.from_points((2,))
print("triangle:", triangle.points(), "singleton:", spike.points())

# Cutting at a level gives the crisp interval of points at least that true;
# level 0 gives the support and level 1 the kernel.
for level in (0.0, 0.5, 1.0):
    cut = alpha_cut(wide, level)
    print(f"  cut at {level}: [{cut.lo}, {cut.hi}]")

# Precedence orders sets by every cut endpoint at once; the interpolation
# engine relies on it to find the rules flanking an observation.
left = TrapezoidSet(1, 2, 3, 4)
right = TrapezoidSet(6, 7, 8, 9)
print("left precedes right:", precedes(left, right))
print("right precedes left:", precedes(right, left))
overlapping = TrapezoidSet(1.5, 2.5, 3.5, 4.5)
print("overlapping but ordered:", precedes(left, overlapping))
