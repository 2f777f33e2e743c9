"""Piecewise-linear convex normal fuzzy sets and their primitive operations.

A :class:`TrapezoidSet` is described by four ordered abscissas. Triangles
(``a2 == a3``) and singletons (all four equal) are degenerate trapezoids, so
one type covers every shape handled by the interpolation engine. All values
are immutable and all operations are pure functions.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

from ._frozen import frozen
from .errors import DomainError, OrderingViolation


@frozen
class Interval:
    """Closed real interval with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise OrderingViolation(f"interval endpoints out of order: {self.lo} > {self.hi}")


@frozen
class TrapezoidSet:
    """Convex normal fuzzy set with linear flanks.

    Membership is 0 outside ``[a1, a4]``, 1 on ``[a2, a3]`` and linear in
    between, so the chain ``a1 <= a2 <= a3 <= a4`` is enforced at
    construction.
    """

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self) -> None:
        a1, a4 = self.a1, self.a4
        try:
            # finite ends and ordered points make every point finite
            if math.isfinite(a1) and math.isfinite(a4) and a1 <= self.a2 <= self.a3 <= a4:
                return
        except (TypeError, OverflowError):
            pass  # a non-number or an int beyond the float range: diagnosed below
        pts = (a1, self.a2, self.a3, a4)
        if not all(math.isfinite(p) for p in pts):
            raise DomainError(f"abscissas must be finite, got {pts}")
        for k in range(3):
            if pts[k] > pts[k + 1]:
                raise OrderingViolation(
                    f"abscissas out of order: a{k + 1}={pts[k]} > a{k + 2}={pts[k + 1]}"
                )

    @classmethod
    def from_points(cls, values: Sequence[float]) -> "TrapezoidSet":
        """Build a set from 1, 3 or 4 abscissas.

        One value is a singleton, three values ``(a, b, c)`` a triangle
        mapped to ``(a, b, b, c)``, four values a trapezoid.
        """
        vals = list(map(float, values))
        if len(vals) == 1:
            return cls(vals[0], vals[0], vals[0], vals[0])
        if len(vals) == 3:
            return cls(vals[0], vals[1], vals[1], vals[2])
        if len(vals) == 4:
            return cls(vals[0], vals[1], vals[2], vals[3])
        raise DomainError(f"expected 1, 3 or 4 abscissas, got {len(vals)}")

    def points(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4)


@frozen
class GradedPointList:
    """Vertices of a piecewise-linear membership curve.

    Grades must lie in [0, 1] but abscissas are free to be non-monotone:
    that is exactly what an abnormal interpolation result looks like.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise DomainError("graded point list must be nonempty")
        for x, g in self.points:
            if not (math.isfinite(x) and math.isfinite(g)):
                raise DomainError(f"point ({x}, {g}) is not finite")
            if not (0.0 <= g <= 1.0):
                raise DomainError(f"grade {g} outside [0, 1]")

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def membership_grade(s: TrapezoidSet, x: float) -> float:
    """Membership of ``x``: 0 outside the support, 1 on the kernel, linear flanks.

    Raises :class:`DomainError` when ``x`` is nan, which no grade describes.
    """
    if math.isnan(x):
        raise DomainError(f"abscissa must be a number, got {x}")
    if x < s.a1 or x > s.a4:
        return 0.0
    if s.a2 <= x <= s.a3:
        return 1.0
    if x < s.a2:
        return (x - s.a1) / (s.a2 - s.a1)
    return (s.a4 - x) / (s.a4 - s.a3)


def alpha_cut(s: TrapezoidSet, alpha: float) -> Interval:
    """Crisp interval of points with membership at least ``alpha``.

    ``alpha`` may be 0 by convention, in which case the closed support is
    returned so that the cut endpoints coincide with the characteristic
    points used by the interpolation formulas. Each endpoint is clamped to
    its kernel bound: the true endpoints never cross it, but rounding of
    the flank interpolation can, by one ulp.
    """
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    lo = min(s.a2, s.a1 + alpha * (s.a2 - s.a1))
    hi = max(s.a3, s.a4 - alpha * (s.a4 - s.a3))
    return Interval(lo, hi)


def precedes(a: TrapezoidSet, b: TrapezoidSet) -> bool:
    """Strict precedence: every cut endpoint of ``a`` lies left of ``b``'s.

    Each cut endpoint is linear in the cut level, and a linear function
    that is strictly positive at both ends of [0, 1] is strictly positive
    on the whole interval, so comparing the four characteristic points
    decides the ordering for every level at once.
    """
    return a.a1 < b.a1 and a.a2 < b.a2 and a.a3 < b.a3 and a.a4 < b.a4
