import math
import random

import pytest

from fri_lab import (
    GradedPointList,
    Interval,
    TrapezoidSet,
    alpha_cut,
    membership_grade,
    precedes,
)
from fri_lab.errors import DomainError, OrderingViolation

from genutil import random_trapezoid


class TestMakeSet:
    def test_plain_trapezoid(self):
        s = TrapezoidSet(1, 2, 3, 4)
        assert s.points() == (1.0, 2.0, 3.0, 4.0)

    def test_singleton(self):
        s = TrapezoidSet(2, 2, 2, 2)
        assert s.is_singleton and s.is_triangle
        assert s.points() == (2.0, 2.0, 2.0, 2.0)

    def test_ordering_violation_reports_first_bad_pair(self):
        with pytest.raises(OrderingViolation, match="a2=3.0 > a3=2.0"):
            TrapezoidSet(1.0, 3.0, 2.0, 4.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            TrapezoidSet(1, 2, 3, math.inf)

    def test_from_points_triangle(self):
        assert TrapezoidSet.from_points((1, 2, 3)).points() == (1.0, 2.0, 2.0, 3.0)

    def test_from_points_singleton(self):
        assert TrapezoidSet.from_points((5,)).points() == (5.0, 5.0, 5.0, 5.0)

    def test_from_points_bad_arity(self):
        with pytest.raises(DomainError):
            TrapezoidSet.from_points((1, 2))


class TestMembership:
    @pytest.mark.parametrize(
        "x,expected",
        [(2.5, 1.0), (1.5, 0.5), (0.5, 0.0), (1.0, 0.0), (4.0, 0.0), (3.5, 0.5)],
    )
    def test_grades_on_1234(self, x, expected):
        assert membership_grade(TrapezoidSet(1, 2, 3, 4), x) == pytest.approx(expected)

    def test_singleton_spike(self):
        s = TrapezoidSet(2, 2, 2, 2)
        assert membership_grade(s, 2.0) == 1.0
        assert membership_grade(s, 2.0 + 1e-12) == 0.0


class TestAlphaCut:
    def test_kernel_at_one(self):
        assert alpha_cut(TrapezoidSet(1, 2, 3, 4), 1.0) == Interval(2, 3)

    def test_half_height(self):
        assert alpha_cut(TrapezoidSet(1, 2, 3, 4), 0.5) == Interval(1.5, 3.5)

    def test_singleton(self):
        assert alpha_cut(TrapezoidSet(2, 2, 2, 2), 0.7) == Interval(2, 2)

    def test_zero_is_closed_support(self):
        assert alpha_cut(TrapezoidSet(1, 2, 3, 4), 0.0) == Interval(1, 4)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            alpha_cut(TrapezoidSet(1, 2, 3, 4), 1.5)

    def test_kernel_clamp_survives_catastrophic_cancellation(self):
        # the raw flank interpolation rounds the upper endpoint below the
        # kernel here; the clamp keeps the cut a valid interval
        tiny = 2.3200107436778142e-306
        s = TrapezoidSet(0.0, tiny, tiny, 1.0)
        cut = alpha_cut(s, 1.0)
        assert cut.lo == cut.hi == tiny


class TestConvexNormal:
    def test_grade_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            GradedPointList(((0, 0.0), (1, 1.2)))


class TestPrecedes:
    def test_disjoint_ordered(self):
        assert precedes(TrapezoidSet(1, 2, 3, 4), TrapezoidSet(6, 7, 8, 9))

    def test_irreflexive(self):
        s = TrapezoidSet(1, 2, 3, 4)
        assert not precedes(s, s)

    def test_support_infima_out_of_order(self):
        assert not precedes(TrapezoidSet(1, 2, 3, 4), TrapezoidSet(0, 3, 4, 5))

    def test_overlapping_but_ordered(self):
        assert precedes(TrapezoidSet(1, 2, 3, 4), TrapezoidSet(1.5, 2.5, 3.5, 4.5))


def test_precedes_is_strict_partial_order_on_random_triples():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (random_trapezoid(rng) for _ in range(3))
        assert not precedes(a, a)
        if precedes(a, b):
            assert not precedes(b, a)
        if precedes(a, b) and precedes(b, c):
            assert precedes(a, c)

