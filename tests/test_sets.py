import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        assert s.points() == (2.0,) * 4

    def test_ordering_violation_reports_first_bad_pair(self):
        message = "abscissas out of order: a2=3.0 > a3=2.0"
        with pytest.raises(OrderingViolation, match=f"^{re.escape(message)}$"):
            TrapezoidSet(1.0, 3.0, 2.0, 4.0)

    def test_rejects_non_finite(self):
        message = "abscissas must be finite, got (1, 2, 3, inf)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            TrapezoidSet(1, 2, 3, math.inf)

    def test_from_points_triangle(self):
        assert TrapezoidSet.from_points((1, 2, 3)).points() == (1.0, 2.0, 2.0, 3.0)

    def test_from_points_singleton(self):
        assert TrapezoidSet.from_points((5,)).points() == (5.0, 5.0, 5.0, 5.0)

    def test_from_points_bad_arity(self):
        with pytest.raises(DomainError):
            TrapezoidSet.from_points((1, 2))


def _reference_check(a1, a2, a3, a4):
    """TrapezoidSet's check as a loop over every point, the reference for its
    one-comparison form."""
    pts = (a1, a2, a3, a4)
    if not all(math.isfinite(p) for p in pts):
        raise DomainError(f"abscissas must be finite, got {pts}")
    for k in range(3):
        if pts[k] > pts[k + 1]:
            raise OrderingViolation(
                f"abscissas out of order: a{k + 1}={pts[k]} > a{k + 2}={pts[k + 1]}"
            )


def _outcome(check, pts):
    try:
        check(*pts)
    except (DomainError, OrderingViolation, OverflowError, TypeError) as exc:
        return type(exc), str(exc)
    return None


_ABSCISSAS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.integers(-3, 3),
    st.sampled_from([10**400, -10**400]),
)


@st.composite
def _four_abscissas(draw):
    """Four values drawn from a pool of at most four, so neighbours are often
    equal, and sorted half of the time, so valid sets are drawn often."""
    pool = draw(st.lists(_ABSCISSAS, min_size=1, max_size=4))
    pts = draw(st.lists(st.sampled_from(pool), min_size=4, max_size=4))
    return sorted(pts) if draw(st.booleans()) else pts


@settings(max_examples=500)
@given(_four_abscissas())
# finite ends checked first would raise OverflowError; the nan comes first
@example([0.0, math.nan, 1.0, 10**400])
@example([0, 1, 2, 10**400])
@example([-0.0, 0.0, 0, -0.0])
@example([0.0, None, 1.0, 2.0])  # not a number: the reference's TypeError
def test_set_check_matches_reference_loop(pts):
    assert _outcome(TrapezoidSet, pts) == _outcome(_reference_check, pts)


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

    @pytest.mark.parametrize("points", [(0, 1, 2, 2), (1, 1, 1, 1), (0, 1, 2, 3)])
    def test_nan_abscissa_is_domain_error(self, points):
        with pytest.raises(DomainError):
            membership_grade(TrapezoidSet(*points), math.nan)

    @pytest.mark.parametrize("points", [(0, 1, 2, 2), (1, 1, 1, 1), (0, 1, 2, 3)])
    def test_infinite_abscissa_has_grade_zero(self, points):
        s = TrapezoidSet(*points)
        assert membership_grade(s, math.inf) == membership_grade(s, -math.inf) == 0.0


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


@pytest.mark.parametrize(
    "lo, hi, error, message",
    [
        (1, math.inf, DomainError, "interval endpoints must be finite, got [1, inf]"),
        (3, 2, OrderingViolation, "interval endpoints out of order: 3 > 2"),
    ],
    ids=["non-finite-end", "ends-out-of-order"],
)
def test_malformed_interval_rejected(lo, hi, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Interval(lo, hi)


class TestConvexNormal:
    def test_grade_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            GradedPointList(((0, 0.0), (1, 1.2)))

    @pytest.mark.parametrize(
        "points, message",
        [
            ((), "graded point list must be nonempty"),
            (((0, 0.0), (math.nan, 1.0)), "point (nan, 1.0) is not finite"),
        ],
        ids=["empty", "nan-abscissa"],
    )
    def test_malformed_points_rejected(self, points, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            GradedPointList(points)


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

