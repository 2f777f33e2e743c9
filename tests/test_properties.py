import itertools
import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fri_lab import (
    AlphaProfile,
    Observation,
    Rule,
    RuleBase,
    TrapezoidSet,
    Verdict,
    alpha_cut,
    direct_normality,
    extract_segment_params,
    kh_alpha_profile,
    kh_characteristic_points,
    khstab_points,
    length_condition,
    membership_grade,
    precedes,
    select_flanking,
    sweep_oracle,
)
from fri_lab.errors import DomainError, FriError, NotFlanked
from fri_lab.profile import _float_profile, _sweep_in_floats

from genutil import (
    FLOAT_GRID,
    INT_GRID,
    exact_profile,
    extreme_flanked_configs,
    random_flanked_config,
    random_uniform_config,
    reference_flanks,
    reference_khstab,
    rule_bases,
)

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
levels = st.floats(min_value=0, max_value=1, allow_nan=False)


@st.composite
def trapezoids(draw):
    vals = sorted(draw(st.tuples(coords, coords, coords, coords)))
    return TrapezoidSet(*vals)


@given(trapezoids(), levels)
def test_membership_grades_stay_in_unit_interval(s, x_frac):
    x = s.a1 - 1 + x_frac * (s.a4 - s.a1 + 2)
    assert 0.0 <= membership_grade(s, x) <= 1.0


@given(trapezoids(), levels, levels)
def test_alpha_cuts_nest_exactly(s, alpha1, alpha2):
    low, high = min(alpha1, alpha2), max(alpha1, alpha2)
    outer, inner = alpha_cut(s, low), alpha_cut(s, high)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


@given(trapezoids(), st.floats(min_value=1e-6, max_value=1.0), coords)
def test_membership_cut_duality(s, alpha, x):
    cut = alpha_cut(s, alpha)
    # stay clear of the cut boundary, where float rounding decides ties
    assume(abs(x - cut.lo) > 1e-6 and abs(x - cut.hi) > 1e-6)
    assert (membership_grade(s, x) >= alpha) == (cut.lo <= x <= cut.hi)


def test_profile_endpoints_match_characteristic_points_on_random_configs():
    rng = random.Random(314)
    for _ in range(1000):
        lower, upper, obs = random_flanked_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        profile = kh_alpha_profile(lower, upper, obs, n_levels=5)
        assert profile.infs[0] == points.y1
        assert profile.infs[-1] == points.y2
        assert profile.sups[-1] == points.y3
        assert profile.sups[0] == points.y4


def test_length_condition_normal_implies_points_monotone():
    # the general length condition is conservative: a NORMAL verdict
    # guarantees monotone points, on arbitrary flanked configurations
    rng = random.Random(2718)
    for _ in range(2000):
        lower, upper, obs = random_flanked_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        direct = direct_normality(points)
        for seg, p in extract_segment_params(lower, upper, obs).items():
            verdict = length_condition(p).verdict
            if verdict is Verdict.NORMAL:
                assert direct[seg] is Verdict.NORMAL


def test_uniform_length_condition_is_exact():
    # with uniform antecedent and consequent segment lengths the shortcut
    # conditions decide normality exactly, in both directions
    rng = random.Random(1618)
    for _ in range(2000):
        lower, upper, obs = random_uniform_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        direct = direct_normality(points)
        for seg, p in extract_segment_params(lower, upper, obs).items():
            verdict = length_condition(p).verdict
            assert verdict is direct[seg]


def test_two_rule_stabilised_variant_collapses_to_plain_interpolation():
    rng = random.Random(999)
    for _ in range(500):
        lower, upper, obs = random_flanked_config(rng)
        plain = kh_characteristic_points(lower, upper, obs)
        stab = khstab_points(RuleBase((lower, upper)), obs)
        for a, b in zip(plain.as_tuple(), stab.as_tuple()):
            assert a == pytest.approx(b, abs=1e-9)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10_000))
def test_interpolated_point_stays_between_consequent_points(seed):
    rng = random.Random(seed)
    lower, upper, obs = random_flanked_config(rng)
    points = kh_characteristic_points(lower, upper, obs)
    b1 = lower.consequent.points()
    b2 = upper.consequent.points()
    for y, lo, hi in zip(points.as_tuple(), b1, b2):
        assert min(lo, hi) - 1e-9 <= y <= max(lo, hi) + 1e-9


# Selection against the brute-force reference, on the rule bases of
# genutil.rule_bases: float grids exercise the binary search on chains whose
# dimensions share one order; integer grids keep the scan path's float gap
# sums exact, so that its ties are true ties.
def check_selection_against_reference(rules, obs):
    lower_ok, upper_ok = reference_flanks(rules, obs)
    rb = RuleBase(rules)
    if not lower_ok:
        with pytest.raises(NotFlanked, match="no rule precedes"):
            select_flanking(rb, obs)
    elif not upper_ok:
        with pytest.raises(NotFlanked, match="no rule succeeds"):
            select_flanking(rb, obs)
    else:
        lower, upper = select_flanking(rb, obs)
        assert any(lower is rules[i] for i in lower_ok)
        assert any(upper is rules[i] for i in upper_ok)


@settings(max_examples=200)
@given(rule_bases(1, FLOAT_GRID, shared=True))
def test_selection_matches_reference_on_1d_chains(case):
    check_selection_against_reference(*case)


@settings(max_examples=150)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda k: rule_bases(k, FLOAT_GRID, shared=True)))
def test_selection_matches_reference_on_shared_order_chains(case):
    check_selection_against_reference(*case)


@settings(max_examples=150)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda k: rule_bases(k, INT_GRID, shared=False)))
def test_selection_matches_reference_when_dimensions_order_rules_differently(case):
    check_selection_against_reference(*case)


# An observation that touches a chained rule at one to three of its four
# points is neither below nor above that rule, so the flanks are the rules
# around it: selection must bisect each column to the left of a tie on the
# lower side and to the right of it on the upper side. Each pattern moves
# the touched rule's points by -0.5, 0 or 0.5, which keeps them
# non-decreasing, since the chains' points are at least 1 apart.
TOUCH_PATTERNS = [p for p in itertools.product((-0.5, 0.0, 0.5), repeat=4)
                  if 1 <= p.count(0.0) <= 3]


def _moved(s, offsets):
    return TrapezoidSet(*(a + delta for a, delta in zip(s.points(), offsets)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("touched", range(4))
def test_selection_steps_over_a_touched_rule(k, touched):
    # dimension d is dimension 0 scaled by d + 1 and shifted by 100 * d
    columns = [[TrapezoidSet(*((10.0 * i + j) * (d + 1) + 100.0 * d for j in range(4)))
                for i in range(4)] for d in range(k)]
    rules = [Rule(tuple(col[i] for col in columns), TrapezoidSet(i, i, i, i)) for i in range(4)]
    for pattern, where, touch_dim in itertools.product(
        TOUCH_PATTERNS, ("same", "exact", "below", "above"), range(k)
    ):
        # the other dimensions touch the same rule alike or at all four
        # points, or put the observation in the gap below or above it
        offsets = {"same": pattern, "exact": (0.0,) * 4, "below": (-4.0,) * 4, "above": (4.0,) * 4}
        sets = [_moved(col[touched], pattern if d == touch_dim else offsets[where])
                for d, col in enumerate(columns)]
        check_selection_against_reference(rules, Observation(tuple(sets)))


# KHstab against the per-rule loop it replaced. Strict precedence gives
# every rule its own point j in each dimension, so at most one rule can
# touch a given observation point; an observation may take all four points
# from one rule, or its low points from one rule and its high points from a
# rule that succeeds it, so that two points hit two different rules.
@st.composite
def khstab_cases(draw, k, shared):
    rules, obs = draw(rule_bases(k, FLOAT_GRID, shared, max_rules=40))
    pairs = [(r, s) for r in rules for s in rules
             if all(map(precedes, r.antecedents, s.antecedents))]
    hit = draw(st.integers(min_value=0, max_value=3))
    if hit == 1:
        obs = Observation(draw(st.sampled_from(rules)).antecedents)
    elif hit == 2 and pairs:
        low, high = draw(st.sampled_from(pairs))
        split = draw(st.integers(min_value=1, max_value=3))
        obs = Observation(tuple(
            TrapezoidSet(*(a.points()[:split] + b.points()[split:]))
            for a, b in zip(low.antecedents, high.antecedents)
        ))
    return RuleBase(rules), obs


def check_khstab_against_reference(rb, obs):
    got = khstab_points(rb, obs).as_tuple()
    want = reference_khstab(rb, obs)
    for j, (g, w) in enumerate(zip(got, want)):
        touching = any(
            all(a.points()[j] == o.points()[j] for a, o in zip(rule.antecedents, obs.sets))
            for rule in rb.rules
        )
        if touching:
            assert g == w
        else:
            # the weights are rescaled by the nearest rule's distance, so
            # the sum rounds differently; its terms are bounded by the
            # largest consequent point
            scale = max(abs(rule.consequent.points()[j]) for rule in rb.rules)
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12 * scale)


# the nearest rule lies 5e-324 away at point 4, so 1 / d in floating point
# overflows
TINY_GAP_CASE = (
    RuleBase(
        (Rule((TrapezoidSet(0.0, 0.0, 0.0, 5e-324),), TrapezoidSet(0, 1, 2, 3)),)
        + tuple(Rule((TrapezoidSet(i, i, i, i),), TrapezoidSet(i, i + 1, i + 2, i + 3))
                for i in range(1, 18))
    ),
    Observation((TrapezoidSet(0.0, 0.0, 0.0, 0.0),)),
)


@settings(max_examples=150)
@given(khstab_cases(1, shared=True))
@example(TINY_GAP_CASE)
def test_khstab_matches_reference_on_1d_chains(case):
    check_khstab_against_reference(*case)


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda k: khstab_cases(k, shared=True)))
def test_khstab_matches_reference_on_shared_order_chains(case):
    check_khstab_against_reference(*case)


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=3).flatmap(
    lambda k: khstab_cases(k, shared=False)))
def test_khstab_matches_reference_when_dimensions_order_rules_differently(case):
    check_khstab_against_reference(*case)


# Configurations for the profiles and sweeps. In every dimension the lower
# antecedent's points lie in [0, 1], the observation's in [2, 3] and the
# upper antecedent's in [4, 5], times that dimension's power of ten; the
# consequents are free, at another power of ten.
@st.composite
def profile_cases(draw, dimensions=st.integers(min_value=1, max_value=3)):
    unit = st.floats(min_value=0, max_value=1)

    def trapezoid(offset, scale):
        points = sorted(draw(st.tuples(unit, unit, unit, unit)))
        return TrapezoidSet(*(scale * (offset + x) for x in points))

    def consequent(scale):
        points = sorted(draw(st.tuples(*[st.floats(min_value=-1, max_value=1)] * 4)))
        return TrapezoidSet(*(scale * x for x in points))

    exponent = st.integers(min_value=-300, max_value=300)
    scales = [10.0 ** draw(exponent) for _ in range(draw(dimensions))]
    lows, observed, ups = ([trapezoid(offset, scale) for scale in scales] for offset in (0, 2, 4))
    b_scale = 10.0 ** draw(exponent)
    return (Rule(tuple(lows), consequent(b_scale)), Rule(tuple(ups), consequent(b_scale)),
            Observation(tuple(observed)))


@st.composite
def nearly_touching_cases(draw):
    """1-d configurations whose observation lies 1 to 8 ulps above the lower
    antecedent at every point, and whose upper antecedent lies 1 to 8 ulps
    above the observation."""
    def nudged(points):
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            points = [math.nextafter(x, math.inf) for x in points]
        return points

    lows = sorted(draw(st.tuples(*[st.floats(min_value=-1e3, max_value=1e3)] * 4)))
    observed = nudged(lows)
    ups = nudged(observed)
    b1, b2 = (TrapezoidSet(*sorted(draw(st.tuples(*[st.floats(min_value=-1, max_value=1)] * 4))))
              for _ in range(2))
    return (Rule((TrapezoidSet(*lows),), b1), Rule((TrapezoidSet(*ups),), b2),
            Observation((TrapezoidSet(*observed),)))


@st.composite
def subnormal_spaced_cases(draw):
    """1-d configurations whose sets lie a few smallest subnormals apart."""
    tiny = 5e-324
    step = st.integers(min_value=1, max_value=5)
    lows = sorted(draw(st.integers(min_value=0, max_value=20)) * tiny for _ in range(4))
    observed = sorted(x + draw(step) * tiny for x in lows)
    ups = sorted(x + draw(step) * tiny for x in observed)
    b1, b2 = (TrapezoidSet(*sorted(draw(st.tuples(*[st.floats(min_value=-1, max_value=1)] * 4))))
              for _ in range(2))
    return (Rule((TrapezoidSet(*lows),), b1), Rule((TrapezoidSet(*ups),), b2),
            Observation((TrapezoidSet(*observed),)))


# the inf side's gaps are one smallest subnormal, the sup side's reach 1: a
# single scale for both sides would leave the inf side's interpolated gaps to
# underflow to zero
SIDE_SCALES_CASE = (
    Rule((TrapezoidSet(0, 0, 0, 5),), TrapezoidSet(1, 2, 3, 4)),
    Rule((TrapezoidSet(1e-323, 1e-323, 1e-323, 7),), TrapezoidSet(6, 7, 8, 9)),
    Observation((TrapezoidSet(5e-324, 5e-324, 5e-324, 6),)),
)


@settings(max_examples=300)
@given(st.one_of(profile_cases(dimensions=st.just(1)), nearly_touching_cases(),
                 subnormal_spaced_cases()),
       st.sampled_from((2, 3, 11, 101)))
@example(SIDE_SCALES_CASE, 11)
def test_profile_stays_within_ulps_of_the_exact_profile_in_one_dimension(case, n_levels):
    lower, upper, obs = case
    profile = kh_alpha_profile(lower, upper, obs, n_levels)
    # each endpoint is a weighted mean of consequent cut endpoints
    ulp = math.ulp(max(abs(b) for rule in (lower, upper) for b in rule.consequent.points()))
    got = (profile.infs.tolist(), profile.sups.tolist())
    for g, want in zip(got, exact_profile(lower, upper, obs, profile.levels.tolist())):
        assert max(abs(Fraction(x) - y) for x, y in zip(g, want)) <= 4 * ulp


# The CLI sweeps with _sweep_in_floats, which repeats sweep_oracle in plain
# floats. Both get the same cases as the profile test above, plus these.
T = TrapezoidSet
# consequents (0.0, -0.0, -0.0, -0.0): every cut's lower endpoint is the
# computed 0.0 * (1 - α) + -0.0 * α = +0.0, which ties a2 = -0.0, and
# np.minimum returns the computed +0.0; the upper endpoints are all -0.0, so
# the gap is -0.0 only if the tie went to the computed value
NEGATIVE_ZERO_CASE = (
    Rule((T(0, 1, 2, 3),), T(0.0, -0.0, -0.0, -0.0)),
    Rule((T(10, 11, 12, 13),), T(0.0, -0.0, -0.0, -0.0)),
    Observation((T(4, 5, 6, 7),)),
)
# the benchmark's case 6, whose inverted levels from 0.7000000000000001 on
# are those of np.linspace
CORE_INVERSION_CASE = (
    Rule((T(1, 2, 3, 4),), T(1.5, 2.5, 2.5, 3.8)),
    Rule((T(6, 7, 8, 9),), T(6.5, 7.5, 7.5, 9)),
    Observation((T(4.2, 5.2, 5.2, 6.7),)),
)
# the observation is one smallest subnormal above the lower antecedent in
# every dimension, and the upper antecedent two (dimension 0) or one above it;
# np.hypot chained pairwise gives the distances 1 and 2 smallest subnormals,
# a three-argument math.hypot 2 and 2, and the consequents' kernels differ in
# width, so the weights show in every gap
SUBNORMAL_3D_CASE = (
    Rule((T(0, 0, 0, 0),) * 3, T(1, 2, 3, 4)),
    Rule((T(*[1.5e-323] * 4), T(*[1e-323] * 4), T(*[1e-323] * 4)), T(6, 7, 9, 10)),
    Observation((T(*[5e-324] * 4),) * 3),
)
# distances of 1e-30 at level 0 and near 5e299 at level 1: no one power of
# two brings both ends of the profile into range, so each level is scaled
# on its own, and no span underflows to zero
DISTANT_SCALES_CASE = (
    Rule((T(0, 0, 0, 0),), T(1, 2, 3, 4)),
    Rule((T(2e-30, 1e300, 1e300, 1.1e300),), T(6, 7, 8, 9)),
    Observation((T(1e-30, 5e299, 5e299, 6e299),)),
)


CONSEQUENTS = (T(1, 2, 3, 4), T(6, 7, 8, 9))
# the observation one ulp above the lower antecedent and the upper one ulp
# above it: cut endpoints rounded set by set would round onto each other at
# some of 11 levels, and the gaps between them would be zero
NEAR = T(0.3, 3.3, 6.3, 9.3)
NEARER = T(0.30000000000000004, 3.3000000000000003, 6.300000000000001, 9.300000000000002)
NEAREST = T(0.3000000000000001, 3.3000000000000007, 6.300000000000002, 9.300000000000004)
# the lower antecedent's a2 - a1 overflows, so a cut of that set would be nan
# at level 0; the gaps between the sets do not overflow
SPAN_OVERFLOW = (T(-1.7e308, 1e308, 1.1e308, 1.2e308), T(0, 1.6e308, 1.65e308, 1.7e308),
                 T(-1e308, 1.3e308, 1.4e308, 1.5e308))
# two dimensions: in the first, the upper antecedent's a4 - a3 overflows, so
# a cut of that set would be nan at level 0, and at level 1/2 all three sup
# cuts would round to -7.250000000000001e307; in the second, the sets lie
# 1e-300 apart
NAN_END_DISTANCE = (
    (T(-1.75e308, -1.75e308, -1.5000000000000002e308, 4.999999999999998e306), T(0, 0, 0, 0)),
    (T(-1.65e308, -1.65e308, -7.250000000000001e307, 1.7976931348623157e308),
     T(*[2e-300] * 4)),
    (T(-1.7e308, -1.7e308, -1.5e308, 5e306), T(*[1e-300] * 4)),
)
# the gap from the lower antecedent to the observation itself overflows
GAP_OVERFLOW = (T(*[-1e308] * 4), T(*[1.5e308] * 4), T(*[1e308] * 4))
# a finite profile whose widest cut, from about -1.7e308 to 1.7e308, is wider
# than the largest float, so the sweep's sups - infs overflows to inf
WIDE_CUT_CASE = (
    Rule((T(0, 1, 2, 3),), T(-1.7e308, 0, 0, 1.7e308)),
    Rule((T(6, 7, 8, 9),), T(-1.6e308, 0, 0, 1.6e308)),
    Observation((T(4, 4.5, 4.5, 5),)),
)


def flanked(lows, ups, observed):
    return Rule(lows, CONSEQUENTS[0]), Rule(ups, CONSEQUENTS[1]), Observation(observed)


def outcome(profile_or_sweep, lower, upper, obs, n_levels):
    """The call's result, or the type and message of the error it raised."""
    try:
        return profile_or_sweep(lower, upper, obs, n_levels)
    except (FriError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(profile_cases(dimensions=st.just(1)), st.sampled_from((2, 3, 11, 101, 1001)))
@example(NEGATIVE_ZERO_CASE, 11)
@example(CORE_INVERSION_CASE, 11)
@example(DISTANT_SCALES_CASE, 11)
@example(flanked((NEAR,), (NEAREST,), (NEARER,)), 11)
@example(flanked(*[(s,) for s in SPAN_OVERFLOW]), 11)
def test_float_sweep_has_the_bits_of_sweep_oracle_in_one_dimension(case, n_levels):
    assert repr(_sweep_in_floats(*case, n_levels)) == repr(sweep_oracle(*case, n_levels))


@settings(max_examples=100)
@given(profile_cases(dimensions=st.integers(min_value=2, max_value=3)),
       st.sampled_from((2, 3, 11, 101, 1001)))
@example(SUBNORMAL_3D_CASE, 11)
@example(flanked(*NAN_END_DISTANCE), 3)
def test_float_sweep_matches_sweep_oracle_across_dimensions(case, n_levels):
    got, want = (sweep(*case, n_levels) for sweep in (_sweep_in_floats, sweep_oracle))
    assert (got.inf_monotone, got.sup_monotone, got.abnormal_levels) == (
        want.inf_monotone, want.sup_monotone, want.abnormal_levels
    )
    # the float sweep takes each distance in one math.hypot call, the library
    # folds np.hypot pairwise over the dimensions; the two may round a distance
    # apart in its last bits, which moves an endpoint by ulps of the largest
    # consequent point, as in the profile test
    lower, upper, _ = case
    ulp = math.ulp(max(abs(b) for rule in (lower, upper) for b in rule.consequent.points()))
    assert abs(got.min_gap - want.min_gap) <= 4 * ulp


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "case, n_levels, error",
    [
        (flanked((NEAR,), (NEAREST,), (NEARER,)), 1, "DomainError"),
        (flanked((NEAR,), (NEAREST,), (NEARER,)), 0, "DomainError"),
        (flanked((NEAR,), (NEAREST,), (NEARER,)), -3, "DomainError"),
        (flanked((NEAREST,), (NEAR,), (NEARER,)), 11, "OrderingViolation"),
        (flanked(*[(s,) for s in GAP_OVERFLOW]), 11, "DomainError"),
        (flanked((NEAR,), (NEAREST,), (NEARER,)), 11.0, "TypeError"),
        (flanked((NEAR,), (NEAREST,), (NEARER,)), 2.5, "TypeError"),
    ],
    ids=["1-level", "0-levels", "-3-levels", "unflanked", "gap-overflow", "11.0-levels",
         "2.5-levels"],
)
def test_float_sweep_fails_like_sweep_oracle(case, n_levels, error):
    for numpy_form, float_form in ((kh_alpha_profile, _float_profile),
                                   (sweep_oracle, _sweep_in_floats)):
        want = outcome(numpy_form, *case, n_levels)
        assert outcome(float_form, *case, n_levels) == want
        assert want[0].__name__ == error


# The library's α-profile against the CLI's plain-float profile, also at the
# float extremes, where either may fail because a gap or a distance overflowed
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300)
@given(st.one_of(profile_cases(), extreme_flanked_configs()), st.sampled_from((2, 3, 11, 101)))
@example(flanked(*[(s,) for s in GAP_OVERFLOW]), 11)
@example(SUBNORMAL_3D_CASE, 11)
@example(SIDE_SCALES_CASE, 11)
def test_profile_matches_float_profile(case, n_levels):
    got, want = (outcome(f, *case, n_levels) for f in (kh_alpha_profile, _float_profile))
    if isinstance(got, AlphaProfile):
        got = (got.levels.tolist(), got.infs.tolist(), got.sups.tolist())
    if len(got) == 2 or len(want) == 2:
        # an error on either side: the same type and message on both
        assert got == want
        return
    assert got[0] == want[0]
    lower, upper, obs = case
    if obs.dimension == 1:
        assert [list(map(float.hex, side)) for side in got[1:]] == [
            list(map(float.hex, side)) for side in want[1:]
        ]
    else:
        # one math.hypot call over the dimensions and np.hypot folded pairwise
        # may round a distance apart in its last bits; each endpoint is a
        # weighted mean of consequent points, so that moves it by ulps of the
        # largest of them
        ulp = math.ulp(max(abs(b) for rule in (lower, upper) for b in rule.consequent.points()))
        for g, w in zip(got[1:], want[1:]):
            assert max(abs(x - y) for x, y in zip(g, w)) <= 4 * ulp


# KH, the α-profile and both sweeps take the two-rule mean only between
# positive distances, so its span is never zero: on valid flanked
# configurations at any scale each returns, or fails because a gap or a
# distance overflowed and made a value that is not finite
NOT_FINITE = re.compile(r"conclusion point \S+ is not finite|profile endpoints must be finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300)
@given(extreme_flanked_configs())
@example(flanked(*[(s,) for s in GAP_OVERFLOW]))
@example(SUBNORMAL_3D_CASE)
@example(SIDE_SCALES_CASE)
@example(WIDE_CUT_CASE)
def test_two_rule_mean_is_total_on_flanked_configurations(case):
    for interpolate in (kh_characteristic_points,
                        *(partial(f, n_levels=11)
                          for f in (kh_alpha_profile, sweep_oracle, _sweep_in_floats))):
        try:
            interpolate(*case)
        except DomainError as exc:
            assert NOT_FINITE.fullmatch(str(exc))
