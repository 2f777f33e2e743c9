import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fri_lab import (
    Observation,
    Rule,
    RuleBase,
    Segment,
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
)
from fri_lab.errors import NotFlanked

from genutil import (
    random_flanked_config,
    random_uniform_config,
    reference_flanks,
    reference_khstab,
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
        assert abs(profile.infs[0] - points.y1) <= 1e-9
        assert abs(profile.infs[-1] - points.y2) <= 1e-9
        assert abs(profile.sups[-1] - points.y3) <= 1e-9
        assert abs(profile.sups[0] - points.y4) <= 1e-9


def test_length_condition_normal_implies_points_monotone():
    # the general length condition is conservative: a NORMAL verdict
    # guarantees monotone points, on arbitrary flanked configurations
    rng = random.Random(2718)
    for _ in range(2000):
        lower, upper, obs = random_flanked_config(rng)
        points = kh_characteristic_points(lower, upper, obs)
        direct = direct_normality(points)
        for seg in Segment:
            verdict = length_condition(
                extract_segment_params(lower, upper, obs, seg)
            ).verdict
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
        for seg in Segment:
            verdict = length_condition(
                extract_segment_params(lower, upper, obs, seg)
            ).verdict
            assert verdict is direct[seg]


def test_two_rule_stabilised_variant_collapses_to_plain_interpolation():
    rng = random.Random(999)
    for _ in range(500):
        lower, upper, obs = random_flanked_config(rng)
        plain = kh_characteristic_points(lower, upper, obs)
        stab = khstab_points(RuleBase((lower, upper)), obs, exponent=1.0)
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


# Selection against the brute-force reference. Float coordinates exercise
# the binary search on chains whose dimensions share one order; integer
# coordinates keep the scan path's float gap sums exact, so that its ties
# are true ties. A grid draws a chain's start, the step between neighbours,
# the segment widths and where an observation sits within a gap.
FLOAT_GRID = (
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=50),
    st.floats(min_value=0, max_value=50),
    st.floats(min_value=0.01, max_value=0.99),
)
INT_GRID = (
    st.integers(min_value=-20, max_value=20).map(float),
    st.integers(min_value=1, max_value=4).map(float),
    st.integers(min_value=0, max_value=4).map(float),
    st.sampled_from((0.25, 0.5, 0.75)),
)


@st.composite
def chain_column(draw, n, grid):
    """``n`` antecedents in one dimension, each strictly left of the next."""
    start, step, width, _ = grid
    rows = []
    for i in range(n):
        row = []
        for j in range(4):
            floor = row[-1] + draw(width) if j else draw(start)
            if i:
                floor = max(floor, rows[-1][j] + draw(step))
            row.append(floor)
        rows.append(row)
    return [TrapezoidSet(*row) for row in rows]


def _placed(ranked, where, t):
    """A set between ``ranked[where - 1]`` and ``ranked[where]``, past the ends
    when ``where`` is 0 or ``len(ranked)``."""
    if where == 0:
        first = ranked[0]
        return TrapezoidSet(*(p - (first.a4 - first.a1) - 1 for p in first.points()))
    if where == len(ranked):
        last = ranked[-1]
        return TrapezoidSet(*(p + (last.a4 - last.a1) + 1 for p in last.points()))
    lo, hi = ranked[where - 1].points(), ranked[where].points()
    return TrapezoidSet(*((1 - t) * a + t * b for a, b in zip(lo, hi)))


@st.composite
def rule_bases(draw, k, grid, shared, max_rules=8):
    """Rules in shuffled input order, with an observation.

    With ``shared`` every dimension orders the rules alike; otherwise each
    dimension after the first orders them by its own permutation, which is
    never the identity. The observation sits at the same rank in every
    dimension's order, or anywhere.
    """
    n = draw(st.integers(min_value=1 if shared else 2, max_value=max_rules))
    columns = [draw(chain_column(n, grid)) for _ in range(k)]
    if not shared:
        for d in range(1, k):
            if draw(st.booleans()):
                perm = draw(st.permutations(range(n)))
                if perm == list(range(n)):
                    perm = perm[::-1]
            else:  # one swap of neighbours leaves most observations flanked
                perm = list(range(n))
                swap = draw(st.integers(min_value=0, max_value=n - 2))
                perm[swap], perm[swap + 1] = perm[swap + 1], perm[swap]
            columns[d] = [columns[d][i] for i in perm]
    rules = [
        Rule(tuple(col[i] for col in columns), TrapezoidSet(i, i + 1, i + 2, i + 3))
        for i in range(n)
    ]
    rules = [rules[i] for i in draw(st.permutations(range(n)))]
    where = draw(st.sampled_from((0, n)) if draw(st.integers(min_value=0, max_value=3)) == 0
                 else st.integers(min_value=1, max_value=max(1, n - 1)))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        sets = [TrapezoidSet(*sorted(draw(grid[0]) for _ in range(4))) for _ in columns]
    else:
        sets = [_placed(sorted(col, key=lambda s: s.a1), where, draw(grid[3])) for col in columns]
    return rules, Observation(tuple(sets))


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
    return RuleBase(rules), obs, draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))


def check_khstab_against_reference(rb, obs, exponent):
    got = khstab_points(rb, obs, exponent).as_tuple()
    want = reference_khstab(rb, obs, exponent)
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


@settings(max_examples=150)
@given(khstab_cases(1, shared=True))
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
