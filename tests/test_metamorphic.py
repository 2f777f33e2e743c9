"""Metamorphic relations, each exact: bits or verdict labels, never a tolerance.

Each relation transforms a valid input and states what the outputs must do:

- Rule order: the same rules given in another order give bit-identical
  KHstab points, since the rule base weights its rules in one canonical
  order.
- Mirror: negating every coordinate, reversing each set's points and
  swapping the two rules negates and reverses the KH points bit for bit; LTB
  and RTB trade their length verdicts, paths and direct verdicts, and the
  tags, the overall verdict and the 101-level sweep's ``abnormal`` stay.
- Dimension order: permuting the input dimensions of the rules and the
  observation leaves the KH points bit-identical, since ``math.hypot`` takes
  each distance in one call. The numpy α-profile and its 101-level sweep,
  which fold ``np.hypot`` over the dimensions in an order fixed by their
  values, stay bit-identical, and so do the CLI's plain-float profile and
  sweep, which take each distance in KH's one call; that profile's levels 0
  and 1 are KH's points. KHstab's points stay bit-identical when every
  dimension orders the rules alike, so that the rules are weighted in one
  chain order.
- Rule order again: shuffling a rule base's rules leaves the flanks that
  ``select_flanking`` picks, ties in summed gap included.
- Powers of two: scaling the antecedents and the observation by ``2**p`` and
  the consequents by ``2**q`` scales the KH and KHstab points and both
  α-profiles by exactly ``2**q``.
"""
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fri_lab import (
    Observation,
    Rule,
    RuleBase,
    Segment,
    TrapezoidSet,
    full_report,
    kh_alpha_profile,
    kh_characteristic_points,
    khstab_points,
    select_flanking,
    sweep_oracle,
)
from fri_lab.errors import NotFlanked
from fri_lab.profile import _float_profile, _sweep_in_floats

from genutil import (
    FLOAT_GRID,
    matched_observation_config,
    random_flanked_config,
    random_uniform_config,
    random_shape,
    random_trapezoid,
    rule_bases,
    shared_shape_config,
    trap,
    uniform_core_config,
)


def bits(values):
    """Floats as hex strings, so that -0.0 and 0.0 differ."""
    return tuple(map(float.hex, values))


@st.composite
def shuffled_rule_bases(draw):
    """A rule base of one to three dimensions, whose dimensions share one
    chain order or not, its rules in a second order, and an observation."""
    k = draw(st.integers(min_value=1, max_value=3))
    shared = k == 1 or draw(st.booleans())
    rules, obs = draw(rule_bases(k, FLOAT_GRID, shared, max_rules=8))
    return rules, draw(st.permutations(rules)), obs


@settings(max_examples=300)
@given(shuffled_rule_bases())
def test_rule_order_leaves_khstab_bits(case):
    rules, shuffled, obs = case
    assert bits(khstab_points(RuleBase(shuffled), obs).as_tuple()) == bits(
        khstab_points(RuleBase(rules), obs).as_tuple()
    )


def mirror_set(s: TrapezoidSet) -> TrapezoidSet:
    return TrapezoidSet(-s.a4, -s.a3, -s.a2, -s.a1)


def mirror_rule(rule: Rule) -> Rule:
    return Rule(tuple(map(mirror_set, rule.antecedents)), mirror_set(rule.consequent))


MIRRORED = {Segment.LTB: Segment.RTB, Segment.CORE: Segment.CORE, Segment.RTB: Segment.LTB}
GENERATORS = [random_flanked_config, random_uniform_config, shared_shape_config,
              matched_observation_config, uniform_core_config]
DRAWS = 400


@pytest.mark.parametrize("generate", GENERATORS, ids=lambda generate: generate.__name__)
def test_mirror_negates_points_and_trades_boundaries(generate):
    rng = random.Random(7)
    for _ in range(DRAWS):
        lower, upper, obs = generate(rng)
        mirrored = (mirror_rule(upper), mirror_rule(lower),
                    Observation(tuple(map(mirror_set, obs.sets))))
        points = kh_characteristic_points(lower, upper, obs).as_tuple()
        assert bits(kh_characteristic_points(*mirrored).as_tuple()) == bits(
            -y for y in reversed(points)
        )
        report, image = full_report(lower, upper, obs), full_report(*mirrored)
        for seg, other in MIRRORED.items():
            assert image.lengths[other].verdict is report.lengths[seg].verdict
            assert image.lengths[other].path is report.lengths[seg].path
            assert image.direct[other] is report.direct[seg]
        assert image.tags == report.tags
        assert image.overall is report.overall
        sweep = sweep_oracle(lower, upper, obs, 101)
        assert sweep_oracle(*mirrored, 101).abnormal == sweep.abnormal


def permute_dimensions(rule: Rule, order) -> Rule:
    return Rule(tuple(rule.antecedents[d] for d in order), rule.consequent)


def kd_config(rng, k):
    """k flanked dimensions, each one draw of random_flanked_config; the
    consequents are those of the first draw."""
    draws = [random_flanked_config(rng) for _ in range(k)]
    lower = Rule(tuple(lo.antecedents[0] for lo, _, _ in draws), draws[0][0].consequent)
    upper = Rule(tuple(up.antecedents[0] for _, up, _ in draws), draws[0][1].consequent)
    return lower, upper, Observation(tuple(obs.sets[0] for _, _, obs in draws))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dimension_order_leaves_kh_bits_and_the_sweep(k):
    rng = random.Random(11)
    for _ in range(DRAWS):
        lower, upper, obs = kd_config(rng, k)
        order = rng.sample(range(k), k)
        permuted = (permute_dimensions(lower, order), permute_dimensions(upper, order),
                    Observation(tuple(obs.sets[d] for d in order)))
        assert bits(kh_characteristic_points(*permuted).as_tuple()) == bits(
            kh_characteristic_points(lower, upper, obs).as_tuple()
        )
        got, want = (kh_alpha_profile(*config, 101) for config in (permuted, (lower, upper, obs)))
        assert [bits(side) for side in (got.infs, got.sups)] == [
            bits(side) for side in (want.infs, want.sups)
        ]
        assert repr(sweep_oracle(*permuted, 101)) == repr(sweep_oracle(lower, upper, obs, 101))


@st.composite
def dimension_permuted_chains(draw):
    """A rule base of two or three dimensions that order the rules alike, an
    observation, and an order of the dimensions."""
    k = draw(st.integers(min_value=2, max_value=3))
    rules, obs = draw(rule_bases(k, FLOAT_GRID, True, max_rules=8))
    return rules, obs, draw(st.permutations(range(k)))


@settings(max_examples=300)
@given(dimension_permuted_chains())
def test_dimension_order_leaves_khstab_bits_on_shared_chains(case):
    rules, obs, order = case
    permuted = RuleBase(tuple(permute_dimensions(rule, order) for rule in rules))
    assert bits(khstab_points(permuted, Observation(tuple(obs.sets[d] for d in order)))
                .as_tuple()) == bits(khstab_points(RuleBase(rules), obs).as_tuple())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dimension_order_leaves_the_float_profile_and_sweep_bits(k):
    rng = random.Random(5)
    for _ in range(DRAWS):
        lower, upper, obs = kd_config(rng, k)
        order = rng.sample(range(k), k)
        permuted = (permute_dimensions(lower, order), permute_dimensions(upper, order),
                    Observation(tuple(obs.sets[d] for d in order)))
        assert [bits(side) for side in _float_profile(*permuted, 101)] == [
            bits(side) for side in _float_profile(lower, upper, obs, 101)
        ]
        assert repr(_sweep_in_floats(*permuted, 101)) == repr(
            _sweep_in_floats(lower, upper, obs, 101)
        )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_float_profile_ends_are_the_kh_points(k):
    rng = random.Random(5)
    for _ in range(DRAWS):
        lower, upper, obs = kd_config(rng, k)
        _, (y1, y2), (y4, y3) = _float_profile(lower, upper, obs, 2)
        assert bits((y1, y2, y3, y4)) == bits(
            kh_characteristic_points(lower, upper, obs).as_tuple()
        )


def singleton(x: float) -> TrapezoidSet:
    return TrapezoidSet(x, x, x, x)


# both lower candidates' summed gaps overflow to inf: the tie goes to L1, first
# in dimension 0's order, whatever the input order
L1 = Rule((singleton(-1.7e308), singleton(-1e308)), singleton(1))
L2 = Rule((singleton(-1e308), singleton(-1.5e308)), singleton(2))
U = Rule((singleton(1.7e308), singleton(1.7e308)), singleton(3))
OVERFLOW_OBSERVATION = Observation((singleton(1e308), singleton(1e308)))


def flanks(rules, obs):
    """The flanks ``select_flanking`` picks, or the message of its NotFlanked."""
    try:
        return select_flanking(RuleBase(rules), obs)
    except NotFlanked as exc:
        return str(exc)


@settings(max_examples=300)
@given(shuffled_rule_bases())
@example(((L1, L2, U), (L2, L1, U), OVERFLOW_OBSERVATION))
def test_rule_order_leaves_the_flanks(case):
    rules, shuffled, obs = case
    assert flanks(shuffled, obs) == flanks(rules, obs)


def test_overflowing_gaps_pick_the_first_lower_flank_in_any_order():
    for rules in itertools.permutations((L1, L2, U)):
        lower, upper = select_flanking(RuleBase(rules), OVERFLOW_OBSERVATION)
        assert lower is L1 and upper is U


def scale_set(s: TrapezoidSet, p: int) -> TrapezoidSet:
    return TrapezoidSet(*(math.ldexp(x, p) for x in s.points()))


def scale_rule(rule: Rule, p: int, q: int) -> Rule:
    return Rule(tuple(scale_set(s, p) for s in rule.antecedents), scale_set(rule.consequent, q))


def scale_observation(obs: Observation, p: int) -> Observation:
    return Observation(tuple(scale_set(s, p) for s in obs.sets))


def scaled_bits(values, q):
    return bits(math.ldexp(y, q) for y in values)


def two_rule_khstab(lower, upper, obs):
    return khstab_points(RuleBase((lower, upper)), obs)


def assert_points_scale(lower, upper, obs, p, q):
    """KH, two-rule KHstab and both α-profiles of the scaled configuration
    are the originals times ``2**q``, bit for bit."""
    scaled = (scale_rule(lower, p, q), scale_rule(upper, p, q), scale_observation(obs, p))
    for points in (kh_characteristic_points, two_rule_khstab):
        assert bits(points(*scaled).as_tuple()) == scaled_bits(
            points(lower, upper, obs).as_tuple(), q
        )
    levels, *sides = _float_profile(lower, upper, obs, 11)
    image_levels, *image_sides = _float_profile(*scaled, 11)
    assert image_levels == levels
    assert list(map(bits, image_sides)) == [scaled_bits(side, q) for side in sides]
    profile, image = kh_alpha_profile(lower, upper, obs, 11), kh_alpha_profile(*scaled, 11)
    for side, image_side in ((profile.infs, image.infs), (profile.sups, image.sups)):
        assert bits(image_side.tolist()) == scaled_bits(side.tolist(), q)


def exponents(rng):
    return rng.randint(-60, 60), rng.randint(-60, 60)


@pytest.mark.parametrize("generate", GENERATORS, ids=lambda generate: generate.__name__)
def test_powers_of_two_scale_the_points(generate):
    rng = random.Random(7)
    for _ in range(DRAWS):
        assert_points_scale(*generate(rng), *exponents(rng))


def kd_chain(rng, k, n):
    """``n`` rules whose antecedents form one chain in each of ``k``
    dimensions, and an observation at the same place in every dimension's
    chain, between two rules."""
    where = rng.randint(1, n - 1)
    columns = []
    for _ in range(k):
        column = [trap(rng.uniform(-5, 5), *random_shape(rng))]
        for _ in range(n):
            column.append(trap(column[-1].a4 + rng.uniform(0.05, 3), *random_shape(rng)))
        columns.append(column)
    rules = [Rule(tuple(column[i] for column in columns), random_trapezoid(rng))
             for i in range(n + 1) if i != where]
    return rules, Observation(tuple(column[where] for column in columns))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_powers_of_two_scale_the_points_across_dimensions(k):
    rng = random.Random(11)
    for _ in range(DRAWS):
        p, q = exponents(rng)
        assert_points_scale(*kd_config(rng, k), p, q)
        rules, obs = kd_chain(rng, k, rng.randint(3, 8))
        scaled = RuleBase(tuple(scale_rule(rule, p, q) for rule in rules))
        assert bits(khstab_points(scaled, scale_observation(obs, p)).as_tuple()) == scaled_bits(
            khstab_points(RuleBase(rules), obs).as_tuple(), q
        )
