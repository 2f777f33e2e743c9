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
  each distance in one call, and the 101-level sweep's ``abnormal`` equal.
  KHstab's points stay bit-identical when every dimension orders the rules
  alike, so that the rules are weighted in one chain order.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fri_lab import (
    Observation,
    Rule,
    RuleBase,
    Segment,
    TrapezoidSet,
    full_report,
    kh_characteristic_points,
    khstab_points,
    sweep_oracle,
)

from genutil import (
    FLOAT_GRID,
    matched_observation_config,
    random_flanked_config,
    random_uniform_config,
    rule_bases,
    shared_shape_config,
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
        assert sweep_oracle(*permuted, 101).abnormal == sweep_oracle(lower, upper, obs, 101).abnormal


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
