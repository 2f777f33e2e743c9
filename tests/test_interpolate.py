import math
import random
import re

import numpy as np
import pytest

from fri_lab import (
    AlphaProfile,
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
from fri_lab.errors import (
    DimensionError,
    DomainError,
    NotFlanked,
    OrderingViolation,
)
from fri_lab.interpolate import TOL, _at_most, _close

from genutil import random_flanked_config


def rule1d(antecedent, consequent):
    return Rule(
        (TrapezoidSet.from_points(antecedent),), TrapezoidSet.from_points(consequent)
    )


def obs1d(values):
    return Observation((TrapezoidSet.from_points(values),))


class TestSelectFlanking:
    def test_two_rule_base(self):
        r1 = rule1d((1, 2, 3), (2, 2, 2))
        r2 = rule1d((7, 8, 9), (8, 8, 8))
        lower, upper = select_flanking(RuleBase((r1, r2)), obs1d((4, 5, 5, 6)))
        assert lower is r1 and upper is r2

    def test_observation_left_of_everything(self):
        rb = RuleBase((rule1d((4, 5, 6, 7), (1, 2, 3, 4)),))
        with pytest.raises(NotFlanked, match="precedes"):
            select_flanking(rb, obs1d((0, 1, 1, 2)))

    def test_nearest_pair_among_three(self):
        rules = (
            rule1d((1, 2, 3, 4), (1, 2, 3, 4)),
            rule1d((6, 7, 8, 9), (6, 7, 8, 9)),
            rule1d((11, 12, 13, 14), (11, 12, 13, 14)),
        )
        lower, upper = select_flanking(RuleBase(rules), obs1d((4.5, 5, 5, 5.5)))
        assert lower is rules[0] and upper is rules[1]

    def test_incomparable_rulebase_rejected(self):
        with pytest.raises(OrderingViolation):
            RuleBase((rule1d((1, 2, 3, 4), (0, 0, 0, 0)),
                      rule1d((1, 2, 3, 4), (5, 5, 5, 5))))

    def test_rules_out_of_input_order(self):
        rules = (
            rule1d((11, 12, 13, 14), (11, 12, 13, 14)),
            rule1d((1, 2, 3, 4), (1, 2, 3, 4)),
            rule1d((16, 17, 18, 19), (16, 17, 18, 19)),
            rule1d((6, 7, 8, 9), (6, 7, 8, 9)),
        )
        lower, upper = select_flanking(RuleBase(rules), obs1d((9.5, 10, 10, 10.5)))
        assert lower is rules[3] and upper is rules[0]

    def test_incomparable_pair_named_by_input_index_and_dimension(self):
        # rules 0 and 2 are not neighbours in input order; in dimension 1
        # rule 2's antecedent starts first but ends last
        def rule2d(first, second):
            return Rule((TrapezoidSet(*first), TrapezoidSet(*second)), TrapezoidSet(0, 0, 0, 0))

        rules = (
            rule2d((1, 2, 3, 4), (5, 6, 7, 8)),
            rule2d((11, 12, 13, 14), (21, 22, 23, 24)),
            rule2d((31, 32, 33, 34), (4, 6, 7, 9)),
        )
        with pytest.raises(OrderingViolation, match=r"rules 0 and 2 .* dimension 1$"):
            RuleBase(rules)

    def test_adjacent_lower_flank_when_rounded_gaps_tie(self):
        # 1e17 - 0 and 1e17 - 1 round to the same float, so the summed gaps of
        # the first two rules tie; the lower flank is still the nearer rule
        rules = (
            rule1d((-3, -2, -1, 0), (0, 0, 0, 0)),
            rule1d((-2, -1, 0, 1), (1, 1, 1, 1)),
            rule1d((3e17,), (2, 2, 2, 2)),
        )
        lower, upper = select_flanking(RuleBase(rules), obs1d((1e17,)))
        assert lower is rules[1] and upper is rules[2]


class TestCharacteristicPoints:
    def test_core_inversion_case(self):
        points = kh_characteristic_points(
            rule1d((1, 2, 3, 4), (1.5, 2.5, 2.5, 3.8)),
            rule1d((6, 7, 8, 9), (6.5, 7.5, 7.5, 9)),
            obs1d((4.2, 5.2, 5.2, 6.7)),
        )
        assert points.as_tuple() == pytest.approx((4.7, 5.7, 4.7, 6.608), abs=1e-12)

    def test_symmetric_triangular_case(self):
        points = kh_characteristic_points(
            rule1d((1, 2.5, 2.5, 4), (1, 2.5, 2.5, 4)),
            rule1d((6, 7.5, 7.5, 9), (6, 7.5, 7.5, 9)),
            obs1d((4.5, 5, 5.5)),
        )
        assert points.as_tuple() == pytest.approx((4.5, 5, 5, 5.5), abs=1e-12)

    def test_singleton_antecedents_case(self):
        points = kh_characteristic_points(
            rule1d((2, 2, 2), (1, 2, 3, 4)),
            rule1d((8, 8, 8), (6, 7, 8, 9)),
            obs1d((4.5, 5, 5, 5.5)),
        )
        assert points.as_tuple() == pytest.approx(
            (18.5 / 6, 4.5, 5.5, 41.5 / 6), abs=1e-12
        )

    def test_midpoint_observation_averages_consequents(self):
        points = kh_characteristic_points(
            rule1d((0, 1, 2, 3), (0, 1, 2, 3)),
            rule1d((10, 11, 12, 13), (10, 11, 12, 13)),
            obs1d((5, 6, 7, 8)),
        )
        assert points.as_tuple() == pytest.approx((5, 6, 7, 8), abs=1e-12)

    def test_rejects_unflanked_observation(self):
        with pytest.raises(OrderingViolation):
            kh_characteristic_points(
                rule1d((1, 2, 3, 4), (1, 2, 3, 4)),
                rule1d((6, 7, 8, 9), (6, 7, 8, 9)),
                obs1d((0, 0, 0, 0)),
            )

    def test_rejects_observation_reaching_into_the_upper_antecedent(self):
        with pytest.raises(OrderingViolation, match="^observation does not precede the upper"):
            kh_characteristic_points(
                rule1d((1, 2, 3, 4), (1, 2, 3, 4)),
                rule1d((6, 7, 8, 9), (6, 7, 8, 9)),
                obs1d((5, 6, 7, 10)),
            )

    def test_dimension_mismatch(self):
        r = rule1d((1, 2, 3, 4), (1, 2, 3, 4))
        two_d = Observation((TrapezoidSet(4, 5, 5, 6), TrapezoidSet(4, 5, 5, 6)))
        with pytest.raises(DimensionError):
            kh_characteristic_points(r, rule1d((6, 7, 8, 9), (6, 7, 8, 9)), two_d)


@pytest.mark.parametrize("method", [select_flanking, khstab_points])
def test_rule_base_rejects_an_observation_of_another_dimension(method):
    rb = RuleBase((rule1d((1, 2, 3, 4), (1, 2, 3, 4)), rule1d((6, 7, 8, 9), (6, 7, 8, 9))))
    two_d = Observation((TrapezoidSet(4, 5, 5, 6),) * 2)
    with pytest.raises(DimensionError, match="^rule base dimension 1 does not match "
                                             "observation dimension 2$"):
        method(rb, two_d)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Rule((), TrapezoidSet(1, 2, 3, 4)),
         "a rule needs at least one antecedent dimension"),
        (lambda: Observation(()), "an observation needs at least one dimension"),
        (lambda: RuleBase(()), "rule base must contain at least one rule"),
        (lambda: RuleBase((
            rule1d((1, 2, 3, 4), (1, 2, 3, 4)),
            Rule((TrapezoidSet(6, 7, 8, 9),) * 2, TrapezoidSet(6, 7, 8, 9)),
        )), "rule 1 has dimension 2, expected 1"),
    ],
    ids=["antecedent-less-rule", "empty-observation", "empty-rule-base", "mixed-dimensions"],
)
def test_model_records_reject_missing_or_mixed_dimensions(build, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        build()


class TestMultiDimension:
    def test_identical_dimensions_reduce_to_one(self):
        shift = 10.0
        lower = Rule(
            (TrapezoidSet(1, 2, 3, 4), TrapezoidSet(1 + shift, 2 + shift, 3 + shift, 4 + shift)),
            TrapezoidSet(1, 2, 3, 4),
        )
        upper = Rule(
            (TrapezoidSet(6, 7, 8, 9), TrapezoidSet(6 + shift, 7 + shift, 8 + shift, 9 + shift)),
            TrapezoidSet(6, 7, 8, 9),
        )
        obs = Observation(
            (TrapezoidSet(4, 4.8, 5.2, 6),
             TrapezoidSet(4 + shift, 4.8 + shift, 5.2 + shift, 6 + shift))
        )
        points = kh_characteristic_points(lower, upper, obs)
        assert points.as_tuple() == pytest.approx((4, 4.8, 5.2, 6), abs=1e-12)

    def test_root_sum_square_aggregation(self):
        # per-dimension distances (3, 4) and (4, 3): both aggregate to 5
        lower = Rule(
            (TrapezoidSet(1, 1, 1, 1), TrapezoidSet(0, 0, 0, 0)),
            TrapezoidSet(0, 0, 0, 0),
        )
        upper = Rule(
            (TrapezoidSet(8, 8, 8, 8), TrapezoidSet(7, 7, 7, 7)),
            TrapezoidSet(10, 10, 10, 10),
        )
        obs = Observation((TrapezoidSet(4, 4, 4, 4), TrapezoidSet(4, 4, 4, 4)))
        points = kh_characteristic_points(lower, upper, obs)
        assert points.as_tuple() == pytest.approx((5, 5, 5, 5), abs=1e-12)

    def test_distances_do_not_overflow_at_huge_coordinates(self):
        # scaling every antecedent and the observation scales both distances
        # alike, so the weights, the conclusion and its profile stay the same
        def scaled(factor):
            def at(*points):
                return TrapezoidSet(*(factor * p for p in points))

            lower = Rule((at(1, 1, 1, 1), at(0, 0, 0, 0)), TrapezoidSet(0, 0, 0, 0))
            upper = Rule((at(8, 8, 8, 8), at(9, 9, 9, 9)), TrapezoidSet(10, 10, 10, 10))
            obs = Observation((at(4, 4, 4, 4), at(4, 4, 4, 4)))
            points = kh_characteristic_points(lower, upper, obs)
            profile = kh_alpha_profile(lower, upper, obs, n_levels=5)
            return (*points.as_tuple(), *profile.infs.tolist(), *profile.sups.tolist())

        assert scaled(1e200) == pytest.approx(scaled(1.0), rel=1e-12)


class TestAlphaProfile:
    def ex6(self):
        return (
            rule1d((1, 2, 3, 4), (1.5, 2.5, 2.5, 3.8)),
            rule1d((6, 7, 8, 9), (6.5, 7.5, 7.5, 9)),
            obs1d((4.2, 5.2, 5.2, 6.7)),
        )

    def test_core_inverts_at_top_level(self):
        profile = kh_alpha_profile(*self.ex6(), n_levels=11)
        assert profile.infs[-1] == pytest.approx(5.7, abs=1e-12)
        assert profile.sups[-1] == pytest.approx(4.7, abs=1e-12)
        assert profile.sups[-1] - profile.infs[-1] == pytest.approx(-1.0, abs=1e-12)

    def test_endpoints_match_characteristic_points(self):
        lower, upper, obs = self.ex6()
        points = kh_characteristic_points(lower, upper, obs)
        profile = kh_alpha_profile(lower, upper, obs, n_levels=101)
        assert profile.infs[0] == pytest.approx(points.y1, abs=1e-9)
        assert profile.infs[-1] == pytest.approx(points.y2, abs=1e-9)
        assert profile.sups[-1] == pytest.approx(points.y3, abs=1e-9)
        assert profile.sups[0] == pytest.approx(points.y4, abs=1e-9)

    def test_dense_sweep_of_normal_case_is_nested(self):
        lower = rule1d((1, 2, 3, 4), (1, 2, 3, 4))
        upper = rule1d((6, 7, 8, 9), (6, 7, 8, 9))
        profile = kh_alpha_profile(lower, upper, obs1d((4, 4.8, 5.2, 6)), n_levels=1001)
        gaps = profile.sups - profile.infs
        assert gaps.min() >= -1e-12
        assert all(d >= -1e-12 for d in (profile.infs[1:] - profile.infs[:-1]))
        assert all(d <= 1e-12 for d in (profile.sups[1:] - profile.sups[:-1]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_consequents_do_not_overflow_the_mean(self):
        # d2*b1 + d1*b2 overflows at consequents near 1e307 unless the
        # distances are scaled down first; the mean itself scales linearly
        def interpolate(factor):
            lower = rule1d((1, 2, 3, 4), [factor * b for b in (1.5, 2.5, 2.5, 3.8)])
            upper = rule1d((6, 7, 8, 9), [factor * b for b in (6.5, 7.5, 7.5, 9)])
            obs = obs1d((4.2, 5.2, 5.2, 6.7))
            points = kh_characteristic_points(lower, upper, obs)
            profile = kh_alpha_profile(lower, upper, obs, n_levels=5)
            return [*points.as_tuple(), *profile.infs.tolist(), *profile.sups.tolist()]

        assert interpolate(1e307) == pytest.approx(
            [1e307 * v for v in interpolate(1.0)], rel=1e-12
        )

    def test_too_few_levels(self):
        with pytest.raises(DomainError):
            kh_alpha_profile(*self.ex6(), n_levels=1)

    @pytest.mark.parametrize(
        "levels, infs, sups, message",
        [
            ([0.0, 1.0], [1.0, 2.0], [3.0],
             "levels, infs and sups must be 1-d arrays of equal length"),
            ([0.0, 0.5], [1.0, 2.0], [3.0, 2.0], "levels must run from 0 to 1"),
            ([0.0, 0.5, 0.5, 1.0], [1.0] * 4, [3.0] * 4, "levels must be strictly increasing"),
        ],
        ids=["unequal-lengths", "levels-short-of-one", "repeated-level"],
    )
    def test_malformed_arrays_rejected(self, levels, infs, sups, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            AlphaProfile(levels, infs, sups)

    def test_profile_arrays_read_only(self):
        profile = kh_alpha_profile(*self.ex6(), n_levels=5)
        with pytest.raises(ValueError):
            profile.infs[0] = 0.0


class TestKhStab:
    def test_matches_reference_row_for_core_inversion(self):
        rb = RuleBase(
            (
                rule1d((1, 2, 3, 4), (1.5, 2.5, 2.5, 3.8)),
                rule1d((6, 7, 8, 9), (6.5, 7.5, 7.5, 9)),
            )
        )
        points = khstab_points(rb, obs1d((4.2, 5.2, 5.2, 6.7)))
        assert points.as_tuple() == pytest.approx((4.7, 5.7, 4.7, 6.608), abs=1e-9)

    def test_matches_reference_row_for_all_segment_inversion(self):
        rb = RuleBase(
            (rule1d((2, 2, 2.5, 3), (2, 2, 2, 2)), rule1d((6, 7.5, 8, 8), (8, 8, 8, 8)))
        )
        points = khstab_points(rb, obs1d((5, 5, 5, 5)))
        assert points.as_tuple() == pytest.approx(
            (6.5, 29 / 5.5, 26 / 5.5, 4.4), abs=1e-9
        )

    def test_single_rule_returns_its_consequent(self):
        rb = RuleBase((rule1d((1, 2, 3, 4), (7, 8, 8.5, 9)),))
        points = khstab_points(rb, obs1d((10, 11, 11, 12)))
        assert points.as_tuple() == pytest.approx((7, 8, 8.5, 9), abs=1e-12)

    def test_zero_distance_rule_wins(self):
        rb = RuleBase(
            (rule1d((1, 2, 3, 4), (0, 0, 0, 0)), rule1d((6, 7, 8, 9), (10, 10, 10, 10)))
        )
        # observation point 1 touches the first antecedent's point 1 exactly
        points = khstab_points(rb, obs1d((1, 5, 5, 5.5)))
        assert points.y1 == 0.0
        assert points.y2 != 0.0

    def test_touched_consequent_point_is_taken_as_is(self):
        rb = RuleBase(
            (rule1d((1, 2, 3, 4), (-0.0, 0.5, 1, 1)), rule1d((6, 7, 8, 9), (10, 10, 10, 10)))
        )
        points = khstab_points(rb, obs1d((1, 5, 5, 5.5)))
        assert math.copysign(1.0, points.y1) == -1.0

    def test_weights_do_not_overflow_at_huge_coordinates(self):
        # 1/d overflows for d below 2**-1024 and is subnormal above 2**1022;
        # weights relative to the nearest rule do neither, and they are
        # unchanged by scaling every antecedent
        def base(scale):
            return RuleBase(
                tuple(
                    Rule(
                        tuple(TrapezoidSet(*(scale * (x + 6 * i) for x in (1, 2, 3, 4)))
                              for _ in range(2)),
                        TrapezoidSet(i, i + 1, i + 2, i + 3),
                    )
                    for i in range(3)
                )
            )

        def observe(scale):
            return Observation((TrapezoidSet(*(scale * x for x in (4.5, 5, 5, 5.5))),) * 2)

        plain = khstab_points(base(1.0), observe(1.0))
        for scale in (math.ldexp(1.0, 1018), math.ldexp(1.0, -1030)):
            scaled = khstab_points(base(scale), observe(scale))
            assert scaled.as_tuple() == pytest.approx(plain.as_tuple(), rel=1e-12)

    def test_weighted_sum_does_not_overflow_at_huge_consequents(self):
        # three weighted consequent points near 2**1023 sum past the largest
        # float; scaling by a power of two gives the same bits, only scaled
        def base(shift):
            return RuleBase(tuple(
                rule1d((10 * i, 10 * i + 1, 10 * i + 2, 10 * i + 3),
                       tuple(math.ldexp(i + j, shift) for j in range(1, 5)))
                for i in range(3)
            ))

        obs = obs1d((5, 6, 7, 8.5))
        huge = khstab_points(base(1021), obs).as_tuple()
        plain = khstab_points(base(0), obs).as_tuple()
        assert huge == tuple(math.ldexp(y, 1021) for y in plain)

    def test_point_cache_leaves_equality_hash_and_repr(self):
        def base():
            return RuleBase(
                (rule1d((1, 2, 3, 4), (1, 2, 3, 4)), rule1d((6, 7, 8, 9), (6, 7, 8, 9)))
            )

        cached, fresh = base(), base()
        observation = obs1d((4.5, 5, 5, 5.5))
        khstab_points(cached, observation)
        select_flanking(cached, observation)
        for view in ("_point_rows", "_chain_columns"):
            assert view in vars(cached) and view not in vars(fresh)
        assert cached._chain_columns == ((1, 6), (2, 7), (3, 8), (4, 9))
        assert cached == fresh
        assert hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)

    def test_degenerate_two_rule_equality_random(self):
        rng = random.Random(11)
        for _ in range(200):
            lower, upper, obs = random_flanked_config(rng)
            kh = kh_characteristic_points(lower, upper, obs)
            stab = khstab_points(RuleBase((lower, upper)), obs)
            for a, b in zip(kh.as_tuple(), stab.as_tuple()):
                assert a == pytest.approx(b, abs=1e-9)


class TestAssembleConclusion:
    def test_monotone_points_become_trapezoid(self):
        shape = assemble_conclusion(
            kh_characteristic_points(
                rule1d((1.5, 2, 2, 2.5), (1, 2, 3, 4)),
                rule1d((6.5, 7, 7, 7.5), (6, 7, 8, 9)),
                obs1d((4.5, 4.5, 4.5, 4.5)),
            )
        )
        assert isinstance(shape, TrapezoidSet)
        assert shape.points() == pytest.approx((4, 4.5, 5.5, 6))

    def test_inverted_points_stay_raw(self):
        shape = assemble_conclusion(
            kh_characteristic_points(
                rule1d((1, 2, 3, 4), (1.5, 2.5, 2.5, 3.8)),
                rule1d((6, 7, 8, 9), (6.5, 7.5, 7.5, 9)),
                obs1d((4.2, 5.2, 5.2, 6.7)),
            )
        )
        assert isinstance(shape, GradedPointList)
        abscissas, grades = zip(*shape.points)
        assert abscissas == pytest.approx((4.7, 5.7, 4.7, 6.608))
        assert grades == (0.0, 1.0, 1.0, 0.0)

    def test_singleton_points(self):
        from fri_lab import ConclusionPoints

        shape = assemble_conclusion(ConclusionPoints(5, 5, 5, 5))
        assert isinstance(shape, TrapezoidSet)
        assert shape.is_singleton

    def test_tiny_inversion_within_tolerance_is_repaired(self):
        from fri_lab import ConclusionPoints

        shape = assemble_conclusion(ConclusionPoints(1.0, 1.0 + 1e-12, 1.0, 2.0))
        assert isinstance(shape, TrapezoidSet)
        assert shape.a2 <= shape.a3


class TestToleranceRule:
    # rows of (a, b, _at_most(a, b), _close(a, b)) at and just past a tie;
    # one term is 0, so the sums and differences the rule forms are exact
    CASES = [
        (-2 * TOL, 0.0, True, False),
        (-TOL, 0.0, True, True),
        (TOL, 0.0, True, True),
        (2 * TOL, 0.0, False, False),
        (0.0, TOL, True, True),
        (0.0, -TOL, True, True),
        (0.0, -2 * TOL, False, False),
    ]

    @pytest.mark.parametrize("a, b, at_most, close", CASES)
    def test_floats(self, a, b, at_most, close):
        assert _at_most(a, b) is at_most
        assert _close(a, b) is close

    def test_arrays_elementwise(self):
        a, b, at_most, close = (np.array(column) for column in zip(*self.CASES))
        assert (_at_most(a, b) == at_most).all()
        assert (_close(a, b) == close).all()


def test_boundary_collapse_toward_lower_rule():
    # as the observation approaches the lower antecedent, the conclusion
    # approaches the lower consequent
    lower = rule1d((1, 2, 3, 4), (10, 12, 13, 15))
    upper = rule1d((6, 7, 8, 9), (20, 22, 23, 25))
    prev = None
    for t in (1e-2, 1e-4, 1e-6, 1e-8):
        obs = obs1d((1 + t, 2 + t, 3 + t, 4 + t))
        points = kh_characteristic_points(lower, upper, obs)
        dev = max(abs(y - b) for y, b in zip(points.as_tuple(), (10, 12, 13, 15)))
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev <= 1e-6
