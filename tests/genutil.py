"""Seeded random configuration generators shared by property and acceptance suites.

The seeded generators produce flanked 1-d configurations with the
observation's support strictly between the antecedent supports (the
sparse-rule-base scenario the diagnostics are stated for). Shapes are (left
flank, core, right flank) length triples; a set is placed by its support
start. The hypothesis strategy :func:`extreme_flanked_configs` produces
flanked configurations of one to three dimensions at the float extremes, and
:func:`rule_bases` chained rule bases in shuffled order, with an observation.
The module also holds a brute-force reference for flank selection, the
per-rule loop that KHstab's kernel replaced, and the exact 1-d α-profile.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from hypothesis import assume
from hypothesis import strategies as st

from fri_lab import Observation, Rule, RuleBase, TrapezoidSet


def trap(base: float, lf: float, core: float, rf: float) -> TrapezoidSet:
    return TrapezoidSet(base, base + lf, base + lf + core, base + lf + core + rf)


def random_shape(rng: random.Random, core_min: float = 0.0, spread: float = 2.0):
    return (rng.uniform(0, spread), rng.uniform(core_min, spread), rng.uniform(0, spread))


def random_trapezoid(rng: random.Random, lo: float = -10.0, hi: float = 10.0) -> TrapezoidSet:
    pts = sorted(rng.uniform(lo, hi) for _ in range(4))
    return TrapezoidSet(*pts)


def config(a1: TrapezoidSet, a2: TrapezoidSet, b1: TrapezoidSet, b2: TrapezoidSet,
           obs: TrapezoidSet) -> tuple[Rule, Rule, Observation]:
    return (Rule((a1,), b1), Rule((a2,), b2), Observation((obs,)))


def random_flanked_config(rng: random.Random) -> tuple[Rule, Rule, Observation]:
    """Free shapes everywhere; observation support disjoint from both antecedents."""
    a1 = trap(rng.uniform(-5, 5), *random_shape(rng))
    obs = trap(a1.a4 + rng.uniform(0.05, 3), *random_shape(rng))
    a2 = trap(obs.a4 + rng.uniform(0.05, 3), *random_shape(rng))
    b1 = trap(rng.uniform(-5, 5), *random_shape(rng))
    b2 = trap(b1.a4 + rng.uniform(0.05, 5), *random_shape(rng))
    return config(a1, a2, b1, b2, obs)


def random_uniform_config(rng: random.Random) -> tuple[Rule, Rule, Observation]:
    """Same-shape antecedent pair and same-shape consequent pair, free observation."""
    shape_a = random_shape(rng)
    shape_b = random_shape(rng)
    a1 = trap(rng.uniform(-5, 5), *shape_a)
    obs = trap(a1.a4 + rng.uniform(0.05, 3), *random_shape(rng))
    a2 = trap(obs.a4 + rng.uniform(0.05, 3), *shape_a)
    b1 = trap(rng.uniform(-5, 5), *shape_b)
    b2 = trap(b1.a4 + rng.uniform(0.05, 5), *shape_b)
    return config(a1, a2, b1, b2, obs)


def shared_shape_config(rng: random.Random) -> tuple[Rule, Rule, Observation]:
    """Antecedents, consequents and observation all share one shape."""
    shape = random_shape(rng)
    a1 = trap(rng.uniform(-5, 5), *shape)
    obs = trap(a1.a4 + rng.uniform(0.05, 3), *shape)
    a2 = trap(obs.a4 + rng.uniform(0.05, 3), *shape)
    b1 = trap(rng.uniform(-5, 5), *shape)
    b2 = trap(b1.a4 + rng.uniform(0.05, 5), *shape)
    return config(a1, a2, b1, b2, obs)


def matched_observation_config(rng: random.Random) -> tuple[Rule, Rule, Observation]:
    """Antecedents and observation share one shape; consequents share another."""
    shape_a = random_shape(rng)
    shape_b = random_shape(rng)
    a1 = trap(rng.uniform(-5, 5), *shape_a)
    obs = trap(a1.a4 + rng.uniform(0.05, 3), *shape_a)
    a2 = trap(obs.a4 + rng.uniform(0.05, 3), *shape_a)
    b1 = trap(rng.uniform(-5, 5), *shape_b)
    b2 = trap(b1.a4 + rng.uniform(0.05, 5), *shape_b)
    return config(a1, a2, b1, b2, obs)


def uniform_core_config(rng: random.Random) -> tuple[Rule, Rule, Observation]:
    """Uniform-core configuration in the scope the ratio conditions govern.

    Same-shape antecedent pair and consequent pair with nonzero cores, each
    consequent segment at least as long as the antecedent's (consequents
    not less fuzzy), and inter-set gaps exceeding every segment length
    (genuinely sparse placement).
    """
    la, ca, ra = rng.uniform(0, 2), rng.uniform(0.05, 2), rng.uniform(0, 2)
    shape_a = (la, ca, ra)
    shape_b = (rng.uniform(la, la + 2), rng.uniform(ca, ca + 2), rng.uniform(ra, ra + 2))
    shape_obs = random_shape(rng)
    min_gap = max(*shape_a, *shape_obs) + 0.05
    a1 = trap(rng.uniform(-5, 5), *shape_a)
    obs = trap(a1.a4 + rng.uniform(min_gap, min_gap + 3), *shape_obs)
    a2 = trap(obs.a4 + rng.uniform(min_gap, min_gap + 3), *shape_a)
    b1 = trap(rng.uniform(-5, 5), *shape_b)
    b2 = trap(b1.a4 + rng.uniform(0.05, 5), *shape_b)
    return config(a1, a2, b1, b2, obs)


@st.composite
def extreme_flanked_configs(draw):
    """Valid flanked configurations ``(lower, upper, observation)`` of one to
    three dimensions, at any float scale.

    In each dimension the lower antecedent, the observation and the upper
    antecedent are integer multiples of that dimension's own power of two,
    from 2**-1074 to 2**1023, and the two consequents are integer multiples
    of theirs. Every integer lies below 2**53 in magnitude, so every
    coordinate is exact. Each point's three antecedent and observation
    integers are distinct and in order, and sorting each set's points keeps
    every point strictly above the same point of the set below. So every gap
    is positive, as small as 5e-324 at the unit 2**-1074, and between
    coordinates of opposite sign it may overflow. Draws with a coordinate
    beyond the largest float are skipped.
    """
    # small integers often, so that gaps of one unit are common
    exact = (st.integers(min_value=-4, max_value=4)
             | st.integers(min_value=1 - 2**53, max_value=2**53 - 1))
    # the least exponent, and the greatest at which every such integer is finite
    exponents = st.integers(min_value=-1074, max_value=1023) | st.sampled_from((-1074, 971))

    def scaled(columns):
        exponent = draw(exponents)
        # |i| * 2**exponent is finite exactly when |i| < 2**(1024 - exponent)
        assume(max(abs(i) for points in columns for i in points).bit_length() + exponent <= 1024)
        return [TrapezoidSet(*(math.ldexp(i, exponent) for i in sorted(points)))
                for points in columns]

    def flanked_dimension():
        ordered = [sorted(draw(st.lists(exact, min_size=3, max_size=3, unique=True)))
                   for _ in range(4)]
        return scaled(list(zip(*ordered)))

    k = draw(st.integers(min_value=1, max_value=3))
    lows, observed, ups = zip(*(flanked_dimension() for _ in range(k)))
    b1, b2 = scaled([draw(st.tuples(*[exact] * 4)) for _ in range(2)])
    return Rule(lows, b1), Rule(ups, b2), Observation(observed)


# Grids for rule_bases: float coordinates, and integer ones, which keep float
# sums of gaps exact. A grid draws a chain's start, the step between neighbours,
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


def reference_flanks(rules: Sequence[Rule], obs: Observation) -> tuple[set[int], set[int]]:
    """Brute-force flank selection: the input indices of every acceptable flank.

    A lower candidate's antecedent lies strictly left of the observation at
    all four points in every dimension, an upper candidate's strictly right.
    The acceptable flanks on each side are the candidates with the smallest
    summed support gap toward the observation, summed exactly. A side with
    no candidate comes back empty.
    """
    def left_of(a: TrapezoidSet, b: TrapezoidSet) -> bool:
        return all(x < y for x, y in zip(a.points(), b.points()))

    lower: dict[int, Fraction] = {}
    upper: dict[int, Fraction] = {}
    for idx, rule in enumerate(rules):
        pairs = list(zip(rule.antecedents, obs.sets))
        if all(left_of(a, o) for a, o in pairs):
            lower[idx] = sum(Fraction(o.a1) - Fraction(a.a4) for a, o in pairs)
        if all(left_of(o, a) for a, o in pairs):
            upper[idx] = sum(Fraction(a.a1) - Fraction(o.a4) for a, o in pairs)

    def argmins(gaps: dict[int, Fraction]) -> set[int]:
        best = min(gaps.values(), default=None)
        return {idx for idx, gap in gaps.items() if gap == best}

    return argmins(lower), argmins(upper)


def reference_khstab(rb: RuleBase, obs: Observation) -> tuple[float, ...]:
    """KHstab as a loop over the rules, with weights ``1 / d``.

    The weighted mean is summed in exact rational arithmetic and rounded
    once, so no weight underflows or overflows.
    """
    values = []
    for j in range(4):
        dists = [
            math.hypot(*(obs.sets[d].points()[j] - rule.antecedents[d].points()[j]
                         for d in range(obs.dimension)))
            for rule in rb.rules
        ]
        exact = [idx for idx, dist in enumerate(dists) if dist == 0.0]
        if exact:
            values.append(
                sum(rb.rules[idx].consequent.points()[j] for idx in exact) / len(exact)
            )
            continue
        weights = [1 / Fraction(dist) for dist in dists]
        total = sum(weights)
        values.append(float(
            sum(w * Fraction(rule.consequent.points()[j]) for w, rule in zip(weights, rb.rules))
            / total
        ))
    return tuple(values)


def exact_profile(
    lower: Rule, upper: Rule, obs: Observation, levels: Sequence[float]
) -> tuple[list[Fraction], list[Fraction]]:
    """The 1-d α-profile at ``levels`` in exact rational arithmetic: every
    cut endpoint, distance and weighted mean of KH at each float level, with
    nothing rounded. Returns the infs and the sups.
    """
    if obs.dimension != 1:
        raise ValueError("the exact profile is rational in one dimension only")
    sets = (lower.antecedents[0], obs.sets[0], upper.antecedents[0],
            lower.consequent, upper.consequent)
    sides: tuple[list[Fraction], list[Fraction]] = ([], [])
    for level in map(Fraction, levels):
        cuts = [(Fraction(s.a1) + level * (Fraction(s.a2) - Fraction(s.a1)),
                 Fraction(s.a4) - level * (Fraction(s.a4) - Fraction(s.a3))) for s in sets]
        a, x, u, b1, b2 = cuts
        for side, values in enumerate(sides):
            d1, d2 = x[side] - a[side], u[side] - x[side]
            values.append((d2 * b1[side] + d1 * b2[side]) / (d1 + d2))
    return sides
