"""Inverse-distance interpolation of fuzzy conclusions between flanking rules.

The engine interpolates each of the four characteristic points of the
conclusion as an inverse-distance weighted mean of the flanking consequents'
points, and can resolve the same construction at any number of cut levels.
The raw output points are deliberately NOT sorted: non-monotone points are
the abnormal conclusions the validator in :mod:`fri_lab.normality` detects.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterator

from .errors import DimensionError, DomainError, NotFlanked, OrderingViolation, ZeroSpan
from .sets import GradedPointList, TrapezoidSet, precedes

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TOL",
    "Rule",
    "RuleBase",
    "Observation",
    "ConclusionPoints",
    "AlphaProfile",
    "select_flanking",
    "kh_characteristic_points",
    "kh_alpha_profile",
    "khstab_points",
    "assemble_conclusion",
]

#: Absolute tolerance for every verdict, monotonicity and equality check on
#: computed values (not for comparisons with rounded published values).
TOL = 1e-9


@dataclass(frozen=True)
class Rule:
    """One fuzzy rule: an antecedent set per input dimension and a consequent."""

    antecedents: tuple[TrapezoidSet, ...]
    consequent: TrapezoidSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedents", tuple(self.antecedents))
        if not self.antecedents:
            raise DimensionError("a rule needs at least one antecedent dimension")

    @property
    def dimension(self) -> int:
        return len(self.antecedents)


@dataclass(frozen=True)
class Observation:
    """An observed fuzzy value per input dimension."""

    sets: tuple[TrapezoidSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise DimensionError("an observation needs at least one dimension")

    @property
    def dimension(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class RuleBase:
    """A sparse rule base whose antecedents form a chain in every dimension."""

    rules: tuple[Rule, ...]
    dimension: int = field(init=False)
    #: The rules in chain order when every dimension orders them alike, else None.
    _chain: tuple[Rule, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise DimensionError("rule base must contain at least one rule")
        k = self.rules[0].dimension
        for idx, rule in enumerate(self.rules):
            if rule.dimension != k:
                raise DimensionError(
                    f"rule {idx} has dimension {rule.dimension}, expected {k}"
                )
        object.__setattr__(self, "dimension", k)
        object.__setattr__(self, "_chain", _chain_order(self.rules))

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def _point_columns(
        self,
    ) -> tuple[tuple[tuple[tuple[float, ...], ...], tuple[float, ...]], ...]:
        """Per characteristic point ``j``: every rule's antecedent point ``j``,
        one tuple per dimension, and every rule's consequent point ``j``.

        Rules keep their input order. Built on first use rather than in the
        constructor, so rule bases that never weight every rule do not pay
        for it; not a field, so equality, hashing and ``repr`` ignore it.
        """
        by_dimension = [
            tuple(zip(*(s.points() for s in column)))
            for column in zip(*(rule.antecedents for rule in self.rules))
        ]
        consequents = tuple(zip(*(rule.consequent.points() for rule in self.rules)))
        return tuple(zip(zip(*by_dimension), consequents))


def _rule_precedes(a: Rule, b: Rule) -> bool:
    return all(map(precedes, a.antecedents, b.antecedents))


def _chain_order(rules: tuple[Rule, ...]) -> tuple[Rule, ...] | None:
    """The rules in chain order when every dimension orders them alike, else None.

    Each dimension is checked by sorting on the antecedent support start and
    testing precedence between neighbours only. Precedence is a strict
    order, so neighbours in order put every pair in order; and a neighbour
    pair out of order is incomparable, because its support starts rule out
    the reverse order. Raises :class:`OrderingViolation` naming such a pair
    by input index. Rules given in chain order are returned unsorted.
    """
    if all(map(_rule_precedes, rules, rules[1:])):
        return rules
    ranked = sorted(rules, key=lambda rule: rule.antecedents[0].a1)
    if all(map(_rule_precedes, ranked, ranked[1:])):
        return tuple(ranked)
    for d in range(rules[0].dimension):
        column = [rule.antecedents[d] for rule in rules]
        order = sorted(range(len(rules)), key=lambda i: column[i].a1)
        for i, j in zip(order, order[1:]):
            if not precedes(column[i], column[j]):
                raise OrderingViolation(
                    f"antecedents of rules {min(i, j)} and {max(i, j)} are not "
                    f"comparable in dimension {d}"
                )
    return None


@dataclass(frozen=True)
class ConclusionPoints:
    """Raw interpolated characteristic points, possibly non-monotone."""

    y1: float
    y2: float
    y3: float
    y4: float

    def __post_init__(self) -> None:
        for v in (self.y1, self.y2, self.y3, self.y4):
            if not math.isfinite(v):
                raise DomainError(f"conclusion point {v} is not finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.y1, self.y2, self.y3, self.y4)


@dataclass(frozen=True)
class AlphaProfile:
    """Sampled cut-level profile of a conclusion.

    ``infs[k]`` and ``sups[k]`` are the interpolated interval endpoints at
    ``levels[k]``; an inverted pair (inf above sup) marks abnormality at
    that level. Arrays are read-only.
    """

    levels: np.ndarray
    infs: np.ndarray
    sups: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        levels = np.asarray(self.levels, dtype=float)
        infs = np.asarray(self.infs, dtype=float)
        sups = np.asarray(self.sups, dtype=float)
        if levels.ndim != 1 or levels.shape != infs.shape or levels.shape != sups.shape:
            raise DomainError("levels, infs and sups must be 1-d arrays of equal length")
        if len(levels) < 2 or levels[0] != 0.0 or levels[-1] != 1.0:
            raise DomainError("levels must run from 0 to 1")
        if not np.all(np.diff(levels) > 0):
            raise DomainError("levels must be strictly increasing")
        if not (np.all(np.isfinite(infs)) and np.all(np.isfinite(sups))):
            raise DomainError("profile endpoints must be finite")
        for arr in (levels, infs, sups):
            arr.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "infs", infs)
        object.__setattr__(self, "sups", sups)

    def __iter__(self) -> Iterator[tuple[float, float, float]]:
        return iter(zip(self.levels.tolist(), self.infs.tolist(), self.sups.tolist()))

    def __len__(self) -> int:
        return len(self.levels)


def _require_flanked(lower: Rule, upper: Rule, obs: Observation) -> None:
    if lower.dimension != obs.dimension or upper.dimension != obs.dimension:
        raise DimensionError(
            f"rule dimensions {lower.dimension}/{upper.dimension} do not match "
            f"observation dimension {obs.dimension}"
        )
    for d in range(obs.dimension):
        if not precedes(lower.antecedents[d], obs.sets[d]):
            raise OrderingViolation(
                f"lower antecedent does not precede the observation in dimension {d}"
            )
        if not precedes(obs.sets[d], upper.antecedents[d]):
            raise OrderingViolation(
                f"observation does not precede the upper antecedent in dimension {d}"
            )


_NO_LOWER = "no rule precedes the observation in every dimension"
_NO_UPPER = "no rule succeeds the observation in every dimension"


def select_flanking(rb: RuleBase, obs: Observation) -> tuple[Rule, Rule]:
    """Pick the two rules whose antecedents most closely surround the observation.

    A candidate must precede (respectively succeed) the observation in every
    dimension. When every dimension orders the rules alike, the candidates
    below the observation form a prefix of that chain and those above it a
    suffix, so the flanks are the rules adjacent to the observation in the
    chain, found by binary search. Otherwise every rule is scanned and the
    candidate with the smallest summed support gap toward the observation
    wins. Raises :class:`NotFlanked` when either side is empty, since
    extrapolation is not supported.
    """
    if rb.dimension != obs.dimension:
        raise DimensionError(
            f"rule base dimension {rb.dimension} does not match observation "
            f"dimension {obs.dimension}"
        )
    if rb._chain is not None:
        return _bisect_flanking(rb._chain, obs)
    lower_best: tuple[float, int] | None = None
    upper_best: tuple[float, int] | None = None
    for idx, rule in enumerate(rb.rules):
        if all(precedes(rule.antecedents[d], obs.sets[d]) for d in range(rb.dimension)):
            gap = sum(obs.sets[d].a1 - rule.antecedents[d].a4 for d in range(rb.dimension))
            if lower_best is None or gap < lower_best[0]:
                lower_best = (gap, idx)
        elif all(precedes(obs.sets[d], rule.antecedents[d]) for d in range(rb.dimension)):
            gap = sum(rule.antecedents[d].a1 - obs.sets[d].a4 for d in range(rb.dimension))
            if upper_best is None or gap < upper_best[0]:
                upper_best = (gap, idx)
    if lower_best is None:
        raise NotFlanked(_NO_LOWER)
    if upper_best is None:
        raise NotFlanked(_NO_UPPER)
    return (rb.rules[lower_best[1]], rb.rules[upper_best[1]])


def _bisect_flanking(chain: tuple[Rule, ...], obs: Observation) -> tuple[Rule, Rule]:
    def not_below(rule: Rule) -> bool:
        return not all(map(precedes, rule.antecedents, obs.sets))

    def above(rule: Rule) -> bool:
        return all(map(precedes, obs.sets, rule.antecedents))

    lower_end = bisect_left(chain, True, key=not_below)
    if lower_end == 0:
        raise NotFlanked(_NO_LOWER)
    # no rule below the observation is also above it
    upper_start = bisect_left(chain, True, lo=lower_end, key=above)
    if upper_start == len(chain):
        raise NotFlanked(_NO_UPPER)
    return (chain[lower_end - 1], chain[upper_start])


def kh_characteristic_points(lower: Rule, upper: Rule, obs: Observation) -> ConclusionPoints:
    """Interpolate the four conclusion points between two flanking rules.

    For point ``j`` the Euclidean distances ``d1`` (observation to the lower
    rule) and ``d2`` (upper rule to the observation), taken across every
    input dimension, give

        ``y_j = (d2 * b1_j + d1 * b2_j) / (d1 + d2)``

    so the conclusion leans toward the nearer rule's consequent. The output
    is not sorted. Both distances are first scaled by the power of two that
    brings the larger below 1/2. That leaves the mean unchanged, but keeps
    its numerator from overflowing for huge consequents and from
    underflowing for tiny distances.
    """
    _require_flanked(lower, upper, obs)
    # per point j: the lower antecedents', observation's and upper
    # antecedents' point j in every dimension
    lows, observed, ups = (zip(*(s.points() for s in sets))
                           for sets in (lower.antecedents, obs.sets, upper.antecedents))
    consequents = (lower.consequent.points(), upper.consequent.points())
    values = []
    for j, (a1, ob, a2, b1, b2) in enumerate(zip(lows, observed, ups, *consequents)):
        d1 = math.hypot(*map(operator.sub, ob, a1))
        d2 = math.hypot(*map(operator.sub, a2, ob))
        shift = -1 - math.frexp(max(d1, d2))[1]
        d1, d2 = math.ldexp(d1, shift), math.ldexp(d2, shift)
        span = d1 + d2
        if span == 0.0:
            raise ZeroSpan(f"flanking antecedents coincide at point {j + 1}")
        values.append((d2 * b1 + d1 * b2) / span)
    return ConclusionPoints(*values)


def _flank_curves(s: TrapezoidSet, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut infimum and supremum of a set at each level, clamped at the kernel."""
    import numpy as np

    return (
        np.minimum(s.a2, s.a1 + levels * (s.a2 - s.a1)),
        np.maximum(s.a3, s.a4 - levels * (s.a4 - s.a3)),
    )


def kh_alpha_profile(
    lower: Rule, upper: Rule, obs: Observation, n_levels: int = 1001
) -> AlphaProfile:
    """Resolve the interpolation at ``n_levels`` equally spaced cut levels.

    Levels 0 and 1 reproduce the characteristic points exactly; in between
    the endpoints follow the same weighted mean applied to the cut endpoints
    of the consequents, with Euclidean distances re-evaluated per level.
    Every distance is scaled by the one power of two that brings the largest
    below 1/2, for the reason given in :func:`kh_characteristic_points`.
    """
    import numpy as np

    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    _require_flanked(lower, upper, obs)
    levels = np.linspace(0.0, 1.0, n_levels)

    # each set's (inf, sup) curves, once per dimension
    a1_curves = [_flank_curves(s, levels) for s in lower.antecedents]
    ob_curves = [_flank_curves(s, levels) for s in obs.sets]
    a2_curves = [_flank_curves(s, levels) for s in upper.antecedents]

    def distances(points_of: int) -> list[np.ndarray]:
        # points_of 0: flank infima; 1: flank suprema
        diffs1 = [ob[points_of] - a1[points_of] for a1, ob in zip(a1_curves, ob_curves)]
        diffs2 = [a2[points_of] - ob[points_of] for ob, a2 in zip(ob_curves, a2_curves)]
        return [reduce(np.hypot, diffs[1:], np.abs(diffs[0])) for diffs in (diffs1, diffs2)]

    b1_inf, b1_sup = _flank_curves(lower.consequent, levels)
    b2_inf, b2_sup = _flank_curves(upper.consequent, levels)

    dists = distances(0) + distances(1)
    # each distance is the norm of differences affine in the level, so the
    # largest lies at level 0 or 1; a float holds powers of two up to
    # 2**1023, which lifts even the smallest subnormal into normal range
    top = max(max(d[0], d[-1]) for d in dists)
    scale = math.ldexp(1.0, min(-1 - math.frexp(top)[1], 1023))
    dl1, dl2, du1, du2 = (d * scale for d in dists)
    spans_inf, spans_sup = dl1 + dl2, du1 + du2
    if not (spans_inf.all() and spans_sup.all()):
        raise ZeroSpan("flanking antecedents coincide at some level")
    infs = (dl2 * b1_inf + dl1 * b2_inf) / spans_inf
    sups = (du2 * b1_sup + du1 * b2_sup) / spans_sup
    return AlphaProfile(levels, infs, sups)


def khstab_points(rb: RuleBase, obs: Observation, exponent: float = 1.0) -> ConclusionPoints:
    """Stabilised variant: weight every rule by inverse distance.

    Each conclusion point is the mean of all rules' consequent points
    weighted by ``(dmin / d)**exponent``, where ``d`` is a rule's Euclidean
    distance from the observation across every input dimension and ``dmin``
    that of the nearest rule. That is the ``1 / d**exponent`` weighting
    scaled by ``dmin**exponent``, so every weight lies in (0, 1] and neither
    tiny nor huge distances overflow; far rules may underflow to zero
    weight. A rule at distance zero dominates in the limit, so its
    consequent point is taken directly (averaged, if several rules touch the
    observation at that point). With exactly two flanking rules and
    exponent 1 this reduces to the plain two-rule interpolation.

    The distances come from one pass per point over the rule base's column
    view (every rule's antecedent point per dimension), which is built on
    the first call and cached on the rule base.
    """
    if exponent <= 0.0:
        raise DomainError(f"exponent must be positive, got {exponent}")
    if rb.dimension != obs.dimension:
        raise DimensionError(
            f"rule base dimension {rb.dimension} does not match observation "
            f"dimension {obs.dimension}"
        )
    values = []
    observed = zip(*(s.points() for s in obs.sets))
    for (columns, consequents), point in zip(rb._point_columns, observed):
        diffs = [[o - a for a in column] for o, column in zip(point, columns)]
        dists = list(map(math.hypot, *diffs))
        dmin = min(dists)
        if dmin == 0.0:
            hits = [c for c, dist in zip(consequents, dists) if dist == 0.0]
            values.append(sum(hits) / len(hits))
            continue
        weights = [(dmin / dist) ** exponent for dist in dists]
        values.append(sum(map(operator.mul, weights, consequents)) / sum(weights))
    return ConclusionPoints(*values)


def assemble_conclusion(p: ConclusionPoints) -> TrapezoidSet | GradedPointList:
    """Turn raw conclusion points into a fuzzy set, or keep them raw.

    Monotone points (within :data:`TOL`) become a :class:`TrapezoidSet`; any
    inversion yields the raw traversal as a :class:`GradedPointList` so the
    abnormal shape stays visible.
    """
    y = p.as_tuple()
    if all(y[k] <= y[k + 1] + TOL for k in range(3)):
        mono = [y[0]]
        for v in y[1:]:
            mono.append(max(mono[-1], v))
        return TrapezoidSet(*mono)
    return GradedPointList(((y[0], 0.0), (y[1], 1.0), (y[2], 1.0), (y[3], 0.0)))
