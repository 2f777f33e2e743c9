"""Inverse-distance interpolation of fuzzy conclusions between flanking rules.

The engine interpolates each of the four characteristic points of the
conclusion as an inverse-distance weighted mean of the flanking consequents'
points; :mod:`fri_lab.profile` resolves the same construction at every cut
level. The raw output points are deliberately NOT sorted: non-monotone
points are the abnormal conclusions the validator in
:mod:`fri_lab.normality` detects.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, repeat

from ._frozen import frozen
from .errors import DimensionError, DomainError, NotFlanked, OrderingViolation
from .sets import GradedPointList, TrapezoidSet, precedes

#: Absolute tolerance of :func:`_at_most` and :func:`_close`, which decide every verdict,
#: order, nesting and equality test on computed values (not those against published values).
TOL = 1e-9


def _at_most(a, b):
    """Whether ``a <= b`` within :data:`TOL`; elementwise on arrays."""
    return a <= b + TOL


def _close(a, b):
    """Whether ``a == b`` within :data:`TOL`."""
    return abs(a - b) <= TOL


@frozen
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


@frozen
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


@frozen
class RuleBase:
    """A sparse rule base whose antecedents form a chain in every dimension."""

    rules: tuple[Rule, ...]

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
        # the rules fix it, so it is not a field: equality, hashing and repr ignore it
        object.__setattr__(self, "dimension", k)
        # the rules ranked by _chain_order, and _chain the ranking if it is a
        # chain, else None; not fields, so equality, hashing and repr ignore them
        ranked, is_chain = _chain_order(self.rules)
        object.__setattr__(self, "_ranked", ranked)
        object.__setattr__(self, "_chain", ranked if is_chain else None)

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def _point_rows(
        self,
    ) -> tuple[tuple[tuple[tuple[float, ...], ...], tuple[float, ...], int], ...]:
        """Per characteristic point ``j``: every rule's antecedent point ``j``
        as one tuple over the dimensions, every rule's consequent point ``j``
        divided by ``2**shift``, and ``shift``.

        ``shift`` is 0 unless the rule count times the largest consequent
        point ``j`` could pass the largest float; then it is the least power
        of two that keeps a weighted sum of those points, with weights at
        most 1, finite. The rules are ranked by :func:`_chain_order`, so the
        points' bits do not depend on the order the rules were given in.
        Built on first use rather than in the constructor, so rule bases that
        never weight every rule do not pay for it; not a field, so equality,
        hashing and ``repr`` ignore it.
        """
        rows = zip(*(zip(*(s.points() for s in rule.antecedents)) for rule in self._ranked))
        consequents = tuple(zip(*(rule.consequent.points() for rule in self._ranked)))
        n_bits = len(self.rules).bit_length()
        shifts = [max(0, math.frexp(max(map(abs, c)))[1] + n_bits - 1024) for c in consequents]
        scaled = [tuple(math.ldexp(b, -shift) for b in c) for c, shift in zip(consequents, shifts)]
        return tuple(zip(rows, scaled, shifts))

    @cached_property
    def _chain_columns(self) -> tuple[tuple[float, ...], ...]:
        """Per dimension ``d`` and characteristic point ``p``, in that order:
        every chained rule's antecedent point ``p`` in dimension ``d``, in
        chain order.

        Strict precedence makes each column strictly increasing, so
        :func:`select_flanking` bisects it. Only for rule bases with a
        shared chain order. Built on the first selection rather than in the
        constructor; not a field, so equality, hashing and ``repr`` ignore it.
        """
        return tuple(zip(*([x for s in rule.antecedents for x in s.points()]
                           for rule in self._chain)))


def _rule_precedes(a: Rule, b: Rule) -> bool:
    return all(map(precedes, a.antecedents, b.antecedents))


def _chain_order(rules: tuple[Rule, ...]) -> tuple[tuple[Rule, ...], bool]:
    """The rules in chain order, else in dimension 0's order, and whether chained.

    Each dimension is checked by sorting on the antecedent support start and
    testing precedence between neighbours only. Precedence is a strict
    order, so neighbours in order put every pair in order; and a neighbour
    pair out of order is incomparable, because its support starts rule out
    the reverse order. Raises :class:`OrderingViolation` naming such a pair
    by input index. Rules given in chain order are returned unsorted.
    """
    if all(map(_rule_precedes, rules, rules[1:])):
        return rules, True
    ranked = tuple(sorted(rules, key=lambda rule: rule.antecedents[0].a1))
    if all(map(_rule_precedes, ranked, ranked[1:])):
        return ranked, True
    for d in range(rules[0].dimension):
        column = [rule.antecedents[d] for rule in rules]
        order = sorted(range(len(rules)), key=lambda i: column[i].a1)
        for i, j in zip(order, order[1:]):
            if not precedes(column[i], column[j]):
                raise OrderingViolation(
                    f"antecedents of rules {min(i, j)} and {max(i, j)} are not "
                    f"comparable in dimension {d}"
                )
    return ranked, False


@frozen
class ConclusionPoints:
    """Raw interpolated characteristic points, possibly non-monotone."""

    y1: float
    y2: float
    y3: float
    y4: float

    def __post_init__(self) -> None:
        y = (self.y1, self.y2, self.y3, self.y4)
        if not all(map(math.isfinite, y)):
            bad = next(v for v in y if not math.isfinite(v))
            raise DomainError(f"conclusion point {bad} is not finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.y1, self.y2, self.y3, self.y4)


def _gaps(lower: Rule, upper: Rule, obs: Observation) -> tuple[list[tuple], list[tuple]]:
    """Per dimension, the observation's four gaps to the lower flank (``x - a``)
    and to the upper flank (``u - x``); a gap may overflow to ``inf``.

    Different finite floats never subtract to zero, so all gaps are positive
    exactly when the flanks strictly precede and succeed the observation.
    Raises :class:`DimensionError`, then :class:`OrderingViolation` at the
    first dimension out of order, the lower flank checked first.
    """
    k = len(obs.sets)
    if len(lower.antecedents) != k or len(upper.antecedents) != k:
        raise DimensionError(
            f"rule dimensions {lower.dimension}/{upper.dimension} do not match "
            f"observation dimension {obs.dimension}"
        )
    below, above = [], []
    for d, (a, s, u) in enumerate(zip(lower.antecedents, obs.sets, upper.antecedents)):
        x = s.points()
        below.append(tuple(map(operator.sub, x, a.points())))
        if min(below[-1]) <= 0:
            raise OrderingViolation(
                f"lower antecedent does not precede the observation in dimension {d}"
            )
        above.append(tuple(map(operator.sub, u.points(), x)))
        if min(above[-1]) <= 0:
            raise OrderingViolation(
                f"observation does not precede the upper antecedent in dimension {d}"
            )
    return below, above


def _require_dimension(rb: RuleBase, obs: Observation) -> None:
    if rb.dimension != obs.dimension:
        raise DimensionError(f"rule base dimension {rb.dimension} does not match "
                             f"observation dimension {obs.dimension}")


_NO_LOWER = "no rule precedes the observation in every dimension"
_NO_UPPER = "no rule succeeds the observation in every dimension"


def select_flanking(rb: RuleBase, obs: Observation) -> tuple[Rule, Rule]:
    """Pick the two rules whose antecedents most closely surround the observation.

    A candidate must precede (respectively succeed) the observation in every
    dimension. When every dimension orders the rules alike, the candidates
    below the observation form a prefix of that chain and those above it a
    suffix, so the flanks are the rules adjacent to the observation in the
    chain. Each of the rule base's cached columns (one per dimension and
    characteristic point, strictly increasing along the chain) is bisected
    at the observation's point: the rules below it in every column end at
    the least ``bisect_left``, and the rules above it in every column start
    at the greatest ``bisect_right``. Otherwise the rules are scanned in
    dimension 0's order, and the candidate with the smallest summed support
    gap toward the observation wins, the first in that order on a tie, so
    input order never decides. Raises :class:`NotFlanked` when either side
    is empty, since extrapolation is not supported.
    """
    _require_dimension(rb, obs)
    if rb._chain is not None:
        columns = rb._chain_columns
        observed = [x for s in obs.sets for x in s.points()]
        lower_end = min(map(bisect_left, columns, observed))
        if lower_end == 0:
            raise NotFlanked(_NO_LOWER)
        upper_start = max(map(bisect_right, columns, observed))
        if upper_start == len(rb._chain):
            raise NotFlanked(_NO_UPPER)
        return (rb._chain[lower_end - 1], rb._chain[upper_start])
    ranked, sets = rb._ranked, obs.sets
    lower = min((rule for rule in ranked if all(map(precedes, rule.antecedents, sets))),
                key=lambda rule: sum(map(lambda a, s: s.a1 - a.a4, rule.antecedents, sets)),
                default=None)
    if lower is None:
        raise NotFlanked(_NO_LOWER)
    upper = min((rule for rule in ranked if all(map(precedes, sets, rule.antecedents))),
                key=lambda rule: sum(map(lambda a, s: a.a1 - s.a4, rule.antecedents, sets)),
                default=None)
    if upper is None:
        raise NotFlanked(_NO_UPPER)
    return lower, upper


def _weighted_mean(d1: float, d2: float, b1: float, b2: float) -> float:
    """KH's mean ``(d2 * b1 + d1 * b2) / (d1 + d2)`` of two positive distances.

    Both distances are first scaled by the power of two that brings the
    larger into [1/4, 1/2), so their sum is positive. That leaves the mean
    unchanged, and keeps its numerator from overflowing for huge consequents.
    The smaller distance's term can still underflow: ``_weighted_mean(1e-200,
    1e200, -1e-105, -1e302)`` is ``-1e-105``, where the mean is about
    ``-1.0e-98``.
    """
    shift = -1 - math.frexp(max(d1, d2))[1]
    d1, d2 = math.ldexp(d1, shift), math.ldexp(d2, shift)
    return (d2 * b1 + d1 * b2) / (d1 + d2)


class _Flanked:
    """One flanked configuration, read once: its three inputs, :func:`_gaps`'
    checked pair (its lists are read, never written), KH's points once
    computed, and the last α-profile as ``(n_levels, weakref)``, or None."""

    __slots__ = ("lower", "upper", "obs", "gaps", "points", "profile")


# The one kept _Flanked, or None. A hit needs the very three input objects,
# compared by identity: equal but distinct inputs (a consequent of -0.0 against
# 0.0) never share an entry. It holds its inputs, so their ids cannot be reused
# while it lives, and its profile weakly, so dropping that frees its arrays. A
# reader keeps an entry once its own result is stored on it, so a call that
# raises keeps nothing; slots are written whole, so two threads can miss but
# never read another configuration's entry or a half-written slot.
_kept = None


def _flanked(lower: Rule, upper: Rule, obs: Observation) -> _Flanked:
    """The kept entry if it is of these very three objects, else a new one,
    not kept yet, whose gaps :func:`_gaps` checks, raising what it raises."""
    entry = _kept
    if entry is not None and entry.lower is lower and entry.upper is upper and entry.obs is obs:
        return entry
    entry = _Flanked()
    entry.gaps = _gaps(lower, upper, obs)
    entry.lower, entry.upper, entry.obs, entry.points, entry.profile = lower, upper, obs, None, None
    return entry


def kh_characteristic_points(lower: Rule, upper: Rule, obs: Observation) -> ConclusionPoints:
    """Interpolate the four conclusion points between two flanking rules.

    For point ``j`` the Euclidean distances ``d1`` (observation to the lower
    rule) and ``d2`` (upper rule to the observation), taken across every
    input dimension, give

        ``y_j = (d2 * b1_j + d1 * b2_j) / (d1 + d2)``

    so the conclusion leans toward the nearer rule's consequent. The output
    is not sorted. Each point's pair of distances is scaled as
    :func:`_weighted_mean` describes.

    The points are kept with the configuration, matched by the identity of
    the three inputs, so a repeated call on the same objects (``full_report``
    after this, say) returns the same :class:`ConclusionPoints` object again,
    until a call on another configuration. A call that raises keeps nothing.
    """
    global _kept
    entry = _flanked(lower, upper, obs)
    points = entry.points
    if points is None:
        below, above = entry.gaps
        points = entry.points = ConclusionPoints(
            *map(_weighted_mean, map(math.hypot, *below), map(math.hypot, *above),
                 lower.consequent.points(), upper.consequent.points()))
        _kept = entry
    return points


def khstab_points(rb: RuleBase, obs: Observation) -> ConclusionPoints:
    """Stabilised variant: weight every rule by inverse distance.

    Each conclusion point is the mean of all rules' consequent points
    weighted by ``dmin / d``, where ``d`` is a rule's Euclidean distance
    from the observation across every input dimension and ``dmin`` that of
    the nearest rule. That is the ``1 / d`` weighting scaled by ``dmin``, so
    every weight lies in (0, 1] and neither tiny nor huge distances
    overflow; far rules may underflow to zero weight. A rule at distance
    zero dominates in the limit, so its consequent point is taken directly;
    strict precedence gives every rule its own point in each dimension, so
    at most one rule touches the observation at a point. With exactly two
    flanking rules this reduces to the plain two-rule interpolation.

    The distances come from one ``math.dist`` call per rule and point over
    the rule base's row view (every rule's antecedent point as one tuple
    over the dimensions), which is built on the first call and cached on the
    rule base. The view also holds the consequent points divided by one
    power of two, chosen so that the weighted sum cannot overflow even when
    they are near the largest float.
    """
    _require_dimension(rb, obs)
    values = []
    observed = zip(*(s.points() for s in obs.sets))
    for (rows, consequents, shift), point in zip(rb._point_rows, observed):
        dists = list(map(math.dist, repeat(point), rows))
        dmin = min(dists)
        if dmin == 0.0:
            mean = consequents[dists.index(0.0)]
        else:
            weights = [dmin / dist for dist in dists]
            mean = sum(map(operator.mul, weights, consequents)) / sum(weights)
        values.append(math.ldexp(mean, shift))
    return ConclusionPoints(*values)


def assemble_conclusion(p: ConclusionPoints) -> TrapezoidSet | GradedPointList:
    """Turn raw conclusion points into a fuzzy set, or keep them raw.

    Points each at most the next by :func:`_at_most` become a :class:`TrapezoidSet`
    (a dip within the tolerance is raised to the running maximum); any inversion
    yields the raw traversal as a :class:`GradedPointList`, so it stays visible.
    """
    y = p.as_tuple()
    if all(map(_at_most, y, y[1:])):
        return TrapezoidSet(*accumulate(y, max))
    return GradedPointList(((y[0], 0.0), (y[1], 1.0), (y[2], 1.0), (y[3], 0.0)))
