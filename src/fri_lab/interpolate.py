"""Inverse-distance interpolation of fuzzy conclusions between flanking rules.

The engine interpolates each of the four characteristic points of the
conclusion as an inverse-distance weighted mean of the flanking consequents'
points, and can resolve the same construction at any number of cut levels.
The raw output points are deliberately NOT sorted: non-monotone points are
the abnormal conclusions the validator in :mod:`fri_lab.normality` detects.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DimensionError, DomainError, NotFlanked, OrderingViolation, ZeroSpan
from .sets import GradedPointList, TrapezoidSet, alpha_cut, precedes

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Rule",
    "RuleBase",
    "Observation",
    "ConclusionPoints",
    "AlphaProfile",
    "lower_upper_distance",
    "select_flanking",
    "kh_characteristic_points",
    "kh_alpha_profile",
    "khstab_points",
    "assemble_conclusion",
]

#: Absolute tolerance for monotonicity and equality checks on conclusions.
DEFAULT_TOL = 1e-9


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


def _minkowski(diffs: Sequence[float], order: float) -> float:
    if len(diffs) == 1:
        return abs(diffs[0])
    if order == 2.0:
        return math.hypot(*diffs)
    # scaled by the largest term so that no power overflows
    scale = max(abs(d) for d in diffs)
    if scale == 0.0:
        return 0.0
    return scale * sum((abs(d) / scale) ** order for d in diffs) ** (1.0 / order)


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


def lower_upper_distance(
    a: TrapezoidSet, b: TrapezoidSet, alpha: float
) -> tuple[float, float]:
    """Lower and upper distances between the cuts of two ordered sets.

    Returns ``(dL, dU)`` where ``dL`` is the distance between the cut
    infima and ``dU`` between the cut suprema at level ``alpha``; both are
    strictly positive because ``a`` must precede ``b``.
    """
    if not precedes(a, b):
        raise OrderingViolation("lower/upper distances need strictly ordered sets")
    cut_a = alpha_cut(a, alpha)
    cut_b = alpha_cut(b, alpha)
    return (cut_b.lo - cut_a.lo, cut_b.hi - cut_a.hi)


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


def kh_characteristic_points(
    lower: Rule, upper: Rule, obs: Observation, order: float = 2.0
) -> ConclusionPoints:
    """Interpolate the four conclusion points between two flanking rules.

    For point ``j`` the distances ``d1`` (observation to the lower rule) and
    ``d2`` (upper rule to the observation) aggregate across dimensions with
    Minkowski order ``order`` (2 by default, the root-sum-square form), and

        ``y_j = (d2 * b1_j + d1 * b2_j) / (d1 + d2)``

    so the conclusion leans toward the nearer rule's consequent. The output
    is not sorted.
    """
    _require_flanked(lower, upper, obs)
    values = []
    for j in range(4):
        d1 = _minkowski(
            [obs.sets[d].points()[j] - lower.antecedents[d].points()[j]
             for d in range(obs.dimension)],
            order,
        )
        d2 = _minkowski(
            [upper.antecedents[d].points()[j] - obs.sets[d].points()[j]
             for d in range(obs.dimension)],
            order,
        )
        span = d1 + d2
        if span == 0.0:
            raise ZeroSpan(f"flanking antecedents coincide at point {j + 1}")
        b1 = lower.consequent.points()[j]
        b2 = upper.consequent.points()[j]
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
    lower: Rule,
    upper: Rule,
    obs: Observation,
    n_levels: int = 1001,
    order: float = 2.0,
) -> AlphaProfile:
    """Resolve the interpolation at ``n_levels`` equally spaced cut levels.

    Levels 0 and 1 reproduce the characteristic points exactly; in between
    the endpoints follow the same weighted mean applied to the cut endpoints
    of the consequents, with distances re-evaluated per level.
    """
    import numpy as np

    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    _require_flanked(lower, upper, obs)
    levels = np.linspace(0.0, 1.0, n_levels)

    def distances(points_of: int) -> tuple[np.ndarray, np.ndarray]:
        # points_of 0: flank infima; 1: flank suprema
        acc1 = np.zeros_like(levels)
        acc2 = np.zeros_like(levels)
        for d in range(obs.dimension):
            a1_curve = _flank_curves(lower.antecedents[d], levels)[points_of]
            ob_curve = _flank_curves(obs.sets[d], levels)[points_of]
            a2_curve = _flank_curves(upper.antecedents[d], levels)[points_of]
            acc1 += np.abs(ob_curve - a1_curve) ** order
            acc2 += np.abs(a2_curve - ob_curve) ** order
        return acc1 ** (1.0 / order), acc2 ** (1.0 / order)

    b1_inf, b1_sup = _flank_curves(lower.consequent, levels)
    b2_inf, b2_sup = _flank_curves(upper.consequent, levels)

    dl1, dl2 = distances(0)
    du1, du2 = distances(1)
    if np.any(dl1 + dl2 == 0.0) or np.any(du1 + du2 == 0.0):
        raise ZeroSpan("flanking antecedents coincide at some level")
    infs = (dl2 * b1_inf + dl1 * b2_inf) / (dl1 + dl2)
    sups = (du2 * b1_sup + du1 * b2_sup) / (du1 + du2)
    return AlphaProfile(levels, infs, sups)


def khstab_points(
    rb: RuleBase, obs: Observation, exponent: float = 1.0, order: float = 2.0
) -> ConclusionPoints:
    """Stabilised variant: weight every rule by inverse distance.

    Each conclusion point is the mean of all rules' consequent points
    weighted by ``1 / d**exponent``. A rule at distance zero dominates in
    the limit, so its consequent point is taken directly (averaged, if
    several rules touch the observation at that point). With exactly two
    flanking rules and exponent 1 this reduces to the plain two-rule
    interpolation.
    """
    if exponent <= 0.0:
        raise DomainError(f"exponent must be positive, got {exponent}")
    if rb.dimension != obs.dimension:
        raise DimensionError(
            f"rule base dimension {rb.dimension} does not match observation "
            f"dimension {obs.dimension}"
        )
    values = []
    for j in range(4):
        dists = [
            _minkowski(
                [obs.sets[d].points()[j] - rule.antecedents[d].points()[j]
                 for d in range(obs.dimension)],
                order,
            )
            for rule in rb.rules
        ]
        exact = [idx for idx, dist in enumerate(dists) if dist == 0.0]
        if exact:
            values.append(
                sum(rb.rules[idx].consequent.points()[j] for idx in exact) / len(exact)
            )
            continue
        weights = [1.0 / dist**exponent for dist in dists]
        total = sum(weights)
        values.append(
            sum(w * rule.consequent.points()[j] for w, rule in zip(weights, rb.rules))
            / total
        )
    return ConclusionPoints(*values)


def assemble_conclusion(
    p: ConclusionPoints, tol: float = DEFAULT_TOL
) -> TrapezoidSet | GradedPointList:
    """Turn raw conclusion points into a fuzzy set, or keep them raw.

    Monotone points (within ``tol``) become a :class:`TrapezoidSet`; any
    inversion yields the raw traversal as a :class:`GradedPointList` so the
    abnormal shape stays visible.
    """
    y = p.as_tuple()
    if all(y[k] <= y[k + 1] + tol for k in range(3)):
        mono = [y[0]]
        for v in y[1:]:
            mono.append(max(mono[-1], v))
        return TrapezoidSet(*mono)
    return GradedPointList(((y[0], 0.0), (y[1], 1.0), (y[2], 1.0), (y[3], 0.0)))
