"""Normality diagnostics for interpolated conclusions over one input dimension.

The validator works on three segments of the trapezoid description: the left
boundary (LTB, points 1-2), the core (points 2-3) and the right boundary
(RTB, points 3-4). For each segment it extracts the length parameters of the
flanking rules and the observation, applies either the general length
condition or the uniform-length shortcuts, and cross-checks with gap-ratio
conditions and with the direct monotonicity of the interpolated points.
"""
from __future__ import annotations

from enum import Enum
from typing import Mapping

from ._frozen import frozen
from .errors import DimensionError
from .interpolate import (ConclusionPoints, Observation, Rule, _at_most, _close,
                          kh_characteristic_points)


class _Enum(Enum):
    # Enum's own __hash__ is Python code, and the diagnostics key dicts by
    # members; a member is a singleton compared by identity, so the identity
    # hash agrees with == and runs in C.
    __hash__ = object.__hash__


class Segment(_Enum):
    LTB = "LTB"
    CORE = "Core"
    RTB = "RTB"


class Verdict(_Enum):
    NORMAL = "NORMAL"
    PROBLEM = "PROBLEM"
    UNDEFINED = "UNDEFINED"


class ConditionPath(_Enum):
    GENERAL = "GENERAL"
    UNIFORM_NONZERO = "UNIFORM_NONZERO"
    UNIFORM_ZERO = "UNIFORM_ZERO"


class CaseTag(_Enum):
    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASE3 = "CASE3"
    COROLLARY4 = "COROLLARY4"


# Point indices (i, j) describing each segment of a 4-point set.
_SEGMENT_INDICES: Mapping[Segment, tuple[int, int]] = {
    Segment.LTB: (0, 1),
    Segment.CORE: (1, 2),
    Segment.RTB: (2, 3),
}


@frozen
class SegmentParams:
    """Length parameters of one segment of a flanked 1-d configuration.

    ``ka1``/``ka2`` are the segment lengths of the two antecedents, ``kb1``/
    ``kb2`` of the two consequents and ``kastar`` of the observation.
    ``da1`` is the gap from the lower antecedent's segment end to the
    observation's segment start, ``da2`` from the observation's segment end
    to the upper antecedent's segment start, ``da_gap`` the whole gap from
    the lower to the upper antecedent, and ``db`` the corresponding gap
    between the consequents. Gaps may go negative when the sets overlap.
    ``da_gap`` equals ``da1 + kastar + da2`` up to rounding, but is read off
    the antecedents directly, so touching antecedents give exactly zero.
    """

    ka1: float
    ka2: float
    kb1: float
    kb2: float
    kastar: float
    da1: float
    da2: float
    da_gap: float
    db: float

    @property
    def uniform_a(self) -> bool:
        return _close(self.ka1, self.ka2)

    @property
    def uniform_b(self) -> bool:
        return _close(self.kb1, self.kb2)


@frozen
class LengthDiagnostics:
    path: ConditionPath
    length1: float
    length2: float
    verdict: Verdict


@frozen
class RatioDiagnostics:
    ratio1: float | None
    ratio2: float | None
    verdict: Verdict


@frozen
class NormalityReport:
    """All diagnostics for one flanked configuration, keyed by segment."""

    points: ConclusionPoints
    lengths: Mapping[Segment, LengthDiagnostics]
    ratios: Mapping[Segment, RatioDiagnostics]
    direct: Mapping[Segment, Verdict]
    tags: frozenset[CaseTag]
    overall: Verdict


def extract_segment_params(r1: Rule, r2: Rule, obs: Observation) -> dict[Segment, SegmentParams]:
    """Read the length parameters of every segment off a 1-d configuration.

    This is the only function of the diagnostics that reads rule or
    observation points; every condition is a function of its result.
    """
    if len(r1.antecedents) != 1 or len(r2.antecedents) != 1 or len(obs.sets) != 1:
        raise DimensionError("segment diagnostics are defined for one input dimension")
    a1 = r1.antecedents[0].points()
    a2 = r2.antecedents[0].points()
    b1 = r1.consequent.points()
    b2 = r2.consequent.points()
    x = obs.sets[0].points()
    # positional, in field order: nine keywords cost about 0.7 us more per instance
    return {
        seg: SegmentParams(
            a1[j] - a1[i],  # ka1
            a2[j] - a2[i],  # ka2
            b1[j] - b1[i],  # kb1
            b2[j] - b2[i],  # kb2
            x[j] - x[i],  # kastar
            x[i] - a1[j],  # da1
            a2[i] - x[j],  # da2
            a2[i] - a1[j],  # da_gap
            b2[i] - b1[j],  # db
        )
        for seg, (i, j) in _SEGMENT_INDICES.items()
    }


def length_condition(p: SegmentParams) -> LengthDiagnostics:
    """Evaluate the length condition for one segment.

    When both the antecedent pair and the consequent pair have uniform
    segment lengths the shortcut forms apply (one for a zero-length
    observation segment, one otherwise); any non-uniformity falls back to
    the general products-of-sums form. The verdict is NORMAL when
    ``length1`` is at most ``length2`` by the tolerance rule
    :func:`~fri_lab.interpolate._at_most`; equality counts as normal.
    """
    if p.uniform_a and p.uniform_b:
        length1 = p.db * (p.ka1 - p.kastar)
        if not _close(p.kastar, 0.0):
            path = ConditionPath.UNIFORM_NONZERO
            length2 = p.kb1 * (p.da1 + p.da2 + 2.0 * p.kastar)
        else:
            path = ConditionPath.UNIFORM_ZERO
            # the paper's summed gap; da_gap can differ from it in the last bit
            length2 = p.kb1 * (p.da1 + p.kastar + p.da2)
    else:
        path = ConditionPath.GENERAL
        length1 = p.db * (
            (p.ka1 + p.da1) * (p.ka2 + p.da2)
            - (p.kastar + p.da1) * (p.kastar + p.da2)
        )
        length2 = (p.ka1 + p.da1) * (p.da1 + p.kastar) * p.kb2 + (
            p.ka2 + p.da2
        ) * (p.da2 + p.kastar) * p.kb1
    verdict = Verdict.NORMAL if _at_most(length1, length2) else Verdict.PROBLEM
    return LengthDiagnostics(path, length1, length2, verdict)


def ratio_condition(p: SegmentParams) -> RatioDiagnostics:
    """Evaluate the gap-ratio condition for one segment.

    ``ratio1`` compares the consequent gap to the antecedent gap, ``ratio2``
    the antecedent gap to the summed observation-to-antecedent gaps. A zero
    denominator yields an UNDEFINED verdict; callers fall back to
    :func:`length_condition` in that case.
    """
    den2 = p.da1 + p.da2
    if p.da_gap == 0.0 or den2 == 0.0:
        return RatioDiagnostics(None, None, Verdict.UNDEFINED)
    ratio1 = p.db / p.da_gap
    ratio2 = p.da_gap / den2
    verdict = Verdict.NORMAL if _at_most(ratio1, ratio2) else Verdict.PROBLEM
    return RatioDiagnostics(ratio1, ratio2, verdict)


def classify_case(params: Mapping[Segment, SegmentParams]) -> frozenset[CaseTag]:
    """Tag a configuration, given its three segments' parameters, with the
    scenario hypotheses it satisfies.

    CASE1: uniform antecedent segment lengths with the observation at least
    as long on every segment. CASE2/CASE3: uniform antecedent and consequent
    lengths that are equal (CASE2) or consequent-dominant (CASE3) on every
    segment. COROLLARY4: both the antecedent pair and the consequent pair
    share a nonzero core length. An empty set means no hypothesis holds.

    A tag is not a normality guarantee: a configuration tagged CASE3 or
    COROLLARY4 can still have an inverted segment, which ``full_report``'s
    verdicts show.
    """
    tags = set()
    segments = params.values()
    uniform_a = all(p.uniform_a for p in segments)
    uniform_b = all(p.uniform_b for p in segments)
    if uniform_a and all(_at_most(p.ka1, p.kastar) for p in segments):
        tags.add(CaseTag.CASE1)
    if uniform_a and uniform_b:
        if all(_close(p.ka1, p.kb1) for p in segments):
            tags.add(CaseTag.CASE2)
        elif all(not _at_most(p.kb1, p.ka1) for p in segments):
            tags.add(CaseTag.CASE3)
    core = params[Segment.CORE]
    if core.uniform_a and core.uniform_b and not _at_most(min(core.ka1, core.kb1), 0.0):
        tags.add(CaseTag.COROLLARY4)
    return frozenset(tags)


def direct_normality(p: ConclusionPoints) -> dict[Segment, Verdict]:
    """Per-segment verdicts read directly off the conclusion points."""
    y = p.as_tuple()
    return {
        seg: (Verdict.NORMAL if _at_most(y[i], y[j]) else Verdict.PROBLEM)
        for seg, (i, j) in _SEGMENT_INDICES.items()
    }


def full_report(r1: Rule, r2: Rule, obs: Observation) -> NormalityReport:
    """Run every diagnostic for a flanked 1-d configuration.

    The segment parameters are read once and every condition is computed
    from them. The overall verdict is the conjunction of the three
    length-condition verdicts; the direct point-order verdicts are attached
    for cross-checking.
    """
    params = extract_segment_params(r1, r2, obs)
    points = kh_characteristic_points(r1, r2, obs)
    lengths = {seg: length_condition(p) for seg, p in params.items()}
    overall = (
        Verdict.NORMAL
        if all(d.verdict is Verdict.NORMAL for d in lengths.values())
        else Verdict.PROBLEM
    )
    return NormalityReport(
        points=points,
        lengths=lengths,
        ratios={seg: ratio_condition(p) for seg, p in params.items()},
        direct=direct_normality(points),
        tags=classify_case(params),
        overall=overall,
    )
