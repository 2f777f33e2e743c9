"""Normality diagnostics for interpolated conclusions over one input dimension.

The validator works on three segments of the trapezoid description: the left
boundary (LTB, points 1-2), the core (points 2-3) and the right boundary
(RTB, points 3-4). For each segment it extracts the length parameters of the
flanking rules and the observation, applies either the general length
condition or the uniform-length shortcuts, and cross-checks with gap-ratio
conditions and with the direct monotonicity of the interpolated points.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import DimensionError
from .interpolate import TOL, ConclusionPoints, Observation, Rule, kh_characteristic_points

__all__ = [
    "Segment",
    "Verdict",
    "ConditionPath",
    "CaseTag",
    "SegmentParams",
    "LengthDiagnostics",
    "RatioDiagnostics",
    "NormalityReport",
    "extract_segment_params",
    "length_condition",
    "ratio_condition",
    "classify_case",
    "direct_normality",
    "full_report",
]


class Segment(Enum):
    LTB = "LTB"
    CORE = "Core"
    RTB = "RTB"


class Verdict(Enum):
    NORMAL = "NORMAL"
    PROBLEM = "PROBLEM"
    UNDEFINED = "UNDEFINED"


class ConditionPath(Enum):
    GENERAL = "GENERAL"
    UNIFORM_NONZERO = "UNIFORM_NONZERO"
    UNIFORM_ZERO = "UNIFORM_ZERO"


class CaseTag(Enum):
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


@dataclass(frozen=True)
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

    segment: Segment
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
        return abs(self.ka1 - self.ka2) <= TOL

    @property
    def uniform_b(self) -> bool:
        return abs(self.kb1 - self.kb2) <= TOL


@dataclass(frozen=True)
class LengthDiagnostics:
    segment: Segment
    path: ConditionPath
    length1: float
    length2: float
    verdict: Verdict


@dataclass(frozen=True)
class RatioDiagnostics:
    segment: Segment
    ratio1: float | None
    ratio2: float | None
    verdict: Verdict


@dataclass(frozen=True)
class NormalityReport:
    """All diagnostics for one flanked configuration."""

    points: ConclusionPoints
    lengths: tuple[LengthDiagnostics, LengthDiagnostics, LengthDiagnostics]
    ratios: tuple[RatioDiagnostics, RatioDiagnostics, RatioDiagnostics]
    direct: Mapping[Segment, Verdict]
    tags: frozenset[CaseTag]
    overall: Verdict

    def length_for(self, segment: Segment) -> LengthDiagnostics:
        return self.lengths[list(Segment).index(segment)]

    def ratio_for(self, segment: Segment) -> RatioDiagnostics:
        return self.ratios[list(Segment).index(segment)]


def extract_segment_params(
    r1: Rule, r2: Rule, obs: Observation, seg: Segment
) -> SegmentParams:
    """Read the length parameters of one segment off a 1-d configuration.

    This is the only function of the diagnostics that reads rule or
    observation points; every condition is a function of its result.
    """
    if r1.dimension != 1 or r2.dimension != 1 or obs.dimension != 1:
        raise DimensionError("segment diagnostics are defined for one input dimension")
    i, j = _SEGMENT_INDICES[seg]
    a1 = r1.antecedents[0].points()
    a2 = r2.antecedents[0].points()
    b1 = r1.consequent.points()
    b2 = r2.consequent.points()
    x = obs.sets[0].points()
    return SegmentParams(
        segment=seg,
        ka1=a1[j] - a1[i],
        ka2=a2[j] - a2[i],
        kb1=b1[j] - b1[i],
        kb2=b2[j] - b2[i],
        kastar=x[j] - x[i],
        da1=x[i] - a1[j],
        da2=a2[i] - x[j],
        da_gap=a2[i] - a1[j],
        db=b2[i] - b1[j],
    )


def length_condition(p: SegmentParams) -> LengthDiagnostics:
    """Evaluate the length condition for one segment.

    When both the antecedent pair and the consequent pair have uniform
    segment lengths the shortcut forms apply (one for a zero-length
    observation segment, one otherwise); any non-uniformity falls back to
    the general products-of-sums form. The verdict is NORMAL when
    ``length1 <= length2`` within :data:`TOL`; equality counts as normal.
    """
    if p.uniform_a and p.uniform_b:
        length1 = p.db * (p.ka1 - p.kastar)
        if abs(p.kastar) > TOL:
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
    verdict = Verdict.NORMAL if length1 <= length2 + TOL else Verdict.PROBLEM
    return LengthDiagnostics(p.segment, path, length1, length2, verdict)


def ratio_condition(p: SegmentParams) -> RatioDiagnostics:
    """Evaluate the gap-ratio condition for one segment.

    ``ratio1`` compares the consequent gap to the antecedent gap, ``ratio2``
    the antecedent gap to the summed observation-to-antecedent gaps. A zero
    denominator yields an UNDEFINED verdict; callers fall back to
    :func:`length_condition` in that case.
    """
    den2 = p.da1 + p.da2
    if p.da_gap == 0.0 or den2 == 0.0:
        return RatioDiagnostics(p.segment, None, None, Verdict.UNDEFINED)
    ratio1 = p.db / p.da_gap
    ratio2 = p.da_gap / den2
    verdict = Verdict.NORMAL if ratio1 <= ratio2 + TOL else Verdict.PROBLEM
    return RatioDiagnostics(p.segment, ratio1, ratio2, verdict)


def classify_case(params: Sequence[SegmentParams]) -> frozenset[CaseTag]:
    """Tag a configuration, given its three segments' parameters, with the
    scenario hypotheses it satisfies.

    CASE1: uniform antecedent segment lengths with the observation at least
    as long on every segment. CASE2/CASE3: uniform antecedent and consequent
    lengths that are equal (CASE2) or consequent-dominant (CASE3) on every
    segment. COROLLARY4: both the antecedent pair and the consequent pair
    share a nonzero core length. An empty set means no hypothesis holds.
    """
    tags = set()
    uniform_a = all(p.uniform_a for p in params)
    uniform_b = all(p.uniform_b for p in params)
    if uniform_a and all(p.kastar >= p.ka1 - TOL for p in params):
        tags.add(CaseTag.CASE1)
    if uniform_a and uniform_b:
        if all(abs(p.ka1 - p.kb1) <= TOL for p in params):
            tags.add(CaseTag.CASE2)
        elif all(p.kb1 > p.ka1 + TOL for p in params):
            tags.add(CaseTag.CASE3)
    core = next(p for p in params if p.segment is Segment.CORE)
    if core.uniform_a and core.uniform_b and core.ka1 > TOL and core.kb1 > TOL:
        tags.add(CaseTag.COROLLARY4)
    return frozenset(tags)


def direct_normality(p: ConclusionPoints) -> dict[Segment, Verdict]:
    """Per-segment verdicts read directly off the conclusion points."""
    y = p.as_tuple()
    return {
        seg: (Verdict.NORMAL if y[i] <= y[j] + TOL else Verdict.PROBLEM)
        for seg, (i, j) in _SEGMENT_INDICES.items()
    }


def full_report(r1: Rule, r2: Rule, obs: Observation) -> NormalityReport:
    """Run every diagnostic for a flanked 1-d configuration.

    The segment parameters are read once and every condition is computed
    from them. The overall verdict is the conjunction of the three
    length-condition verdicts; the direct point-order verdicts are attached
    for cross-checking.
    """
    params = tuple(extract_segment_params(r1, r2, obs, seg) for seg in Segment)
    points = kh_characteristic_points(r1, r2, obs)
    lengths = tuple(length_condition(p) for p in params)
    overall = (
        Verdict.NORMAL
        if all(d.verdict is Verdict.NORMAL for d in lengths)
        else Verdict.PROBLEM
    )
    return NormalityReport(
        points=points,
        lengths=lengths,  # type: ignore[arg-type]
        ratios=tuple(ratio_condition(p) for p in params),  # type: ignore[arg-type]
        direct=direct_normality(points),
        tags=classify_case(params),
        overall=overall,
    )
