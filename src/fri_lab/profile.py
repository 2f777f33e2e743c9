"""The α-cut profile of a two-rule KH conclusion and its dense sweep.

Each cut must be an interval, not inverted and nested in the cut below it.
:func:`kh_alpha_profile` resolves the interpolation at many cut levels and
:func:`sweep_oracle` summarises its gaps and nesting, both with numpy, which
the package does not install; the CLI repeats both in plain floats.
"""
from __future__ import annotations

import math
import operator
import weakref
from typing import TYPE_CHECKING, Iterator

from ._frozen import frozen
from .errors import DomainError
from .interpolate import Observation, Rule, _at_most, _Flanked, _flanked, _weighted_mean

if TYPE_CHECKING:
    import numpy as np


@frozen
class AlphaProfile:
    """Sampled cut-level profile of a conclusion.

    ``infs[k]`` and ``sups[k]`` are the interpolated interval endpoints at
    ``levels[k]``; an inverted pair (inf above sup) marks abnormality at
    that level. Arrays are read-only. Needs numpy.
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
        if not (levels[1:] > levels[:-1]).all():
            raise DomainError("levels must be strictly increasing")
        if not (np.isfinite(infs).all() and np.isfinite(sups).all()):
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


@frozen
class SweepOracleResult:
    """Aggregated dense-sweep diagnostics.

    ``min_gap`` is the smallest ``sup - inf`` across levels (ties resolved
    toward the highest level in ``gap_argmin``); ``abnormal_levels`` lists
    levels whose ``inf`` is not at most their ``sup``. The monotonicity flags
    check nesting: each ``inf`` at most the next, each ``sup`` at least the
    next, all by :func:`~fri_lab.interpolate._at_most`. A conclusion is
    abnormal when a level inverts or nesting fails, as :attr:`abnormal` says.
    """

    min_gap: float
    gap_argmin: float
    inf_monotone: bool
    sup_monotone: bool
    abnormal_levels: tuple[float, ...]

    @property
    def abnormal(self) -> bool:
        return bool(self.abnormal_levels) or not (self.inf_monotone and self.sup_monotone)


def _cut_ends(entry: _Flanked) -> list[list[tuple[float, float]]]:
    """Per cut side (inf: point 1 to 2, sup: point 4 to 3), every α-profile
    curve's values at levels 0 and 1: the entry's checked :func:`_gaps` to
    the lower flank in every dimension, then to the upper, then the two
    consequents' points. A side's gaps, when all lie below 1/2, are scaled up
    by the side's own power of two, lest subnormal gaps lose bits when
    interpolated; the weights depend only on ratios of distances. After
    scaling, a side's largest gap end is at least 1/2 and the other end of its
    curve positive, so that curve, and the distance to its flank, stay
    positive at every level. Calls share the gaps until one on another
    configuration.
    """
    below, above = entry.gaps
    consequents = (entry.lower.consequent.points(), entry.upper.consequent.points())
    sides = []
    for start, end in ((0, 1), (3, 2)):
        ends = [(g[start], g[end]) for g in (*below, *above)]
        shift = -math.frexp(max(map(max, ends)))[1]
        if shift > 0:
            ends = [(math.ldexp(g0, shift), math.ldexp(g1, shift)) for g0, g1 in ends]
        sides.append(ends + [(b[start], b[end]) for b in consequents])
    return sides


def _profile(entry: _Flanked, n_levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kh_alpha_profile`'s levels, infs and sups of the entry, in one
    pass that writes in place, for an ``n_levels`` already checked. A gap or
    a distance that overflows may warn; :func:`kh_alpha_profile` runs this
    under one ``np.errstate`` and lets :class:`AlphaProfile` reject what is
    not finite.
    """
    import numpy as np

    # np.linspace(0.0, 1.0, n_levels) bit for bit, without its Python cost
    levels = np.arange(n_levels, dtype=float)
    levels *= 1.0 / (n_levels - 1)
    levels[-1] = 1.0
    # the curves as one C-ordered block, by row of _cut_ends, then cut side,
    # then level, so that every slice below is a view of whole rows
    ends = np.array(list(zip(*_cut_ends(entry))))
    curves = ends[..., :1] * (1.0 - levels)
    curves += ends[..., 1:] * levels
    # each consequent's cut endpoint stops at its kernel, its value at level 1
    np.minimum(ends[-2:, 0, 1:], curves[-2:, 0], out=curves[-2:, 0])
    np.maximum(ends[-2:, 1, 1:], curves[-2:, 1], out=curves[-2:, 1])
    # the distances to the lower and to the upper flank on both cut sides: in
    # one dimension the gap itself, in several one math.hypot call per level,
    # as in KH and _float_profile
    k = entry.obs.dimension
    gaps = curves[:-2].reshape(2, k, 2, n_levels)
    dists = gaps[:, 0] if k == 1 else np.array(
        [[list(map(math.hypot, *flank[:, side].tolist())) for side in (0, 1)] for flank in gaps]
    )
    # _weighted_mean at every level, written over the curves
    d1, d2 = dists
    shift = np.frexp(np.maximum(d1, d2))[1]
    np.subtract(-1, shift, out=shift)
    np.ldexp(dists, shift, out=dists)
    b1, b2 = curves[-2:]
    b1 *= d2
    b2 *= d1
    b1 += b2
    d1 += d2
    return levels, *np.divide(b1, d1)


def kh_alpha_profile(
    lower: Rule, upper: Rule, obs: Observation, n_levels: int = 1001
) -> AlphaProfile:
    """Resolve the interpolation at ``n_levels`` equally spaced cut levels with numpy.

    Each level's inf and sup are :func:`_weighted_mean` of the consequents'
    cut endpoints, with Euclidean distances re-evaluated per level. With
    linear flanks every gap between cut endpoints, and every consequent cut
    endpoint before it stops at the kernel, is ``(1 - α) * v0 + α * v1`` from
    its values at levels 0 and 1 (:func:`_cut_ends`). The levels have the
    bits of ``np.linspace(0.0, 1.0, n_levels)``, computed without calling it,
    and each distance is one ``math.hypot`` call over the dimensions, as in
    KH, so in every dimension the profile has the bits of the CLI's
    :func:`_float_profile`.

    The profile is held weakly on the entry of the last call whose gaps
    passed, matched by the identity of the three inputs: while it is alive, a
    call on the same objects and level count (this one again, or
    :func:`sweep_oracle`) returns it again, until a call on another
    configuration or level count, and dropping it frees its arrays. Its
    arrays are read-only, and writing to them after ``setflags(write=True)``
    is unsupported: every later hit would see it.
    """
    import numpy as np

    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    n_levels = operator.index(n_levels)
    entry = _flanked(lower, upper, obs)
    held = entry.profile
    profile = held and held()
    if profile is None or len(profile) != n_levels:
        with np.errstate(over="ignore", invalid="ignore"):
            profile = AlphaProfile(*_profile(entry, n_levels))
        entry.profile = weakref.ref(profile)
    return profile


def sweep_oracle(
    r1: Rule, r2: Rule, obs: Observation, n_levels: int = 1001
) -> SweepOracleResult:
    """Dense sweep over cut levels, summarising gaps and nesting.

    Independent of the segment diagnostics: it looks only at the sampled
    interval endpoints of :func:`kh_alpha_profile`. A conclusion is flagged
    abnormal when some level's interval inverts (negative gap) or when the
    interval family is not nested (an endpoint curve runs the wrong way).
    Needs numpy.

    It summarises the very profile :func:`kh_alpha_profile` returned for the
    same objects and level count, while held and until a call on another
    configuration, and builds one otherwise. Each call returns a new result.
    """
    import numpy as np

    profile = kh_alpha_profile(r1, r2, obs, n_levels)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = profile.sups - profile.infs
    min_raw = float(gaps.min())
    # near-ties resolve toward the highest level, where inversions concentrate
    idx = int(_at_most(gaps, min_raw).nonzero()[0][-1])
    return SweepOracleResult(
        min_gap=min_raw,
        gap_argmin=float(profile.levels[idx]),
        inf_monotone=bool(_at_most(profile.infs[:-1], profile.infs[1:]).all()),
        sup_monotone=bool(_at_most(profile.sups[1:], profile.sups[:-1]).all()),
        abnormal_levels=tuple(profile.levels[~_at_most(profile.infs, profile.sups)].tolist()),
    )


def _float_profile(
    lower: Rule, upper: Rule, obs: Observation, n_levels: int
) -> tuple[list[float], list[float], list[float]]:
    """:func:`kh_alpha_profile`'s levels, infs and sups in plain floats, for the CLI.

    The same checks in the same order, the levels of ``np.linspace`` (level
    ``i`` is ``i * (1 / (n_levels - 1))``, the last 1.0, as in the library,
    neither calling it), the clamps of ``np.minimum`` and ``np.maximum``,
    which keep the computed value on a tie or a nan, and one ``math.hypot``
    call per distance, as in KH and the library, give the library's bits in
    every dimension. Levels 0 and 1 are KH's points in any dimension order,
    unless a distance is subnormal (ROADMAP item 4). The gaps come from the
    entry of the last call whose gaps passed, reused until a call on another
    configuration; a result that is not finite raises.
    """
    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    step = 1.0 / (n_levels - 1)
    levels = [i * step for i in range(n_levels - 1)] + [1.0]
    rests = [1.0 - level for level in levels]
    k = obs.dimension
    entry = _flanked(lower, upper, obs)
    means = []
    for ends, past in zip(_cut_ends(entry), (operator.gt, operator.lt)):
        curves = [[g0 * r + g1 * level for r, level in zip(rests, levels)] for g0, g1 in ends]
        b1, b2 = ([kernel if past(x, kernel) else x for x in curve]
                  for (_, kernel), curve in zip(ends[-2:], curves[-2:]))
        # the distances to the lower and to the upper flank, one math.hypot each, as in KH
        d1, d2 = (list(map(math.hypot, *flank)) for flank in (curves[:k], curves[k:-2]))
        means.append(list(map(_weighted_mean, d1, d2, b1, b2)))
    infs, sups = means
    if not all(map(math.isfinite, infs + sups)):
        raise DomainError("profile endpoints must be finite")
    return levels, infs, sups


def _sweep_in_floats(
    lower: Rule, upper: Rule, obs: Observation, n_levels: int
) -> SweepOracleResult:
    """:func:`sweep_oracle`'s summary, in plain floats, of :func:`_float_profile`."""
    levels, infs, sups = _float_profile(lower, upper, obs, n_levels)
    gaps = list(map(operator.sub, sups, infs))
    min_raw = min(gaps)
    idx = max(i for i, gap in enumerate(gaps) if _at_most(gap, min_raw))
    return SweepOracleResult(
        min_gap=min_raw,
        gap_argmin=levels[idx],
        inf_monotone=all(map(_at_most, infs, infs[1:])),
        sup_monotone=all(map(_at_most, sups[1:], sups)),
        abnormal_levels=tuple(
            level for level, inf, sup in zip(levels, infs, sups) if not _at_most(inf, sup)
        ),
    )
