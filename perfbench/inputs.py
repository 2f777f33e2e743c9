"""Seeded inputs and plain-Python reference results.

Documents are written with :mod:`json`, not with the package's
``save_document``, so the inputs do not depend on the code under test; the
same seed gives byte-identical inputs on every commit, which the sha256 of
each input (printed by ``run.py``) lets two runs show. Fuzzy sets are lists
of four non-decreasing abscissas; an observation is one set per dimension.
"""
from __future__ import annotations

import hashlib
import json
import math
import random

#: Distance between consecutive rules of a generated chain.
SPACING = 10.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def document_bytes(rules: list[dict], observation: list[list[float]] | None = None) -> bytes:
    """A version-1 rule-base document, laid out like the shipped fixtures."""
    payload = {"version": "1", "dimension": len(rules[0]["antecedents"]), "rules": rules}
    if observation is not None:
        payload["observation"] = observation
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _trap(rng: random.Random, start: float, lo: float, hi: float) -> list[float]:
    """Trapezoid from ``start`` with three segment lengths drawn from [lo, hi]."""
    pts = [start]
    for _ in range(3):
        pts.append(pts[-1] + rng.uniform(lo, hi))
    return pts


def chain(rng: random.Random, n: int, k: int, n_queries: int):
    """A chain of ``n`` rules in ``k`` dimensions and observations in its gaps.

    Rule ``i`` sits in ``[SPACING*(i+1), SPACING*(i+1) + 5.5]`` in every
    dimension; an observation in gap ``i`` sits in ``[+5.6, +9.6]`` past the
    same origin, so it lies strictly between rules ``i`` and ``i + 1`` in
    every dimension and those two rules are its flanking neighbours.
    Consequents are placed freely near the rule, so conclusions may invert.

    Returns the rules, the document bytes and a list of ``(gap, observation)``.
    """
    rules = []
    for i in range(n):
        origin = SPACING * (i + 1)
        rules.append({
            "antecedents": [_trap(rng, origin + rng.uniform(0, 1), 0.2, 1.5) for _ in range(k)],
            "consequent": _trap(rng, origin + rng.uniform(-3, 3), 0.0, 2.0),
        })
    queries = []
    for _ in range(n_queries):
        gap = rng.randrange(n - 1)
        origin = SPACING * (gap + 1)
        queries.append(
            (gap, [_trap(rng, origin + 5.6 + rng.uniform(0, 0.4), 0.0, 1.2) for _ in range(k)])
        )
    return rules, document_bytes(rules), queries


def flanked_pair(rng: random.Random) -> tuple[bytes, list[dict], list[list[float]]]:
    """A two-rule 1-d document with free shapes and its observation.

    The observation's support lies strictly between the antecedent supports;
    segment lengths are free, so some conclusions are normal and others
    inverted. Returns the document bytes, its rules and its observation.
    """
    lower = _trap(rng, rng.uniform(-5, 5), 0.0, 2.0)
    obs = _trap(rng, lower[3] + rng.uniform(0.05, 3), 0.0, 2.0)
    upper = _trap(rng, obs[3] + rng.uniform(0.05, 3), 0.0, 2.0)
    b1 = _trap(rng, rng.uniform(-5, 5), 0.0, 2.0)
    b2 = _trap(rng, b1[3] + rng.uniform(0.05, 5), 0.0, 2.0)
    rules = [{"antecedents": [lower], "consequent": b1}, {"antecedents": [upper], "consequent": b2}]
    return document_bytes(rules, [obs]), rules, [obs]


def by_point(sets: list[list[float]]) -> list[tuple[float, ...]]:
    """For each of the four characteristic points, its coordinates across
    the dimensions of a fuzzy value given as one set per dimension."""
    return [tuple(s[j] for s in sets) for j in range(4)]


def kh_reference(lower: dict, upper: dict, obs: list[list[float]]) -> list[float]:
    """Two-rule inverse-distance points, Euclidean distance across dimensions."""
    o, a1, a2 = by_point(obs), by_point(lower["antecedents"]), by_point(upper["antecedents"])
    out = []
    for j in range(4):
        d1 = math.dist(o[j], a1[j])
        d2 = math.dist(o[j], a2[j])
        out.append((d2 * lower["consequent"][j] + d1 * upper["consequent"][j]) / (d1 + d2))
    return out


def khstab_reference(
    rule_points: list[list[tuple[float, ...]]], consequents: list[list[float]], obs: list[list[float]]
) -> list[float]:
    """All-rules inverse-distance points with weights ``1/d`` (exponent 1).

    ``rule_points[i]`` is :func:`by_point` of rule ``i``'s antecedents.
    Generated observations never touch a rule, so no distance is zero.
    """
    o = by_point(obs)
    out = []
    for j in range(4):
        weights = [1.0 / math.dist(o[j], points[j]) for points in rule_points]
        out.append(
            math.fsum(w * c[j] for w, c in zip(weights, consequents)) / math.fsum(weights)
        )
    return out


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal within ``rel`` of the larger magnitude, or of 1 near zero."""
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def ordered(y, tol: float = 1e-9) -> tuple[bool, bool, bool]:
    """Whether each consecutive pair of points is in order within ``tol``."""
    return tuple(y[k] <= y[k + 1] + tol for k in range(3))
