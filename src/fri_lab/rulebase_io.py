"""Load and save rule bases as JSON documents.

Document format (version "1"): a JSON object with top-level keys

- ``version``: the string "1";
- ``dimension``: number of input dimensions (positive integer);
- ``rules``: non-empty list of ``{"antecedents": [[...], ...], "consequent": [...]}``;
- ``observation`` (optional): list of one fuzzy-set array per dimension;
- ``metadata`` (optional): object with string values, e.g. ``name`` and ``notes``.

Each fuzzy-set array holds 1, 3 or 4 non-decreasing numbers: one value is a
singleton, three a triangle, four a trapezoid. Arrays are canonicalised to
the 4-point form in memory; the arity each array was written with is
recorded so saving reproduces the input form, while documents built
programmatically from canonical sets are saved in 4-point form (the original
arity of a degenerate set remains visible in its repeated abscissas).
Numbers are serialised at full precision and round-trip exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError
from .interpolate import Observation, Rule, RuleBase
from .sets import TrapezoidSet

__all__ = [
    "FORMAT_VERSION",
    "RuleBaseDocument",
    "load_document",
    "save_document",
    "document_from_sets",
    "to_rulebase",
]

FORMAT_VERSION = "1"

_VALID_ARITIES = (1, 3, 4)


def _check_arity(s: TrapezoidSet, arity: int, where: str) -> None:
    if arity not in _VALID_ARITIES:
        raise ValidationError(f"{where}: arity must be 1, 3 or 4, got {arity}")
    if arity == 1 and not s.is_singleton:
        raise ValidationError(f"{where}: arity 1 requires a singleton")
    if arity == 3 and not s.is_triangle:
        raise ValidationError(f"{where}: arity 3 requires a triangle")


@dataclass(frozen=True)
class RuleBaseDocument:
    """A parsed rule-base document with per-array arity records."""

    version: str
    dimension: int
    rules: tuple[Rule, ...]
    observation: Observation | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)
    rule_arities: tuple[tuple[tuple[int, ...], int], ...] = ()
    observation_arity: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.version != FORMAT_VERSION:
            raise ValidationError(f"unknown document version {self.version!r}")
        if self.dimension < 1:
            raise ValidationError(f"dimension must be positive, got {self.dimension}")
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "metadata", dict(self.metadata))
        if not self.rules:
            raise ValidationError("document contains no rules")
        if not self.rule_arities:
            object.__setattr__(
                self,
                "rule_arities",
                tuple(((4,) * r.dimension, 4) for r in self.rules),
            )
        object.__setattr__(self, "rule_arities", tuple(self.rule_arities))
        if len(self.rule_arities) != len(self.rules):
            raise ValidationError("arity records do not match the rule count")
        for idx, (rule, (ant_ar, con_ar)) in enumerate(zip(self.rules, self.rule_arities)):
            if rule.dimension != self.dimension:
                raise ValidationError(
                    f"rules[{idx}] has {rule.dimension} antecedents, expected {self.dimension}"
                )
            if len(ant_ar) != rule.dimension:
                raise ValidationError(f"rules[{idx}]: arity record length mismatch")
            for d, (s, ar) in enumerate(zip(rule.antecedents, ant_ar)):
                _check_arity(s, ar, f"rules[{idx}].antecedents[{d}]")
            _check_arity(rule.consequent, con_ar, f"rules[{idx}].consequent")
        if self.observation is not None:
            if self.observation.dimension != self.dimension:
                raise ValidationError(
                    f"observation has {self.observation.dimension} sets, "
                    f"expected {self.dimension}"
                )
            arities = self.observation_arity or (4,) * self.dimension
            object.__setattr__(self, "observation_arity", tuple(arities))
            if len(arities) != self.dimension:
                raise ValidationError("observation arity record length mismatch")
            for d, (s, ar) in enumerate(zip(self.observation.sets, arities)):
                _check_arity(s, ar, f"observation[{d}]")
        elif self.observation_arity is not None:
            raise ValidationError("observation arity recorded without an observation")


def _as_number_list(value: Any, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a non-empty array of numbers")
    out: list[float] = []
    for k, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValidationError(f"{where}[{k}]: expected a number, got {item!r}")
        v = float(item)
        if not math.isfinite(v):
            raise ValidationError(f"{where}[{k}]: value must be finite")
        out.append(v)
    return out


def _parse_set(value: Any, where: str) -> tuple[TrapezoidSet, int]:
    nums = _as_number_list(value, where)
    if len(nums) not in _VALID_ARITIES:
        raise ValidationError(f"{where}: expected 1, 3 or 4 numbers, got {len(nums)}")
    for k in range(len(nums) - 1):
        if nums[k] > nums[k + 1]:
            raise ValidationError(
                f"{where}: values must be non-decreasing "
                f"(index {k}: {nums[k]} > {nums[k + 1]})"
            )
    return TrapezoidSet.from_points(nums), len(nums)


def load_document(data: bytes | str) -> RuleBaseDocument:
    """Parse and validate a document; no partially-parsed result escapes."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[: exc.start]
            line = prefix.count(b"\n") + 1
            column = exc.start - (prefix.rfind(b"\n") + 1) + 1
            raise ParseError(
                f"document is not valid UTF-8: {exc.reason}", line=line, column=column
            ) from exc
    else:
        text = data
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("document is nested too deeply") from exc

    if not isinstance(raw, dict):
        raise ValidationError("top level must be an object")
    unknown = set(raw) - {"version", "dimension", "rules", "observation", "metadata"}
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")

    version = raw.get("version")
    if not isinstance(version, str):
        raise ValidationError("missing or non-string 'version'")
    dimension = raw.get("dimension")
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise ValidationError("missing or non-integer 'dimension'")

    raw_rules = raw.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise ValidationError("'rules' must be a non-empty array")
    rules: list[Rule] = []
    arities: list[tuple[tuple[int, ...], int]] = []
    for idx, raw_rule in enumerate(raw_rules):
        where = f"rules[{idx}]"
        if not isinstance(raw_rule, dict):
            raise ValidationError(f"{where}: expected an object")
        if set(raw_rule) != {"antecedents", "consequent"}:
            raise ValidationError(f"{where}: expected keys 'antecedents' and 'consequent'")
        raw_ants = raw_rule["antecedents"]
        if not isinstance(raw_ants, list) or not raw_ants:
            raise ValidationError(f"{where}.antecedents: expected a non-empty array")
        ants = []
        ant_ars = []
        for d, raw_set in enumerate(raw_ants):
            s, ar = _parse_set(raw_set, f"{where}.antecedents[{d}]")
            ants.append(s)
            ant_ars.append(ar)
        consequent, con_ar = _parse_set(raw_rule["consequent"], f"{where}.consequent")
        rules.append(Rule(tuple(ants), consequent))
        arities.append((tuple(ant_ars), con_ar))

    observation = None
    observation_arity = None
    if "observation" in raw and raw["observation"] is not None:
        raw_obs = raw["observation"]
        if not isinstance(raw_obs, list) or not raw_obs:
            raise ValidationError("'observation' must be a non-empty array")
        sets = []
        obs_ars = []
        for d, raw_set in enumerate(raw_obs):
            s, ar = _parse_set(raw_set, f"observation[{d}]")
            sets.append(s)
            obs_ars.append(ar)
        observation = Observation(tuple(sets))
        observation_arity = tuple(obs_ars)

    metadata: dict[str, str] = {}
    if "metadata" in raw and raw["metadata"] is not None:
        raw_meta = raw["metadata"]
        if not isinstance(raw_meta, dict):
            raise ValidationError("'metadata' must be an object")
        for key, value in raw_meta.items():
            if not isinstance(value, str):
                raise ValidationError(f"metadata[{key!r}]: expected a string")
            metadata[key] = value

    return RuleBaseDocument(
        version=version,
        dimension=dimension,
        rules=tuple(rules),
        observation=observation,
        metadata=metadata,
        rule_arities=tuple(arities),
        observation_arity=observation_arity,
    )


def _emit_set(s: TrapezoidSet, arity: int) -> list[float]:
    if arity == 1:
        return [s.a1]
    if arity == 3:
        return [s.a1, s.a2, s.a4]
    return [s.a1, s.a2, s.a3, s.a4]


def save_document(doc: RuleBaseDocument) -> bytes:
    """Serialise a document; ``load_document(save_document(d)) == d``."""
    payload: dict[str, Any] = {
        "version": doc.version,
        "dimension": doc.dimension,
    }
    if doc.metadata:
        payload["metadata"] = dict(doc.metadata)
    payload["rules"] = [
        {
            "antecedents": [
                _emit_set(s, ar) for s, ar in zip(rule.antecedents, ant_ars)
            ],
            "consequent": _emit_set(rule.consequent, con_ar),
        }
        for rule, (ant_ars, con_ar) in zip(doc.rules, doc.rule_arities)
    ]
    if doc.observation is not None:
        payload["observation"] = [
            _emit_set(s, ar)
            for s, ar in zip(doc.observation.sets, doc.observation_arity or ())
        ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def document_from_sets(
    rules: Iterable[Rule],
    observation: Observation | None = None,
    name: str | None = None,
    notes: str | None = None,
    rule_arities: Sequence[tuple[Sequence[int], int]] | None = None,
    observation_arity: Sequence[int] | None = None,
) -> RuleBaseDocument:
    """Build a document from in-memory values.

    Without explicit arity records every set is saved in canonical 4-point
    form.
    """
    rules = tuple(rules)
    metadata: dict[str, str] = {}
    if name is not None:
        metadata["name"] = name
    if notes is not None:
        metadata["notes"] = notes
    dimension = rules[0].dimension if rules else 0
    return RuleBaseDocument(
        version=FORMAT_VERSION,
        dimension=dimension,
        rules=rules,
        observation=observation,
        metadata=metadata,
        rule_arities=tuple(
            (tuple(ant_ars), con_ar) for ant_ars, con_ar in (rule_arities or ())
        ),
        observation_arity=tuple(observation_arity) if observation_arity else None,
    )


def to_rulebase(doc: RuleBaseDocument) -> tuple[RuleBase, Observation | None]:
    """Extract the rule base and optional observation from a document."""
    return RuleBase(doc.rules), doc.observation
