"""Load and save rule bases as JSON documents.

Document format (version "1"): a JSON object with top-level keys

- ``version``: the string "1";
- ``dimension``: number of input dimensions (positive integer);
- ``rules``: non-empty list of ``{"antecedents": [[...], ...], "consequent": [...]}``;
- ``observation`` (optional): list of one fuzzy-set array per dimension;
- ``metadata`` (optional): object with string values, e.g. ``name`` and ``notes``.

Each fuzzy-set array holds 1, 3 or 4 non-decreasing numbers: one value is a
singleton, three a triangle, four a trapezoid. Arrays are canonicalised to
the 4-point form in memory. How many numbers each array was written with is
kept by the loader, not by the document's value: ``[1, 2, 3]`` and
``[1, 2, 2, 3]`` load to equal documents, and each saves back as it was
written. A document built in code is saved in 4-point form.
Numbers are serialised at full precision and round-trip exactly.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from typing import Any

from ._frozen import frozen
from .errors import FriError, ParseError, ValidationError
from .interpolate import Observation, Rule, RuleBase
from .sets import TrapezoidSet

FORMAT_VERSION = "1"

_VALID_ARITIES = (1, 3, 4)
_NUMBER_TYPES = frozenset((int, float))  # a bool's type is bool, so it fails
_RULE_KEYS = {"antecedents", "consequent"}


@frozen
class RuleBaseDocument:
    """A rule-base document: its version, dimension, rules, optional
    observation and metadata."""

    version: str
    dimension: int
    rules: tuple[Rule, ...]
    observation: Observation | None = None
    metadata: Mapping[str, str] = {}  # copied in __post_init__, never shared

    # Not a field: set by load_document to how many numbers each array was
    # written with, ``(((antecedent lengths), consequent length) per rule,
    # observation lengths or None)``, so save_document writes it back.
    _written = None

    def __post_init__(self) -> None:
        if not isinstance(self.metadata, Mapping):
            raise ValidationError(f"metadata must be a mapping, got {self.metadata!r}")
        object.__setattr__(self, "metadata", dict(self.metadata))
        for key, value in self.metadata.items():
            if not isinstance(key, str):
                raise ValidationError(f"metadata key {key!r}: expected a string")
            if not isinstance(value, str):
                raise ValidationError(f"metadata[{key!r}]: expected a string")
        if self.version != FORMAT_VERSION:
            raise ValidationError(f"unknown document version {self.version!r}")
        if type(self.dimension) is not int:  # a bool's type is bool, so it fails
            raise ValidationError(f"dimension must be an integer, got {self.dimension!r}")
        if self.dimension < 1:
            raise ValidationError(f"dimension must be positive, got {self.dimension}")
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise ValidationError("document contains no rules")
        for idx, rule in enumerate(self.rules):
            if rule.dimension != self.dimension:
                raise ValidationError(
                    f"rules[{idx}] has {rule.dimension} antecedents, expected {self.dimension}"
                )
        if self.observation is not None and self.observation.dimension != self.dimension:
            raise ValidationError(
                f"observation has {self.observation.dimension} sets, expected {self.dimension}"
            )


def _accept_set(value: Any) -> TrapezoidSet:
    """The set an array of 1, 3 or 4 ordered finite numbers describes. Any
    other value raises FriError or OverflowError, naming no location."""
    if type(value) is list and _NUMBER_TYPES.issuperset(map(type, value)):
        return TrapezoidSet.from_points(value)
    raise ValidationError("expected an array of numbers")


def _accept_sets(value: Any) -> tuple[tuple[TrapezoidSet, ...], tuple[int, ...]]:
    """The sets of a non-empty array of sets, and the arity each was written with."""
    if type(value) is list and value:
        return tuple(map(_accept_set, value)), tuple(map(len, value))
    raise ValidationError("expected a non-empty array")


# The diagnosis, run only in the handler of a failed acceptance: the checks, in
# their order, raise the reason with the array's location, without that context.

def _check_set(value: Any, where: str) -> None:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a non-empty array of numbers") from None
    for k, item in enumerate(value):
        if type(item) not in _NUMBER_TYPES:
            raise ValidationError(f"{where}[{k}]: expected a number, got {item!r}") from None
        try:
            finite = math.isfinite(item)
        except OverflowError:  # an integer literal beyond the float range
            finite = False
        if not finite:
            raise ValidationError(f"{where}[{k}]: value must be finite") from None
    if len(value) not in _VALID_ARITIES:
        raise ValidationError(f"{where}: expected 1, 3 or 4 numbers, got {len(value)}") from None
    nums = list(map(float, value))
    for k in range(len(nums) - 1):
        if nums[k] > nums[k + 1]:
            raise ValidationError(
                f"{where}: values must be non-decreasing "
                f"(index {k}: {nums[k]} > {nums[k + 1]})"
            ) from None


def _check_sets(value: Any, where: str, empty: str) -> None:
    if not isinstance(value, list) or not value:
        raise ValidationError(empty) from None
    for d, raw in enumerate(value):
        _check_set(raw, f"{where}[{d}]")


def _diagnose(raw_rules: list, start: int, raw_observation: Any) -> None:
    """Raise why rule ``start``, or else the observation, was rejected."""
    for idx, raw_rule in enumerate(raw_rules[start:], start):
        where = f"rules[{idx}]"
        if not isinstance(raw_rule, dict):
            raise ValidationError(f"{where}: expected an object") from None
        if set(raw_rule) != _RULE_KEYS:
            raise ValidationError(
                f"{where}: expected keys 'antecedents' and 'consequent'") from None
        _check_sets(raw_rule["antecedents"], f"{where}.antecedents",
                    f"{where}.antecedents: expected a non-empty array")
        _check_set(raw_rule["consequent"], f"{where}.consequent")
    if raw_observation is not None:
        _check_sets(raw_observation, "observation", "'observation' must be a non-empty array")


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
    except ValueError as exc:  # an integer literal longer than int() converts
        raise ParseError("an integer literal has too many digits") from exc

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
    rule_lengths: list[tuple[tuple[int, ...], int]] = []
    observation = observation_lengths = None
    try:
        for raw_rule in raw_rules:
            if type(raw_rule) is not dict or raw_rule.keys() != _RULE_KEYS:
                raise ValidationError("expected a rule object")
            ants, ant_ars = _accept_sets(raw_rule["antecedents"])
            consequent = raw_rule["consequent"]
            rules.append(Rule(ants, _accept_set(consequent)))
            rule_lengths.append((ant_ars, len(consequent)))
        if raw.get("observation") is not None:
            sets, observation_lengths = _accept_sets(raw["observation"])
            observation = Observation(sets)
    except (FriError, OverflowError):  # OverflowError: an int beyond the float range
        _diagnose(raw_rules, len(rules), raw.get("observation"))
        raise  # reached only if the checks passed what acceptance rejected

    metadata = raw.get("metadata")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ValidationError("'metadata' must be an object")

    doc = RuleBaseDocument(version, dimension, tuple(rules), observation, metadata)
    object.__setattr__(doc, "_written", (tuple(rule_lengths), observation_lengths))
    return doc


def _emit_set(s: TrapezoidSet, arity: int) -> list[float]:
    if arity == 1:
        return [s.a1]
    if arity == 3:
        return [s.a1, s.a2, s.a4]
    return [s.a1, s.a2, s.a3, s.a4]


def save_document(doc: RuleBaseDocument) -> bytes:
    """Serialise a document; ``load_document(save_document(d)) == d``."""
    rule_lengths, observation_lengths = doc._written or (
        (((4,) * doc.dimension, 4),) * len(doc.rules), (4,) * doc.dimension)
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
        for rule, (ant_ars, con_ar) in zip(doc.rules, rule_lengths)
    ]
    if doc.observation is not None:
        payload["observation"] = [
            _emit_set(s, ar)
            for s, ar in zip(doc.observation.sets, observation_lengths)
        ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def to_rulebase(doc: RuleBaseDocument) -> tuple[RuleBase, Observation | None]:
    """Extract the rule base and optional observation from a document."""
    return RuleBase(doc.rules), doc.observation
