import copy
import json
import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fri_lab import (
    FORMAT_VERSION,
    Observation,
    Rule,
    RuleBaseDocument,
    TrapezoidSet,
    load_document,
    save_document,
)
from fri_lab import benchmark
from fri_lab.errors import FriError, ParseError, ValidationError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRAPEZOID = TrapezoidSet(1, 2, 3, 4)

EXAMPLE1_TEXT = """
{
  "version": "1",
  "dimension": 1,
  "metadata": {"name": "Example 1"},
  "rules": [
    {"antecedents": [[1, 2, 3]], "consequent": [2, 2, 2]},
    {"antecedents": [[7, 8, 9]], "consequent": [8, 8, 8]}
  ],
  "observation": [[4, 5, 5, 6]]
}
"""


class TestLoad:
    def test_example1_document(self):
        doc = load_document(EXAMPLE1_TEXT)
        assert doc.dimension == 1
        assert len(doc.rules) == 2
        assert doc.rules[0].antecedents[0].points() == (1.0, 2.0, 2.0, 3.0)
        assert doc.rules[0].consequent.points() == (2.0,) * 4
        assert doc.observation.sets[0].points() == (4.0, 5.0, 5.0, 6.0)
        assert doc.metadata["name"] == "Example 1"
        payload = json.loads(save_document(doc))
        assert [rule["antecedents"] for rule in payload["rules"]] == [[[1, 2, 3]], [[7, 8, 9]]]
        assert [rule["consequent"] for rule in payload["rules"]] == [[2, 2, 2], [8, 8, 8]]
        assert payload["observation"] == [[4, 5, 5, 6]]

    def test_bytes_input(self):
        doc = load_document(EXAMPLE1_TEXT.encode("utf-8"))
        assert len(doc.rules) == 2

    def test_dimension_mismatch(self):
        bad = json.dumps(
            {
                "version": "1",
                "dimension": 1,
                "rules": [
                    {"antecedents": [[1, 2, 3]], "consequent": [2, 2, 2]},
                    {"antecedents": [[4, 5, 6], [1, 2, 3]], "consequent": [8, 8, 8]},
                ],
            }
        )
        with pytest.raises(ValidationError, match="expected 1"):
            load_document(bad)

    def test_unknown_version(self):
        bad = EXAMPLE1_TEXT.replace('"version": "1"', '"version": "99"')
        with pytest.raises(ValidationError, match="unknown document version"):
            load_document(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            load_document('{"version": "1",\n  "dimension": }')
        assert err.value.line == 2
        assert err.value.column is not None

    def test_bad_utf8_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            load_document(b'{"version": "1",\n "x": "\xff"}')
        assert err.value.line == 2
        assert err.value.column is not None

    def test_no_rules(self):
        with pytest.raises(ValidationError, match="non-empty"):
            load_document('{"version": "1", "dimension": 1, "rules": []}')

    def test_unknown_keys_rejected(self):
        bad = EXAMPLE1_TEXT.replace('"version"', '"extra": 1, "version"')
        with pytest.raises(ValidationError, match="unknown top-level"):
            load_document(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "top level must be an object"),
            (EXAMPLE1_TEXT.replace("[[4, 5, 5, 6]]", "[]"),
             "'observation' must be a non-empty array"),
            (EXAMPLE1_TEXT.replace('"Example 1"', "1"), "metadata['name']: expected a string"),
            (EXAMPLE1_TEXT.replace("[[4, 5, 5, 6]]", "[[4, 5, 5, 6], [4, 5, 5, 6]]"),
             "observation has 2 sets, expected 1"),
            (EXAMPLE1_TEXT.replace('"consequent": [2, 2, 2]', '"consequent": 2'),
             "rules[0].consequent: expected a non-empty array of numbers"),
            (EXAMPLE1_TEXT.replace('{"antecedents": [[7, 8, 9]], "consequent": [8, 8, 8]}',
                                   "[[7, 8, 9]]"),
             "rules[1]: expected an object"),
            (EXAMPLE1_TEXT.replace('{"name": "Example 1"}', '["Example 1"]'),
             "'metadata' must be an object"),
            (EXAMPLE1_TEXT.replace('"antecedents": [[1, 2, 3]]', '"antecedents": []'),
             "rules[0].antecedents: expected a non-empty array"),
        ],
        ids=["top-level-array", "empty-observation", "non-string-metadata",
             "observation-dimension", "non-array-numbers", "non-object-rule",
             "non-object-metadata", "empty-antecedents"],
    )
    def test_malformed_document_rejected(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_document(text)

    @pytest.mark.parametrize(
        "array, where",
        [("[7, 8, 9]", "rules[1].antecedents[0]"), ("[2, 2, 2]", "rules[0].consequent"),
         ("[4, 5, 5, 6]", "observation[0]")],
        ids=["antecedent", "consequent", "observation"],
    )
    @pytest.mark.parametrize(
        "value, reason",
        [
            ("[4, true, 5, 6]", "[1]: expected a number, got True"),
            ("[4, NaN, 5, 6]", "[1]: value must be finite"),
            ("[4, 1" + "0" * 400 + ", 5, 6]", "[1]: value must be finite"),
            ("[4, 5]", ": expected 1, 3 or 4 numbers, got 2"),
            ("[1, 3, 2, 4]", ": values must be non-decreasing (index 1: 3.0 > 2.0)"),
            ("[]", ": expected a non-empty array of numbers"),
        ],
        ids=["bool", "nan", "huge-int", "two-numbers", "descending", "empty"],
    )
    def test_rejected_set_names_its_location(self, array, where, value, reason):
        with pytest.raises(ValidationError, match=f"^{re.escape(where + reason)}$"):
            load_document(EXAMPLE1_TEXT.replace(array, value))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rules": ()}, "document contains no rules"),
            # a bool or float dimension would save a file that load_document rejects
            ({"dimension": True}, "dimension must be an integer, got True"),
            ({"dimension": 1.0}, "dimension must be an integer, got 1.0"),
            ({"dimension": "1"}, "dimension must be an integer, got '1'"),
            ({"metadata": None}, "metadata must be a mapping, got None"),
        ],
        ids=["no-rules", "bool-dimension", "float-dimension", "str-dimension", "null-metadata"],
    )
    def test_inconsistent_document_records_rejected(self, fields, message):
        document = {"version": FORMAT_VERSION, "dimension": 1,
                    "rules": (Rule((TRAPEZOID,), TRAPEZOID),), **fields}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RuleBaseDocument(**document)

    def test_singleton_arity_one(self):
        doc = load_document(
            '{"version": "1", "dimension": 1, '
            '"rules": [{"antecedents": [[2]], "consequent": [5]}]}'
        )
        assert doc.rules[0].antecedents[0].points() == (2.0,) * 4
        assert json.loads(save_document(doc))["rules"] == [{"antecedents": [[2]], "consequent": [5]}]


class TestRoundTrip:
    def test_loaded_document_round_trips(self):
        doc = load_document(EXAMPLE1_TEXT)
        again = load_document(save_document(doc))
        assert again == doc

    def test_singleton_document_round_trips_byte_identically(self):
        text = json.dumps({
            "version": "1",
            "dimension": 1,
            "rules": [
                {"antecedents": [[2.0]], "consequent": [5.0]},
                {"antecedents": [[7.0]], "consequent": [9.5]},
            ],
            "observation": [[4.25]],
        }, indent=2) + "\n"
        doc = load_document(text)
        assert save_document(doc) == text.encode("utf-8")

    def test_written_form_is_not_part_of_the_value(self):
        # equal documents, as equal dicts can be written differently
        texts = [json.dumps({
            "version": "1",
            "dimension": 1,
            "rules": [{"antecedents": [antecedent], "consequent": [5.0]}],
        }, indent=2) + "\n" for antecedent in ([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])]
        triangle, trapezoid = map(load_document, texts)
        assert triangle == trapezoid and repr(triangle) == repr(trapezoid)
        assert [save_document(triangle), save_document(trapezoid)] == [t.encode() for t in texts]

    @pytest.mark.parametrize("copy_of", [lambda d: pickle.loads(pickle.dumps(d)), copy.copy,
                                         copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_copied_document_saves_as_written(self, copy_of):
        data = (FIXTURES / "example_01.json").read_bytes()  # triangles and singletons
        assert save_document(copy_of(load_document(data))) == data

    def test_triangle_arity_preserved_on_resave(self):
        doc = load_document(EXAMPLE1_TEXT)
        payload = json.loads(save_document(doc))
        assert payload["rules"][0]["antecedents"][0] == [1.0, 2.0, 3.0]

    def test_canonicalised_triangle_saves_as_four_points(self):
        rule = Rule((TrapezoidSet.from_points((1, 2, 3)),), TrapezoidSet.from_points((2,)))
        doc = RuleBaseDocument(FORMAT_VERSION, 1, (rule,), metadata={"name": "built"})
        payload = json.loads(save_document(doc))
        assert payload["rules"][0]["antecedents"][0] == [1.0, 2.0, 2.0, 3.0]
        assert payload["rules"][0]["consequent"] == [2.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "metadata, message",
        [
            ({"n": 5}, "metadata['n']: expected a string"),
            ({"n": None}, "metadata['n']: expected a string"),
            ({1: "x"}, "metadata key 1: expected a string"),
        ],
        ids=["int-value", "null-value", "int-key"],
    )
    def test_metadata_that_cannot_round_trip_is_rejected_when_built(self, metadata, message):
        # save_document would write a file that load_document rejects or reads back changed
        rule = Rule((TRAPEZOID,), TRAPEZOID)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RuleBaseDocument(FORMAT_VERSION, 1, (rule,), metadata=metadata)

    def test_full_precision_numbers(self):
        rule = Rule(
            (TrapezoidSet(0.1, 0.2, 0.30000000000000004, 1 / 3),),
            TrapezoidSet(1.1, 2.2, 3.3, 4.4),
        )
        doc = RuleBaseDocument(FORMAT_VERSION, 1, (rule,), Observation((TrapezoidSet(5, 6, 7, 8),)))
        again = load_document(save_document(doc))
        assert again.rules[0].antecedents[0].points() == rule.antecedents[0].points()


class TestShippedFixtures:
    def test_fixtures_directory_is_the_package_data(self):
        # one copy of each document: the checkout's fixtures/ links to the
        # files builtin_cases() reads
        assert FIXTURES.resolve() == Path(benchmark.__file__).resolve().with_name("fixtures")

    @pytest.mark.parametrize("case_id", range(1, 10))
    def test_fixture_file_round_trips_byte_identically(self, case_id):
        path = FIXTURES / f"example_{case_id:02d}.json"
        data = path.read_bytes()
        assert save_document(load_document(data)) == data


def _reference_load(text: str) -> tuple[RuleBaseDocument, tuple]:
    """The loader as it checked every number and then built each set, kept as
    the reference for the one-test acceptance of ``load_document``: the
    document and how many numbers each array was written with. It takes the
    JSON text only; the UTF-8 and JSON errors are not its concern."""

    def as_number_list(value, where):
        if not isinstance(value, list) or not value:
            raise ValidationError(f"{where}: expected a non-empty array of numbers")
        out = []
        for k, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ValidationError(f"{where}[{k}]: expected a number, got {item!r}")
            try:
                v = float(item)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise ValidationError(f"{where}[{k}]: value must be finite")
            out.append(v)
        return out

    def parse_set(value, where):
        nums = as_number_list(value, where)
        if len(nums) not in (1, 3, 4):
            raise ValidationError(f"{where}: expected 1, 3 or 4 numbers, got {len(nums)}")
        for k in range(len(nums) - 1):
            if nums[k] > nums[k + 1]:
                raise ValidationError(
                    f"{where}: values must be non-decreasing "
                    f"(index {k}: {nums[k]} > {nums[k + 1]})"
                )
        return TrapezoidSet.from_points(nums), len(nums)

    def parse_sets(value, where, empty):
        if not isinstance(value, list) or not value:
            raise ValidationError(empty)
        parsed = [parse_set(raw, f"{where}[{d}]") for d, raw in enumerate(value)]
        return tuple(s for s, _ in parsed), tuple(a for _, a in parsed)

    raw = json.loads(text)
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
    rules, arities = [], []
    for idx, raw_rule in enumerate(raw_rules):
        where = f"rules[{idx}]"
        if not isinstance(raw_rule, dict):
            raise ValidationError(f"{where}: expected an object")
        if set(raw_rule) != {"antecedents", "consequent"}:
            raise ValidationError(f"{where}: expected keys 'antecedents' and 'consequent'")
        ants, ant_ars = parse_sets(raw_rule["antecedents"], f"{where}.antecedents",
                                   f"{where}.antecedents: expected a non-empty array")
        consequent, con_ar = parse_set(raw_rule["consequent"], f"{where}.consequent")
        rules.append(Rule(ants, consequent))
        arities.append((ant_ars, con_ar))
    observation = observation_arity = None
    if raw.get("observation") is not None:
        sets, observation_arity = parse_sets(
            raw["observation"], "observation", "'observation' must be a non-empty array"
        )
        observation = Observation(sets)
    metadata = {}
    if raw.get("metadata") is not None:
        raw_meta = raw["metadata"]
        if not isinstance(raw_meta, dict):
            raise ValidationError("'metadata' must be an object")
        for key, value in raw_meta.items():
            if not isinstance(value, str):
                raise ValidationError(f"metadata[{key!r}]: expected a string")
            metadata[key] = value
    document = RuleBaseDocument(version, dimension, tuple(rules), observation, metadata)
    return document, (tuple(arities), observation_arity)


DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("example_*.json"))]
HUGE = "@1e400"  # json.dumps cannot write this literal: the text gets it in place of the string
BAD_ITEMS = (True, "1", None, [], {}, math.nan, math.inf, -math.inf, HUGE, 10**400, -(10**400))


@st.composite
def _mutated_set(draw, points):
    if draw(st.booleans()):
        k = draw(st.integers(0, len(points) - 1))
        return points[:k] + [draw(st.sampled_from(BAD_ITEMS))] + points[k + 1:]
    return draw(st.sampled_from([
        [], points[:1] * 2, points + points[:1], points[::-1], [1, 3, 2, 4],
        points[:1], [int(p) for p in points], 5, "1", None, {}, True,
    ]))


def _set_paths(doc):
    for i, rule in enumerate(doc["rules"]):
        yield from (("rules", i, "antecedents", d) for d in range(len(rule["antecedents"])))
        yield ("rules", i, "consequent")
    yield from (("observation", d) for d in range(len(doc.get("observation", ()))))


@st.composite
def mutated_documents(draw):
    """A shipped fixture, in one or two dimensions, with up to three of its
    sets changed (most into invalid arrays) and at most one rule or
    observation made malformed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    if draw(st.booleans()):
        doc["dimension"] = 2
        for rule in doc["rules"]:
            rule["antecedents"] *= 2
        doc["observation"] *= 2
    for path in draw(st.lists(st.sampled_from(list(_set_paths(doc))), max_size=3, unique=True)):
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        parent[last] = draw(_mutated_set(parent[last]))
    rule = draw(st.sampled_from(doc["rules"]))
    change = draw(st.sampled_from(["none"] * 8 + [
        "drop", "extra", "not-object", "no-antecedents", "antecedents-scalar",
        "no-observation", "empty-observation",
    ]))
    if change == "drop":
        del rule[draw(st.sampled_from(["antecedents", "consequent"]))]
    elif change == "extra":
        rule["weight"] = 1
    elif change == "not-object":
        doc["rules"][draw(st.integers(0, len(doc["rules"]) - 1))] = [rule]
    elif change in ("no-antecedents", "antecedents-scalar"):
        rule["antecedents"] = [] if change == "no-antecedents" else 7
    elif change == "no-observation":
        doc.pop("observation")
    elif change == "empty-observation":
        doc["observation"] = []
    return json.dumps(doc).replace(f'"{HUGE}"', "1e400")


def _load_with_record(text):
    doc = load_document(text)
    return doc, doc._written


def _load_outcome(load, text):
    try:
        return load(text)
    except FriError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(mutated_documents())
@example(json.dumps(DOCS[0]).replace("3.0", "true", 1))
@example(json.dumps(DOCS[0]).replace("9.0", "1" + "0" * 400, 1))
@example(json.dumps(DOCS[0]).replace("9.0", "1e400", 1))
def test_loader_matches_reference(text):
    """Every mutated document loads to the same document and array lengths as
    the reference loader, or fails with the same exception class and message."""
    assert _load_outcome(_load_with_record, text) == _load_outcome(_reference_load, text)
