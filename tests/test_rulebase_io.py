import json
import re
from pathlib import Path

import pytest

from fri_lab import (
    FORMAT_VERSION,
    Observation,
    Rule,
    RuleBaseDocument,
    TrapezoidSet,
    builtin_cases,
    export_fixtures,
    fixture_document,
    fixture_filename,
    load_document,
    save_document,
    to_rulebase,
)
from fri_lab.errors import ParseError, ValidationError

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
        assert doc.rules[0].consequent.is_singleton
        assert doc.observation.sets[0].points() == (4.0, 5.0, 5.0, 6.0)
        assert doc.metadata["name"] == "Example 1"
        assert doc.rule_arities == (((3,), 3), ((3,), 3))
        assert doc.observation_arity == (4,)

    def test_bytes_input(self):
        doc = load_document(EXAMPLE1_TEXT.encode("utf-8"))
        assert len(doc.rules) == 2

    def test_ordering_violation(self):
        bad = EXAMPLE1_TEXT.replace("[4, 5, 5, 6]", "[1, 3, 2, 4]")
        with pytest.raises(ValidationError, match="non-decreasing"):
            load_document(bad)

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

    def test_bad_arity(self):
        bad = EXAMPLE1_TEXT.replace("[4, 5, 5, 6]", "[4, 5]")
        with pytest.raises(ValidationError, match="1, 3 or 4"):
            load_document(bad)

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
        ],
        ids=["top-level-array", "empty-observation", "non-string-metadata",
             "observation-dimension", "non-array-numbers", "non-object-rule",
             "non-object-metadata"],
    )
    def test_malformed_document_rejected(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_document(text)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rule_arities": (((2,), 4),)},
             "rules[0].antecedents[0]: arity must be 1, 3 or 4, got 2"),
            ({"rule_arities": (((1,), 4),)},
             "rules[0].antecedents[0]: arity 1 requires a singleton"),
            ({"rule_arities": (((4,), 3),)}, "rules[0].consequent: arity 3 requires a triangle"),
            ({"rules": ()}, "document contains no rules"),
            ({"rule_arities": (((4,), 4),) * 2}, "arity records do not match the rule count"),
            ({"rule_arities": (((4, 4), 4),)}, "rules[0]: arity record length mismatch"),
            ({"observation": Observation((TRAPEZOID,)), "observation_arity": (4, 4)},
             "observation arity record length mismatch"),
            ({"observation_arity": (4,)}, "observation arity recorded without an observation"),
        ],
        ids=["unknown-arity", "arity-1-trapezoid", "arity-3-trapezoid", "no-rules",
             "rule-count", "antecedent-count", "observation-count", "no-observation"],
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
        assert doc.rules[0].antecedents[0].is_singleton
        assert doc.rule_arities == (((1,), 1),)


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
        assert doc.rule_arities == (((1,), 1), ((1,), 1)) and doc.observation_arity == (1,)
        assert save_document(doc) == text.encode("utf-8")

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

    def test_full_precision_numbers(self):
        rule = Rule(
            (TrapezoidSet(0.1, 0.2, 0.30000000000000004, 1 / 3),),
            TrapezoidSet(1.1, 2.2, 3.3, 4.4),
        )
        doc = RuleBaseDocument(FORMAT_VERSION, 1, (rule,), Observation((TrapezoidSet(5, 6, 7, 8),)))
        again = load_document(save_document(doc))
        assert again.rules[0].antecedents[0].points() == rule.antecedents[0].points()

    def test_benchmark_export_round_trips(self):
        for case in builtin_cases():
            doc = fixture_document(case)
            again = load_document(save_document(doc))
            assert again == doc
            rb, obs = to_rulebase(again)
            assert rb.rules == (case.rule_lower, case.rule_upper)
            assert obs == case.observation


class TestShippedFixtures:
    @pytest.mark.parametrize("case_id", range(1, 10))
    def test_fixture_file_matches_builtin_case(self, case_id):
        case = next(c for c in builtin_cases() if c.case_id == case_id)
        path = FIXTURES / fixture_filename(case_id)
        doc = load_document(path.read_bytes())
        assert doc == fixture_document(case)

    @pytest.mark.parametrize("case_id", range(1, 10))
    def test_fixture_file_round_trips_byte_identically(self, case_id):
        path = FIXTURES / fixture_filename(case_id)
        data = path.read_bytes()
        assert save_document(load_document(data)) == data

    def test_export_reproduces_the_shipped_files(self, tmp_path):
        written = export_fixtures(tmp_path)
        assert written == [tmp_path / fixture_filename(i) for i in range(1, 10)]
        for path in written:
            assert path.read_bytes() == (FIXTURES / path.name).read_bytes()
