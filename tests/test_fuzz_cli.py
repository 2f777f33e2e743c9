"""Fuzzing the CLI's error contract with mutated fixture documents.

Each example takes one of the nine shipped fixtures, applies one to three
mutations (a dropped or duplicated key, a wrong type, reordered points, a
shifted set, extreme magnitudes, an integer literal beyond float range,
deep nesting, mismatched dimensions), writes it out and
runs ``main()`` in process. Whatever the input, no exception may escape and
the exit code must say what the output shows: 0 or 1 with a report (1 only
with a PROBLEM verdict), or 2 with nothing on stdout and exactly one
``error:`` line on stderr.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fri_lab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("example_*.json"))]

COMMANDS = (
    ["validate"],
    ["interpolate"],
    ["interpolate", "--method", "khstab"],
    ["interpolate", "--sweep", "11"],
)

MAGNITUDES = (1e-310, 5e-324, 1e200, 1e308, -1e308)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every path to a value in a JSON tree, the root excluded."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _number_lists(doc):
    """Paths to the fuzzy-set arrays: non-empty lists of numbers."""
    return [
        p for p in _paths(doc)
        if isinstance(v := _parent(doc, p)[p[-1]], list) and v
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ]


KINDS = (
    "drop", "duplicate", "retype", "reorder", "magnitude", "bigint", "shift", "scale", "nest",
    "dimension",
)


@st.composite
def mutated(draw, doc, kind):
    """``doc`` after one mutation of the given kind, as JSON text."""
    paths = list(_paths(doc))
    if kind == "drop" and paths:
        path = draw(st.sampled_from(paths))
        del _parent(doc, path)[path[-1]]
    elif kind == "duplicate":
        # a list entry twice, or a top-level key written twice with a new
        # value first (the JSON parser keeps the last one)
        lists = [p for p in paths if isinstance(_parent(doc, p), list)]
        if lists and draw(st.booleans()):
            path = draw(st.sampled_from(lists))
            _parent(doc, path).insert(path[-1], _parent(doc, path)[path[-1]])
        elif doc:
            key = draw(st.sampled_from(sorted(doc)))
            return "{" + f"{json.dumps(key)}: {json.dumps(draw(json_values))}, " + json.dumps(doc)[1:]
    elif kind == "retype" and paths:
        path = draw(st.sampled_from(paths))
        _parent(doc, path)[path[-1]] = draw(json_values)
    elif kind == "reorder":
        sets = _number_lists(doc)
        if sets:
            path = draw(st.sampled_from(sets))
            values = _parent(doc, path)[path[-1]]
            _parent(doc, path)[path[-1]] = draw(st.permutations(values))
    elif kind == "magnitude":
        sets = _number_lists(doc)
        if sets:
            path = draw(st.sampled_from(sets))
            values = _parent(doc, path)[path[-1]]
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(MAGNITUDES))
    elif kind == "bigint":
        # an integer literal too large for a float; at 5000 digits also longer
        # than the interpreter converts to int, so it is written as text
        sets = _number_lists(doc)
        if sets:
            path = draw(st.sampled_from(sets))
            values = _parent(doc, path)[path[-1]]
            values[draw(st.integers(0, len(values) - 1))] = "\0"
            literal = draw(st.sampled_from(("", "-"))) + "9" * draw(st.sampled_from((310, 400, 5000)))
            return json.dumps(doc).replace(json.dumps("\0"), literal, 1)
    elif kind == "shift":
        # one set moved whole stays valid, but may leave the observation
        # unflanked or two rules out of order
        sets = _number_lists(doc)
        if sets:
            path = draw(st.sampled_from(sets))
            offset = draw(st.sampled_from((-100.0, -3.0, -1.0, 1.0, 3.0, 100.0, 1e200)))
            values = _parent(doc, path)[path[-1]]
            values[:] = [v + offset for v in values]
    elif kind == "scale":
        # every set scaled alike keeps the document valid at extreme sizes
        factor = draw(st.sampled_from(MAGNITUDES))
        for path in _number_lists(doc):
            values = _parent(doc, path)[path[-1]]
            values[:] = [v * factor for v in values]
    elif kind == "nest" and paths:
        path = draw(st.sampled_from(paths))
        depth = draw(st.sampled_from((1, 5, 500, 5000, 100_000)))
        text = json.dumps(_parent(doc, path)[path[-1]])
        _parent(doc, path)[path[-1]] = "\0"
        marker = json.dumps("\0")
        return json.dumps(doc).replace(marker, "[" * depth + text + "]" * depth, 1)
    elif kind == "dimension":
        lists = [
            p for p in paths
            if p[-1] in ("antecedents", "observation") and isinstance(_parent(doc, p)[p[-1]], list)
        ]
        if not lists or draw(st.booleans()):
            doc["dimension"] = draw(st.integers(min_value=-1, max_value=4))
        else:
            path = draw(st.sampled_from(lists))
            sets = _parent(doc, path)[path[-1]]
            if sets and draw(st.booleans()):
                sets.pop()
            else:
                sets.append([0.0, 1.0, 2.0, 3.0])
    return json.dumps(doc)


@st.composite
def documents(draw):
    text = json.dumps(draw(st.sampled_from(DOCS)))
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)):
        text = draw(mutated(json.loads(text), kind))
        if kind in ("nest", "bigint"):  # the parser may not read it back
            break
    return text


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(COMMANDS))
def test_mutated_fixture_keeps_the_error_contract(doc_path, text, command):
    doc_path.write_text(text)
    code, out, err = run_cli([command[0], str(doc_path), *command[1:]])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        if code == 1:
            verdicts = [l for l in out.splitlines() if l.startswith("overall:")]
            if verdicts:
                assert verdicts == ["overall: PROBLEM"]
            else:  # more than one dimension: only the direct verdicts
                assert any(l.endswith(": PROBLEM (direct)") for l in out.splitlines())
