"""The canonical JSON writer against the stdlib encoder it replaces.

modelio.dump_json must give byte for byte the text of json.dumps with
indent=2, sort_keys=True and allow_nan=False plus a newline, and raise
the same exception, with the same message, wherever that call raises.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stdlib_json

from sensact.modelio import dump_json

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def outcome(write, doc):
    """The text a writer returns, or the type and message it raises."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def documents(floats):
    """Nested documents of dicts with str keys, lists, tuples, str, int,
    bool, None and the given floats, plain and as numpy scalars; rows of
    plain floats take the writer's whole-row path."""
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                        floats, floats.map(np.float64))
    leaves = st.one_of(scalars, st.lists(floats, max_size=6))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(), children, max_size=4),
        ),
        max_leaves=40,
    )


class TestAgainstStdlib:
    @PROPERTY
    @given(documents(st.floats(allow_nan=False, allow_infinity=False)))
    def test_same_text_without_calling_the_stdlib(self, doc):
        expected = stdlib_json(doc)

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called on a supported document")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(json, "dumps", refuse)
            assert dump_json(doc) == expected

    @PROPERTY
    @given(documents(st.floats()))
    def test_same_outcome_with_non_finite_floats(self, doc):
        assert outcome(dump_json, doc) == outcome(stdlib_json, doc)


@pytest.mark.parametrize("doc", [
    pytest.param([-0.0, 5e-324, 1e16, 1e22, 0.1], id="float-row"),
    pytest.param({"neg_zero": -0.0, "subnormal": 5e-324, "e16": 1e16, "e22": 1e22,
                  "tenth": 0.1}, id="float-scalars"),
    pytest.param({"é": 1, "a\"b": 2, "tab\t": 3, " ": 4, "\U0001f600": 5, "\x00": 6,
                  "back\\slash": ["ü", "\n"]}, id="escaped-keys"),
    pytest.param({"a": {}, "b": [], "c": [[], {}, ()]}, id="empty-containers"),
    pytest.param({}, id="empty-dict"),
    pytest.param([], id="empty-list"),
    pytest.param((1.0, (2, 3.5), ("x",)), id="tuples"),
    pytest.param([np.float64(0.1), np.float64(-0.0), 2.5], id="numpy-row"),
    pytest.param({"x": np.float64(1e-300)}, id="numpy-scalar"),
    pytest.param([1, 1.0, True], id="int-float-bool"),
    pytest.param([[1.0, 2.0], [3.0, 4]], id="matrix-with-int"),
    pytest.param({2: "b", 1: "a"}, id="int-keys"),
    pytest.param({2.5: "b", -0.5: "a"}, id="float-keys"),
    pytest.param("top level", id="str"),
    pytest.param(3, id="int"),
    pytest.param(None, id="none"),
    pytest.param(0.30000000000000004, id="float"),
])
def test_cases_match_stdlib(doc):
    assert dump_json(doc) == stdlib_json(doc)


def test_exact_texts():
    assert dump_json([1, 1.0, True]) == "[\n  1,\n  1.0,\n  true\n]\n"
    assert dump_json({"b": [], "a": {}}) == '{\n  "a": {},\n  "b": []\n}\n'
    assert dump_json([np.float64(0.1)]) == "[\n  0.1\n]\n"


def circular():
    doc = [1.0]
    doc.append(doc)
    return doc


@pytest.mark.parametrize("doc", [
    pytest.param([1.0, float("nan")], id="nan-in-row"),
    pytest.param({"x": float("inf")}, id="inf"),
    pytest.param([np.float64("-inf")], id="numpy-inf"),
    pytest.param({"x": [1, object()]}, id="unknown-type"),
    pytest.param([np.int64(3)], id="numpy-int"),
    pytest.param({1: "a", "b": 2}, id="unsortable-keys"),
    pytest.param({(1, 2): 0}, id="tuple-key"),
    pytest.param(circular(), id="circular"),
])
def test_errors_match_stdlib(doc):
    expected = outcome(stdlib_json, doc)
    assert isinstance(expected, tuple)
    assert outcome(dump_json, doc) == expected
