"""The canonical JSON writer against the stdlib encoder it replaces.

modelio.dump_json must give byte for byte the text of json.dumps with
indent=2, sort_keys=True and allow_nan=False plus a newline, and raise
the same exception, with the same message, wherever that call raises.
Numpy arrays in a document are held to that call on their .tolist(),
and to the row-by-row array writer of tests/oracles.py.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import rowwise_fill_arrays, stdlib_json

from sensact import modelio
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


def plain(doc):
    """doc with every numpy array replaced by its .tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(plain(value) for value in doc)
    return doc


def mirror(m):
    """m with its strict upper triangle copied, bit for bit, below."""
    return np.triu(m) + np.triu(m, 1).T


def float_arrays(floats):
    """1-D and 2-D float64 arrays: free, symmetric and transposed; a small
    pool of values (signed zeros and subnormals among them) makes repeats."""
    pool = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, -5e-324, 2.2e-308, 1e16])
    elements = st.one_of(floats, pool)
    shapes = st.one_of(st.tuples(st.integers(1, 6)),
                       st.tuples(st.integers(1, 5), st.integers(1, 5)))
    free = shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=elements))
    square = st.integers(1, 5).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=elements))
    return st.one_of(free, square.map(mirror), free.filter(lambda a: a.ndim == 2).map(np.transpose))


def array_documents(floats):
    """Nested documents of dicts, lists and tuples whose leaves are
    scalars, float lists and float64 arrays."""
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(), floats)
    leaves = st.one_of(scalars, st.lists(floats, max_size=4), float_arrays(floats))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=3), children, max_size=4),
        ),
        max_leaves=12,
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestArrays:
    """Arrays are written as their .tolist(), and all float64 arrays of a
    document share one repr per distinct bit pattern."""

    @PROPERTY
    @given(array_documents(FINITE))
    def test_same_text_as_tolist_without_calling_the_stdlib(self, doc):
        expected = stdlib_json(plain(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called on a supported document")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(json, "dumps", refuse)
            assert dump_json(doc) == expected

    @PROPERTY
    @given(array_documents(st.floats()))
    def test_same_outcome_with_non_finite_floats(self, doc):
        assert outcome(dump_json, doc) == outcome(stdlib_json, plain(doc))

    @PROPERTY
    @given(array_documents(FINITE))
    def test_same_text_as_rowwise_writer(self, doc):
        assert dump_json(doc) == rowwise_json(doc)

    def test_one_unique_pass_per_document(self, monkeypatch):
        seen = []
        real = np.unique

        def spy(values, **kwargs):
            result = real(values, **kwargs)
            seen.append((values.size, result[0].size))
            return result

        monkeypatch.setattr(np, "unique", spy)
        m = mirror(np.arange(1.0, 10.0).reshape(3, 3))
        doc = {"a": m, "b": [m.copy(), m[:2, :2].copy()], "c": m[0]}
        assert dump_json(doc) == stdlib_json(plain(doc))
        # 9 + 9 + 4 + 3 floats, 6 distinct: the upper triangle of m
        assert seen == [(25, 6)]


SYMMETRIC = mirror(np.array([[1.0, 0.1, -2.5], [7.0, 1e16, 3.0], [9.0, 8.0, 5e-324]]))


@pytest.mark.parametrize("doc", [
    pytest.param({"m": np.array([[1.0, 0.0], [-0.0, 1.0]])}, id="signed-zeros-mirrored"),
    pytest.param([np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310])],
                 id="subnormals"),
    pytest.param({"i": np.arange(4), "b": np.array([True, False])}, id="int-bool"),
    pytest.param([np.array([0.1, 1 / 3], dtype=np.float32)], id="float32"),
    pytest.param({"x": np.array(2.5), "i": np.array(3)}, id="zero-d"),
    pytest.param([np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0))], id="empty"),
    pytest.param({"t": np.arange(8.0).reshape(2, 2, 2) / 3}, id="three-d"),
    pytest.param([SYMMETRIC.T, SYMMETRIC[:, ::2], SYMMETRIC[::-1]], id="non-contiguous-views"),
    pytest.param([SYMMETRIC, {"again": SYMMETRIC}, (SYMMETRIC,)], id="same-array-twice"),
    pytest.param(np.array([[0.5]]), id="top-level-one-float"),
    pytest.param({"a": np.array([0.1]), "b": [0.1, np.array([-0.1, 0.1])]}, id="lists-and-arrays"),
])
def test_array_cases_match_stdlib(doc):
    assert dump_json(doc) == stdlib_json(plain(doc))


def array_cycle():
    doc = [np.eye(2)]
    doc.append(doc)
    return doc


@pytest.mark.parametrize("doc, like", [
    pytest.param([np.array([1.0, np.nan])], [[1.0, float("nan")]], id="nan"),
    pytest.param({"m": np.array([[0.0, -np.inf]])}, {"m": [[0.0, -np.inf]]}, id="inf"),
    pytest.param([np.eye(2), object()], [np.eye(2).tolist(), object()], id="unknown-type"),
    pytest.param(array_cycle(), circular(), id="cycle"),
])
def test_array_errors_match_stdlib(doc, like):
    expected = outcome(stdlib_json, like)
    assert isinstance(expected, tuple)
    assert outcome(dump_json, doc) == expected


def rowwise_json(doc):
    """dump_json's text with its arrays written by the row-by-row oracle."""
    arrays = []
    text = modelio._dump(doc, "\n", arrays) + "\n"
    return rowwise_fill_arrays(text, arrays) if arrays else text


SQUARE = np.array([[1.5, -0.25, 3.0], [0.0, -0.0, 7e-9], [2.0, 1.5, 1e300]])


@pytest.mark.parametrize("doc", [
    pytest.param({"m": np.array([[0.5]])}, id="1x1"),
    pytest.param({"m": np.array([[0.1, 0.2, -0.3, 0.1]])}, id="1xk"),
    pytest.param({"m": np.array([[0.1], [0.2], [-0.3], [0.1]])}, id="kx1"),
    pytest.param({"v": np.array([2.5])}, id="1-d-length-1"),
    pytest.param({"a": SQUARE, "b": {"c": [SQUARE.T, {"d": SQUARE[::-1]}]}},
                 id="one-shape-three-indents"),
    pytest.param([np.array([0.5]), [np.array([0.25])], np.array([[0.5], [1.0]]),
                  {"x": [np.array([[0.5], [1.0]])]}], id="one-column-shapes-two-indents"),
])
def test_layouts_match_rowwise_writer_and_stdlib(doc):
    text = dump_json(doc)
    assert text == rowwise_json(doc)
    assert text == stdlib_json(plain(doc))


def test_layout_cache_is_bounded():
    assert modelio._layout.cache_info().maxsize == 64
