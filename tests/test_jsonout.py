"""The JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnbundles.jsonout import dumps

# negative, very large (still below the 4300 digits str() allows) and bools
# among the ints; control characters, non-ASCII and surrogates among the text
_ints = st.one_of(st.integers(-10, 10), st.integers(-(2**200), 2**200), st.booleans())
_text = st.one_of(st.sampled_from(["", "a", "\x00\n\t\"\\", "é☃", "\U0001f600", "\ud800"]), st.text(max_size=8))
_leaves = st.one_of(st.none(), _ints, _text)

# lists of dicts that share one key set take the column path: keys with "%",
# quotes and non-ASCII; cells with ints (bools among them), None, int
# sequences (empty ones too) and lists of int tuples
_keys = st.sampled_from(["a", "B", "s0", "%s", "%", "100%", '"q"', "é☃", "\U0001f600"])
_int_seqs = st.one_of(st.lists(_ints, max_size=4), st.lists(_ints, max_size=4).map(tuple))
_cells = st.one_of(st.none(), _ints, _int_seqs, st.lists(st.lists(_ints, max_size=3).map(tuple), max_size=3))


def _records(values):
    return st.lists(_keys, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: values for k in keys}), min_size=1, max_size=5)
    )


def _spliced(rows, odd):
    """Records with one odd value put in: a dict of another key set, or no dict."""
    return st.tuples(rows, st.integers(0, 5), odd).map(lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1]:])


_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_ints, max_size=5),  # the fast path for int lists, bools mixed in
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_text, inner, max_size=5),
        st.lists(_int_seqs, max_size=5),
        _records(st.one_of(_cells, inner)),
        _spliced(_records(_cells), st.one_of(st.dictionaries(_keys, _cells, max_size=3), _leaves)),
    ),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_documents)
def test_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], {"a": {}}, [True, 1, False], (1, 2), -0, 10**300,
    [{"a": ()}], [{"%s": 1}, {"%s": 2}], [{"a": 1}, {"a": True}], [[1], [True]],
    [{"a": 1, "b": [()]}, {"b": [(2,), []], "a": -3}], [{}, {}], [{"a": {"b": 1}}, {"a": {"b": (2,)}}],
])
def test_matches_json_dumps_on_edges(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    1.5, [1, 2.0], {"x": [0.5]}, {1: 2}, {"s": {1, 2}}, [{"a": [1, 2.0]}], [{1: 2}, {1: 3}], [(1,), {2}],
])
def test_other_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        dumps(doc)


# the per-call cache of int texts is keyed by value, and True == 1: a bool
# must not reach it by any path (a lone int, an int list, an int sequence,
# a record column), whichever of the two comes first
_ONE_AND_TRUE = [1, True, [1, True], [[1], [True]], {"a": 1, "b": True}, [{"k": 1}, {"k": True}]]
_TRUE_AND_ONE = [True, 1, [True, 1], [[True], [1]], {"a": True, "b": 1}, [{"k": True}, {"k": 1}]]


@pytest.mark.parametrize("doc", [_ONE_AND_TRUE, _TRUE_AND_ONE])
def test_bools_and_equal_ints_share_no_text(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [10**5000, [1, 10**5000], [(1,), (2, 10**5000)], [{"a": 1}, {"a": 10**5000}]],
                         ids=["alone", "int list", "int sequence", "record column"])
def test_int_past_the_digit_limit_raises_value_error(doc):
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(ValueError):
        dumps(doc)


def test_no_cache_carries_over_between_calls():
    first, second = [1, [2, 3], {"a": 4}], [{"b": [True, 1]}, True, 1, [1, 2]]
    for doc in (first, second, first):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
