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
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_ints, max_size=5),  # the fast path for int lists, bools mixed in
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_text, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_documents)
def test_matches_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [[], {}, (), [[]], {"a": {}}, [True, 1, False], (1, 2), -0, 10**300])
def test_matches_json_dumps_on_edges(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, [1, 2.0], {"x": [0.5]}, {1: 2}, {"s": {1, 2}}])
def test_other_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        dumps(doc)
