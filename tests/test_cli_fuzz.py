"""Malformed input never ends in a traceback.

Sequences, polynomial strings and matrix documents that are malformed by
construction go through ``cli.main`` in-process.  Each must exit 1 with a
schema-valid error document on standard error, or exit 2 for usage; any
other exception fails the test.  No example reaches the Groebner engine or
a table of sequences, so the cost of an example does not depend on which
one hypothesis draws.
"""

import contextlib
import io
import json
import re
import sys
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from pnbundles import cli

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)
ERROR_SCHEMA = json.loads((resources.files("pnbundles") / "schemas" / "error.schema.json").read_text())


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv, stdin=""):
    code, out, err = run(argv, stdin)
    assert code in (1, 2), (argv, code, out)
    if code == 1:
        assert out == ""
        jsonschema.validate(json.loads(err), ERROR_SCHEMA)


# -- sequences ----------------------------------------------------------------

# a component parse_values reads: an integer, with an optional repetition
_COMPONENT = re.compile(r"\s*[+-]?\d+\s*(\^\s*[+-]?\d+\s*)?")
_good_components = st.one_of(
    st.integers(-3, 6).map(str),
    st.tuples(st.integers(-3, 6), st.integers(0, 3)).map(lambda vk: f"{vk[0]}^{vk[1]}"),
)
_bad_components = st.one_of(
    st.sampled_from(["x", "1.5", "^", "1^", "^2", "1^x", "1^2^3", "--1", "1e3", "0x10", "+", "1 2", "1^-1"]),
    st.text(" +-.^0123456789ex", min_size=1, max_size=6).filter(
        lambda c: c.strip() and not _COMPONENT.fullmatch(c)
    ),
)
_unparsable = st.tuples(
    st.lists(_good_components, max_size=3), _bad_components, st.lists(_good_components, max_size=3)
).map(lambda t: ",".join([*t[0], t[1], *t[2]]))
# parses, but is no bundle sequence: empty, or with an entry that is not positive
_not_bundle_seq = st.lists(st.integers(-3, 6), max_size=5).filter(lambda v: not v or min(v) <= 0).map(
    lambda v: ",".join(map(str, v))
)
_n = st.integers(1, 4).map(str)


@FUZZ
@given(st.sampled_from(["hilbert", "lattice"]), _n, st.one_of(_unparsable, _not_bundle_seq), st.integers(-3, 3))
def test_malformed_bundle_sequence_is_refused(verb, n, seq, anchor):
    argv = [verb, "--n", n, f"--seq={seq}", f"--anchor={anchor}"]
    assert_refused(argv + (["--max-reg", "3"] if verb == "lattice" else []))


_twists = st.lists(st.integers(-2, 3), max_size=4).map(lambda v: ",".join(map(str, v)))


@FUZZ
@given(st.sampled_from(["admissible", "present", "deform"]), _n, _unparsable, _twists, st.booleans())
def test_malformed_twist_sequence_is_refused(verb, n, bad, good, bad_first):
    a, b = (bad, good) if bad_first else (good, bad)
    if verb == "deform":
        argv = ["deform", "--n", n, f"--small-a={a}", f"--small-b={b}", f"--big-a={a}", f"--big-b={b}"]
    else:
        argv = [verb, "--n", n, f"--a={a}", f"--b={b}"]
    assert_refused(argv)


# -- polynomial strings and matrix documents ------------------------------------

LINEAR = {"n": 3, "p": 32003, "a": [1], "b": [0, 0, 0, 0], "entries": [["x0"], ["x1"], ["x2"], ["x3"]]}

# a polynomial parse_poly reads, once spaces are gone; variable range aside
_FACTOR = r"(x\d+(\^\d+)?|\d+)"
_TERM = rf"{_FACTOR}(\*{_FACTOR})*"
_POLY = re.compile(rf"[+-]?{_TERM}([+-]{_TERM})*")
_bad_polys = st.one_of(
    st.sampled_from(["", " ", "x", "x-1", "x0^-1", "x0^", "x0**2", "2x0", "x0x1", "x4", "x0^99999999", "y0", "1/2"]),
    st.text("x0123^*+- .", max_size=10).filter(lambda s: not _POLY.fullmatch(s.replace(" ", ""))),
)


@FUZZ
@given(_bad_polys, st.integers(0, 3))
def test_malformed_polynomial_is_refused(entry, row):
    entries = [list(r) for r in LINEAR["entries"]]
    entries[row] = [entry]
    assert_refused(["check", "-"], json.dumps({**LINEAR, "entries": entries}))


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 40000), st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


def _wrong_type(field):
    """JSON values that the field's type in matrix.schema.json excludes."""
    if field in ("n", "p"):
        return _json_values.filter(lambda v: type(v) is not int)
    if field in ("a", "b"):
        return _json_values.filter(lambda v: not (isinstance(v, list) and all(type(x) is int for x in v)))
    return _json_values.filter(
        lambda v: not (isinstance(v, list) and all(isinstance(r, list) and all(isinstance(s, str) for s in r) for r in v))
    )


_fields = st.sampled_from(sorted(LINEAR))
_documents = st.one_of(
    # one field of the wrong type
    _fields.flatmap(lambda f: _wrong_type(f).map(lambda v: {**LINEAR, f: v})),
    # one field missing
    _fields.map(lambda f: {k: v for k, v in LINEAR.items() if k != f}),
    # not an object at all
    _json_values.filter(lambda v: not isinstance(v, dict)),
    # rows or columns that do not match a and b
    st.lists(st.lists(st.sampled_from(["x0", "x1", "0"]), max_size=2), max_size=5)
    .filter(lambda rows: len(rows) != 4 or any(len(r) != 1 for r in rows))
    .map(lambda rows: {**LINEAR, "entries": rows}),
    # no prime below 2^31
    st.sampled_from([0, 1, 4, -7, 32004, 2**31, 2**31 + 11, 10**30]).map(lambda p: {**LINEAR, "p": p}),
)


@FUZZ
@given(_documents)
def test_malformed_matrix_document_is_refused(doc):
    assert_refused(["check", "-"], json.dumps(doc))


@FUZZ
@given(st.text('{}[]":,0123 nptrue', max_size=20))
def test_text_that_is_no_matrix_document_is_refused(text):
    # mostly not JSON; what parses cannot hold the keys "a" and "b"
    assert_refused(["check", "-"], text)
