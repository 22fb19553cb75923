"""JSON text for the CLI and the lattice export.

``dumps(obj)`` is byte for byte ``json.dumps(obj, indent=2, sort_keys=True)``
for the types the payloads use.  It exists because ``json.dumps`` runs its
pure-Python encoder whenever an indent is set (through Python 3.12), and
that encoder dominated the cost of the large outputs: it writes one chunk
per token.

This writer types and writes a list column by column.  A list of ints is
joined in one call.  A list of int sequences is typed in one pass over all
their entries and written with one join per sequence.  A list of dicts that
share one key set is written through one ``%`` template of its sorted keys,
and each key's column of values takes the same path, recursively; the
column texts are lazy, zipped into the row texts.  Any other list (mixed
key sets, a bool among ints, a float) is written value by value, so other
types raise TypeError there.

Each call keeps a cache of int texts, keyed by value: an int that recurs is
written once per document, as the payloads hold many ints of few values.
Only exact ints reach it (True == 1, so a bool must not), and it is dropped
when the call returns.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

_INT = frozenset([int])  # exact types: a bool is not an int here
_STR = frozenset([str])
_SEQ = frozenset([list, tuple])
_DICT = frozenset([dict])


def dumps(obj) -> str:
    """``obj`` as indented JSON with sorted keys.  Written are dict (with str
    keys), list, tuple, str, int, bool and None, by exact type; any other
    type raises TypeError."""
    return _encode(obj, "\n", _IntTexts().__getitem__)


class _IntTexts(dict):
    """int -> its text, made on first use; an int past the 4300 digits that
    str() allows raises ValueError there, as in json.dumps."""

    def __missing__(self, v: int) -> str:
        text = self[v] = int.__repr__(v)
        return text


def _encode(o, nl: str, text) -> str:
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return text(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    inner = nl + "  "
    if t is list or t is tuple:
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(_column(o, inner, text)) + nl + "]"
    if t is dict:
        if not o:
            return "{}"
        # a key that is no str fails in the sort or in the escape
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner, text) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _column(values, nl: str, text):
    """The texts of ``values``, each written at the line start ``nl``, as a
    lazy iterable; the types are checked before it is returned.  ``text``
    writes an exact int."""
    types = set(map(type, values))
    if types <= _INT:
        return map(text, values)
    inner = nl + "  "
    if types <= _SEQ and _INT.issuperset(map(type, chain.from_iterable(values))):
        head, sep, tail = "[" + inner, "," + inner, nl + "]"
        return (head + sep.join(map(text, v)) + tail if v else "[]" for v in values)
    if types == _DICT:
        keys = values[0].keys()
        if keys and _STR.issuperset(map(type, keys)) and all(map(keys.__eq__, map(dict.keys, values))):
            names = sorted(keys)
            fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in names)
            template = "{" + inner + ("," + inner).join(fields) + nl + "}"
            columns = [_column(list(map(itemgetter(k), values)), inner, text) for k in names]
            return map(template.__mod__, zip(*columns))
    return (_encode(v, nl, text) for v in values)
