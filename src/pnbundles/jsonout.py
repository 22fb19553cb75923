"""JSON text for the CLI and the lattice export.

``dumps(obj)`` is byte for byte ``json.dumps(obj, indent=2, sort_keys=True)``
for the types the payloads use.  It exists because ``json.dumps`` runs its
pure-Python encoder whenever an indent is set (through Python 3.12), and
that encoder dominated the cost of the large outputs: it writes one chunk
per token, where this writer joins a list of ints in one call.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

_INT = frozenset([int])


def dumps(obj) -> str:
    """``obj`` as indented JSON with sorted keys.  Written are dict (with str
    keys), list, tuple, str, int, bool and None, by exact type; any other
    type raises TypeError."""
    return _encode(obj, "\n")


def _encode(o, nl: str) -> str:
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
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
        if _INT.issuperset(map(type, o)):  # a bool is not an int here
            items = map(int.__repr__, o)
        else:
            items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not o:
            return "{}"
        # a key that is no str fails in the sort or in the escape
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
