"""Ascending integer sequences with multiset semantics.

An ``IntSeq`` is the shared vocabulary of the whole package: twist
sequences of free summands, difference multisets, lattice coordinates.
Equality is structural, values are immutable, and every operation is a
pointwise statement about multiplicities.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import BadInput, NotSubMultiset

# The most values one caret comma list may expand to, and the most entries
# in the closed-form tail of generate.max_difference: the length of each is
# set by one input integer.
MAX_VALUES = 1000


class Frozen:
    """An immutable value: equal exactly when of one type with equal slots.

    Subclasses declare their fields in ``__slots__`` and set them in
    ``__init__`` through ``object.__setattr__``.  Each subclass gets one
    ``attrgetter`` of its slots, its key, for equality and hashing.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class IntSeq(Frozen):
    """An ascending finite sequence of integers, possibly empty.

    The constructor sorts its input, so the canonical ascending form is
    an invariant and two sequences are equal iff they agree as multisets.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int] = ()):
        xs = []
        for x in entries:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"IntSeq entries must be integers, got {x!r}")
            xs.append(x)
        xs.sort()
        object.__setattr__(self, "entries", tuple(xs))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __lt__(self, other: "IntSeq") -> bool:
        return self.entries < other.entries

    def __repr__(self) -> str:
        return f"IntSeq({list(self.entries)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.entries) + ")"

    def __add__(self, other: "IntSeq") -> "IntSeq":
        return seq_sum(self, other)

    def count(self, t: int) -> int:
        """Multiplicity of the value t."""
        return self.entries.count(t)

    def total(self) -> int:
        return sum(self.entries)

    def counter(self) -> Counter:
        return Counter(self.entries)

    def to_json(self) -> list[int]:
        return list(self.entries)

    @classmethod
    def from_json(cls, data) -> "IntSeq":
        if not isinstance(data, list):
            raise BadInput("integer sequence must be a JSON array")
        return cls(data)


def json_int(value, name: str) -> int:
    """``value`` when it is a JSON integer; a float, string or boolean is
    refused with a TypeError that names the field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def seq_sum(x: IntSeq, y: IntSeq) -> IntSeq:
    """Multiset union: result multiplicity is the sum at every value."""
    return IntSeq(x.entries + y.entries)


def seq_diff(x: IntSeq, y: IntSeq) -> IntSeq:
    """Multiset difference, defined only when y is a sub-multiset of x."""
    cx = x.counter()
    cx.subtract(y.counter())
    if any(v < 0 for v in cx.values()):
        raise NotSubMultiset(f"{y} is not a sub-multiset of {x}")
    return IntSeq(cx.elements())


def seq_min(x: IntSeq, y: IntSeq) -> IntSeq:
    """Pointwise minimum of multiplicities."""
    cx, cy = x.counter(), y.counter()
    out = []
    for t in cx.keys() & cy.keys():
        out.extend([t] * min(cx[t], cy[t]))
    return IntSeq(out)


def seq_max(x: IntSeq, y: IntSeq) -> IntSeq:
    """Pointwise maximum of multiplicities."""
    cx, cy = x.counter(), y.counter()
    out = []
    for t in cx.keys() | cy.keys():
        out.extend([t] * max(cx[t], cy[t]))
    return IntSeq(out)


def is_sub_multiset(x: IntSeq, y: IntSeq) -> bool:
    """True when every value occurs in y at least as often as in x."""
    cy = y.counter()
    return all(cy[t] >= k for t, k in x.counter().items())


def parse_values(text: str) -> list[int]:
    """Expand a comma list with caret repetition, e.g. ``1^5,4`` or ``-1^5,0``.

    Order is preserved; an empty or blank string expands to the empty list.
    Raises BadInput, before expanding anything, when the list would hold
    more than MAX_VALUES values.
    """
    text = text.strip()
    if not text:
        return []
    parts: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise BadInput(f"empty component in sequence {text!r}")
        if "^" in part:
            base, _, rep = part.partition("^")
            try:
                value, times = int(base), int(rep)
            except ValueError:
                raise BadInput(f"bad caret component {part!r}") from None
            if times < 0:
                raise BadInput(f"negative repetition in {part!r}")
        else:
            try:
                value, times = int(part), 1
            except ValueError:
                raise BadInput(f"bad integer {part!r}") from None
        parts.append((value, times))
    if sum(times for _, times in parts) > MAX_VALUES:
        raise BadInput(f"a sequence may hold at most {MAX_VALUES} values")
    return [value for value, times in parts for _ in range(times)]


def parse_seq(text: str) -> IntSeq:
    """Parse a caret comma list into an (ascending) IntSeq."""
    return IntSeq(parse_values(text))
