"""Betti pairs: twist data of a short free resolution and their invariants.

A ``BettiPair`` records the ambient dimension n together with two ascending
sequences (a, b): the source and target twists of a two-term resolution of a
rank r = len(b) - len(a) sheaf.  The module decides which pairs are realized
by bundles (admissibility), computes the numeric invariants attached to a
pair, and enumerates all admissible pairs with fixed rank, first Chern class
and bounded regularity, Hilbert function by Hilbert function, from the
sequence table and the maximal difference multisets of ``generate``.
"""

from __future__ import annotations

from itertools import product

from .errors import BadInput
from .seqs import Frozen, IntSeq, is_sub_multiset, json_int, seq_diff, seq_min, seq_sum


class BettiPair(Frozen):
    """A pair of ascending twist sequences over P^n with len(b) > len(a)."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a, b):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"ambient dimension must be a positive integer, got {n!r}")
        a = a if isinstance(a, IntSeq) else IntSeq(a)
        b = b if isinstance(b, IntSeq) else IntSeq(b)
        if len(b) <= len(a):
            raise ValueError(f"need len(b) > len(a), got {len(b)} <= {len(a)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def l(self) -> int:
        return len(self.a)

    @property
    def r(self) -> int:
        return len(self.b) - len(self.a)

    def __repr__(self) -> str:
        return f"BettiPair(n={self.n}, a={self.a}, b={self.b})"

    def is_admissible(self) -> bool:
        """True iff a is empty, or r >= n and a_i > b_{n+i} for every i."""
        if not self.a:
            return True
        if self.r < self.n:
            return False
        b = self.b.entries
        return all(ai > b[self.n + i] for i, ai in enumerate(self.a.entries))

    def c1(self) -> int:
        """First Chern class: sum(a) - sum(b)."""
        return self.a.total() - self.b.total()

    def regularity(self) -> int:
        """max(b_last, a_last - 1); just b_last when a is empty."""
        if not self.a:
            return self.b.entries[-1]
        return max(self.b.entries[-1], self.a.entries[-1] - 1)

    def grading_q(self) -> int:
        """Number of entries common to a and b, counted with multiplicity."""
        return len(seq_min(self.a, self.b))

    def add_common(self, c: IntSeq) -> "BettiPair":
        """The pair obtained by appending c to both sides and resorting."""
        return BettiPair(self.n, seq_sum(self.a, c), seq_sum(self.b, c))

    def to_json(self) -> dict:
        return {"n": self.n, "a": self.a.to_json(), "b": self.b.to_json()}

    @classmethod
    def from_json(cls, data) -> "BettiPair":
        try:
            return cls(json_int(data["n"], "n"), IntSeq.from_json(data["a"]), IntSeq.from_json(data["b"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"malformed Betti pair: {exc}") from None


def generalization_witness(p: BettiPair, q: BettiPair) -> IntSeq | None:
    """The unique c with q = p + c on both sides, or None when there is none.

    p and q must live over the same ambient dimension.
    """
    if p.n != q.n:
        raise ValueError("pairs live over different ambient dimensions")
    if not (is_sub_multiset(p.a, q.a) and is_sub_multiset(p.b, q.b)):
        return None
    c = seq_diff(q.a, p.a)
    if seq_diff(q.b, p.b) != c:
        return None
    return c


def generalizes(p: BettiPair, q: BettiPair) -> bool:
    """True iff q is obtained from p by adding a common multiset to both sides."""
    return generalization_witness(p, q) is not None


def enumerate_admissible(n: int, r: int, c1: int, d: int) -> frozenset[BettiPair]:
    """All admissible pairs over P^n with rank r, first Chern class c1 and
    regularity at most d.

    The pairs over one Hilbert function H are its minimal pair plus each
    sub-multiset of c_max(H, d), so the result is the union of those
    lattices over every H of rank r and class c1 whose minimal pair has
    regularity at most d.  The twist by k = ceil(c1 / r) takes these H to
    the normalized functions of class c1 - r*k and regularity at most d + k,
    which the sequence table lists, about r rows for each H kept.  No size
    bound applies: every H kept gives at least one pair.
    """
    # generate and hilbert import this module
    from .generate import _check_n_r, _rows, max_difference_counts
    from .hilbert import HilbertFn, minimal_betti

    _check_n_r(n, r)
    k = -(-c1 // r)
    found = []
    for s0, values in _rows(n, r, d + k):
        if sum(values) - (s0 + len(values)) * r != c1 - r * k:
            continue
        h = HilbertFn(n, s0 - k, values)
        base = minimal_betti(h)
        counts = list(max_difference_counts(h, d))
        for mults in product(*(range(m + 1) for _, m in counts)):
            c = tuple(t for (t, _), m in zip(counts, mults) for _ in range(m))
            found.append(BettiPair(n, base.a.entries + c, base.b.entries + c))
    return frozenset(found)
