"""Betti pairs: twist data of a short free resolution and their invariants.

A ``BettiPair`` records the ambient dimension n together with two ascending
sequences (a, b): the source and target twists of a two-term resolution of a
rank r = len(b) - len(a) sheaf.  The module decides which pairs are realized
by bundles (admissibility), computes the numeric invariants attached to a
pair, and enumerates all admissible pairs with fixed rank, first Chern class
and bounded regularity.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, combinations_with_replacement

from .errors import BadInput, EmptyPair
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
        if not self.b:
            raise EmptyPair("regularity of an empty pair is undefined")
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


def _a_choices(prefix_min, lows, hi, total):
    """Ascending tuples with per-index lower bounds ``lows``, which ascend,
    and fixed sum.

    The least sum of the entries after index i, once entry i is v, is
    sum(max(v, w) for w in lows[i+1:]): v for each bound below v, and the
    bound itself from the first one at or above v on, a suffix sum.
    """
    k = len(lows)
    suffix = list(accumulate(reversed(lows), initial=0))[::-1]  # suffix[i] = sum(lows[i:])

    def choose(i, prefix_min, total):
        if i == k:
            if total == 0:
                yield ()
            return
        for v in range(max(prefix_min, lows[i]), hi + 1):
            rest = total - v
            j = bisect_left(lows, v, i + 1)
            if rest < v * (j - i - 1) + suffix[j]:
                break  # rest falls and the tail's least sum grows with v
            if rest > hi * (k - i - 1):
                continue
            for tail in choose(i + 1, v, rest):
                yield (v,) + tail

    return choose(0, prefix_min, total)


def enumerate_admissible(n: int, r: int, c1: int, d: int) -> frozenset[BettiPair]:
    """All admissible pairs over P^n with rank r, first Chern class c1 and
    regularity at most d.

    Split pairs (empty a) are the ascending b with sum(b) = -c1 and
    b_last <= d.  A pair with l > 0 entries in a needs r >= n, and its b
    splits into three ascending blocks: B, the first n entries; M, the next
    l, which bound a from below (a_i >= M_i + 1); and T, the top r - n.
    Since sum(a) = c1 + sum(b), an a with those bounds exists only when
    c1 + sum(B) + sum(T) >= l, a test that needs no M.  So T is chosen
    first, then B up to T_1, failing (B, T) are dropped, and only then is M
    chosen in [B_n, T_1] and a built from its bounds.  Every entry of b is
    at most d and every entry of a at most d+1, so the regularity bound
    holds by construction.  As the r entries of B and T are at most d, the
    test also gives l <= c1 + r*d and b_1 >= l - c1 - (r-1)*d.
    """
    if not (isinstance(r, int) and r >= 1 and isinstance(n, int) and n >= 1):
        raise ValueError("need integer r >= 1 and n >= 1")
    found = set()
    # split pairs
    lo_split = -c1 - (r - 1) * d
    if lo_split <= d:
        for b in _a_choices(lo_split, (lo_split,) * r, d, -c1):
            found.add(BettiPair(n, (), b))
    if r < n:
        return frozenset(found)
    for l in range(1, c1 + r * d + 1):
        b_lo = l - c1 - (r - 1) * d
        a_max = l * (d + 1)  # the largest sum(a)
        for top in combinations_with_replacement(range(b_lo, d + 1), r - n):
            t1 = top[0] if top else d
            for bottom in combinations_with_replacement(range(b_lo, t1 + 1), n):
                fixed = c1 + sum(bottom) + sum(top)  # sum(a) - sum(M)
                if fixed < l:
                    continue
                for mid in combinations_with_replacement(range(bottom[-1], t1 + 1), l):
                    target = fixed + sum(mid)
                    if target > a_max:
                        continue
                    lows = tuple(m + 1 for m in mid)
                    b = bottom + mid + top
                    for a in _a_choices(lows[0], lows, d + 1, target):
                        found.add(BettiPair(n, a, b))
    return frozenset(found)
