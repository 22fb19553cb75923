"""Hilbert functions encoded by their finitely many intermediate differences.

The n-th difference of the Hilbert function of a rank r bundle vanishes far
to the left and equals r far to the right; the finitely many values in
between form the bundle sequence.  Together with the anchor s0 (the first
nonzero spot) this data determines the whole function, so ``HilbertFn``
stores exactly (n, s0, B).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .betti import BettiPair
from .errors import BadInput, NotAdmissible
from .seqs import Frozen, IntSeq, json_int


class BundleSeq(Frozen):
    """The intermediate value profile of an n-th difference function.

    Entries are positive, the last entry is the rank r and differs from its
    predecessor, and every strict descent lands at a value >= n.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"ambient dimension must be a positive integer, got {n!r}")
        vals = tuple(values)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"bundle sequence entries must be integers, got {v!r}")
        if not vals:
            raise ValueError("bundle sequence must be nonempty")
        if min(vals) <= 0:
            raise ValueError(f"bundle sequence entries must be positive: {vals}")
        if len(vals) >= 2 and vals[-2] == vals[-1]:
            raise ValueError(f"second-to-last entry must differ from the rank: {vals}")
        for prev, cur in zip(vals, vals[1:]):
            if cur < prev and cur < n:
                raise ValueError(f"descent to {cur} < n = {n} in {vals}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", vals)

    @property
    def r(self) -> int:
        return self.values[-1]

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def degree(self) -> int:
        return sum(self.values)

    def __lt__(self, other: "BundleSeq") -> bool:
        return self.values < other.values

    def __repr__(self) -> str:
        return f"BundleSeq(n={self.n}, values={list(self.values)!r})"


class HilbertFn(Frozen):
    """A Hilbert function, stored as (n, anchor s0, bundle sequence)."""

    __slots__ = ("n", "s0", "seq")

    def __init__(self, n: int, s0: int, seq):
        if not isinstance(s0, int):
            raise ValueError(f"anchor must be an integer, got {s0!r}")
        if not isinstance(seq, BundleSeq):
            seq = BundleSeq(n, seq)
        if seq.n != n:
            raise ValueError("bundle sequence has a different ambient dimension")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "seq", seq)

    @property
    def r(self) -> int:
        return self.seq.r

    @property
    def m(self) -> int:
        return self.seq.m

    @property
    def s1(self) -> int:
        """Last spot where the n-th difference differs from r."""
        return self.s0 + self.m - 2

    @property
    def degree(self) -> int:
        return self.seq.degree

    def c1(self) -> int:
        """First Chern class, read off as deg B - (s1 + 2) * r."""
        return self.degree - (self.s1 + 2) * self.r

    def delta_n(self, t: int) -> int:
        """Value of the n-th difference at t."""
        if t < self.s0:
            return 0
        if t >= self.s0 + self.m - 1:
            return self.r
        return self.seq.values[t - self.s0]

    def values(self, lo: int, hi: int) -> list[int]:
        """[H(lo), ..., H(hi)], from one n-fold prefix sum of the n-th
        difference over [s0, hi]: O(n * (hi - s0)) additions in all."""
        window = [self.delta_n(u) for u in range(self.s0, hi + 1)]
        for _ in range(self.n):
            window = list(accumulate(window))
        return [window[t - self.s0] if t >= self.s0 else 0 for t in range(lo, hi + 1)]

    def value(self, t: int) -> int:
        """H(t)."""
        return self.values(t, t)[0]

    def __repr__(self) -> str:
        return f"HilbertFn(n={self.n}, s0={self.s0}, B={list(self.seq.values)!r})"

    def to_json(self) -> dict:
        return {"n": self.n, "s0": self.s0, "B": list(self.seq.values)}

    @classmethod
    def from_json(cls, data) -> "HilbertFn":
        try:
            values = [json_int(v, "each entry of B") for v in data["B"]]
            return cls(json_int(data["n"], "n"), json_int(data["s0"], "s0"), values)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"malformed Hilbert function: {exc}") from None


def is_valid_hilbert(n: int, values) -> bool:
    """Decide whether a difference profile belongs to a bundle.

    ``values`` lists consecutive values of the would-be n-th difference; the
    function is read as 0 to the left of the list and constant equal to the
    last value to the right.  Valid means: the eventual value is a positive
    rank, and every strict descent (including the entry from the zero tail)
    lands at a value >= n.
    """
    vals = list(values)
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"difference values must be integers, got {v!r}")
    if not vals or vals[-1] < 1:
        return False
    prev = 0
    for v in vals:
        if v < prev and v < n:
            return False
        prev = v
    return True


def hilbert_of_betti(pair: BettiPair) -> HilbertFn:
    """The Hilbert function determined by an admissible pair.

    The (n+1)-st difference of H is mult(b, t) - mult(a, t); one summation
    gives the n-th difference, whose intermediate values form the bundle
    sequence.
    """
    if not pair.is_admissible():
        raise NotAdmissible(f"{pair} is not admissible")
    jumps = Counter(pair.b.entries)
    jumps.subtract(Counter(pair.a.entries))
    lo = pair.b.entries[0]
    hi = max(pair.b.entries[-1], pair.a.entries[-1] if pair.a else lo)
    profile = []
    acc = 0
    for t in range(lo, hi + 1):
        acc += jumps.get(t, 0)
        profile.append(acc)
    r = pair.r
    first = next(i for i, v in enumerate(profile) if v != 0)
    last = max((i for i, v in enumerate(profile) if v != r), default=first - 1)
    # the sequence runs from s0 to s1 + 1, hence one slot past the last non-r value
    values = profile[first : last + 2]
    return HilbertFn(pair.n, lo + first, BundleSeq(pair.n, values))


def minimal_betti(h: HilbertFn) -> BettiPair:
    """The unique pair without common entries presenting h.

    b collects the upward jumps of the n-th difference, a the downward ones;
    this is forced by the resolution identity for the (n+1)-st difference.
    """
    alpha, beta = [], []
    prev = 0
    for t in range(h.s0, h.s1 + 2):
        cur = h.delta_n(t)
        if cur > prev:
            beta.extend([t] * (cur - prev))
        elif cur < prev:
            alpha.extend([t] * (prev - cur))
        prev = cur
    return BettiPair(h.n, IntSeq(alpha), IntSeq(beta))


def normalize(h: HilbertFn) -> tuple[HilbertFn, int]:
    """Shift h so its first Chern class lands in (-r, 0].

    Returns the shifted function together with the twist k = ceil(c1 / r);
    twisting by -k moves the anchor to s0 + k.
    """
    k = -((-h.c1()) // h.r)
    return HilbertFn(h.n, h.s0 + k, h.seq), k
