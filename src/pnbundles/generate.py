"""Generation of bundle sequences and of maximal difference multisets.

Bundle sequences of fixed rank and degree are built tail-first: a sequence
is a head prepended to a shorter sequence of the same rank, so generation
reduces to a constrained composition problem with memoized suffix sets.
"""

from __future__ import annotations

from .errors import RegularityTooSmall
from .hilbert import BundleSeq, HilbertFn, minimal_betti
from .seqs import IntSeq


def _check_n_r(n: int, r: int) -> None:
    if not (isinstance(n, int) and n >= 1 and isinstance(r, int) and r >= 1):
        raise ValueError("need integer n >= 1 and r >= 1")


def bundle_sequences(n: int, r: int, degree: int) -> list[BundleSeq]:
    """All bundle sequences over P^n with rank r and entry sum ``degree``."""
    _check_n_r(n, r)
    memo: dict[int, tuple[tuple[int, ...], ...]] = {}

    def suffixes(d: int) -> tuple[tuple[int, ...], ...]:
        if d in memo:
            return memo[d]
        out = []
        if d == r:
            out.append((r,))
        for head in range(1, d - r + 1):
            for tail in suffixes(d - head):
                if tail[0] < head and tail[0] < n:
                    continue
                if len(tail) == 1 and head == r:
                    continue
                out.append((head,) + tail)
        memo[d] = tuple(out)
        return memo[d]

    if degree < r:
        return []
    return sorted(BundleSeq(n, values) for values in suffixes(degree))


def bundle_sequences_by_reg(n: int, r: int, d: int) -> list[HilbertFn]:
    """All normalized Hilbert functions whose minimal pair has regularity <= d.

    The regularity of a normalized function is at least ceil(deg/r) - 2, so
    only degrees up to r*(d+2) can occur; each sequence gets the unique
    anchor that normalizes it, then the actual regularity is checked.
    """
    _check_n_r(n, r)
    out = []
    for degree in range(r, r * (d + 2) + 1):
        anchor = -((-degree) // r)  # ceil(degree / r)
        for seq in bundle_sequences(n, r, degree):
            h = HilbertFn(n, anchor - seq.m, seq)
            if minimal_betti(h).regularity() <= d:
                out.append(h)
    return sorted(out, key=lambda h: (h.degree, h.seq.values, h.s0))


def max_difference(h: HilbertFn, d: int) -> IntSeq:
    """The largest multiset c with base + c admissible of regularity <= d.

    Every admissible difference multiset is a sub-multiset of the result;
    ``max_difference_counts`` gives its multiplicities.
    """
    return IntSeq(t for t, k in max_difference_counts(h, d) for _ in range(k))


def max_difference_counts(h: HilbertFn, d: int):
    """The pairs (t, k), ascending in t, of the values t in max_difference(h, d)
    and their multiplicities k > 0; a lazy iterator, so that a caller can stop
    before the tail is made.

    Candidate values range over (beta_n, d]: adding a value at or below
    beta_n puts it in position p of the new a with the matching b-entry at
    p+n no smaller, so no such pair is admissible.  Per-value maxima combine,
    because admissible differences are closed under pointwise maximum.  A
    value t above every entry of the base goes to the ends of a and b, where
    the copy at position l+j of a meets b-entry l+n+j: an old entry, smaller
    than t, for j < r-n, and a copy of t otherwise.  So above the largest
    entry M every t <= d has multiplicity r-n, and only (beta_n, M] is walked.
    """
    base = minimal_betti(h)
    if base.regularity() > d:
        raise RegularityTooSmall(
            f"minimal pair has regularity {base.regularity()} > {d}"
        )
    if base.r < h.n:
        return
    lo = base.b.entries[h.n - 1]
    top = max(base.a.entries + base.b.entries)
    for t in range(lo + 1, min(d, top) + 1):
        k = 0
        while True:
            cand = base.add_common(IntSeq([t] * (k + 1)))
            if cand.is_admissible() and cand.regularity() <= d:
                k += 1
            else:
                break
        if k:
            yield t, k
    if base.r > h.n:
        for t in range(top + 1, d + 1):
            yield t, base.r - h.n
