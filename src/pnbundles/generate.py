"""Generation of bundle sequences and of maximal difference multisets.

Bundle sequences of fixed rank are built tail-first: a sequence is a head
prepended to a shorter sequence of the same rank, so generation reduces to a
constrained composition problem.  One table, filled degree by degree, holds
the sequences of every degree from r up; its count-only twin sizes that table
before any sequence is built.  Every row of the table is ascending.  Within
one degree the regularity of a sequence's minimal pair depends only on
whether its last two entries fall, so ``reg_rows`` keeps or drops each degree
whole, and at the edge degree builds only the falling rows, from the same
recursion restricted to falling tails.  ``enumerate --max-reg`` prints its
rows (s0, values) straight from the value tuples, and
``bundle_sequences_by_reg`` wraps the same rows in ``HilbertFn``.
"""

from __future__ import annotations

from .errors import BadInput, RegularityTooSmall
from .hilbert import BundleSeq, HilbertFn, minimal_betti
from .seqs import MAX_VALUES, IntSeq

# Bounds on the table of sequences that one call fills: the number of
# sequences over every degree from r to the largest one asked for (tails
# included), and the entries of one sequence, up to D - r + 1 at degree D.
MAX_SEQUENCES = 10**6
MAX_LENGTH = 64


def _check_n_r(n: int, r: int) -> None:
    if not (isinstance(n, int) and n >= 1 and isinstance(r, int) and r >= 1):
        raise ValueError("need integer n >= 1 and r >= 1")


def _check_size(n: int, r: int, top: int) -> None:
    """Refuse, with BadInput, to fill the table up to degree r + top when it
    would exceed MAX_SEQUENCES or MAX_LENGTH.

    at_least[x][y] counts the sequences of degree r + x whose head is >= y;
    a head h <= e of degree r + e takes any tail of degree r + e - h whose
    head is >= min(h, n), except (r) after h = r.
    """
    if top + 1 > MAX_LENGTH:
        raise BadInput(f"enumerate would build sequences of {top + 1} entries, more than {MAX_LENGTH}")
    at_least = [[1] * (min(r, top) + 1)]  # the sequence (r)
    total = 1
    for e in range(1, top + 1):
        row = [0] * (e + 2)
        for h in range(e, 0, -1):
            tails = at_least[e - h]
            y = min(h, n)
            row[h] = row[h + 1] + (tails[y] if y < len(tails) else 0) - (h == r == e)
        row[0] = row[1]
        at_least.append(row)
        total += row[1]
        if total > MAX_SEQUENCES:
            break
    if total > MAX_SEQUENCES:
        raise BadInput(f"enumerate would build more than {MAX_SEQUENCES} sequences")


def _sequences(n: int, r: int, top: int) -> list[tuple[tuple[int, ...], ...]]:
    """table[e] holds the value tuples of every bundle sequence of rank r and
    degree r + e, for e = 0..top, ascending: heads ascend, and the tails of
    one head come from a row that ascends."""
    _check_size(n, r, top)
    return _fill(n, r, top)


def _fill(n: int, r: int, top: int, falling: bool = False) -> list[tuple[tuple[int, ...], ...]]:
    """The table of ``_sequences`` up to degree r + top, unchecked.  With
    ``falling``, row e >= 1 holds only the sequences whose last two entries
    fall, and row 0 still holds (r) as a tail: a sequence with a longer tail
    falls exactly when its tail does, and (e, r) exactly when e > r.  Rows 1
    to r are empty, since a fall puts an entry above r before the last r."""
    table = [((r,),)] + [()] * r if falling else [((r,),)]
    for e in range(len(table), top + 1):
        table.append(tuple(
            (head,) + tail
            for head in range(1, e + 1)
            for tail in table[e - head]
            # no descent below n, and no (r, r) at the end
            if (tail[0] >= head or tail[0] >= n) and not (head == r == e)
        ))
    return table


def bundle_sequences(n: int, r: int, degree: int) -> list[BundleSeq]:
    """All bundle sequences over P^n with rank r and entry sum ``degree``.

    Raises BadInput past MAX_SEQUENCES or MAX_LENGTH.
    """
    _check_n_r(n, r)
    if degree < r:
        return []
    return [BundleSeq(n, values) for values in _sequences(n, r, degree - r)[-1]]


def reg_rows(n: int, r: int, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """The rows (s0, values) of ``bundle_sequences_by_reg(n, r, d)``, in its
    order, with no value object built.  Raises BadInput past MAX_SEQUENCES
    or MAX_LENGTH.

    The regularity of the minimal pair with anchor s0 is max(s0 + last rise,
    s0 + last fall - 1), as b holds the upward jumps of the profile and a the
    downward ones.  The last of m entries differs from the one before it, so
    the last index m - 1 is a rise or a fall: a rise gives s0 + m - 1, and a
    fall s0 + m - 2, as every rise comes before it.  The normalizing anchor
    makes s0 + m - 1 = ceil(degree / r) - 1 for every row of one degree, so
    a degree r + e passes or fails whole, except where that is d + 1, at
    r * d < e <= r * (d + 1): there a row passes when its last two entries
    fall, and only the falling rows are built.
    """
    _check_n_r(n, r)
    _check_size(n, r, r * (d + 1))
    return _rows(n, r, d)


def _rows(n: int, r: int, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """``reg_rows`` without its size check."""
    if d < 0:  # at d = -1 only degree r is left, and (r) has regularity 0
        return []
    rows = []
    for e, row in enumerate(_fill(n, r, r * d)):
        anchor = -((-(r + e)) // r)  # ceil(degree / r)
        rows.extend((anchor - len(v), v) for v in row)
    top = r * (d + 1)
    for row in _fill(n, r, top, falling=True)[r * d + 1:top + 1]:
        rows.extend((d + 2 - len(v), v) for v in row)
    return rows


def bundle_sequences_by_reg(n: int, r: int, d: int) -> list[HilbertFn]:
    """All normalized Hilbert functions whose minimal pair has regularity <= d,
    ascending in degree and then in values.

    The regularity of a normalized function is at least ceil(deg/r) - 2, so
    only degrees up to r*(d+2) can occur; each sequence gets the unique
    anchor that normalizes it, then the actual regularity is checked.
    Raises BadInput past MAX_SEQUENCES or MAX_LENGTH.
    """
    return [HilbertFn(n, s0, BundleSeq(n, values)) for s0, values in reg_rows(n, r, d)]


def max_difference(h: HilbertFn, d: int) -> IntSeq:
    """The largest multiset c with base + c admissible of regularity <= d.

    Every admissible difference multiset is a sub-multiset of the result;
    ``max_difference_counts`` gives its multiplicities.  Raises BadInput,
    before anything is built, when the tail above the largest entry M of the
    minimal pair, (d - M) * (r - n) entries, would pass MAX_VALUES.
    """
    base = minimal_betti(h)
    tail = max(0, d - max(base.a.entries + base.b.entries)) * max(0, base.r - h.n)
    if tail > MAX_VALUES:
        raise BadInput(f"max_difference would hold more than {MAX_VALUES} entries")
    return IntSeq(t for t, k in max_difference_counts(h, d) for _ in range(k))


def max_difference_counts(h: HilbertFn, d: int):
    """The pairs (t, k), ascending in t, of the values t in max_difference(h, d)
    and their multiplicities k > 0; a lazy iterator, so that a caller can stop
    before the tail is made.

    Adding k copies of t <= d to both sides of the minimal pair (a, b) keeps
    the regularity at most d and every test a_i > b_(n+i) with a_i != t
    passing; the a-entries equal to t pass when n + #{a <= t} + k - 1 <
    #{b < t}.  So k(t) = #{b < t} - n - #{a <= t}, negative up to b_n, and
    as copies of a smaller value raise both counts alike, the multiplicities
    combine value by value.  Above the largest entry M every k(t) is r - n,
    so with r = n nothing past M is read.
    """
    base = minimal_betti(h)
    if base.regularity() > d:
        raise RegularityTooSmall(f"minimal pair has regularity {base.regularity()} > {d}")
    n, a, b = h.n, base.a.entries, base.b.entries
    if base.r < n:
        return
    last = d if base.r > n else min(d, max(a + b))
    i = j = 0  # #{b < t} and #{a <= t}, moved forward as t rises
    for t in range(b[n - 1] + 1, last + 1):
        while i < len(b) and b[i] < t:
            i += 1
        while j < len(a) and a[j] <= t:
            j += 1
        if i - n - j > 0:
            yield t, i - n - j
