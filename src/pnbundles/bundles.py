"""Presentation matrices over F_p and the operations that act on them.

A presentation matrix realizes a Betti pair: rows follow the target twists
b, columns the source twists a, and the entry at (i, j) is zero or
homogeneous of degree a_j - b_i.  The cokernel is a bundle exactly when
the rows leave a quotient of finite length of the free module with basis
e_j of degree -a_j, which ``verify_bundle`` decides on the rows of the
minimal presentation, left once the units (entries with a_j = b_i) are
split off.  There r < n never makes a bundle, and with r = n the Hilbert
function that the twists predict for a bundle's quotient (Buchsbaum-Rim)
ends the Buchberger loop early.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb

from .betti import BettiPair, generalization_witness
from .errors import (
    BadInput,
    EmptyA,
    ModulusMismatch,
    NotABundle,
    NotAdmissible,
    NotGeneralization,
    ShapeError,
)
from .poly import Poly, _buchberger, _Packing, _sub_multiple, check_prime, format_poly, monomials, parse_poly
from .seqs import Frozen, IntSeq, json_int

# random_minimal_map draws one coefficient for every monomial of every entry;
# 10^5 of them take about a second to draw and print
MAX_MONOMIALS = 10**5

# The largest n of a matrix that `check` reads or `present` prints: packing one
# monomial of P^n costs O(n^2) bit operations.  Only a pair with an empty a
# meets it in `present`, since an admissible pair with a nonempty a has more
# than n entries in b, and a caret list holds at most seqs.MAX_VALUES = 1000.
MAX_N = 1000


def check_dimension(n: int) -> int:
    """n itself when it is at most MAX_N; BadInput otherwise."""
    if n > MAX_N:
        raise BadInput(f"a presentation matrix over P^n needs n <= {MAX_N}, got {n}")
    return n


class PresMatrix(Frozen):
    """A homogeneous matrix of forms presenting a candidate bundle."""

    __slots__ = ("pair", "p", "rows")

    def __init__(self, pair: BettiPair, p: int, rows):
        rows = tuple(tuple(row) for row in rows)
        nvars = pair.n + 1
        if len(rows) != pair.l + pair.r:
            raise ShapeError(f"expected {pair.l + pair.r} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != pair.l:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {pair.l}")
            for j, entry in enumerate(row):
                if not isinstance(entry, Poly):
                    raise ValueError(f"entry ({i},{j}) is not a polynomial")
                if entry.p != p or entry.nvars != nvars:
                    raise ModulusMismatch(f"entry ({i},{j}) lives in the wrong ring")
                if entry:
                    want = pair.a.entries[j] - pair.b.entries[i]
                    if not entry.is_homogeneous() or entry.degree() != want:
                        raise ValueError(
                            f"entry ({i},{j}) must be homogeneous of degree {want}"
                        )
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)

    @property
    def is_minimal(self) -> bool:
        """No nonzero constant entries."""
        return next(_units(self.pair.a.entries, self.pair.b.entries, self.rows), None) is None

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def __repr__(self) -> str:
        return f"PresMatrix(pair={self.pair!r}, p={self.p}, {len(self.rows)}x{self.pair.l})"

    def to_json(self) -> dict:
        return {
            "n": self.pair.n,
            "p": self.p,
            "a": self.pair.a.to_json(),
            "b": self.pair.b.to_json(),
            "entries": [[format_poly(e) for e in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data) -> "PresMatrix":
        """Read a document of ``schemas/matrix.schema.json``: n and p are
        JSON integers, n at most MAX_N (checked before any entry is read), p a
        prime below 2^31, the entries are rows of polynomial strings, and no
        other key is allowed."""
        try:
            n = check_dimension(json_int(data["n"], "n"))
            if extra := sorted(data.keys() - {"n", "p", "a", "b", "entries"}):
                raise BadInput(f"malformed matrix document: unknown keys {extra}")
            pair = BettiPair(n, IntSeq.from_json(data["a"]), IntSeq.from_json(data["b"]))
            p = check_prime(json_int(data["p"], "p"))
            entries = data["entries"]
            if not (
                isinstance(entries, list)
                and all(isinstance(row, list) and all(isinstance(s, str) for s in row) for row in entries)
            ):
                raise BadInput("malformed matrix document: entries must be arrays of strings")
            rows = [[parse_poly(s, p, pair.n + 1) for s in row] for row in entries]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # n too large to index
            raise BadInput(f"malformed matrix document: {exc}") from None
        try:
            return cls(pair, p, rows)
        except ValueError as exc:
            raise BadInput(str(exc)) from None


def explicit_matrix(pair: BettiPair, prime: int) -> PresMatrix:
    """The banded staircase presentation of an admissible pair.

    Column i carries x_j^(a_i - b_{i+j}) in row i+j for j = 0..n; all the
    exponents are positive by admissibility.  At any point of projective
    space the staircase of the last nonvanishing variable is triangular with
    nonzero diagonal, so the matrix has full rank everywhere.
    """
    if not pair.is_admissible():
        raise NotAdmissible(f"{pair} is not admissible")
    if not pair.a:
        raise EmptyA("the explicit construction needs a nonempty a")
    n, l = pair.n, pair.l
    nvars = n + 1
    a, b = pair.a.entries, pair.b.entries
    rows = [[Poly.zero(prime, nvars) for _ in range(l)] for _ in range(len(b))]
    for i in range(l):
        for j in range(n + 1):
            rows[i + j][i] = Poly.variable(j, prime, nvars, power=a[i] - b[i + j])
    return PresMatrix(pair, prime, rows)


def _random_form(p: int, nvars: int, degree: int, rng: random.Random) -> Poly:
    terms = {}
    for e in monomials(nvars, degree):
        c = rng.randrange(p)
        if c:
            terms[e] = c
    return Poly(p, nvars, terms)


def _monomial_count(pair: BettiPair) -> int:
    """The number of monomials in all entries of the pair's shape, counted
    only until it passes MAX_MONOMIALS.  An entry of degree d has C(d + n, n),
    reached through C(d + i, i) for i = 1..n, which grow with i."""
    total = 0
    for bi in pair.b.entries:
        for aj in pair.a.entries:
            d, count = aj - bi, 1
            if d > 0:
                for i in range(1, pair.n + 1):
                    count = count * (d + i) // i
                    if total + count > MAX_MONOMIALS:
                        return total + count
                total += count
    return total


def random_minimal_map(pair: BettiPair, prime: int, seed) -> PresMatrix:
    """A seeded random minimal matrix of the pair's shape.

    Entries of positive required degree get uniformly random forms (every
    monomial coefficient uniform in F_p, zero included); entries of degree
    <= 0 are zero, which in particular forces the zero block of any index
    violating admissibility.  No admissibility check is made here.  Raises
    BadInput, before any draw, when the entries have more than MAX_MONOMIALS
    monomials in all.
    """
    nvars = pair.n + 1
    a, b = pair.a.entries, pair.b.entries
    if _monomial_count(pair) > MAX_MONOMIALS:
        raise BadInput(f"a random map of this shape would draw more than {MAX_MONOMIALS} coefficients")
    rng = random.Random(seed)
    rows = []
    for bi in b:
        row = []
        for aj in a:
            d = aj - bi
            row.append(_random_form(prime, nvars, d, rng) if d > 0 else Poly.zero(prime, nvars))
        rows.append(row)
    return PresMatrix(pair, prime, rows)


def random_matrix(pair: BettiPair, prime: int, seed) -> PresMatrix:
    """Seeded random minimal presentation of an admissible pair."""
    if not pair.is_admissible():
        raise NotAdmissible(f"{pair} is not admissible")
    return random_minimal_map(pair, prime, seed)


def _units(a, b, rows):
    """The positions (i, j), row by row, of the nonzero constant entries: in a
    validated matrix, the nonzero entries where a_j = b_i."""
    return ((i, j) for i, bi in enumerate(b) for j, aj in enumerate(a) if aj == bi and rows[i][j])


def _split_units(m: PresMatrix) -> tuple[BettiPair, list]:
    """The minimal pair and rows: while a unit is left, the first one clears
    its column by row operations and is deleted with its row and column,
    which removes one source and one target twist of equal value.  The
    entries are packed once, and unpacked once at the end: a row operation
    keeps the entry at (i, j) of degree a_j - b_i, so the packing holds
    max a - min b throughout, and a unit is the constant term, packed 0."""
    pair, p, nvars = m.pair, m.p, m.pair.n + 1
    a, b = list(pair.a.entries), list(pair.b.entries)
    if next(_units(a, b, m.rows), None) is None:
        return pair, m.rows
    pk, keys = _Packing(nvars, a[-1] - b[0], (0,)), []  # keys: unread, a row operation needs no order
    rows = [[pk.pack_terms(e.terms) for e in row] for row in m.rows]
    while (pivot := next(_units(a, b, rows), None)) is not None:
        i0, j0 = pivot
        piv_row = rows.pop(i0)
        cinv = pow(piv_row.pop(j0)[0], -1, p)
        for row in rows:  # row -= (row[j0] / unit) * piv_row, term by term of row[j0]
            for t, c in row.pop(j0).items():
                for e, pe in zip(row, piv_row):
                    _sub_multiple(e, keys, c * cinv, t, pe.items(), p)
        del a[j0], b[i0]
    rows = [[Poly(p, nvars, pk.unpack_terms(e)) for e in row] for row in rows]
    return (pair if len(a) == pair.l else BettiPair(pair.n, a, b)), rows


def verify_bundle(m: PresMatrix) -> bool:
    """Decide whether the cokernel of the matrix is a bundle: whether the
    rows leave a quotient Q of finite length of the free module with basis
    e_j of degree -a_j.  Q is supported where the maximal minors vanish, and
    is read off the minimal rows less their zero rows (split line bundles):
    true with no column, false with a zero column or with r < n, where the
    minors span an ideal of height at most r + 1 (Eagon-Northcott).  Else
    the Buchberger loop decides on the rows; for r = n it stops once its
    leads miss the Hilbert function of a bundle's Q, when degree top + max a
    has at most MAX_MONOMIALS monomials."""
    pair, rows = _split_units(m)
    n, a = pair.n, pair.a.entries
    if not a:
        return True
    b = [bi for bi, row in zip(pair.b.entries, rows) if any(row)]
    rows = [row for row in rows if any(row)]
    if len(b) - len(a) < n or not all(map(any, zip(*rows))):  # height <= r + 1 <= n, or a zero column
        return False
    top = sum(a) + (n - 1) * a[-1] - sum(b) - n  # a bundle's Q vanishes from degree top on
    few = len(b) - len(a) == n and 0 <= top + a[-1] <= MAX_MONOMIALS and comb(top + a[-1] + n, n) <= MAX_MONOMIALS
    predict = (top, lambda: _hilbert_prediction(BettiPair(n, a, b), top)) if few else None
    return _buchberger(rows, a, m.p, n + 1, True, predict) is None


def _hilbert_prediction(pair: BettiPair, top: int) -> dict[int, int]:
    """{t: dim Q_t} for t = -max(a)..top, Q the quotient by the rows of a
    matrix of the pair's shape with r = n, if its maximal minors span an
    ideal of height r + 1.  Then the Buchsbaum-Rim complex resolves Q: past
    the e_j and the rows, its k-th module has a generator of degree
    sum(a) - sum(b_S) + sum(a_T) for each set S of l + k rows and multiset T
    of k - 1 columns.  So the Hilbert series has numerator sum_j z^-a_j -
    sum_i z^-b_i + sum_(k=1..r) (-1)^(k+1) z^sum(a) e_(l+k)(z^-b) h_(k-1)(z^a).
    """
    n, l, r = pair.n, pair.l, pair.r
    # e[k], h[k]: the elementary symmetric sums of z^-b and the complete ones of z^a, as {power: coefficient}
    e, h = ([Counter({0: 1})] + [Counter() for _ in range(size)] for size in (l + r, r - 1))
    for sums, values, ks in ((e, [-v for v in pair.b], range(l + r, 0, -1)), (h, pair.a, range(1, r))):
        for v in values:
            for k in ks:
                for s, c in sums[k - 1].items():
                    sums[k][s + v] += c
    num = Counter(-v for v in pair.a)
    num.subtract(-v for v in pair.b)
    for k in range(1, r + 1):
        for x, c in e[l + k].items():
            for y, c2 in h[k - 1].items():
                num[pair.a.total() + x + y] += (-1) ** (k + 1) * c * c2
    return {t: sum(c * comb(t - d + n, n) for d, c in num.items() if d <= t) for t in range(-pair.a[-1], top + 1)}


def minimize_presentation(m: PresMatrix) -> tuple[BettiPair, PresMatrix]:
    """Split off all constant pivots and return the minimal pair and matrix.

    Pivots are chosen at the smallest (row, column) position for
    determinism.  NotABundle is raised if the minimal part fails
    ``verify_bundle``.
    """
    pair, rows = _split_units(m)
    reduced = PresMatrix(pair, m.p, rows)
    if not verify_bundle(reduced):
        raise NotABundle("the matrix does not present a bundle")
    return pair, reduced


def split_bound(pair: BettiPair) -> tuple[int, int]:
    """Bounds for the rank of the part without line-bundle summands.

    Returns (n, max j with a_l > b_{l+j}); the upper bound is at least n by
    admissibility.
    """
    if not pair.is_admissible():
        raise NotAdmissible(f"{pair} is not admissible")
    if not pair.a:
        raise EmptyA("split bounds need a nonempty a")
    a_last = pair.a.entries[-1]
    b = pair.b.entries
    l, r = pair.l, pair.r
    high = max(j for j in range(1, r + 1) if a_last > b[l + j - 1])
    return pair.n, high


def slope_and_semistability(pair: BettiPair):
    """The slope c1/r, and a semistability verdict when rank equals n.

    The verdict compares b_1 with -slope.  For split pairs or rank different
    from n it is None: Betti numbers do not decide semistability there.
    """
    mu = Fraction(pair.c1(), pair.r)
    verdict = None
    if pair.r == pair.n and pair.l > 0:
        verdict = pair.b.entries[0] >= -mu
    return mu, verdict


def _positions(big_entries, small_entries):
    """Split the positions of ``big_entries`` between the small sequence and
    the common multiset, first occurrences going to the small sequence."""
    take_small = Counter(small_entries)
    small_pos, common_pos = [], []
    for pos, v in enumerate(big_entries):  # ascending, so first occurrences come first
        if take_small[v]:
            take_small[v] -= 1
            small_pos.append(pos)
        else:
            common_pos.append(pos)
    return small_pos, common_pos


class DeformFamily:
    """The pencil psi + t * (phi + identity on the common summand)."""

    __slots__ = ("small", "big", "witness", "prime", "psi", "phi", "_phi_prime")

    def __init__(self, small, big, witness, prime, psi, phi, phi_prime):
        self.small = small
        self.big = big
        self.witness = witness
        self.prime = prime
        self.psi = psi
        self.phi = phi
        self._phi_prime = phi_prime

    def at(self, t: int) -> PresMatrix:
        s = t % self.prime
        rows = [
            [pe + fe.scale(s) if fe else pe for pe, fe in zip(prow, frow)]
            for prow, frow in zip(self.psi.rows, self._phi_prime)
        ]
        return PresMatrix(self.big, self.prime, rows)


def deform_family(small: BettiPair, big: BettiPair, prime: int, seed) -> DeformFamily:
    """A one-parameter family degenerating from the small pair to the big one.

    Draws seeded random presentations psi of the big pair and phi of the
    small pair (redrawing deterministically until each verifies), embeds phi
    plus the identity on the common summand into the big shape, and returns
    the evaluator t -> psi + t * phi'.  At t = 0 the fiber is psi; at
    generic nonzero t the fiber minimizes to the small pair.

    Postcondition: ``psi`` is a minimal presentation of the big pair (every
    entry of degree <= 0 is zero) and ``verify_bundle(psi)`` is true, so the
    fiber at 0 needs no minimization or verification of its own.
    """
    c = generalization_witness(small, big)
    if c is None:
        raise NotGeneralization(f"{small} does not generalize {big}")
    if not big.is_admissible() or not small.is_admissible():
        raise NotAdmissible("both ends of the family must be admissible")
    master = random.Random(seed)

    def draw(pair):
        for _ in range(64):
            m = random_minimal_map(pair, prime, master.getrandbits(63))
            if verify_bundle(m):
                return m
        raise NotABundle(f"no verified random presentation found for {pair}")

    psi = draw(big)
    phi = draw(small)
    nvars = small.n + 1
    row_small, row_common = _positions(big.b.entries, small.b.entries)
    col_small, col_common = _positions(big.a.entries, small.a.entries)
    phi_prime = [
        [Poly.zero(prime, nvars) for _ in range(big.l)] for _ in range(big.l + big.r)
    ]
    for si, bi in enumerate(row_small):
        for sj, bj in enumerate(col_small):
            phi_prime[bi][bj] = phi.rows[si][sj]
    one = Poly.const(1, prime, nvars)
    for bi, bj in zip(row_common, col_common):
        phi_prime[bi][bj] = one
    return DeformFamily(small, big, c, prime, psi, phi, phi_prime)
