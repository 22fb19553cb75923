"""Exact multivariate polynomial arithmetic over a prime field.

Polynomials are sparse maps from exponent tuples to nonzero coefficients in
F_p.  The term order is graded reverse lexicographic throughout.  On top of
the ring arithmetic the module provides maximal minors, a Buchberger
Groebner engine for submodules of a graded free module given by the rows of
a matrix, an ideal being the case of one column, and the decision whether a
homogeneous ideal is the unit ideal or primary to the irrelevant ideal.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from math import isqrt
from operator import itemgetter, mul

from .errors import BadInput, ModulusMismatch, ShapeError
from .seqs import Frozen

_MAX_EXPONENT = 2**31


def check_prime(p: int) -> int:
    """p itself when it is a prime below 2^31, the bound that keeps the trial
    division below 2^16 steps; BadInput otherwise."""
    if p >= 2**31:
        raise BadInput(f"modulus {p} is not below 2^31")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise BadInput(f"modulus {p} is not a prime")
    return p


def grevlex_key(exps: tuple[int, ...]):
    """Sort key: larger key means larger monomial in grevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, deterministic order."""
    if degree < 0:
        return
    for picks in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        yield tuple(e)


class Poly(Frozen):
    """A polynomial in x_0..x_{nvars-1} with coefficients in F_p."""

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p: int, nvars: int, terms=None):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars!r}")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length")
                if any(e < 0 or e > _MAX_EXPONENT for e in exps):
                    raise ValueError(f"exponent out of range in {exps}")
                c = coeff % p
                if c:
                    clean[exps] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, p: int, nvars: int) -> "Poly":
        return cls(p, nvars)

    @classmethod
    def const(cls, c: int, p: int, nvars: int) -> "Poly":
        return cls(p, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, p: int, nvars: int, power: int = 1) -> "Poly":
        e = [0] * nvars
        e[i] = power
        return cls(p, nvars, {tuple(e): 1})

    def _compat(self, other: "Poly"):
        if self.p != other.p or self.nvars != other.nvars:
            raise ModulusMismatch(
                f"rings differ: F_{self.p}[{self.nvars}] vs F_{other.p}[{other.nvars}]"
            )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self) -> int:
        return hash((self.p, self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        self._compat(other)
        out = dict(self.terms)
        p = self.p
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return Poly(p, self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.p, self.nvars, {e: self.p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._compat(other)
        pk = _Packing(self.nvars, self.degree() + other.degree(), (0,))
        terms = pk.pack_terms(other.terms).items()
        out: dict[int, int] = {}
        keys: list[int] = []  # unread: a product needs no order
        for e1, c1 in self.terms.items():
            _sub_multiple(out, keys, -c1, pk.pack(e1), terms, self.p)
        return Poly(self.p, self.nvars, pk.unpack_terms(out))

    def scale(self, c: int) -> "Poly":
        c %= self.p
        if c == 0:
            return Poly.zero(self.p, self.nvars)
        return Poly(self.p, self.nvars, {e: (v * c) % self.p for e, v in self.terms.items()})

    def lead_exps(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grevlex_key)

    def lead_coeff(self) -> int:
        return self.terms[self.lead_exps()]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self) -> int:
        """The common total degree of all terms; raises when mixed or zero."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degrees.pop()

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def __repr__(self) -> str:
        return f"Poly(F_{self.p}, {format_poly(self)!r})"


def format_poly(f: Poly) -> str:
    """Canonical text form: terms in descending grevlex order."""
    if not f.terms:
        return "0"
    parts = []
    for e in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[e]
        factors = [f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts)


def _numeral(text: str) -> int:
    """A plain decimal numeral: ASCII digits only, no sign, no underscores."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_poly(text: str, p: int, nvars: int) -> Poly:
    """Parse a sparse sum of terms like ``3*x0^2*x1 + 31999*x2 + 7``.

    Terms are joined by ``+`` or ``-``, and the first may carry a sign.
    Indices, exponents and coefficients are plain decimal numerals, so
    ``x0^-1``, ``x0^`` and a lone ``+`` are rejected, not misread.
    """
    s = text.replace(" ", "")
    if not s:
        raise BadInput("empty polynomial string")
    tokens = re.split(r"([+-])", s)  # term, sign, term, sign, ..., term
    terms: dict[tuple[int, ...], int] = {}
    for pos in range(0, len(tokens), 2):
        chunk = tokens[pos]
        if not chunk:
            if pos == 0:
                continue  # a leading sign
            raise BadInput(f"empty term in {text!r}")
        sign = -1 if pos and tokens[pos - 1] == "-" else 1
        coeff = 1
        exps = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise BadInput(f"empty factor in {text!r}")
            if factor[0] == "x":
                var, caret, power = factor[1:].partition("^")
                try:
                    i = _numeral(var)
                    k = _numeral(power) if caret else 1
                except ValueError:
                    raise BadInput(f"bad factor {factor!r}") from None
                if not 0 <= i < nvars:
                    raise BadInput(f"variable x{i} out of range (nvars={nvars})")
                if k > _MAX_EXPONENT:
                    raise BadInput(f"exponent out of range in {factor!r}")
                exps[i] += k
            else:
                try:
                    coeff *= _numeral(factor)
                except ValueError:
                    raise BadInput(f"bad coefficient {factor!r}") from None
        e = tuple(exps)
        terms[e] = (terms.get(e, 0) + sign * coeff) % p
    return Poly(p, nvars, terms)


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under multivariate division by the listed polynomials.

    Every term of the result is divisible by no leading monomial of the
    basis; when the basis is a Groebner basis the remainder is unique.  f
    and the basis are packed as rows of one position.
    """
    basis = [g for g in basis if g]
    for g in basis:
        f._compat(g)
    (work, *divisors), pk = _pack_rows([[g] for g in [f, *basis]], (0,), f.nvars)
    records = [_record(g, f.p) for g in divisors]
    return Poly(f.p, f.nvars, pk.unpack_terms(_reduce(work, records, f.p, pk.guard)))


# The engine works on packed terms.  A basis element is a record (packed
# lead, packed terms of its monic multiple other than the lead), made when it
# joins the basis; dividing by a nonzero multiple of a polynomial leaves the
# same remainder.  A pending pair is a heap entry (packed lcm, i, j).


class _Packing:
    """Terms m*e_j, e_j of degree -a_j and m a monomial in ``nvars``
    variables, each packed into one int of equal fields.  From the top:
    deg m - a_j + max a; the prefix sums x0+...+x_(nvars-2) down to x0; one
    field per position, 1 at j; the exponents.  So the ints compare by
    twisted degree, then grevlex at equal degree, then position: a term
    order, grevlex when l = 1.  Positions and exponents lie under a guard
    bit each, so that g divides t, at one position, exactly when
    ``((t | guard) - g) & guard == guard``.  Below the top no field passes
    ``cap``, which bounds the degree of the terms packed, so none carries
    into the next and a monomial plus a term packs their product."""

    __slots__ = ("cap", "guard", "full", "ones", "lift", "top", "low", "at", "_vars", "_shifts", "_pos")

    def __init__(self, nvars: int, degree: int, twists):
        width = max(degree, 1).bit_length() + 1  # one bit more, for the guard; a position needs a bit under it
        self.cap, low = (1 << (width - 1)) - 1, (nvars + len(twists)) * width
        self.guard = sum(self.cap + 1 << i for i in range(0, low, width))
        self._shifts, self._pos = range(0, nvars * width, width), range(nvars * width, low, width)
        self.ones = sum(1 << s for s in self._shifts)
        self.full = self.ones << width - 1  # the exponents' guard bits: all the variables
        self.low, self.top, self.lift = low, low + (nvars - 1) * width, max(twists)
        self.at = [(1 << s) + (self.lift - a << self.top) for s, a in zip(self._pos, twists)]  # e_j packed
        # x_i counts once in its own exponent field and once in each prefix sum from x0+...+x_i up
        self._vars, above = [0] * nvars, 0
        for i in reversed(range(nvars)):
            above += 1 << low + i * width
            self._vars[i] = (1 << i * width) + above

    def pack(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, exps, self._vars))

    def unpack(self, m: int) -> tuple[int, ...]:
        cap = self.cap
        return tuple(m >> s & cap for s in self._shifts)

    def lcm(self, f: int, g: int, j: int) -> int:
        """The lcm of two terms at position j: the field-wise max of the exponents, then their prefix sums by one
        multiply.  A sum is at most 2 cap, so no field carries; past cap the top field still reads its degree."""
        full, ones = self.full, self.ones
        m = ((((f | full) - g) & full) >> self.cap.bit_length()) * self.cap  # cap on the fields where f >= g
        e = f & m | g & (full - ones - m)
        return e + (((e * ones) & (2 * full - ones)) << self.low) + self.at[j]  # the sums, moved up from e's fields

    def position(self, m: int) -> int:
        return next(j for j, s in enumerate(self._pos) if m >> s & 1)

    def move(self, m: int, old: "_Packing") -> int:
        return self.pack(old.unpack(m)) + self.at[old.position(m)]

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, work: dict) -> dict:
        return {self.unpack(m): c for m, c in work.items()}


def _pack_rows(rows, twists, nvars: int, least: int = 0) -> tuple[list[dict], _Packing]:
    """The rows as packed elements sum_j row[j]*e_j, and their packing, with
    room for 2(T + max a), T the top twisted degree of a term, and for
    ``least``: while row k waits in ``_buchberger`` every entry taken is below
    its lead, so a lead at e_j has degree <= T + a_j, an lcm <= 2(T + a_j), a
    term met <= 2T + a_j + max a."""
    lift = max(twists)
    room = max((e.degree() + lift - a for row in rows for e, a in zip(row, twists) if e), default=0)
    pk = _Packing(nvars, max(2 * room, least), twists)
    return [{pk.pack(m) + at: c for e, at in zip(row, pk.at) for m, c in e.terms.items()} for row in rows], pk


def _record(work: dict, p: int):
    lead = max(work)
    inv = pow(work[lead], -1, p)
    return lead, [(m, c * inv % p) for m, c in work.items() if m != lead]


def _sub_multiple(work: dict, keys: list, factor: int, shift: int, terms, p: int) -> None:
    """work -= factor * x^shift * (the given terms), in place, all packed.

    The negated key of each term new to work goes on the heap ``keys``.
    """
    get = work.get
    for m, c in terms:
        m += shift
        v = get(m)
        if v is None:
            work[m] = -factor * c % p
            heappush(keys, -m)
        else:
            v = (v - factor * c) % p
            if v:
                work[m] = v
            else:
                del work[m]


def _reduce(work: dict, records, p: int, guard: int, keys: list | None = None, std=()) -> dict:
    """The division loop, which consumes work: the leading term is divided by
    the first record whose lead divides it, or else moved to the remainder.
    A term in ``std``, which holds only terms that no lead divides, moves
    there without a scan.

    The heap ``keys`` holds the negated key of every term of work (all of
    them when omitted), and may hold stale keys of terms that have cancelled
    since.  Every term that enters work lies below the current lead, so none
    comes back after its key was popped.
    """
    if keys is None:
        keys = [-m for m in work]
        heapify(keys)
    rem = {}
    while keys:
        m = -heappop(keys)
        c = work.pop(m, 0)
        if c:
            t = m | guard
            for g, tail in records if m not in std else ():
                if (t - g) & guard == guard:
                    _sub_multiple(work, keys, c, m - g, tail, p)
                    break
            else:
                rem[m] = c
    return rem


def _spoly_work(f, g, lcm: int, p: int) -> tuple[dict, list]:
    """The S-polynomial of two records whose leads have the given packed
    lcm, and the heap of its keys; the leads cancel."""
    work, keys = {}, []
    _sub_multiple(work, keys, -1, lcm - f[0], f[1], p)
    _sub_multiple(work, keys, 1, lcm - g[0], g[1], p)
    return work, keys


def _buchberger(rows, twists, p: int, nvars: int, certify: bool, predict=None):
    """Buchberger's algorithm with normal selection (smallest lcm first, ties
    by index), the chain criterion and, for an ideal, the product one, on
    the rows of a matrix, row i being sum_j rows[i][j]*e_j with e_j of
    degree -``twists``[j].  The records and packing of a Groebner basis, or
    with ``certify`` None once at every position the leads hold e_j or a pure
    power of every variable, so that the quotient has finite length.  Row k
    waits on the heap as (packed lead, -1, k) and joins as a remainder.

    ``predict`` is (top, thunk): the thunk, called only when no row
    certifies, gives the Hilbert function {t: h(t)}, zero elsewhere and from
    top on, of a quotient of finite length.  The loop keeps the standard
    terms of the current degree t, moves those of an entry straight to its
    remainder, skips the rest of its entries once they number h(t), and
    returns the records so far once they fall below h(t), end degree t above
    it, or the heap empties.  No pair is made above top + 1: there h is
    zero, so the loop has returned by then, or skips every later entry.  So
    the first packing holds that degree, and never widens.  The chain
    criterion is unchanged, as lcm(i, k) divides lcm(i, j) when it applies."""
    last = predict[0] + 1 if predict else float("inf")  # the pairs above it are never reduced: not made
    inputs, pk = _pack_rows(rows, twists, nvars, last + max(twists) if predict else 0)
    heap = sorted((max(work), -1, k) for k, work in enumerate(inputs) if work)  # sorted, so a heap
    G, reads, pending = [], [], set()  # reads: read_lead of G's leads; pending: the heap's pairs (i, j)
    powers = [0] * len(twists)  # per position, the variables with a pure-power lead there; all once a lead is e_j

    def read_lead(lead: int) -> tuple[int, int]:  # its variables, as the guard bits that survive less 1; its position
        support, j = ((lead | pk.guard) - pk.ones) & pk.full, pk.position(lead)
        if not support & (support - 1):
            powers[j] |= support or pk.full
        return (support if len(twists) == 1 else -1), j  # see add_pairs

    for lead, _, _ in heap:
        read_lead(lead)
    if certify and all(v == pk.full for v in powers):
        return None
    hilbert = predict[1]() if predict else None
    std, deg = set(), -pk.lift - 1  # the standard terms of twisted degree deg, packed: none below every e_j

    def add_pairs(j: int) -> None:
        nonlocal pk, std
        # Leads that share no variable make no pair, which the chain criterion counts as treated: for an ideal their
        # S-polynomial reduces to zero.  In a module it need not (x*e1 and y*e1 + e2 give -x*e2), so there all meet.
        (support, pos), lead = reads[j], G[j][0]
        lcms = [(i, pk.lcm(G[i][0], lead, pos)) for i, (s, q) in enumerate(reads[:j]) if q == pos and s & support]
        lcms = [(i, m) for i, m in lcms if m >> pk.top <= last + pk.lift]  # the top field: twisted degree + lift
        if not lcms:
            return
        top = max(m for _, m in lcms) >> pk.top
        if top > pk.cap:  # every term met while reducing a pair has at most its lcm's twisted degree
            old, pk = pk, _Packing(nvars, top, twists)
            lcms = [(i, pk.move(m, old)) for i, m in lcms]
            G[:] = [(pk.move(lead, old), [(pk.move(m, old), c) for m, c in tail]) for lead, tail in G]
            heap[:] = [(pk.move(lcm, old), i, k) for lcm, i, k in heap]  # same order: still a heap
            std = {pk.move(m, old) for m in std}
            powers[:] = [0] * len(powers)  # read again in the new packing
            reads[:] = [read_lead(lead) for lead, _ in G]
        for i, m in lcms:
            heappush(heap, (m, i, j))
            pending.add((i, j))

    while heap:
        lcm, i, j = heappop(heap)
        pending.discard((i, j))
        if hilbert is not None:
            d = (lcm >> pk.top) - pk.lift  # no later entry has a lower twisted degree, nor a new lead
            while deg < d and len(std) == hilbert.get(deg, 0):  # degree deg ended as predicted
                # m is standard iff it is no lead and m / x_i is standard for each x_i dividing m; so is e_j
                deg, known, xs = deg + 1, {g for g, _ in G}, list(zip(pk._vars, pk._shifts))
                new = {s + x for s in std for x, _ in xs} | {e for e, a in zip(pk.at, twists) if a == -deg}
                std = {m for m in new if m not in known and all(m - x in std for x, sh in xs if m >> sh & pk.cap)}
            excess = len(std) - hilbert.get(deg, 0)
            if excess < 0 or deg < d:  # short, or degree deg ended above h
                return G, pk
            if not excess:
                continue  # when the quotient has finite length, the leads of degree d are all found
        guard = pk.guard
        top = lcm | guard
        if i >= 0 and any(
            (top - G[k][0]) & guard == guard and k not in (i, j)
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue  # chain criterion
        work, keys = _spoly_work(G[i], G[j], lcm, p) if i >= 0 else (inputs[j], None)
        r = _reduce(work, G, p, guard, keys, std)  # std is empty, or the standard terms of the entry's degree
        if r:
            G.append(_record(r, p))
            reads.append(read_lead(G[-1][0]))
            if certify and all(v == pk.full for v in powers):
                return None
            std.discard(G[-1][0])
            add_pairs(len(G) - 1)
    return G, pk


def groebner_basis(gens) -> list[Poly]:
    """The reduced Groebner basis under grevlex, sorted by descending lead.  It is
    unique, so neither generator order nor zero or repeated generators change it."""
    gens = list(gens)
    if not gens:
        return []
    for g in gens:
        gens[0]._compat(g)
    p, nvars = gens[0].p, gens[0].nvars
    G, pk = _buchberger([[g] for g in gens], (0,), p, nvars, False)
    return _interreduce(G, p, nvars, pk)


def _interreduce(G, p: int, nvars: int, pk: _Packing) -> list[Poly]:
    """The reduced basis from the records of a Groebner basis."""
    guard = pk.guard
    minimal: list = []
    for rec in sorted(G, key=itemgetter(0)):
        if not any((rec[0] | guard) - h & guard == guard for h, _ in minimal):
            minimal.append(rec)
    # no other lead divides a minimal lead, so each keeps its lead and stays monic
    out = []
    for i, (lead, tail) in enumerate(minimal):
        work = dict(tail)
        work[lead] = 1
        out.append(Poly(p, nvars, pk.unpack_terms(_reduce(work, minimal[:i] + minimal[i + 1 :], p, guard))))
    return out[::-1]  # by descending lead


class Ideal(Frozen):
    """An ideal given by generators, which must share one ring.  Nothing is
    computed on construction."""

    __slots__ = ("p", "nvars", "gens")

    def __init__(self, gens, p: int | None = None, nvars: int | None = None):
        gens = tuple(gens)
        if gens:
            p = gens[0].p if p is None else p
            nvars = gens[0].nvars if nvars is None else nvars
        elif p is None or nvars is None:
            raise ValueError("an empty ideal needs explicit p and nvars")
        if any(g.p != p or g.nvars != nvars for g in gens):
            raise ModulusMismatch("generators live in different rings")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", gens)

    def groebner_basis(self) -> tuple[Poly, ...]:
        return tuple(groebner_basis(self.gens))

    def is_m_primary_or_unit(self) -> bool:
        """True iff the ideal is the unit ideal or cuts out only the origin.

        For a homogeneous ideal this holds iff some element of the ideal has
        a constant lead, or each variable has a pure power as a lead
        (finiteness theorem).  The Buchberger loop returns None at the first
        such certificate, and only False needs the whole basis; a zero or
        repeated generator adds nothing to it.  The test is insensitive to
        field extension, so the answer holds over the algebraic closure.
        """
        if not all(g.is_homogeneous() for g in self.gens):
            raise ValueError("is_m_primary_or_unit needs homogeneous generators")
        return _buchberger([[g] for g in self.gens], (0,), self.p, self.nvars, True) is None


def maximal_minors(matrix, size: int) -> list[Poly]:
    """All determinants of ``size`` rows of a matrix with ``size`` columns, by
    cofactor expansion along the first column, memoizing the subdeterminants
    that row choices share.  The entries, checked to share one ring, are
    packed once, with room for the sum of the columns' largest degrees."""
    rows = [list(row) for row in matrix]
    if any(len(row) != size for row in rows):
        raise ShapeError(f"matrix must have exactly {size} columns")
    if len(rows) < size:
        raise ShapeError(f"need at least {size} rows, got {len(rows)}")
    entries = [e for row in rows for e in row]
    if not entries:
        raise ShapeError("cannot take minors of a matrix with no entries")
    p, nvars = entries[0].p, entries[0].nvars
    if any(e.p != p or e.nvars != nvars for e in entries):
        raise ModulusMismatch("matrix entries live in different rings")
    pk = _Packing(nvars, sum(max(0, *map(Poly.degree, col)) for col in zip(*rows)), (0,))
    packed = [[list(pk.pack_terms(e.terms).items()) for e in row] for row in rows]
    memo: dict[tuple[int, ...], dict] = {(): {0: 1}}

    def det(row_idx: tuple[int, ...]) -> dict:
        # the rows left say which columns are left: the last len(row_idx)
        cached = memo.get(row_idx)
        if cached is not None:
            return cached
        j = size - len(row_idx)
        acc: dict[int, int] = {}
        keys: list[int] = []  # unread: a sum needs no order
        for pos, i in enumerate(row_idx):
            if packed[i][j]:
                sub = det(row_idx[:pos] + row_idx[pos + 1 :]).items()
                for m, c in packed[i][j]:
                    _sub_multiple(acc, keys, -c if pos % 2 == 0 else c, m, sub, p)
        memo[row_idx] = acc
        return acc

    minors = [det(sel) for sel in combinations(range(len(rows)), size)]
    memo.clear()  # det refers to itself, so a collection, not return, frees it
    return [Poly(p, nvars, pk.unpack_terms(work)) for work in minors]
