"""Exact multivariate polynomial arithmetic over a prime field.

Polynomials are sparse maps from exponent tuples to nonzero coefficients in
F_p.  The term order is graded reverse lexicographic throughout.  On top of
the ring arithmetic the module provides maximal minors, a Buchberger
Groebner engine (normal pair selection, product and chain criteria, reduced
output), and the decision whether a homogeneous ideal is the unit ideal or
primary to the irrelevant maximal ideal.
"""

from __future__ import annotations

import heapq
import re
from itertools import combinations, combinations_with_replacement
from math import isqrt

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


def _divides(e: tuple[int, ...], f: tuple[int, ...]) -> bool:
    return all(a <= b for a, b in zip(e, f))


def _lcm(e: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(a, b) for a, b in zip(e, f))


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
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            _sub_multiple(out, -c1, e1, other.terms.items(), self.p)
        return Poly(self.p, self.nvars, out)

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
    basis; when the basis is a Groebner basis the remainder is unique.
    """
    records = []
    for g in basis:
        if g:
            f._compat(g)
            records.append(_record(g.terms, f.p))
    return Poly(f.p, f.nvars, _reduce(f.terms, records, f.p))


# The engine's bookkeeping, each datum computed once.  A basis element is a
# record (lead exponents, terms of its monic multiple), made when it joins the
# basis; dividing by a nonzero multiple of a polynomial leaves the same
# remainder.  A pending pair is a heap entry (grevlex key of its lcm, i, j, lcm).


def _record(terms, p: int):
    lead = max(terms, key=grevlex_key)
    inv = pow(terms[lead], -1, p)
    return lead, [(e, c * inv % p) for e, c in terms.items()]


def _sub_multiple(work: dict, factor: int, shift, terms, p: int) -> None:
    """work -= factor * x^shift * (the given terms), in place."""
    for me, mc in terms:
        e = tuple(a + b for a, b in zip(me, shift))
        v = (work.get(e, 0) - factor * mc) % p
        if v:
            work[e] = v
        elif e in work:
            del work[e]


def _reduce(terms, records, p: int) -> dict:
    """The division loop: the leading term is divided by the first record
    whose lead divides it, or else moved to the remainder."""
    work = dict(terms)
    rem: dict[tuple[int, ...], int] = {}
    while work:
        lt = max(work, key=grevlex_key)
        lc = work[lt]
        for ge, gterms in records:
            if _divides(ge, lt):
                _sub_multiple(work, lc, tuple(a - b for a, b in zip(lt, ge)), gterms, p)
                break
        else:
            rem[lt] = lc
            del work[lt]
    return rem


def _spoly_terms(f, g, lcm, p: int) -> dict:
    """The S-polynomial of two records whose leads have the given lcm."""
    work: dict[tuple[int, ...], int] = {}
    _sub_multiple(work, -1, tuple(a - b for a, b in zip(lcm, f[0])), f[1], p)
    _sub_multiple(work, 1, tuple(a - b for a, b in zip(lcm, g[0])), g[1], p)
    return work


def _spoly(f: Poly, g: Poly) -> Poly:
    rf, rg = _record(f.terms, f.p), _record(g.terms, g.p)
    return Poly(f.p, f.nvars, _spoly_terms(rf, rg, _lcm(rf[0], rg[0]), f.p))


def groebner_basis(gens) -> list[Poly]:
    """The reduced Groebner basis under grevlex, sorted by descending lead.

    Buchberger's algorithm with normal pair selection (smallest lcm first,
    ties by index) and both classical pair-elimination criteria.  The
    reduced basis is unique, so the output does not depend on generator
    order.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    p, nvars = gens[0].p, gens[0].nvars
    for g in gens:
        gens[0]._compat(g)
    G = [_record(g.terms, p) for g in gens]
    heap, pending = [], set()  # pending: the (i, j) of the heap's entries

    def add_pairs(j: int) -> None:
        for i in range(j):
            lcm = _lcm(G[i][0], G[j][0])
            heapq.heappush(heap, (grevlex_key(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(1, len(G)):
        add_pairs(j)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        if all(min(a, b) == 0 for a, b in zip(G[i][0], G[j][0])):
            continue  # coprime leads: S-polynomial reduces to zero
        if any(
            k not in (i, j) and _divides(G[k][0], lcm)
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue  # chain criterion
        r = _reduce(_spoly_terms(G[i], G[j], lcm, p), G, p)
        if r:
            G.append(_record(r, p))
            add_pairs(len(G) - 1)
    return _interreduce(G, p, nvars)


def _interreduce(G, p: int, nvars: int) -> list[Poly]:
    """The reduced basis from the records of a Groebner basis."""
    G = sorted(G, key=lambda rec: grevlex_key(rec[0]))
    minimal: list = []
    for rec in G:
        if not any(_divides(h[0], rec[0]) for h in minimal):
            minimal.append(rec)
    # no other lead divides a minimal lead, so each keeps its lead and stays monic
    out = [Poly(p, nvars, _reduce(t, minimal[:i] + minimal[i + 1 :], p)) for i, (_, t) in enumerate(minimal)]
    return out[::-1]  # by descending lead


class Ideal:
    """An ideal given by generators, with its reduced Groebner basis, which
    is computed on construction."""

    __slots__ = ("p", "nvars", "gens", "_gb")

    def __init__(self, gens, p: int | None = None, nvars: int | None = None):
        gens = list(gens)
        if gens:
            p = gens[0].p if p is None else p
            nvars = gens[0].nvars if nvars is None else nvars
            for g in gens:
                if g.p != p or g.nvars != nvars:
                    raise ModulusMismatch("generators live in different rings")
        elif p is None or nvars is None:
            raise ValueError("an empty ideal needs explicit p and nvars")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "_gb", tuple(groebner_basis(gens)))

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def groebner_basis(self) -> tuple[Poly, ...]:
        return self._gb

    def is_m_primary_or_unit(self) -> bool:
        """True iff the ideal is the unit ideal or cuts out only the origin.

        For a homogeneous ideal this happens exactly when some basis element
        is a nonzero constant, or every variable has a pure power among the
        leading monomials of the Groebner basis.  The test is insensitive to
        field extension, so it certifies the answer over the algebraic
        closure as well.
        """
        for g in self.gens:
            if g and not g.is_homogeneous():
                raise ValueError("is_m_primary_or_unit needs homogeneous generators")
        gb = self.groebner_basis()
        if not gb:
            return False
        missing = set(range(self.nvars))
        for g in gb:
            le = g.lead_exps()
            support = [i for i, e in enumerate(le) if e]
            if not support:
                return True  # a nonzero constant: the unit ideal
            if len(support) == 1:
                missing.discard(support[0])
        return not missing


def maximal_minors(matrix, size: int) -> list[Poly]:
    """All determinants of ``size`` rows of a matrix with ``size`` columns.

    Cofactor expansion along the first column, memoizing shared
    subdeterminants across the different row choices.
    """
    rows = [list(row) for row in matrix]
    if any(len(row) != size for row in rows):
        raise ShapeError(f"matrix must have exactly {size} columns")
    if len(rows) < size:
        raise ShapeError(f"need at least {size} rows, got {len(rows)}")
    entries = [e for row in rows for e in row]
    if entries:
        p, nvars = entries[0].p, entries[0].nvars
        for e in entries:
            if e.p != p or e.nvars != nvars:
                raise ModulusMismatch("matrix entries live in different rings")
    else:
        raise ShapeError("cannot take minors of a matrix with no entries")
    one = Poly.const(1, p, nvars)
    zero = Poly.zero(p, nvars)
    memo: dict[tuple, Poly] = {}

    def det(row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> Poly:
        if not row_idx:
            return one
        key = (row_idx, col_idx)
        cached = memo.get(key)
        if cached is not None:
            return cached
        j = col_idx[0]
        rest = col_idx[1:]
        acc = zero
        for pos, i in enumerate(row_idx):
            entry = rows[i][j]
            if entry:
                sub = det(row_idx[:pos] + row_idx[pos + 1 :], rest)
                term = entry * sub
                acc = acc + term if pos % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    cols = tuple(range(size))
    return [det(sel, cols) for sel in combinations(range(len(rows)), size)]
