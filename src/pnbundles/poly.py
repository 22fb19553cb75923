"""Exact multivariate polynomial arithmetic over a prime field.

Polynomials are sparse maps from exponent tuples to nonzero coefficients in
F_p.  The term order is graded reverse lexicographic throughout.  On top of
the ring arithmetic the module provides maximal minors, a Buchberger
Groebner engine (normal pair selection, product and chain criteria, reduced
output), and the decision whether a homogeneous ideal is the unit ideal or
primary to the irrelevant maximal ideal.
"""

from __future__ import annotations

import re
from itertools import combinations, combinations_with_replacement

from .errors import BadInput, ModulusMismatch, ShapeError
from .seqs import Frozen

_MAX_EXPONENT = 2**31


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

    __slots__ = ("p", "nvars", "terms", "_lead")

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
        object.__setattr__(self, "_lead", None)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

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
        p = self.p
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return Poly(p, self.nvars, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(1, self.p, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: int) -> "Poly":
        c %= self.p
        if c == 0:
            return Poly.zero(self.p, self.nvars)
        return Poly(self.p, self.nvars, {e: (v * c) % self.p for e, v in self.terms.items()})

    def term_mul(self, coeff: int, shift: tuple[int, ...]) -> "Poly":
        """Multiply by coeff * x^shift."""
        coeff %= self.p
        if coeff == 0:
            return Poly.zero(self.p, self.nvars)
        return Poly(
            self.p,
            self.nvars,
            {
                tuple(a + b for a, b in zip(e, shift)): (v * coeff) % self.p
                for e, v in self.terms.items()
            },
        )

    def lead_exps(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lead is None:
            object.__setattr__(self, "_lead", max(self.terms, key=grevlex_key))
        return self._lead

    def lead_coeff(self) -> int:
        return self.terms[self.lead_exps()]

    def monic(self) -> "Poly":
        lc = self.lead_coeff()
        if lc == 1:
            return self
        return self.scale(pow(lc, -1, self.p))

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
    reducers = []
    for g in basis:
        if g:
            f._compat(g)
            reducers.append((g.lead_exps(), pow(g.lead_coeff(), -1, f.p), list(g.terms.items())))
    p = f.p
    work = dict(f.terms)
    rem: dict[tuple[int, ...], int] = {}
    while work:
        lt = max(work, key=grevlex_key)
        lc = work[lt]
        for ge, ginv, gterms in reducers:
            if _divides(ge, lt):
                shift = tuple(a - b for a, b in zip(lt, ge))
                factor = (lc * ginv) % p
                for me, mc in gterms:
                    e = tuple(a + b for a, b in zip(me, shift))
                    v = (work.get(e, 0) - factor * mc) % p
                    if v:
                        work[e] = v
                    elif e in work:
                        del work[e]
                break
        else:
            rem[lt] = lc
            del work[lt]
    return Poly(p, f.nvars, rem)


def _spoly(f: Poly, g: Poly) -> Poly:
    lf, lg = f.lead_exps(), g.lead_exps()
    lcm = _lcm(lf, lg)
    uf = tuple(a - b for a, b in zip(lcm, lf))
    ug = tuple(a - b for a, b in zip(lcm, lg))
    return f.term_mul(pow(f.lead_coeff(), -1, f.p), uf) - g.term_mul(
        pow(g.lead_coeff(), -1, g.p), ug
    )


def groebner_basis(gens) -> list[Poly]:
    """The reduced Groebner basis under grevlex, sorted by descending lead.

    Buchberger's algorithm with normal pair selection (smallest lcm first)
    and both classical pair-elimination criteria.  The reduced basis is
    unique, so the output does not depend on generator order.
    """
    G = [g.monic() for g in gens if g]
    if not G:
        return []
    pairs = {(i, j) for j in range(len(G)) for i in range(j)}
    while pairs:
        i, j = min(
            pairs,
            key=lambda ij: grevlex_key(_lcm(G[ij[0]].lead_exps(), G[ij[1]].lead_exps())),
        )
        pairs.discard((i, j))
        ei, ej = G[i].lead_exps(), G[j].lead_exps()
        if all(min(a, b) == 0 for a, b in zip(ei, ej)):
            continue  # coprime leads: S-polynomial reduces to zero
        lcm = _lcm(ei, ej)
        skip = False
        for k in range(len(G)):
            if k in (i, j) or not _divides(G[k].lead_exps(), lcm):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                skip = True  # chain criterion
                break
        if skip:
            continue
        r = normal_form(_spoly(G[i], G[j]), G)
        if r:
            G.append(r.monic())
            t = len(G) - 1
            pairs.update((k, t) for k in range(t))
    return _interreduce(G)


def _interreduce(G: list[Poly]) -> list[Poly]:
    G = sorted((g.monic() for g in G if g), key=lambda g: grevlex_key(g.lead_exps()))
    minimal: list[Poly] = []
    for g in G:
        if not any(_divides(h.lead_exps(), g.lead_exps()) for h in minimal):
            minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others) if others else g
        out.append(r.monic())
    out.sort(key=lambda g: grevlex_key(g.lead_exps()), reverse=True)
    return out


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis."""

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
        object.__setattr__(self, "_gb", None)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def groebner_basis(self) -> tuple[Poly, ...]:
        if self._gb is None:
            object.__setattr__(self, "_gb", tuple(groebner_basis(self.gens)))
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
