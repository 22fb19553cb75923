"""Cross-validation of the Groebner engine against an external system."""

import random
from itertools import combinations
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from pnbundles.betti import BettiPair
from pnbundles.bundles import PresMatrix, minimize_presentation, random_minimal_map, verify_bundle
from pnbundles.errors import NotABundle
from pnbundles.poly import Ideal, Poly, groebner_basis, maximal_minors, normal_form, parse_poly

from _oracles import module_leads, tuple_module_groebner_basis
from test_bundles import disguised

PRIMES = (7, 101, 32003)


def to_sympy(f, gens):
    expr = 0
    for e, c in f.terms.items():
        term = sympy.Integer(c)
        for x, k in zip(gens, e):
            term *= x**k
        expr += term
    return expr


def from_sympy(poly, p, nvars):
    terms = {}
    for exps, coeff in poly.terms():
        terms[tuple(int(k) for k in exps)] = int(coeff) % p
    return Poly(p, nvars, terms)


def _random_polys(rng, p, nvars, count, max_terms=4, max_exp=3):
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            e = tuple(rng.randrange(max_exp) for _ in range(nvars))
            terms[e] = rng.randrange(1, p)
        out.append(Poly(p, nvars, terms))
    return out


def sympy_basis(gens, p, nvars):
    """The reduced grevlex basis from sympy, as a set of term sets."""
    syms = sympy.symbols(f"x0:{nvars}")
    ref = sympy.groebner([to_sympy(g, syms) for g in gens], syms, order="grevlex", domain=sympy.GF(p))
    return {frozenset(from_sympy(q, p, nvars).terms.items()) for q in ref.polys}


@pytest.mark.parametrize("p", PRIMES)
def test_reduced_basis_matches_sympy(p):
    rng = random.Random(p)
    for _ in range(15):
        gens = _random_polys(rng, p, 3, rng.randrange(2, 4))
        ours = {frozenset(g.terms.items()) for g in Ideal(gens).groebner_basis()}
        assert ours == sympy_basis(gens, p, 3)


def test_normal_form_matches_sympy_reduction():
    p, nvars = 101, 3
    rng = random.Random(7)
    gens_syms = sympy.symbols(f"x0:{nvars}")
    for _ in range(10):
        gens = _random_polys(rng, p, nvars, 2)
        probe = _random_polys(rng, p, nvars, 1, max_terms=6)[0]
        gb = Ideal(gens).groebner_basis()
        got = normal_form(probe, gb)
        ref = sympy.groebner(
            [to_sympy(g, gens_syms) for g in gens],
            gens_syms,
            order="grevlex",
            domain=sympy.GF(p),
        )
        want = from_sympy(
            sympy.poly(ref.reduce(to_sympy(probe, gens_syms))[1], gens_syms, domain=sympy.GF(p)),
            p,
            nvars,
        )
        assert got == want


@pytest.mark.parametrize("a,b,bundle", [
    ((1, 2), (0, 0, 0, 0, 0), True),
    ((1, 3), (0, 0, 0, 0, 1), True),
    ((1, 2), (0, 0, 0, 1, 1), False),  # a_1 <= b_4: a zero block
])
def test_minor_ideals_match_sympy(a, b, bundle):
    # the ideals whose zeros verify_bundle decides, through the rows
    m = random_minimal_map(BettiPair(3, a, b), 32003, seed=7)
    assert verify_bundle(m) is bundle
    minors = list(dict.fromkeys(f for f in maximal_minors(m.rows, len(a)) if f))
    ours = {frozenset(g.terms.items()) for g in groebner_basis(minors)}
    assert ours == sympy_basis(minors, 32003, 4)


def sympy_m_primary(m):
    """Whether the maximal minors of the matrix, each a sympy determinant,
    generate the unit ideal or one primary to the irrelevant ideal."""
    xs = sympy.symbols(f"x0:{m.pair.n + 1}")
    rows = [[to_sympy(e, xs) for e in row] for row in m.rows]
    minors = []
    for sel in combinations(range(len(rows)), m.pair.l):
        d = sympy.expand(sympy.Matrix([rows[i] for i in sel]).det(method="berkowitz"))
        if not sympy.Poly(d, *xs, modulus=m.p).is_zero:
            minors.append(d)
    if not minors:
        return False
    G = sympy.groebner(minors, *xs, modulus=m.p, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in G.exprs]
    if any(sum(e) == 0 for e in leads):
        return True
    return all(any(e[i] == sum(e) > 0 for e in leads) for i in range(len(xs)))


@st.composite
def small_minimal_maps(draw):
    # r from n - 1 (the minors vanish at points: never a bundle) to n + 1
    n, l = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    r = draw(st.integers(n - 1, n + 1))
    a = sorted(draw(st.lists(st.integers(1, 2), min_size=l, max_size=l)))
    b = sorted(draw(st.lists(st.integers(0, 1), min_size=l + r, max_size=l + r)))
    return random_minimal_map(BettiPair(n, a, b), 32003, draw(st.integers(0, 2**32)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_minimal_maps())
def test_verify_bundle_agrees_with_sympy(m):
    assert verify_bundle(m) is sympy_m_primary(m)


def disguised_unit_summands(rng, p=32003):
    """A random minimal map with r = n + 1, plus one or two unit summands,
    disguised by random graded row and column operations."""
    n = rng.randint(1, 2)
    a = [rng.randint(1, 2)]
    b = sorted(rng.randint(0, 1) for _ in range(n + 2))
    phi = random_minimal_map(BettiPair(n, a, b), p, rng.getrandbits(32))
    common = [rng.randint(0, 2) for _ in range(rng.randint(1, 2))]
    # phi in the first rows and columns, the identity on the common twists after them, then sorted by twist
    twists_b, twists_a = b + common, a + common
    block = [list(row) + [Poly.zero(p, n + 1)] * len(common) for row in phi.rows]
    block += [[Poly.const(int(j == len(a) + k), p, n + 1) for j in range(len(twists_a))] for k in range(len(common))]
    rs = sorted(range(len(twists_b)), key=twists_b.__getitem__)
    cs = sorted(range(len(twists_a)), key=twists_a.__getitem__)
    rows = [[block[i][j] for j in cs] for i in rs]
    return disguised(PresMatrix(BettiPair(n, sorted(twists_a), sorted(twists_b)), p, rows), rng), phi


def test_non_minimal_verdicts_match_sympy():
    rng = random.Random(22)
    verdicts = []
    for _ in range(12):
        m, phi = disguised_unit_summands(rng)
        want = sympy_m_primary(m)
        assert not m.is_minimal
        assert verify_bundle(m) is verify_bundle(phi) is want, m.to_json()
        if want:
            assert minimize_presentation(m)[0] == phi.pair
        else:
            with pytest.raises(NotABundle):
                minimize_presentation(m)
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def sympy_module_leads(rows, p):
    """The leads (j, exps) of a minimal Groebner basis of the submodule that
    the rows span, from sympy's agca: grevlex, then the index (TOP)."""
    xs = sympy.symbols(f"x0:{rows[0][0].nvars}")
    ring = sympy.GF(p).old_poly_ring(*xs, order="grevlex")
    module = ring.free_module(len(rows[0])).submodule(*[[to_sympy(e, xs) for e in row] for row in rows])
    leads = {(g[0][0][0], tuple(g[0][0][1:])) for g in module._groebner()}
    return {(j, e) for j, e in leads if not any(k == j and f != e and all(map(le, f, e)) for k, f in leads)}, module


@pytest.mark.parametrize("rows", [
    # x0*e0 and x1*e0 + e1: coprime leads whose S-polynomial, -x0*e1, is a new lead
    [["x0", "0"], ["x1", "1"]],
    [["x0^2", "x1"], ["x1^2", "x2"], ["x2^2", "x0"]],
    [["x0", "x1", "x2"], ["x1", "x2", "0"], ["x2", "0", "x0"], ["x0 + x1", "x1", "x1 + x2"]],
], ids=["coprime-leads", "3x2", "4x3"])
def test_module_oracle_matches_sympy(rows):
    rows = [[parse_poly(t, 101, 3) for t in row] for row in rows]
    leads, module = sympy_module_leads(rows, 101)
    assert module_leads(rows, 101) == leads
    # the oracle's basis lies in the module, and its leads are the module's: it is a Groebner basis of it
    xs = sympy.symbols("x0:3")
    for g in tuple_module_groebner_basis(rows, 101):
        vector = [0] * len(rows[0])
        for (j, e), c in g.items():
            vector[j] += to_sympy(Poly(101, 3, {e: c}), xs)
        assert module.contains(vector)
