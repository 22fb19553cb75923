"""Polynomial arithmetic, Groebner bases, minors, and the m-primary test."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnbundles.errors import BadInput, ModulusMismatch, ShapeError
from pnbundles.poly import (
    _MAX_EXPONENT,
    Ideal,
    Poly,
    format_poly,
    grevlex_key,
    groebner_basis,
    maximal_minors,
    monomials,
    normal_form,
    parse_poly,
)

from _oracles import leibniz_maximal_minors, macaulay_lead_monomials


def V(i, p=7, nvars=4, power=1):
    return Poly.variable(i, p, nvars, power=power)


def test_characteristic_two_square():
    f = parse_poly("x0 + x1", 2, 2)
    assert format_poly(f * f) == "x0^2 + x1^2"


def test_ring_axioms_random():
    rng = random.Random(41)
    p, nvars = 7, 3

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(5)):
            e = tuple(rng.randrange(3) for _ in range(nvars))
            terms[e] = rng.randrange(p)
        return Poly(p, nvars, terms)

    for _ in range(150):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Poly.zero(p, nvars)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        Poly.variable(0, 5, 2) + Poly.variable(0, 7, 2)
    with pytest.raises(ModulusMismatch):
        Ideal([Poly.variable(0, 5, 2), Poly.variable(0, 7, 2)])


def test_grevlex_order():
    # degree-2 monomials in three variables, descending
    ranked = sorted(monomials(3, 2), key=grevlex_key, reverse=True)
    assert ranked == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_parse_format_round_trip():
    p = 32003
    for text in ("3*x0^2*x1 + 31999*x2 + 7", "x0*x1*x2*x3", "0 + x1^3 - x1^3"):
        f = parse_poly(text, p, 4)
        assert parse_poly(format_poly(f), p, 4) == f
    assert format_poly(Poly.zero(p, 4)) == "0"
    assert parse_poly("-x0 + x0", p, 4) == Poly.zero(p, 4)
    assert parse_poly("-x0", p, 4) == Poly.variable(0, p, 4).scale(-1)
    assert parse_poly("x0^2-x1", p, 4) == Poly.variable(0, p, 4, power=2) - Poly.variable(1, p, 4)


@st.composite
def polys(draw):
    p = draw(st.sampled_from([2, 7, 101, 32003]))
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3) | st.integers(0, _MAX_EXPONENT)] * nvars)
    return Poly(p, nvars, draw(st.dictionaries(exps, st.integers(-(10**6), 10**6), max_size=6)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(polys())
def test_parse_inverts_format(f):
    assert parse_poly(format_poly(f), f.p, f.nvars) == f


@pytest.mark.parametrize("text", ["x0^-1", "x0^+1", "x0^", "+", "-", "x0+", "x0++x1", "x1_0", "3_0*x0"])
def test_parse_poly_rejects_malformed(text):
    with pytest.raises(BadInput):
        parse_poly(text, 32003, 4)


def test_normal_form_examples():
    x0, x1 = V(0), V(1)
    assert not normal_form(x0, [x0])
    gb = Ideal([x0 * x0 - x1 * x1, x1 * x1 * x1]).groebner_basis()
    assert normal_form(x0 * x1, gb) == x0 * x1


def test_normal_form_multiplicative():
    rng = random.Random(42)
    p, nvars = 7, 3
    gens = [
        parse_poly("x0^2 + x1*x2", p, nvars),
        parse_poly("x1^2 + 3*x2^2", p, nvars),
    ]
    gb = Ideal(gens).groebner_basis()

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = tuple(rng.randrange(3) for _ in range(nvars))
            terms[e] = rng.randrange(p)
        return Poly(p, nvars, terms)

    for _ in range(60):
        f, g = rand_poly(), rand_poly()
        lhs = normal_form(f * g, gb)
        rhs = normal_form(normal_form(f, gb) * g, gb)
        assert lhs == rhs


def test_groebner_monomial_ideal_is_fixed():
    gb = Ideal([V(0), V(1)]).groebner_basis()
    assert [format_poly(g) for g in gb] == ["x0", "x1"]


def test_groebner_principal():
    f = parse_poly("2*x0^2 + 2*x1^2", 7, 4)
    gb = Ideal([f]).groebner_basis()
    assert len(gb) == 1 and gb[0].lead_coeff() == 1


def test_groebner_shuffle_invariance():
    rng = random.Random(43)
    p, nvars = 101, 3
    gens = [
        parse_poly("x0^2*x1 + x2^3", p, nvars),
        parse_poly("x1^2 + 5*x0*x2", p, nvars),
        parse_poly("x0*x1*x2 + x2^3 + 1", p, nvars),
    ]
    reference = groebner_basis(gens)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert groebner_basis(shuffled) == reference


def test_groebner_every_spair_reduces_to_zero():
    p, nvars = 7, 3
    gens = [
        parse_poly("x0^2 + x1*x2", p, nvars),
        parse_poly("x1^3 + x2^3", p, nvars),
        parse_poly("x0*x2^2 + x1^2*x2", p, nvars),
    ]
    gb = groebner_basis(gens)

    def spoly(f, g):
        # S(f, g) from public operations only: each lead is lifted to the lcm
        # of both, made monic, and the two cancel
        lcm = tuple(map(max, f.lead_exps(), g.lead_exps()))

        def monic_lift(h):
            shift = tuple(a - b for a, b in zip(lcm, h.lead_exps()))
            return Poly(p, nvars, {shift: pow(h.lead_coeff(), -1, p)}) * h

        return monic_lift(f) - monic_lift(g)

    for i in range(len(gb)):
        for j in range(i):
            assert not normal_form(spoly(gb[i], gb[j]), gb)


def test_groebner_against_macaulay_oracle():
    p, nvars = 7, 2
    gens = [parse_poly("x0^2", p, nvars), parse_poly("x0*x1 + x1^2", p, nvars)]
    gb = Ideal(gens).groebner_basis()
    leads = [g.lead_exps() for g in gb]
    for degree in range(1, 5):
        from_gb = {
            m
            for m in monomials(nvars, degree)
            if any(all(a <= b for a, b in zip(le, m)) for le in leads)
        }
        from_matrix = macaulay_lead_monomials(gens, p, nvars, degree, grevlex_key)
        assert from_gb == from_matrix, degree


def test_maximal_minors_examples():
    p, nvars = 32003, 4
    col = [
        [Poly.variable(0, p, nvars, power=2)],
        [Poly.variable(1, p, nvars, power=2)],
        [Poly.variable(2, p, nvars, power=2)],
        [Poly.variable(3, p, nvars)],
        [Poly.zero(p, nvars)],
    ]
    minors = maximal_minors(col, 1)
    assert [format_poly(f) for f in minors] == ["x0^2", "x1^2", "x2^2", "x3", "0"]

    diag = [
        [Poly.variable(0, p, nvars), Poly.zero(p, nvars)],
        [Poly.zero(p, nvars), Poly.variable(1, p, nvars)],
        [Poly.zero(p, nvars), Poly.zero(p, nvars)],
    ]
    minors2 = maximal_minors(diag, 2)
    assert format_poly(minors2[0]) == "x0*x1"
    assert not minors2[1] and not minors2[2]


def test_maximal_minors_shape_errors():
    p, nvars = 7, 2
    with pytest.raises(ShapeError):
        maximal_minors([[V(0, p, nvars)]], 2)
    with pytest.raises(ShapeError):
        maximal_minors([[V(0, p, nvars), V(1, p, nvars)]], 1)


def test_maximal_minors_against_leibniz():
    rng = random.Random(44)
    p, nvars = 5, 3
    for rows in (2, 3, 4, 5):
        for cols in (1, 2, 3):
            if rows < cols:
                continue
            matrix = [
                [
                    Poly(p, nvars, {tuple(rng.randrange(2) for _ in range(nvars)): rng.randrange(p)})
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
            got = maximal_minors(matrix, cols)
            want = leibniz_maximal_minors(matrix, cols, p, nvars)
            assert got == want, (rows, cols)
    for texts in (
        # several terms of different degrees in one column, and a constant entry
        [["x0^3 + x1 + 2", "x2"], ["3", "x0*x1 + x2^2 + 1"], ["x1^2*x2 + x0", "4*x1"]],
        # an all-zero column
        [["x0", "0"], ["x1^2 + x2", "0"], ["x2", "0"]],
        # column degrees summing to 7 and to 8: the packing's room, the sum, is 7 and 8, on either side of
        # the largest value a 3-bit field holds
        [["x0^4", "x1^3"], ["x2^4 + x1", "x0^3"]],
        [["x0^4", "x1^4"], ["x2^4 + x1", "x0^4"]],
        [["x0^3", "x1", "0"], ["x1^3", "x0^3", "x2"], ["x2", "x2^3", "x0^2"], ["1", "0", "x1^2"]],
    ):
        matrix = [[parse_poly(t, p, nvars) for t in row] for row in texts]
        cols = len(texts[0])
        assert maximal_minors(matrix, cols) == leibniz_maximal_minors(matrix, cols, p, nvars), texts


@pytest.mark.parametrize("powers,extra,want", [
    # (x0^2, x1^2, x2^2, x3) in four variables
    ([(0, 2), (1, 2), (2, 2), (3, 1)], [], True),
    # (x0^2, x3): misses x1, x2
    ([(0, 2), (3, 1)], [], False),
])
def test_m_primary_monomial_cases(powers, extra, want):
    p, nvars = 32003, 4
    gens = [Poly.variable(i, p, nvars, power=k) for i, k in powers]
    gens += [parse_poly(t, p, nvars) for t in extra]
    assert Ideal(gens).is_m_primary_or_unit() is want


def test_m_primary_unit_ideal():
    assert Ideal([Poly.const(1, 32003, 4)]).is_m_primary_or_unit() is True
    assert Ideal([], p=32003, nvars=4).is_m_primary_or_unit() is False


def test_m_primary_needs_homogeneous():
    with pytest.raises(ValueError):
        Ideal([parse_poly("x0^2 + x1", 7, 2)]).is_m_primary_or_unit()


def test_m_primary_mixed_generators():
    # two generic planes and three generic quadrics in four variables
    p, nvars = 32003, 4
    rng = random.Random(45)

    def rand_form(degree):
        return Poly(
            p, nvars, {e: rng.randrange(p) for e in monomials(nvars, degree)}
        )

    gens = [rand_form(1), rand_form(1), rand_form(2), rand_form(2), rand_form(2)]
    assert Ideal(gens).is_m_primary_or_unit() is True
    # dropping to three generators leaves a curve in projective 3-space
    assert Ideal(gens[:3]).is_m_primary_or_unit() is False


def _random_monomial_ideal(rng, nvars=4, max_gens=6, max_deg=4, p=32003):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        d = rng.randrange(1, max_deg + 1)
        picks = rng.choices(range(nvars), k=d)
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        gens.append(Poly(p, nvars, {tuple(e): 1}))
    return gens


def test_monomial_ideal_oracle_agreement():
    # purely combinatorial oracle: every variable has a pure power generator
    rng = random.Random(46)
    for _ in range(120):
        gens = _random_monomial_ideal(rng)
        supports = [[i for i, e in enumerate(next(iter(g.terms))) if e] for g in gens]
        pure = {s[0] for s in supports if len(s) == 1}
        want = pure == set(range(4))
        assert Ideal(gens).is_m_primary_or_unit() is want


def test_m_primary_agrees_with_quotient_dimension():
    # a homogeneous proper ideal is primary to the irrelevant ideal iff the
    # quotient ring vanishes in high degree; in three variables every
    # zero-dimensional case here has socle degree at most 6, so the slice
    # dimension at degree 9 decides
    rng = random.Random(47)
    p, nvars = 101, 3
    probe_degree = 9

    def rand_form(degree):
        terms = {}
        for e in monomials(nvars, degree):
            c = rng.randrange(p)
            if c:
                terms[e] = c
        return Poly(p, nvars, terms)

    cases = []
    for _ in range(8):
        gens = [rand_form(rng.randrange(1, 4)) for _ in range(rng.randrange(2, 6))]
        cases.append(gens)
    # deliberately positive-dimensional: too few generators to reach the origin
    cases.append([rand_form(2), rand_form(2)])
    cases.append([rand_form(1), rand_form(3)])
    for gens in cases:
        slice_rank = len(
            macaulay_lead_monomials(gens, p, nvars, probe_degree, grevlex_key)
        )
        full = len(list(monomials(nvars, probe_degree)))
        quotient_dim = full - slice_rank
        assert Ideal(gens).is_m_primary_or_unit() is (quotient_dim == 0)


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: Poly(1, 2), ValueError, "modulus must be an integer >= 2, got 1", id="modulus"),
    pytest.param(lambda: Poly(7, 0), ValueError, "need at least one variable, got 0", id="no-variable"),
    pytest.param(lambda: Poly(7, 2, {(1,): 1}), ValueError, "exponent tuple (1,) has wrong length", id="length"),
    pytest.param(lambda: Poly(7, 2, {(1, -1): 1}), ValueError, "exponent out of range in (1, -1)", id="negative"),
    pytest.param(lambda: Poly.zero(7, 2).lead_exps(), ValueError, "zero polynomial has no leading term", id="lead"),
    pytest.param(lambda: parse_poly("x0 + 1", 7, 2).homogeneous_degree(), ValueError,
                 "polynomial is zero or not homogeneous", id="mixed-degree"),
    pytest.param(lambda: parse_poly("x0^3000000000", 7, 2), BadInput, "exponent out of range in 'x0^3000000000'",
                 id="huge-exponent"),
    pytest.param(lambda: Ideal([]), ValueError, "an empty ideal needs explicit p and nvars", id="empty-ideal"),
    pytest.param(lambda: maximal_minors([[V(0, nvars=2), V(1, nvars=2)]], 2), ShapeError, "need at least 2 rows, got 1",
                 id="minors-short"),
    pytest.param(lambda: maximal_minors([[V(0, nvars=2)], [V(0, p=11, nvars=2)]], 1), ModulusMismatch,
                 "matrix entries live in different rings", id="minors-rings"),
    pytest.param(lambda: maximal_minors([], 0), ShapeError, "cannot take minors of a matrix with no entries",
                 id="minors-empty"),
])
def test_poly_refusals(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert info.type is error and str(info.value) == message
