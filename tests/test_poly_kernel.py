"""The packed division kernel against the tuple kernel it replaced, and the
m-primary test against the full-basis scan it replaced.

``_oracles`` keeps the earlier kernel on exponent tuples, with the same pair
selection, criteria and division rule.  Equal reduced bases, remainders and
products, on the minor ideals the bundle test meets and on random ideals,
show that packing changed nothing but speed; the inputs at the width limit
show that no field carries into the next.  The m-primary test stops at its
first certificate, and ``_oracles`` keeps the test that read the leads of the
whole reduced basis.
"""

import os
import random
import sys
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnbundles import poly
from pnbundles.betti import BettiPair
from pnbundles.bundles import PresMatrix, deform_family, random_minimal_map, verify_bundle
from pnbundles.poly import (
    _MAX_EXPONENT,
    Ideal,
    Poly,
    format_poly,
    groebner_basis,
    maximal_minors,
    monomials,
    normal_form,
    parse_poly,
)

from _oracles import (
    full_basis_m_primary,
    module_hilbert,
    module_leads,
    tuple_groebner_basis,
    tuple_normal_form,
    tuple_product,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from workloads import BUNDLE_SHAPES, DEGENERATE_SHAPES, FAMILIES  # noqa: E402

# the (a, b) shapes, all over P^3, of the benchmark's check-bundles and
# check-degenerate documents
SHAPES = [
    ((1, 2), (0, 0, 0, 0, 0)),
    ((2, 2), (0, 0, 0, 1, 1)),
    ((1, 1, 1), (0, 0, 0, 0, 0, 0)),
    ((1, 3), (0, 0, 0, 0, 1)),
    ((2, 2), (0, 0, 0, 0, 0)),
    ((2, 3), (0, 0, 0, 0, 1, 1)),
    ((2, 2, 3), (0, 0, 0, 0, 2, 3)),
    ((2, 3), (0, 0, 0, 0, 3)),
    ((2, 3), (0, 0, 0, 1, 3)),
]


def assert_same_as_tuple_kernel(gens, probe):
    assert gens[0] * gens[-1] == tuple_product(gens[0], gens[-1])
    basis = groebner_basis(gens)
    assert [format_poly(g) for g in basis] == [format_poly(g) for g in tuple_groebner_basis(gens)]
    # division by the generators depends on their order; by the basis it does not
    for divisors in (gens, basis):
        assert normal_form(probe, divisors) == tuple_normal_form(probe, divisors)


@pytest.mark.parametrize("a,b", SHAPES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packed_kernel_matches_tuple_kernel_on_minor_ideals(a, b, seed):
    m = random_minimal_map(BettiPair(3, a, b), 32003, seed)
    minors = list(dict.fromkeys(f for f in maximal_minors(m.rows, len(a)) if f))
    linear = parse_poly("x0 + 2*x1 + 3*x2 + 4*x3", 32003, 4)
    power = Poly.const(1, 32003, 4)
    for _ in range(minors[0].degree()):
        power = power * linear
    # a member of the ideal plus a generic form of the minors' degree, which is not
    assert_same_as_tuple_kernel(minors, minors[0] * minors[-1] + power)


@st.composite
def ideals(draw):
    p = draw(st.sampled_from([7, 101, 32003]))
    nvars = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    polys = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4).map(lambda t: Poly(p, nvars, t))
    return draw(st.lists(polys, min_size=1, max_size=3)), draw(polys)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ideals())
def test_packed_kernel_matches_tuple_kernel_on_random_ideals(case):
    assert_same_as_tuple_kernel(*case)


@pytest.mark.parametrize("gens,probe", [
    (["x0^5000 - x1^5000", "x0^4999*x1 - x2^5000"], "x0^4999*x2^5001 + x1^2"),
    (["x0^3000*x1 + x2^3001", "x1^2 + x0*x2"], "x0^6000*x1*x2 + x1*x2^3000"),
    ([f"x0^{_MAX_EXPONENT}", f"x1^{_MAX_EXPONENT}"], f"x0^{_MAX_EXPONENT - 1}*x2^{_MAX_EXPONENT} + x1^{_MAX_EXPONENT}"),
])
def test_packed_kernel_at_the_width_limit(gens, probe):
    # degrees far past any fixed narrow field width: the width follows the input
    p = 32003
    assert_same_as_tuple_kernel([parse_poly(g, p, 3) for g in gens], parse_poly(probe, p, 3))


def random_term(pk, twists, j, rng):
    """A packed term at e_j that the packing holds: deg m - a_j + max a <= cap.
    In a third of the draws it is one variable at the largest power held,
    which is cap when a_j = max a."""
    room = pk.cap - pk.lift + twists[j]
    exps = [0] * len(pk._shifts)
    if rng.randrange(3) == 0:
        exps[rng.randrange(len(exps))] = room
    else:
        for _ in range(rng.randint(0, min(room, 60))):
            exps[rng.randrange(len(exps))] += 1
    return pk.pack(tuple(exps)) + pk.at[j]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("positions", [1, 2, 3])
def test_packed_lcm_matches_the_tuple_lcm(nvars, positions):
    # the lcm of two held terms may pass cap, up to 2 cap: no field carries, and the top field gives its twisted degree
    rng = random.Random(10 * nvars + positions)
    past_cap = 0
    for degree in (1, 2, 7, 40, 1000, _MAX_EXPONENT):
        twists = tuple(sorted(rng.randint(0, 3) for _ in range(positions)))
        pk = poly._Packing(nvars, degree + max(twists), twists)
        for _ in range(100):
            j = rng.randrange(positions)
            f, g = random_term(pk, twists, j, rng), random_term(pk, twists, j, rng)
            exps = tuple(map(max, pk.unpack(f), pk.unpack(g)))
            lcm = pk.lcm(f, g, j)
            assert lcm == pk.pack(exps) + pk.at[j]
            assert (lcm >> pk.top) - pk.lift == sum(exps) - twists[j]
            past_cap += sum(exps) > pk.cap
    assert past_cap > 0 or nvars == 1


@pytest.mark.parametrize("a,b", SHAPES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_m_primary_test_matches_full_basis_scan_on_minor_ideals(a, b, seed):
    m = random_minimal_map(BettiPair(3, a, b), 32003, seed)
    minors = list(dict.fromkeys(f for f in maximal_minors(m.rows, len(a)) if f))
    assert Ideal(minors).is_m_primary_or_unit() is full_basis_m_primary(minors, 4)


@st.composite
def homogeneous_ideals(draw):
    p = draw(st.sampled_from([7, 101, 32003]))
    nvars = draw(st.integers(2, 4))

    def forms(degree):
        terms = st.dictionaries(st.sampled_from(list(monomials(nvars, degree))), st.integers(1, p - 1), min_size=1, max_size=3)
        return terms.map(lambda t: Poly(p, nvars, t))

    # no constants, which would make most answers True at once; about a
    # quarter of the drawn ideals are m-primary
    return Ideal(draw(st.lists(st.integers(1, 3).flatmap(forms), min_size=1, max_size=5)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(homogeneous_ideals())
def test_m_primary_test_matches_full_basis_scan_on_random_ideals(ideal):
    assert ideal.is_m_primary_or_unit() is full_basis_m_primary(ideal.gens, ideal.nvars)


def with_redundant_generators(f, g, *rest):
    """f, g and the rest, with a zero, f again and 2f + 5g among them."""
    zero = Poly.zero(f.p, f.nvars)
    return [f, zero, g, f, f.scale(2) + g.scale(5), *rest]


def three_vars(*texts):
    return [parse_poly(t, 32003, 3) for t in texts]


@pytest.mark.parametrize("gens,want", [
    (with_redundant_generators(*three_vars("x0^2 + x1*x2", "x1^2 - x0*x2", "x2^2 + 3*x0*x1")), True),
    (with_redundant_generators(*three_vars("x0*x1 + x0*x2", "x0^2 - 2*x0*x2", "x0*x2^2")), False),  # all vanish on x0 = 0
    (three_vars("0", "0"), False),
], ids=["m-primary", "not-m-primary", "all-zero"])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_zero_repeated_and_dependent_generators_join_as_they_come(gens, want, order):
    # each generator joins reduced by the elements before it, so none of
    # these needs filtering: a zero, a repeat or a combination joins nothing
    gens = gens[::order]
    basis = groebner_basis(gens)
    assert [format_poly(g) for g in basis] == [format_poly(g) for g in tuple_groebner_basis(gens)]
    assert Ideal(gens).is_m_primary_or_unit() is want is full_basis_m_primary(gens, 3)
    if not any(gens):
        assert basis == []


def record_caps(monkeypatch) -> list:
    """The cap of every packing made from now on, in order."""
    caps = []

    class Recording(poly._Packing):
        def __init__(self, *args):
            super().__init__(*args)
            caps.append(self.cap)

    monkeypatch.setattr(poly, "_Packing", Recording)
    return caps


def test_packing_widens_while_pairs_are_pending(monkeypatch):
    # the generators and their pairs' lcms, of degree up to 6, pack with
    # cap 7; a later basis element makes a pair of degree 8 with a lead that
    # shares a variable with its own, so it needs cap 15, and seven pairs
    # wait on the heap then
    caps = record_caps(monkeypatch)
    gens = [parse_poly(g, 32003, 3) for g in ["x1^3 - x0^2*x1", "x2^3 - x0*x1^2", "x0^3 - x0*x1*x2"]]
    basis = groebner_basis(gens)
    assert caps == [7, 15]
    assert [format_poly(g) for g in basis] == [format_poly(g) for g in tuple_groebner_basis(gens)]
    assert Ideal(gens).is_m_primary_or_unit() is full_basis_m_primary(gens, 3) is False


def test_first_packing_holds_the_lcm_of_any_two_generators(monkeypatch):
    caps = record_caps(monkeypatch)
    basis = groebner_basis([parse_poly("x0^2", 32003, 2), parse_poly("x1^2", 32003, 2)])
    assert caps == [7]  # twice the generators' degree 2: no widening at the first pair
    assert [format_poly(g) for g in basis] == ["x0^2", "x1^2"]


@pytest.mark.parametrize("a,b", [SHAPES[0], SHAPES[2]])
def test_minors_pack_once_and_build_one_poly_per_minor(monkeypatch, a, b):
    m = random_minimal_map(BettiPair(3, a, b), 32003, 1)
    caps, polys = record_caps(monkeypatch), []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args: polys.append(self) or init(self, *args))
    minors = maximal_minors(m.rows, len(a))
    assert len(caps) == 1
    assert polys == minors and len(minors) > 1


@pytest.mark.parametrize("a,b", SHAPES)
def test_verify_bundle_packs_its_rows_once_and_builds_no_poly(monkeypatch, a, b):
    # the loop takes the matrix and packs its rows once; only a widening packs again, and wider
    m = random_minimal_map(BettiPair(3, a, b), 32003, 1)
    caps, polys, packs, pack_rows = record_caps(monkeypatch), [], [], poly._pack_rows
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args: polys.append(self) or init(self, *args))
    monkeypatch.setattr(poly, "_pack_rows", lambda *args: packs.append(args) or pack_rows(*args))
    verify_bundle(m)
    assert polys == [] and len(packs) == min(len(caps), 1)  # no packing when the answer comes before the loop
    assert all(old < new for old, new in zip(caps, caps[1:]))


def bench_documents(shapes, seed):
    """The matrices of the benchmark's check documents at a seed."""
    rng = random.Random(seed)
    return [PresMatrix.from_json(make(n, a, b, rng)[0]) for make, n, a, b in shapes]


def family_matrices(family, seed, samples=3):
    """psi of a benchmark deform family, and its fibers at a few drawn t."""
    n, sa, sb, ba, bb = family
    fam, rng = deform_family(BettiPair(n, sa, sb), BettiPair(n, ba, bb), 32003, seed), random.Random(seed)
    return [fam.psi] + [fam.at(1 + rng.randrange(32002)) for _ in range(samples)]


def test_no_pair_above_the_prediction_widens_the_packing(monkeypatch):
    # the benchmark's check-bundles documents, and psi and fibers of its heavy deform family (1,3; 0^4,1), at seeds
    # 1-3: no pair lies above the prediction's last degree plus one, and the first packing holds that degree
    for seed in (1, 2, 3):
        for m in bench_documents(BUNDLE_SHAPES, seed) + family_matrices(FAMILIES[0], seed):
            caps = record_caps(monkeypatch)
            assert verify_bundle(m) is True
            assert len(caps) == 1


def reduce_twice(monkeypatch) -> list:
    """From now on each call of ``poly._reduce`` also reduces a copy of its
    work with no standard terms, and checks that the remainders agree; the
    list gets, per call, the size of the remainder when standard terms were
    given (each one a term that skipped the scan), else None."""
    reduce, calls = poly._reduce, []

    def checked(work, records, p, guard, keys=None, std=()):
        plain = reduce(dict(work), records, p, guard, None if keys is None else list(keys))
        got = reduce(work, records, p, guard, keys, std)
        assert got == plain and (not std or set(got) <= std)
        calls.append(len(got) if std else None)
        return got

    monkeypatch.setattr(poly, "_reduce", checked)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_standard_terms_change_no_remainder_on_the_bench_shapes(monkeypatch, seed):
    calls = reduce_twice(monkeypatch)
    for a, b in SHAPES:
        verify_bundle(random_minimal_map(BettiPair(3, a, b), 32003, seed))
    assert any(calls)  # some terms skipped the scan


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_standard_terms_change_no_remainder_on_the_deform_families(monkeypatch, seed):
    calls = reduce_twice(monkeypatch)
    for family in FAMILIES:
        for m in family_matrices(family, seed):
            verify_bundle(m)
    assert any(calls)  # some terms skipped the scan


def test_reduction_counts_on_the_heavy_shape(monkeypatch):
    # (1,3; 0^4,1) and its four cubics: as many reductions as the loop took before standard terms skipped the scan
    cubics, disguised = family_matrices(FAMILIES[0], 1)[1:], bench_documents(BUNDLE_SHAPES[:4], 1)[3]
    hidden = bench_documents(DEGENERATE_SHAPES[:2], 1)[1]
    calls, counts = reduce_twice(monkeypatch), []
    for m, want in [(m, True) for m in cubics] + [(disguised, True), (hidden, False)]:
        assert verify_bundle(m) is want
        counts.append(len(calls))
        calls.clear()
    assert counts == [29, 29, 29, 42, 26]


def engine_leads(rows, twists, nvars):
    """The leads (j, exps) of a minimal Groebner basis from the loop taken to the end."""
    G, pk = poly._buchberger(rows, twists, 32003, nvars, False)
    leads = {(pk.position(g), pk.unpack(g)) for g, _ in G}
    return {(j, e) for j, e in leads if not any(k == j and f != e and all(map(le, f, e)) for k, f in leads)}


def three_vars_rows(*rows):
    return [[parse_poly(t, 32003, 3) for t in row] for row in rows]


@pytest.mark.parametrize("rows,twists", [
    # x0*e0 and x1*e0 + e1 have coprime leads, but their S-polynomial -x0*e1 does not reduce to zero
    (three_vars_rows(["x0", "0"], ["x1", "1"]), (0, 1)),
    (random_minimal_map(BettiPair(3, (1, 1, 1), (0,) * 6), 32003, 1).rows, (1, 1, 1)),
    (random_minimal_map(BettiPair(3, (2, 2), (0, 0, 0, 1, 1)), 32003, 2).rows, (2, 2)),
    (random_minimal_map(BettiPair(2, (2, 2), (0, 0, 0, 1, 1)), 32003, 3).rows, (2, 2)),  # not a bundle: a_2 <= b_4
])
def test_module_leads_match_the_tuple_oracle(rows, twists):
    # with equal twists, or degrees that agree with them here, the loop's order is the oracle's:
    # grevlex, then the position
    nvars = rows[0][0].nvars
    assert engine_leads(rows, twists, nvars) == module_leads(rows, 32003)
    if twists == (0, 1):
        assert (1, (1, 0, 0)) in module_leads(rows, 32003)


@pytest.mark.parametrize("a,b", SHAPES[:6])
def test_module_hilbert_function_matches_the_tuple_oracle(a, b):
    # any order gives the leads of a homogeneous module the Hilbert function of its quotient; on these bundles
    # it vanishes from degree sum(a) + 2 max(a) - sum(b) - 3 on
    m = random_minimal_map(BettiPair(3, a, b), 32003, 1)
    degrees = range(-max(a), sum(a) + 2 * max(a) - sum(b) - 2)
    leads = engine_leads(m.rows, a, 4)
    counts = [
        sum(not any(k == j and all(map(le, e, x)) for k, e in leads)
            for j, aj in enumerate(a) for x in monomials(4, t + aj))
        for t in degrees
    ]
    assert counts == module_hilbert(m.rows, a, 4, 32003, degrees) and counts[-1] == 0


def test_no_reduction_before_a_certificate(monkeypatch):
    calls = []
    reduce = poly._reduce
    monkeypatch.setattr(poly, "_reduce", lambda *args: calls.append(args) or reduce(*args))

    def P(text):
        return parse_poly(text, 32003, 4)

    pending = Ideal([P("x0^2 + x1*x2"), P("x0*x1 + x2^2")])
    assert not calls  # constructing an ideal computes nothing
    # the generators are a certificate: pure powers of all four variables
    assert Ideal([P("x0^2"), P("x1"), P("x2^3"), P("x3"), P("x0*x2 + x1*x3")]).is_m_primary_or_unit() is True
    assert not calls
    # the minor 1 is a certificate before any pair is formed
    unit = PresMatrix(BettiPair(3, [0], [-1, -1, -1, 0]), 32003, [[P("x0")], [P("x1")], [P("x2")], [P("1")]])
    assert verify_bundle(unit) is True
    assert not calls
    pending.groebner_basis()
    assert calls  # the counter sees the reductions of a basis that needs them
