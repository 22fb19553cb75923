"""The bundle test's exits that read the twists: the Buchsbaum-Rim Hilbert
function of the quotient by the rows that drives the Buchberger loop when
r = n, the exit before the loop when r < n, and the bound that keeps the
prediction off large inputs.

The prediction is checked against the Hilbert function of the leads of
``_oracles.tuple_module_groebner_basis``, and every verdict against
``_oracles.full_basis_m_primary`` on the maximal minors, which reads the
leads of the whole reduced basis of their ideal, and some against sympy.
"""

import random
import time
from itertools import combinations_with_replacement

import pytest

from pnbundles import bundles
from pnbundles.betti import BettiPair
from pnbundles.bundles import PresMatrix, explicit_matrix, random_matrix, random_minimal_map, verify_bundle
from pnbundles.poly import Ideal, Poly, maximal_minors, monomials

from _oracles import full_basis_m_primary, module_hilbert

P = 32003
predict = bundles._hilbert_prediction


def minors_of(m):
    return list(dict.fromkeys(f for f in maximal_minors(m.rows, m.pair.l) if f))


def top_degree(pair):
    a, b, n = pair.a.entries, pair.b.entries, pair.n
    return sum(a) + (n - 1) * max(a) - sum(b) - n


def admissible_r_equal_n():
    for n in (1, 2, 3):
        for l in (1, 2):
            for a in combinations_with_replacement(range(1, 5 - l), l):
                for b in combinations_with_replacement(range(2), l + n):
                    pair = BettiPair(n, a, b)
                    if pair.is_admissible():
                        yield pair


R_EQUAL_N = list(admissible_r_equal_n())


@pytest.mark.parametrize("pair", R_EQUAL_N, ids=str)
def test_prediction_is_the_hilbert_function_of_the_leads(pair):
    top = top_degree(pair)
    predicted = bundles._hilbert_prediction(pair, top)
    # Q starts with the e_j of the largest twist, its socle sits in degree top - 1, and h vanishes from top on
    assert list(predicted) == list(range(-max(pair.a), top + 1))
    assert predicted[-max(pair.a)] == pair.a.count(max(pair.a)) and predicted[top - 1] > 0 and predicted[top] == 0
    seeds = [("explicit", explicit_matrix(pair, P))] + [(s, random_matrix(pair, P, s)) for s in (1, 2)]
    for seed, m in seeds:
        if full_basis_m_primary(minors_of(m), pair.n + 1):
            got = module_hilbert(m.rows, pair.a.entries, pair.n + 1, P, list(predicted))
            assert got == list(predicted.values()), seed


def random_r_equal_n_matrix(rng):
    """A matrix with r = n <= 3 and l <= 3 of small twists, admissible or
    not: some entries zeroed, constants in degree 0, sparse entries, and in
    a third of the draws every entry vanishing at a hidden point."""
    n, l = rng.randint(1, 3), rng.randint(1, 3)
    p = rng.choice((7, 101, P))
    a = sorted(rng.randint(1, 4 - l) for _ in range(l))
    b = sorted(rng.randint(0, 1) for _ in range(l + n))
    point = [rng.randrange(1, p) for _ in range(n + 1)] if rng.randrange(3) == 0 else None
    sparse = rng.randrange(2) == 0
    rows = []
    for bi in b:
        row = []
        for aj in a:
            d = aj - bi
            terms = {}
            if d >= 0 and rng.random() > 0.1 and not (point and d == 0):
                mons = list(monomials(n + 1, d))
                for e in rng.sample(mons, min(len(mons), 2)) if sparse else mons:
                    terms[e] = rng.randrange(p)
                if point and d > 0:
                    value = sum(c * prod_pow(point, e, p) for e, c in terms.items())
                    pure = (d,) + (0,) * n
                    terms[pure] = (terms.get(pure, 0) - value * pow(point[0], -d, p)) % p
            row.append(Poly(p, n + 1, terms))
        rows.append(row)
    return PresMatrix(BettiPair(n, a, b), p, rows)


def prod_pow(point, e, p):
    out = 1
    for x, k in zip(point, e):
        out = out * pow(x, k, p) % p
    return out


def test_r_equal_n_verdicts_match_the_full_basis_scan(monkeypatch):
    predictions, loops, loop = [], [], bundles._buchberger
    monkeypatch.setattr(bundles, "_hilbert_prediction", lambda *args: predictions.append(args) or predict(*args))
    monkeypatch.setattr(bundles, "_buchberger", lambda *args: loops.append(args[5] is not None) or loop(*args))
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(400):
        m = random_r_equal_n_matrix(rng)
        want = full_basis_m_primary(minors_of(m), m.pair.n + 1)
        assert verify_bundle(m) is want, m.to_json()
        verdicts.append((want, m.pair.is_admissible(), m.is_minimal))
    # both answers, on admissible and other pairs, minimal and not
    assert {v[0] for v in verdicts} == {True, False}
    assert {v[1] for v in verdicts} == {True, False} and {v[2] for v in verdicts} == {True, False}
    assert (True, False, True) not in verdicts  # a minimal matrix of a non-admissible pair is never a bundle
    # every matrix that reaches the loop gets the prediction, since zero rows only lower r and r < n exits before it;
    # over half of the 400 compute it, the rest being answered by a split, a zero column or r < n, or by their rows
    assert loops and all(loops) and len(predictions) > 200


def test_r_equal_n_verdicts_match_sympy():
    pytest.importorskip("sympy")
    from test_poly_cross import sympy_m_primary

    rng = random.Random(17)
    matrices = [m for m in (random_r_equal_n_matrix(rng) for _ in range(16)) if m.pair.n * m.pair.l <= 4]
    verdicts = [verify_bundle(m) for m in matrices]
    assert verdicts == [sympy_m_primary(m) for m in matrices]
    assert True in verdicts and False in verdicts


def random_r_below_n_matrix(rng):
    n = rng.randint(2, 3)
    r, l = rng.randint(1, n - 1), rng.randint(1, 2)
    a = sorted(rng.randint(0, 2) for _ in range(l))
    b = sorted(rng.randint(0, 1) for _ in range(l + r))
    rows = [
        [Poly(P, n + 1, {e: rng.randrange(3) for e in monomials(n + 1, aj - bi)}) for aj in a]
        for bi in b
    ]
    return PresMatrix(BettiPair(n, a, b), P, rows)


def test_r_below_n_verdicts_match_the_loop():
    rng = random.Random(5)
    answers = []
    for _ in range(60):
        m = random_r_below_n_matrix(rng)
        want = Ideal(minors_of(m), p=P, nvars=m.pair.n + 1).is_m_primary_or_unit()
        assert verify_bundle(m) is want, m.to_json()
        answers.append(want)
    assert True in answers and False in answers  # constant minors happen


def refuse(*args):
    raise AssertionError("not to be called here")


def test_r_below_n_without_a_degree_zero_minor_takes_no_minor(monkeypatch):
    # four random linear forms over P^1000: the minimal matrix has r = 3 < n, answered before the loop
    m = random_minimal_map(BettiPair(1000, (1,), (0, 0, 0, 0)), P, 1)
    monkeypatch.setattr(bundles, "_buchberger", refuse)
    assert verify_bundle(m) is False


def squares_and_a_product(n):
    """The r = n column x_0^2, ..., x_(n-1)^2, x_0*x_n over P^n, which
    vanishes at the point x_n = 1."""
    rows = [[Poly.variable(i, P, n + 1, 2)] for i in range(n)]
    rows.append([Poly(P, n + 1, {(1,) + (0,) * (n - 1) + (1,): 1})])
    return PresMatrix(BettiPair(n, (2,), (0,) * (n + 1)), P, rows)


def test_large_n_takes_the_plain_path(monkeypatch):
    # top = 60 over P^60: degree top + max a = 62 has C(122, 60) monomials
    monkeypatch.setattr(bundles, "_hilbert_prediction", refuse)
    assert verify_bundle(squares_and_a_product(60)) is False


def test_large_n_costs_what_the_support_costs():
    # only x_0^2 and x_0*x_n share a variable, so one pair of the n(n+1)/2 is
    # made; making the coprime ones too takes minutes
    m = squares_and_a_product(bundles.MAX_N)
    start = time.perf_counter()
    assert verify_bundle(m) is False
    assert time.perf_counter() - start < 10


def test_dependent_minors_reduce_to_zero_as_they_join():
    # 6,435 minors, all binary septics: a space of dimension 8, so all but a
    # few reduce to zero by the elements before them instead of making pairs
    m = random_minimal_map(BettiPair(1, [1] * 7, [0] * 15), P, 1)
    start = time.perf_counter()
    assert Ideal(maximal_minors(m.rows, 7)).is_m_primary_or_unit() is True
    assert time.perf_counter() - start < 10
    assert verify_bundle(m) is True
    # the minors of rows 0-6 and 8-14 generate an m-primary ideal J; I contains J, so I is m-primary too
    some = [maximal_minors(m.rows[k : k + 7], 7)[0] for k in (0, 8)]
    assert full_basis_m_primary(some, 2) is True


def test_no_prediction_when_a_generator_certifies(monkeypatch):
    # two units split off every column; the minors x0, x1, x2 of a minimal
    # column are pure powers of every variable, so their leads decide at once
    one, zero = Poly.const(1, P, 3), Poly.zero(P, 3)
    x = [Poly.variable(i, P, 3) for i in range(3)]
    m = PresMatrix(BettiPair(2, (1, 1), (0, 0, 1, 1)), P, [x[:2], x[1:], [one, zero], [zero, one]])
    monkeypatch.setattr(bundles, "_hilbert_prediction", refuse)
    assert verify_bundle(m) is True
    assert verify_bundle(explicit_matrix(BettiPair(2, (1,), (0, 0, 0)), P)) is True
