"""Presentation matrices: construction, verification, minimization, families."""

import random
import time
from fractions import Fraction

import pytest

from pnbundles import bundles
from pnbundles.betti import BettiPair, generalizes
from pnbundles.bundles import (
    PresMatrix,
    deform_family,
    explicit_matrix,
    minimize_presentation,
    random_matrix,
    random_minimal_map,
    slope_and_semistability,
    split_bound,
    verify_bundle,
)
from pnbundles.errors import (
    BadInput,
    EmptyA,
    ModulusMismatch,
    NotABundle,
    NotAdmissible,
    NotGeneralization,
    ShapeError,
)
from pnbundles.hilbert import hilbert_of_betti
from pnbundles.poly import Poly, format_poly, monomials, parse_poly
from pnbundles.seqs import IntSeq

from _oracles import full_basis_m_primary, fp_rank, leibniz_maximal_minors, module_hilbert

P = 32003


def test_explicit_matrix_golden_column():
    pair = BettiPair(3, [2], [0, 0, 0, 1, 1])
    m = explicit_matrix(pair, P)
    col = [format_poly(m.entry(i, 0)) for i in range(5)]
    assert col == ["x0^2", "x1^2", "x2^2", "x3", "0"]
    assert m.is_minimal
    assert verify_bundle(m)


def test_explicit_matrix_two_columns():
    pair = BettiPair(3, [2, 2], [0, 0, 0, 0, 1, 1])
    m = explicit_matrix(pair, P)
    assert verify_bundle(m)
    # every placed exponent is positive
    for i in range(6):
        for j in range(2):
            e = m.entry(i, j)
            if e:
                assert e.homogeneous_degree() >= 1


def test_explicit_matrix_errors():
    with pytest.raises(NotAdmissible):
        explicit_matrix(BettiPair(3, [1], [0, 0, 0, 1]), P)
    with pytest.raises(EmptyA):
        explicit_matrix(BettiPair(3, [], [0, 0, 0, 0]), P)


def test_random_matrix_zero_positions_and_determinism():
    pair = BettiPair(3, [0, 1], [0, -1, -1, -1, -1, 1])
    # degree <= 0 slots are zero: a_1 = 0 against b = 0 and 1
    m1 = random_matrix(pair, P, seed=5)
    m2 = random_matrix(pair, P, seed=5)
    m3 = random_matrix(pair, P, seed=6)
    assert m1 == m2
    assert m1 != m3
    b = pair.b.entries
    a = pair.a.entries
    for i in range(6):
        for j in range(2):
            if a[j] - b[i] <= 0:
                assert not m1.entry(i, j)
    with pytest.raises(NotAdmissible):
        random_matrix(BettiPair(3, [1], [0, 0, 0, 1]), P, seed=1)


def test_random_minimal_map_bounds_its_draws(monkeypatch):
    # (1, 3; 0^4, 1) has 4 * C(4, 3) + 4 * C(6, 3) + C(5, 3) = 106 monomials in its entries
    pair = BettiPair(3, [1, 3], [0, 0, 0, 0, 1])
    monkeypatch.setattr(bundles, "MAX_MONOMIALS", 106)
    assert random_minimal_map(pair, P, seed=1) == random_matrix(pair, P, seed=1)
    monkeypatch.setattr(bundles, "MAX_MONOMIALS", 105)
    with pytest.raises(BadInput, match="105"):
        random_minimal_map(pair, P, seed=1)
    monkeypatch.undo()
    # 4 * C(10^18 + 3, 3) monomials: refused without computing the binomial
    with pytest.raises(BadInput, match=str(bundles.MAX_MONOMIALS)):
        random_minimal_map(BettiPair(3, [10**18], [0, 0, 0, 0]), P, seed=1)


def test_verify_bundle_counterexample():
    doc = {
        "n": 3,
        "p": P,
        "a": [2],
        "b": [0, 0, 0, 1, 1],
        "entries": [["x0^2"], ["0"], ["0"], ["x3"], ["0"]],
    }
    assert verify_bundle(PresMatrix.from_json(doc)) is False


def test_verify_bundle_zero_block_failures():
    # any minimal matrix of a shape violating a_i > b_{n+i} carries the
    # forced zero block and cannot present a bundle
    rng = random.Random(51)
    shapes = [
        BettiPair(3, [1], [0, 0, 0, 1]),
        BettiPair(3, [0], [0, 0, 0, 0]),
        BettiPair(2, [1, 1], [0, 0, 1, 1, 2]),
        BettiPair(3, [1, 2], [0, 0, 0, 1, 2, 2]),
    ]
    for pair in shapes:
        assert not pair.is_admissible()
        for _ in range(3):
            m = random_minimal_map(pair, P, rng.getrandbits(32))
            assert m.is_minimal
            assert verify_bundle(m) is False


def disguised(m, rng):
    """m under random graded row and column operations, which keep its cokernel."""
    a, b, rows = m.pair.a.entries, m.pair.b.entries, [list(row) for row in m.rows]

    def form(d):
        return Poly(m.p, m.pair.n + 1, {e: rng.randrange(m.p) for e in monomials(m.pair.n + 1, d)})

    # row i += f * row k with deg f = b_k - b_i, then column j += g * column k with deg g = a_j - a_k
    for _ in range(4):
        i, k = rng.sample(range(len(b)), 2)
        if b[k] >= b[i]:
            f = form(b[k] - b[i])
            rows[i] = [e + f * ek for e, ek in zip(rows[i], rows[k])]
        if len(a) > 1:
            j, k = rng.sample(range(len(a)), 2)
            if a[j] >= a[k]:
                g = form(a[j] - a[k])
                for row in rows:
                    row[j] = row[j] + g * row[k]
    return PresMatrix(m.pair, m.p, rows)


def vanishing_at_a_point(m, rng):
    """m with every entry of positive degree d moved by a multiple of x_0^d
    so that it vanishes at a random point with x_0 = 1: not a bundle."""
    n, p = m.pair.n, m.p
    point = [1] + [rng.randrange(p) for _ in range(n)]

    def at_point(f):
        total = 0
        for e, c in f.terms.items():
            for x, k in zip(point, e):
                c = c * pow(x, k, p) % p
            total += c
        return total

    return PresMatrix(m.pair, p, [[e - Poly.const(at_point(e), p, n + 1) * Poly.variable(0, p, n + 1, e.degree())
                                   if e.degree() > 0 else e for e in row] for row in m.rows])


def test_verify_bundle_matches_the_minors_oracle():
    # the module loop against the maximal minors by the permutation sum and the leads of their whole reduced basis
    from test_prediction import random_r_below_n_matrix, random_r_equal_n_matrix

    rng = random.Random(2026)

    def n_plus_one():  # a pair with r = n + 1 <= 4 and l <= 2, admissible or not
        n, l = rng.randint(1, 3), rng.randint(1, 2)
        a, b = (sorted(rng.randint(lo, lo + 1) for _ in range(k)) for lo, k in ((1, l), (0, l + n + 1)))
        return BettiPair(n, a, b)

    admissible = []
    while len(admissible) < 10:
        pair = n_plus_one()
        if pair.is_admissible():
            admissible.append(pair)
    families = {
        "r < n": [random_r_below_n_matrix(rng) for _ in range(20)],
        "r = n": [random_r_equal_n_matrix(rng) for _ in range(40)],
        "r = n + 1": [random_minimal_map(n_plus_one(), P, rng.getrandbits(32)) for _ in range(20)],
        "disguised": [disguised(explicit_matrix(pair, P), rng) for pair in admissible],
        "hidden point": [vanishing_at_a_point(random_minimal_map(p, P, rng.getrandbits(32)), rng) for p in admissible],
    }
    verdicts = {}
    for family, matrices in families.items():
        for m in matrices:
            minors = leibniz_maximal_minors(m.rows, m.pair.l, m.p, m.pair.n + 1)
            want = full_basis_m_primary([f for f in minors if f], m.pair.n + 1)
            assert verify_bundle(m) is want, (family, m.to_json())
            verdicts.setdefault(family, set()).add(want)
    assert verdicts == {"r < n": {True, False}, "r = n": {True, False}, "r = n + 1": {True, False},
                        "disguised": {True}, "hidden point": {False}}


def test_verify_bundle_answers_zero_rows_and_columns_before_the_loop(monkeypatch):
    monkeypatch.setattr(bundles, "_buchberger", lambda *args: pytest.fail("the loop ran"))
    # the counterexample: three of its five rows are zero, which leaves r = 1 < n = 3
    m = PresMatrix.from_json({
        "n": 3, "p": P, "a": [2], "b": [0, 0, 0, 1, 1], "entries": [["x0^2"], ["0"], ["0"], ["x3"], ["0"]],
    })
    assert verify_bundle(m) is False
    assert verify_bundle(PresMatrix(BettiPair(5, [1], [0] * 5), P, [[Poly.zero(P, 6)]] * 5)) is False
    # r = n = 1 and no zero row, but a zero column: the quotient has a free summand
    x0, x1, zero = Poly.variable(0, P, 2), Poly.variable(1, P, 2), Poly.zero(P, 2)
    rows = [[x0, zero], [x1, zero], [x0 + x1, zero]]
    assert verify_bundle(PresMatrix(BettiPair(1, [1, 1], [0, 0, 0]), P, rows)) is False


def test_verify_bundle_drops_the_zero_rows_of_the_minimal_part(monkeypatch):
    # the counterexample plus a unit summand: its minimal part is the
    # counterexample, which is answered before the loop
    zero, one = Poly.zero(P, 4), Poly.const(1, P, 4)
    column = [Poly.variable(0, P, 4, 2), zero, zero, Poly.variable(3, P, 4), zero]
    m = PresMatrix(BettiPair(3, [1, 2], [0, 0, 0, 1, 1, 1]), P, [[zero, e] for e in column] + [[one, zero]])
    loop = bundles._buchberger
    monkeypatch.setattr(bundles, "_buchberger", lambda *args: pytest.fail("the loop ran"))
    assert verify_bundle(m) is False
    # over P^1 the zero row leaves r = n, where the prediction drives the loop: x0^2 + x1^2 and x0*x1 certify no
    # variable by their leads, and cut out only the origin
    predictions, predict = [], bundles._hilbert_prediction
    monkeypatch.setattr(bundles, "_buchberger", loop)
    monkeypatch.setattr(bundles, "_hilbert_prediction", lambda *args: predictions.append(args) or predict(*args))
    rows = [[parse_poly(t, P, 2)] for t in ("x0^2 + x1^2", "x0*x1", "0")]
    assert verify_bundle(PresMatrix(BettiPair(1, [2], [0, 0, 0]), P, rows)) is True
    assert [pair for pair, _ in predictions] == [BettiPair(1, [2], [0, 0])]


def test_is_minimal_reads_the_entry_degrees():
    # the definition: no nonzero entry of degree 0
    rng = random.Random(22)
    verdicts = set()
    for _ in range(200):
        n, l, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        pair = BettiPair(n, [rng.randint(0, 2) for _ in range(l)], [rng.randint(0, 2) for _ in range(l + r)])
        rows = [
            [Poly(P, n + 1, {e: rng.randrange(P) for e in monomials(n + 1, aj - bi)} if rng.random() < 0.4 else {})
             for aj in pair.a]
            for bi in pair.b
        ]
        m = PresMatrix(pair, P, rows)
        want = all(not e or e.degree() > 0 for row in m.rows for e in row)
        assert m.is_minimal is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_verify_no_columns_is_trivially_true():
    pair = BettiPair(3, [], [0, 1])
    m = PresMatrix(pair, P, [[], []])
    assert verify_bundle(m) is True


def test_minimize_identity_summand():
    pair = BettiPair(3, [0], [-1, 0])
    m = PresMatrix.from_json(
        {"n": 3, "p": P, "a": [0], "b": [-1, 0], "entries": [["x0"], ["1"]]}
    )
    small, reduced = minimize_presentation(m)
    assert small == BettiPair(3, [], [-1])
    assert small.l == 0 and len(reduced.rows) == 1
    assert verify_bundle(reduced)


def test_minimize_fixed_point():
    pair = BettiPair(3, [2], [0, 0, 0, 1, 1])
    m = explicit_matrix(pair, P)
    got_pair, got_m = minimize_presentation(m)
    assert got_pair == pair
    assert got_m == m


def test_minimize_rejects_non_bundles():
    doc = {
        "n": 3,
        "p": P,
        "a": [2],
        "b": [0, 0, 0, 1, 1],
        "entries": [["x0^2"], ["0"], ["0"], ["x3"], ["0"]],
    }
    with pytest.raises(NotABundle):
        minimize_presentation(PresMatrix.from_json(doc))


@pytest.mark.parametrize("a,b,want", [
    ([2], [0, 0, 0, 1, 1], (3, 4)),
    ([3], [0, 0, 0, 2], (3, 3)),
])
def test_split_bound(a, b, want):
    assert split_bound(BettiPair(3, a, b)) == want


def test_split_bound_requires_admissible():
    with pytest.raises(NotAdmissible):
        split_bound(BettiPair(3, [2], [0, 0, 0, 2]))
    with pytest.raises(EmptyA):
        split_bound(BettiPair(3, [], [0, 0, 0, 0]))


def test_split_bound_high_at_least_n():
    rng = random.Random(52)
    for _ in range(40):
        n = rng.randint(1, 3)
        r = rng.randint(n, 5)
        l = rng.randint(1, 3)
        base = rng.randint(-2, 2)
        b = sorted(rng.randint(base, base + 2) for _ in range(l + r))
        a = sorted(rng.randint(base + 1, base + 4) for _ in range(l))
        pair = BettiPair(n, a, b)
        if not pair.is_admissible():
            continue
        low, high = split_bound(pair)
        assert low == n <= high <= pair.r


def test_split_bound_large_singleton_forces_line_summand():
    # a large common entry lands at the top of b, so j = r fails
    for base_a, base_b in (([0], [-1] * 5), ([2], [0, 0, 0, 1, 1])):
        pair = BettiPair(3, base_a, base_b).add_common(IntSeq([9]))
        assert pair.is_admissible()
        _, high = split_bound(pair)
        assert high < pair.r


def test_slope_examples():
    mu, verdict = slope_and_semistability(BettiPair(3, [2], [0, 0, 0, 1, 1]))
    assert (mu, verdict) == (Fraction(0), None)
    mu2, verdict2 = slope_and_semistability(BettiPair(3, [], [0, 0]))
    assert (mu2, verdict2) == (Fraction(0), None)
    # twisted tangent-style pair on the plane: stable, slope 1/2
    euler = BettiPair(2, [1], [0, 0, 0])
    mu3, verdict3 = slope_and_semistability(euler)
    assert (mu3, verdict3) == (Fraction(1, 2), True)
    # a genuinely destabilized pair: b_1 far below -slope
    bad = BettiPair(2, [1], [-5, 0, 0])
    mu4, verdict4 = slope_and_semistability(bad)
    assert mu4 == Fraction(6, 2) and verdict4 is False


def test_c1_invariant_under_common_entries():
    rng = random.Random(53)
    for _ in range(50):
        pair = BettiPair(3, [0], [-1] * 5)
        c = IntSeq(rng.choices(range(0, 4), k=rng.randrange(3)))
        assert pair.add_common(c).c1() == pair.c1()


def _graded_corank(m, t):
    """dim coker of the degree-t linear map, by explicit F_p linear algebra."""
    pair, p = m.pair, m.p
    n = pair.n
    nvars = n + 1

    def block(degree):
        return list(monomials(nvars, degree)) if degree >= 0 else []

    tgt = [(i, e) for i, bi in enumerate(pair.b.entries) for e in block(t - bi)]
    src = [(j, e) for j, aj in enumerate(pair.a.entries) for e in block(t - aj)]
    index = {key: pos for pos, key in enumerate(tgt)}
    cols = []
    for j, e in src:
        col = [0] * len(tgt)
        for i in range(len(pair.b)):
            entry = m.entry(i, j)
            for me, c in entry.terms.items():
                target = tuple(x + y for x, y in zip(me, e))
                col[index[(i, target)]] = c
        cols.append(col)
    return len(tgt) - fp_rank(cols, p)


def test_hilbert_consistency_of_verified_matrices():
    cases = [
        BettiPair(3, [2], [0, 0, 0, 1, 1]),
        BettiPair(3, [0], [-1] * 5),
        BettiPair(2, [1], [0, 0, 0]),
        BettiPair(3, [2, 2], [0, 0, 0, 0, 1, 1]),
    ]
    for pair in cases:
        m = explicit_matrix(pair, P)
        assert verify_bundle(m)
        h = hilbert_of_betti(pair)
        for t in range(h.s0 - 2, h.s0 + 6):
            assert h.value(t) == _graded_corank(m, t), (pair, t)


def test_monte_carlo_density_smoke():
    pair = BettiPair(3, [2], [0, 0, 0, 1, 1])
    good = sum(
        verify_bundle(random_matrix(pair, P, seed)) for seed in range(10)
    )
    assert good >= 9


def test_deform_family_basics():
    small = BettiPair(3, [], [-1, -1, -1, -1])
    big = BettiPair(3, [0], [-1, -1, -1, -1, 0])
    fam = deform_family(small, big, P, seed=3)
    assert fam.witness == IntSeq([0])
    assert fam.at(0) == fam.psi
    assert minimize_presentation(fam.at(0))[0] == big
    for t in (1, 7, 12345):
        got, _ = minimize_presentation(fam.at(t))
        assert got == small
        assert generalizes(got, big)
    # determinism
    fam2 = deform_family(small, big, P, seed=3)
    assert fam2.psi == fam.psi and fam2.phi == fam.phi


def test_deform_family_with_nonempty_small():
    small = BettiPair(3, [0], [-1] * 5)
    big = small.add_common(IntSeq([0]))
    assert big.is_admissible()
    fam = deform_family(small, big, P, seed=4)
    assert minimize_presentation(fam.at(0))[0] == big
    assert minimize_presentation(fam.at(99))[0] == small


@pytest.mark.parametrize("small,big", [
    (BettiPair(3, [], [-1, -1, -1, -1]), BettiPair(3, [0], [-1, -1, -1, -1, 0])),
    (BettiPair(3, [0], [-1] * 5), BettiPair(3, [0], [-1] * 5).add_common(IntSeq([0]))),
])
@pytest.mark.parametrize("seed", [0, 1, 3, 4, 11])
def test_deform_family_psi_is_verified_and_minimal(small, big, seed):
    # the CLI reports the fiber at 0 from this postcondition alone
    fam = deform_family(small, big, P, seed=seed)
    assert fam.psi.pair == big
    assert fam.psi.is_minimal
    assert verify_bundle(fam.psi)
    assert fam.at(0) == fam.psi


def test_deform_family_errors():
    small = BettiPair(3, [], [-1, -1, -1, -1])
    other = BettiPair(3, [0], [-2, -1, -1, -1, 0])
    with pytest.raises(NotGeneralization):
        deform_family(small, other, P, seed=1)
    bad_big = BettiPair(3, [1], [0, 0, 0, 1]).add_common(IntSeq())
    with pytest.raises(NotAdmissible):
        deform_family(BettiPair(3, [1], [0, 0, 0, 1]), bad_big, P, seed=1)


def test_pres_matrix_validation():
    pair = BettiPair(3, [2], [0, 0, 0, 1, 1])
    with pytest.raises(ShapeError):
        PresMatrix(pair, P, [[Poly.zero(P, 4)]] * 4)
    rows = [[Poly.variable(0, P, 4)] for _ in range(5)]  # degree 1, want 2
    with pytest.raises(ValueError):
        PresMatrix(pair, P, rows)


@pytest.mark.parametrize("p", [0, 1, 4, 2**31 + 11])
def test_from_json_rejects_a_bad_modulus(p):
    # p = 0 used to end in a ZeroDivisionError, and p = 4 was accepted
    doc = explicit_matrix(BettiPair(3, [1], [0, 0, 0, 0]), P).to_json()
    with pytest.raises(BadInput, match="modulus"):
        PresMatrix.from_json({**doc, "p": p})


def test_pres_matrix_json_round_trip():
    pair = BettiPair(3, [2], [0, 0, 0, 1, 1])
    m = explicit_matrix(pair, P)
    again = PresMatrix.from_json(m.to_json())
    assert again == m


def test_hilbert_consistency_of_random_matrices():
    rng = random.Random(54)
    cases = [
        BettiPair(3, [2], [0, 0, 0, 1, 1]),
        BettiPair(2, [1, 1], [0, 0, 0, 0]),
        BettiPair(3, [1], [0, 0, 0, 0]),
    ]
    for pair in cases:
        m = random_matrix(pair, P, rng.getrandbits(32))
        if not verify_bundle(m):
            continue
        h = hilbert_of_betti(pair)
        for t in range(h.s0 - 1, h.s0 + 5):
            assert h.value(t) == _graded_corank(m, t), (pair, t)


def two_constant_pivots():
    """A fiber of the family that embeds two identity slots in (0; -1^5)."""
    small = BettiPair(3, [0], [-1] * 5)
    return deform_family(small, small.add_common(IntSeq([0, 1])), P, seed=8).at(1)


def test_minimize_two_constant_pivots():
    # embed two identity slots by hand and strip them off again
    got, reduced = minimize_presentation(two_constant_pivots())
    assert got == BettiPair(3, [0], [-1] * 5)
    assert reduced.is_minimal
    assert len(reduced.rows) == 5 and got.l == 1


def full_rank_constants():
    """A 5x2 matrix of generic constants."""
    rng = random.Random(55)
    rows = [[Poly.const(rng.randrange(1, P), P, 4) for _ in range(2)] for _ in range(5)]
    return PresMatrix(BettiPair(3, [0, 0], [0, 0, 0, 0, 0]), P, rows)


def test_minimize_full_rank_constant_matrix():
    # a 5x2 matrix of generic constants splits off both columns entirely
    got, reduced = minimize_presentation(full_rank_constants())
    assert got == BettiPair(3, [], [0, 0, 0])
    assert reduced.rows == ((), (), ())


def test_minimize_rank_deficient_constants_rejected():
    # proportional columns: after one pivot the second column is identically
    # zero, the map is not injective, and no bundle is presented
    pair = BettiPair(3, [0, 0], [0, 0, 0])
    col = [3, 1, 4]
    rows = [[Poly.const(v, P, 4), Poly.const(2 * v, P, 4)] for v in col]
    with pytest.raises(NotABundle):
        minimize_presentation(PresMatrix(pair, P, rows))


def cascading_pivots():
    """A matrix where clearing the first constant creates a new one elsewhere."""
    pair = BettiPair(3, [0, 0], [-1, 0, 0, 0, 0, 0])
    x0 = Poly.variable(0, P, 4)
    one = Poly.const(1, P, 4)
    two = Poly.const(2, P, 4)
    three = Poly.const(3, P, 4)
    zero = Poly.zero(P, 4)
    rows = [
        [x0, x0],
        [one, two],
        [one, three],
        [zero, one],
        [zero, zero],
        [zero, zero],
    ]
    return PresMatrix(pair, P, rows)


def test_minimize_cascading_pivots():
    # clearing the first constant creates a new constant elsewhere; the loop
    # must keep going until the matrix is honestly minimal
    got, reduced = minimize_presentation(cascading_pivots())
    assert got == BettiPair(3, [], [-1, 0, 0, 0])
    assert reduced.is_minimal


def test_low_rank_minimal_matrices_never_verify():
    # with rank below n there is no zero block, but the minor ideal of a
    # minimal matrix can never reach the depth of the irrelevant ideal
    pair = BettiPair(3, [2], [0, 0, 0])
    assert not pair.is_admissible()
    for seed in range(3):
        m = random_minimal_map(pair, P, seed)
        assert verify_bundle(m) is False


@pytest.mark.parametrize("entry,error,message", [
    pytest.param("x1", ValueError, "entry (1,0) is not a polynomial", id="str-entry"),
    pytest.param(Poly.variable(1, P, 3), ModulusMismatch, "entry (1,0) lives in the wrong ring", id="ring"),
])
def test_pres_matrix_refusals(entry, error, message):
    with pytest.raises(error) as info:
        PresMatrix(BettiPair(1, [1], [0, 0]), P, [[Poly.variable(0, P, 2)], [entry]])
    assert info.type is error and str(info.value) == message


def test_verify_bundle_answers_wide_matrices_of_linear_forms():
    # a cofactor expansion of the minors would keep 2^17 - 2 subdeterminants
    # for 17 x 16 and 2^18 - 1 for 19 x 9; the loop takes the rows instead.
    # The module oracle's quotient, generated in degree -1, vanishes in
    # degree 15 and 0, so both are bundles; 42 x 40 took the oracle 3 s and
    # is checked for time only
    for l, r, zero_at in ((16, 1, 15), (9, 10, 0), (40, 2, None)):
        m = random_minimal_map(BettiPair(1, [1] * l, [0] * (l + r)), P, 1)
        start = time.perf_counter()
        assert verify_bundle(m) is True
        assert time.perf_counter() - start < 1
        if zero_at is not None:
            assert module_hilbert(m.rows, [1] * l, 2, P, [zero_at]) == [0]
