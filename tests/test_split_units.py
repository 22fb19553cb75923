"""The unit split on packed terms against the ``Poly`` arithmetic it replaced.

``_oracles.poly_split_units`` keeps the split that cleared each unit's column
with products and differences of polynomials.  ``bundles._split_units`` packs
the entries once and clears on packed terms, with the same pivot rule, so the
two must give equal pairs and equal rows: on fibers of the benchmark's
deformation families and of acceptance criterion 7's, on random matrices
whose constant blocks are rank-deficient, and on the hand cases of
``test_bundles``.  With the ``Poly`` arithmetic switched off, the fibers still
minimize.
"""

import os
import random
import sys
from itertools import islice

import pytest

from pnbundles import bundles
from pnbundles.betti import BettiPair
from pnbundles.bundles import PresMatrix, deform_family, minimize_presentation
from pnbundles.poly import Poly, monomials

from _oracles import poly_split_units
from test_acceptance import _random_family_ends
from test_bundles import cascading_pivots, full_rank_constants, two_constant_pivots

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from workloads import FAMILIES  # noqa: E402

P = 32003


@pytest.fixture(scope="module")
def bench_families():
    return [deform_family(BettiPair(n, sa, sb), BettiPair(n, ba, bb), P, seed)
            for seed, (n, sa, sb, ba, bb) in enumerate(FAMILIES, 1)]


@pytest.fixture(scope="module")
def criterion_7_families():
    rng = random.Random(1007)
    return [deform_family(*_random_family_ends(rng), P, seed=9000 + k) for k in range(10)]


def fibers(families, count, rng):
    return [fam.at(1 + rng.randrange(P - 1)) for fam in families for _ in range(count)]


def rank_deficient_constants(rng):
    """A matrix over P^1..P^3 with twists in {0, 1, 2} and {-1, 0, 1}: each
    block of constants (a_j = b_i) is a product through a smaller rank, the
    other entries of positive degree are sparse forms or zero."""
    p, n = rng.choice((7, 101, P)), rng.randint(1, 3)
    a = sorted(rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(2, 4)))
    b = sorted(rng.choice((-1, 0, 0, 1)) for _ in range(len(a) + rng.randint(1, 4)))
    blocks = {}
    for v in set(a) & set(b):
        rows, cols = b.count(v), a.count(v)
        rank = rng.randrange(min(rows, cols))
        u = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        w = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        blocks[v] = [[sum(u[i][k] * w[k][j] for k in range(rank)) % p for j in range(cols)] for i in range(rows)]

    def entry(i, j):
        d = a[j] - b[i]
        if d == 0:
            return Poly.const(blocks[a[j]][i - b.index(b[i])][j - a.index(a[j])], p, n + 1)
        if d < 0 or rng.random() < 0.3:
            return Poly.zero(p, n + 1)
        mons = list(monomials(n + 1, d))
        return Poly(p, n + 1, {e: rng.randrange(p) for e in rng.sample(mons, min(len(mons), 3))})

    return PresMatrix(BettiPair(n, a, b), p, [[entry(i, j) for j in range(len(a))] for i in range(len(b))])


def test_split_matches_the_poly_oracle(bench_families, criterion_7_families):
    rng = random.Random(28)
    hand = [cascading_pivots(), two_constant_pivots(), full_rank_constants()]
    drawn = (m for m in iter(lambda: rank_deficient_constants(rng), None) if not m.is_minimal)
    cases = fibers(bench_families, 10, rng) + fibers(criterion_7_families, 10, rng) + list(islice(drawn, 150)) + hand
    assert len(cases) >= 300 and not any(m.is_minimal for m in cases)
    for m in cases:
        pair, rows = bundles._split_units(m)
        want_pair, want_rows = poly_split_units(m)
        assert pair == want_pair, m.to_json()
        assert [list(row) for row in rows] == [list(row) for row in want_rows], m.to_json()
        assert PresMatrix(pair, m.p, rows).is_minimal


def test_minimize_builds_no_poly_arithmetic(bench_families, monkeypatch):
    rng = random.Random(29)
    cases = fibers(bench_families, 2, rng)
    want = [poly_split_units(m)[0] for m in cases]

    def refuse(*args):
        raise AssertionError("Poly arithmetic on the minimization path")

    for name in ("__mul__", "__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(Poly, name, refuse)
    assert [minimize_presentation(m)[0] for m in cases] == want
