"""Betti pairs: admissibility, invariants, generalization, enumeration."""

import gc
import hashlib
import random

import pytest

from pnbundles.betti import (
    BettiPair,
    enumerate_admissible,
    generalization_witness,
    generalizes,
)
from pnbundles.errors import BadInput
from pnbundles.generate import reg_rows
from pnbundles.seqs import IntSeq, seq_diff, seq_min

from _oracles import brute_force_admissible, scan_admissible


@pytest.mark.parametrize("n,a,b,want", [
    (3, [], [-1, 0, 2], True),
    (3, [2], [0, 0, 0, 1, 1], True),
    (3, [1], [0, 0, 0, 1], False),
    (3, [2, 2], [0, 0, 0, 0, 1, 1], True),
    (2, [5], [0, 0], False),  # rank below n
])
def test_is_admissible(n, a, b, want):
    assert BettiPair(n, a, b).is_admissible() is want


@pytest.mark.parametrize("a,b,want", [
    ([0], [-1] * 5, 5),
    ([], [0, 0], 0),
    ([2], [0, 0, 0, 1, 1], 0),
])
def test_c1(a, b, want):
    assert BettiPair(3, a, b).c1() == want


@pytest.mark.parametrize("a,b,want", [
    ([0], [-1] * 5, -1),
    ([0, 0, 1, 2], [-1, -1, -1, -1, -1, 0, 1, 2], 2),
    ([], [0, 3], 3),
])
def test_regularity(a, b, want):
    assert BettiPair(3, a, b).regularity() == want


@pytest.mark.parametrize("a,b,want", [
    ([0], [-1] * 5, 0),
    ([0, 1], [-1, -1, -1, -1, -1, 1], 1),
    ([0, 0, 1, 2], [-1, -1, -1, -1, -1, 0, 1, 2], 3),
])
def test_grading_q(a, b, want):
    assert BettiPair(3, a, b).grading_q() == want


def test_generalizes_witness():
    p = BettiPair(3, [0], [-1] * 5)
    q = BettiPair(3, [0, 0, 1, 2], [-1, -1, -1, -1, -1, 0, 1, 2])
    assert generalization_witness(p, q) == IntSeq([0, 1, 2])
    assert generalization_witness(p, p) == IntSeq()
    assert generalization_witness(p, BettiPair(3, [1], [-1] * 5)) is None
    assert generalizes(p, q)
    with pytest.raises(ValueError):
        generalization_witness(p, BettiPair(2, [0], [-1, -1, -1]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        BettiPair(3, [0], [0])  # len(b) must exceed len(a)
    with pytest.raises(ValueError):
        BettiPair(0, [], [0])


def _random_admissible(rng, n_max=3, l_max=3, r_max=5, spread=4):
    """Rejection-sample an admissible pair with a nonempty a."""
    while True:
        n = rng.randint(1, n_max)
        r = rng.randint(n, r_max)
        l = rng.randint(1, l_max)
        base = rng.randint(-3, 3)
        b = sorted(rng.randint(base, base + spread // 2) for _ in range(l + r))
        a = sorted(rng.randint(base + 1, base + spread) for _ in range(l))
        pair = BettiPair(n, a, b)
        if pair.is_admissible():
            return pair


def test_admissibility_stable_under_generalization():
    rng = random.Random(11)
    for _ in range(100):
        pair = _random_admissible(rng)
        # grow a random specialization, then peel a random common part off
        extra = IntSeq(rng.choices(range(-2, 4), k=rng.randrange(3)))
        q = pair.add_common(extra)
        if not q.is_admissible():
            continue
        shared = list(seq_min(q.a, q.b))
        keep = IntSeq(rng.sample(shared, rng.randrange(len(shared) + 1)))
        p = BettiPair(q.n, seq_diff(q.a, keep), seq_diff(q.b, keep))
        assert p.is_admissible(), (p, q, keep)


def test_generalization_monotone_invariants():
    rng = random.Random(12)
    for _ in range(100):
        p = _random_admissible(rng)
        c = IntSeq(rng.choices(range(-2, 4), k=rng.randrange(1, 4)))
        q = p.add_common(c)
        assert q.c1() == p.c1()
        assert q.regularity() >= p.regularity()
        assert q.grading_q() >= p.grading_q()
        assert generalization_witness(p, q) == c


def test_rank_at_least_n_when_a_nonempty():
    rng = random.Random(13)
    for _ in range(100):
        pair = _random_admissible(rng)
        assert pair.r >= pair.n


@pytest.mark.parametrize("n,r,c1,d", [
    *(pytest.param(3, 4, 5, d, id=str(d)) for d in (-1, 0, 1)),
    # these need pairs with negative a-entries
    (1, 1, 4, 0),
    (1, 2, 4, 1),
    (2, 3, 4, 2),
])
def test_enumerate_matches_brute_force(n, r, c1, d):
    got = {
        (p.a.entries, p.b.entries) for p in enumerate_admissible(n, r, c1, d)
    }
    assert got == brute_force_admissible(n, r, c1, d)


def _pairs(n, r, c1, d):
    return {(p.a.entries, p.b.entries) for p in enumerate_admissible(n, r, c1, d)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_matches_scan_oracle(n):
    # the union of the lattices against the scan of every b; at d = 2 the
    # scan of c1 > 1 takes seconds per case, so that corner is left out
    for r in range(1, 6):
        for c1 in range(-4, 5):
            for d in range(-1, 3 if c1 <= 1 else 2):
                assert _pairs(n, r, c1, d) == scan_admissible(n, r, c1, d), (r, c1, d)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_enumerate_matches_scan_oracle_on_twists(k):
    # the benchmark's (3, 4, -2, 4) twisted by k: anchor, bound and c1 move together
    args = (3, 4, -2 - 4 * k, 4 + k)
    got = _pairs(*args)
    assert len(got) == 2170
    assert got == scan_admissible(*args)


def test_enumerate_has_no_size_bound():
    # reg_rows(1, 5, 3) refuses the table it reads, by its MAX_SEQUENCES bound
    with pytest.raises(BadInput):
        reg_rows(1, 5, 3)
    got = _pairs(1, 5, 1, 2)
    assert len(got) == 10589
    assert got == scan_admissible(1, 5, 1, 2)


def test_enumerate_leaves_no_reference_cycles():
    gc.collect()
    enumerate_admissible(3, 4, -2, 4)
    assert gc.collect() == 0


def test_enumerate_d2_frozen_oracle():
    # expected set computed once with brute_force_admissible(3, 4, 5, 2),
    # which takes ~15s; only its fingerprint is pinned here
    got = sorted((p.a.entries, p.b.entries) for p in enumerate_admissible(3, 4, 5, 2))
    assert len(got) == 1312
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "c0ad7c7229e5db37bd1489563fb6697a54f675cd4b6e34bfeb20c289b2e99570"


def test_enumerate_golden_members():
    out = enumerate_admissible(3, 4, 5, -1)
    assert BettiPair(3, [0], [-1] * 5) in out
    assert BettiPair(3, [], [-2, -1, -1, -1]) in out
    # the split pair with c1 = 0 appears once the bound allows entry 0
    assert enumerate_admissible(3, 4, 0, -1) == frozenset()
    assert BettiPair(3, [], [0, 0, 0, 0]) in enumerate_admissible(3, 4, 0, 0)


def test_enumerate_closed_under_generalization():
    out = enumerate_admissible(3, 4, 5, 1)
    index = {(p.a.entries, p.b.entries) for p in out}
    for p in out:
        for t in set(seq_min(p.a, p.b)):
            one = IntSeq([t])
            smaller = BettiPair(p.n, seq_diff(p.a, one), seq_diff(p.b, one))
            assert (smaller.a.entries, smaller.b.entries) in index


def test_json_round_trip():
    p = BettiPair(3, [2], [0, 0, 0, 1, 1])
    assert BettiPair.from_json(p.to_json()) == p


@pytest.mark.parametrize("n", [3.7, 3.0, "3", True])
def test_from_json_refuses_a_non_integer_n(n):
    # int() used to read 3.7 and "3" as 3
    with pytest.raises(BadInput, match="n must be an integer"):
        BettiPair.from_json({"n": n, "a": [2], "b": [0, 0, 0, 1, 1]})
