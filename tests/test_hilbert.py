"""Hilbert functions, bundle sequences and the minimal pair."""

import math
import random

import pytest

from pnbundles.betti import BettiPair, generalizes
from pnbundles.errors import BadInput, NotAdmissible
from pnbundles.generate import bundle_sequences
from pnbundles.hilbert import (
    BundleSeq,
    HilbertFn,
    hilbert_of_betti,
    is_valid_hilbert,
    minimal_betti,
    normalize,
)

from _oracles import summed_hilbert_value


def binom(m, n):
    return math.comb(m, n) if m >= n else 0


def binomial_hilbert(pair, t):
    """H(t) from the twist data directly: the alternating binomial sum."""
    n = pair.n
    return sum(binom(t - bi + n, n) for bi in pair.b) - sum(
        binom(t - ai + n, n) for ai in pair.a
    )


def test_bundle_seq_validation():
    BundleSeq(3, [5, 4])
    with pytest.raises(ValueError):
        BundleSeq(3, [])
    with pytest.raises(ValueError):
        BundleSeq(3, [0, 4])  # nonpositive entry
    with pytest.raises(ValueError):
        BundleSeq(3, [4, 4])  # tail repeats the rank
    with pytest.raises(ValueError):
        BundleSeq(3, [5, 2, 4])  # descent below n
    s = BundleSeq(3, [1, 1, 3, 4])
    assert (s.r, s.m, s.degree) == (4, 4, 9)


@pytest.mark.parametrize("values", [[5.5, 4], [5.9, 4], ["5", "4"], [True, 4], [5, 4.0]])
def test_non_integer_entries_are_refused_not_coerced(values):
    with pytest.raises(TypeError):
        BundleSeq(3, values)
    with pytest.raises(TypeError):
        HilbertFn(3, 0, values)
    with pytest.raises(TypeError):
        is_valid_hilbert(3, values)


def test_eval_split_line_bundle():
    h = HilbertFn(3, 0, [1])
    assert [h.value(t) for t in (0, 1, 2)] == [1, 4, 10]
    assert h.value(-1) == 0


def test_eval_support_bound():
    h = HilbertFn(3, -1, [5, 4])
    assert h.value(-1) == 5
    for t in range(-10, -1):
        assert h.value(t) == 0


@pytest.mark.parametrize("values,want", [
    ([5, 4], True),
    ([5, 2, 4], False),
    ([1, 1, 2, 4], True),
    ([4], True),
    ([0], False),
    ([-1, 4], False),
])
def test_is_valid_hilbert(values, want):
    assert is_valid_hilbert(3, values) is want


def test_hilbert_of_betti_golden():
    h = hilbert_of_betti(BettiPair(3, [0], [-1] * 5))
    assert (h.s0, h.seq.values) == (-1, (5, 4))
    h2 = hilbert_of_betti(BettiPair(3, [], [0, 0, 0, 0]))
    assert (h2.s0, h2.seq.values) == (0, (4,))
    big = BettiPair(3, [0, 0, 1, 2], [-1, -1, -1, -1, -1, 0, 1, 2])
    assert hilbert_of_betti(big) == h
    # common entries cancel: spot-check by direct evaluation
    for t in range(-3, 7):
        assert binomial_hilbert(big, t) == binomial_hilbert(BettiPair(3, [0], [-1] * 5), t)


def test_hilbert_of_betti_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        hilbert_of_betti(BettiPair(3, [1], [0, 0, 0, 1]))


def test_minimal_betti_golden():
    assert minimal_betti(HilbertFn(3, -1, [5, 4])) == BettiPair(3, [0], [-1] * 5)
    assert minimal_betti(HilbertFn(3, 0, [4])) == BettiPair(3, [], [0, 0, 0, 0])
    # differences of (1^5,4): one jump of 1 at the anchor, one jump of 3 at the end
    got = minimal_betti(HilbertFn(3, 0, [1, 1, 1, 1, 1, 4]))
    assert got == BettiPair(3, [], [0, 5, 5, 5])
    assert hilbert_of_betti(got) == HilbertFn(3, 0, [1, 1, 1, 1, 1, 4])


def test_normalize_golden():
    h = HilbertFn(3, -1, [5, 4])
    hn, k = normalize(h)
    assert (k, hn.s0) == (2, 1)
    base = minimal_betti(hn)
    assert base == BettiPair(3, [2], [1] * 5)
    assert base.c1() == -3
    # already normalized is a fixed point
    h0 = HilbertFn(3, 0, [4])
    assert normalize(h0) == (h0, 0)
    assert normalize(hn) == (hn, 0)


def _all_hilberts(n_max=3, r_max=5, deg_max=12):
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            for degree in range(r, deg_max + 1):
                for seq in bundle_sequences(n, r, degree):
                    anchor = -((-degree) // r) - seq.m
                    yield HilbertFn(n, anchor, seq)


def test_round_trip_and_minimality():
    count = 0
    for h in _all_hilberts():
        base = minimal_betti(h)
        assert base.grading_q() == 0
        assert base.is_admissible()
        assert hilbert_of_betti(base) == h
        count += 1
    assert count > 300


def test_minimal_pair_generalizes_every_pair():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(n, 5)
        l = rng.randint(1, 3)
        base = rng.randint(-3, 3)
        b = sorted(rng.randint(base, base + 2) for _ in range(l + r))
        a = sorted(rng.randint(base + 1, base + 4) for _ in range(l))
        pair = BettiPair(n, a, b)
        if not pair.is_admissible():
            continue
        small = minimal_betti(hilbert_of_betti(pair))
        assert generalizes(small, pair)


def test_c1_identity_and_regularity_bound():
    rng = random.Random(21)
    pool = list(_all_hilberts())
    for h in rng.sample(pool, 100):
        assert minimal_betti(h).c1() == h.degree - (h.s1 + 2) * h.r
        hn, _ = normalize(h)
        assert minimal_betti(hn).regularity() >= -((-h.degree) // h.r) - 2


def test_eval_agrees_with_binomial_formula():
    rng = random.Random(22)
    pool = list(_all_hilberts())
    for h in rng.sample(pool, 60):
        pair = minimal_betti(h)
        for t in range(h.s0 - h.n - 2, h.s1 + h.n + 3):
            assert h.value(t) == binomial_hilbert(pair, t)


def test_shift_invariance():
    h = HilbertFn(3, -1, [5, 4])
    shifted = HilbertFn(3, 4, [5, 4])
    assert minimal_betti(shifted) == BettiPair(3, [5], [4] * 5)
    for t in range(-5, 10):
        assert shifted.value(t) == h.value(t - 5)


def test_json_round_trip():
    h = HilbertFn(3, -1, [5, 4])
    assert HilbertFn.from_json(h.to_json()) == h


@pytest.mark.parametrize("field,value", [
    ("n", 3.7),
    ("n", "3"),
    ("s0", -1.0),
    ("s0", False),
    ("B", [5.5, 4]),
    ("B", ["5", 4]),
    ("B", "54"),
])
def test_from_json_refuses_non_integers(field, value):
    # int() used to read n 3.7 and "3" as 3, and B [5.5, 4] as [5, 4]
    with pytest.raises(BadInput, match="must be an integer"):
        HilbertFn.from_json({"n": 3, "s0": -1, "B": [5, 4], field: value})


def test_eval_far_right_tail():
    # far to the right H agrees with the binomial formula's polynomial tail
    h = HilbertFn(3, -1, [5, 4])
    pair = minimal_betti(h)
    for t in (20, 37, 50):
        assert h.value(t) == binomial_hilbert(pair, t)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_values_match_per_t_sums(n):
    # one prefix-sum pass over the window against the old sum per value
    for values in ([1], [5, 4], [1, 1, 3, 4], [2, 7, 3], [1] * 9 + [2]):
        if not is_valid_hilbert(n, values):
            continue
        for s0 in (-4, 0, 3):
            h = HilbertFn(n, s0, values)
            for lo in range(s0 - 3, s0 + len(values) + 3):
                for hi in range(lo - 1, s0 + len(values) + 6):
                    want = [summed_hilbert_value(h, t) for t in range(lo, hi + 1)]
                    assert h.values(lo, hi) == want, (h, lo, hi)
                assert h.value(lo) == summed_hilbert_value(h, lo)


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: BundleSeq(0, [1]), ValueError, "ambient dimension must be a positive integer, got 0",
                 id="dimension"),
    pytest.param(lambda: HilbertFn(3, 0.5, [1]), ValueError, "anchor must be an integer, got 0.5", id="anchor"),
    pytest.param(lambda: HilbertFn(3, 0, BundleSeq(2, [1])), ValueError,
                 "bundle sequence has a different ambient dimension", id="other-dimension"),
])
def test_hilbert_refusals(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert info.type is error and str(info.value) == message
