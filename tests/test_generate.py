"""Bundle sequence generation and maximal difference multisets."""

import pytest

from pnbundles import generate
from pnbundles.betti import BettiPair
from pnbundles.errors import BadInput, RegularityTooSmall
from pnbundles.generate import bundle_sequences, bundle_sequences_by_reg, max_difference, reg_rows
from pnbundles.hilbert import HilbertFn, is_valid_hilbert, minimal_betti
from pnbundles.seqs import MAX_VALUES, IntSeq, is_sub_multiset

from _oracles import (
    brute_force_bundle_sequences,
    brute_force_max_difference,
    memo_bundle_sequences_by_reg,
    walk_max_difference,
)


def test_rank_four_degree_nine_golden():
    got = {s.values for s in bundle_sequences(3, 4, 9)}
    assert got == {
        (1, 1, 1, 1, 1, 4),
        (1, 1, 1, 2, 4),
        (1, 1, 3, 4),
        (1, 2, 2, 4),
        (2, 3, 4),
        (5, 4),
    }


@pytest.mark.parametrize("degree,want", [
    (4, {(4,)}),
    (5, {(1, 4)}),
    (3, set()),
])
def test_small_degrees(degree, want):
    assert {s.values for s in bundle_sequences(3, 4, degree)} == want


def test_matches_composition_filter():
    for n in (1, 2, 3):
        for r in range(1, 6):
            for degree in range(r, 13):
                got = {s.values for s in bundle_sequences(n, r, degree)}
                assert got == brute_force_bundle_sequences(n, r, degree), (n, r, degree)


def test_by_reg_contains_normalized_five_four():
    hs = bundle_sequences_by_reg(3, 4, 1)
    assert HilbertFn(3, 1, [5, 4]) in hs
    for h in hs:
        assert minimal_betti(h).regularity() <= 1
        assert -h.r < h.c1() <= 0
        assert is_valid_hilbert(h.n, list(h.seq.values))


def test_by_reg_finite_and_monotone():
    small = set(bundle_sequences_by_reg(3, 4, 0))
    large = set(bundle_sequences_by_reg(3, 4, 1))
    assert small <= large
    assert len(large) < 200


def test_max_difference_golden():
    h = HilbertFn(3, -1, [5, 4])
    assert max_difference(h, 2) == IntSeq([0, 1, 2])
    assert max_difference(h, -1) == IntSeq()
    with pytest.raises(RegularityTooSmall):
        max_difference(h, -2)


def test_max_difference_monotone_in_bound():
    h = HilbertFn(3, -1, [5, 4])
    prev = IntSeq()
    for d in range(-1, 5):
        cur = max_difference(h, d)
        assert is_sub_multiset(prev, cur)
        prev = cur


@pytest.mark.parametrize("h,d", [
    (HilbertFn(3, -1, [5, 4]), 2),
    (HilbertFn(3, -1, [5, 4]), 1),
    (HilbertFn(3, 0, [4]), 0),
    (HilbertFn(3, 0, [4]), 1),
    (HilbertFn(2, 0, [1, 2]), 2),
    (HilbertFn(3, 0, [3, 6]), 2),
])
def test_max_difference_matches_brute_force(h, d):
    base = minimal_betti(h)
    cmax = max_difference(h, d)
    lo = min(base.b.entries) - 1
    cap = max([cmax.count(t) for t in set(cmax)] or [0]) + 2
    want = brute_force_max_difference(base, d, lo, d, cap)
    assert cmax.entries == want
    # the caps really were generous enough for the oracle to be exhaustive
    assert all(cmax.count(t) < cap for t in set(cmax))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_max_difference_matches_walk(n):
    # the closed form against the walk up to d
    cases = 0
    for r in range(1, 7):
        for h0 in bundle_sequences_by_reg(n, r, 1):
            for twist in (-2, 0, 3):
                h = HilbertFn(n, h0.s0 + twist, h0.seq)
                base = minimal_betti(h)
                reg = base.regularity()
                for d in range(reg, reg + 8):
                    assert max_difference(h, d).entries == walk_max_difference(base, d), (h, d)
                    cases += 1
    assert cases >= 100


def test_max_difference_bounded_before_it_builds():
    # the tail above the largest entry 0 holds d entries (r - n = 1)
    h = HilbertFn(3, -1, [5, 4])
    assert len(max_difference(h, MAX_VALUES)) == MAX_VALUES + 1  # one copy of 0 below the tail
    for d in (MAX_VALUES + 1, 10**6, 10**100):
        with pytest.raises(BadInput, match=str(MAX_VALUES)):
            max_difference(h, d)
    # no tail: rank n, or below n, whatever d is
    assert max_difference(HilbertFn(3, 0, [3]), 10**100) == IntSeq()
    assert max_difference(HilbertFn(3, 0, [2]), 10**100) == IntSeq()


def test_max_difference_split_low_rank():
    # rank below n: adding any common entry would need rank >= n
    h = HilbertFn(3, 0, [2])
    assert max_difference(h, 3) == IntSeq()


def test_subsequence_lattice_counts_admissible_pairs():
    h = HilbertFn(3, -1, [5, 4])
    d = 2
    base = minimal_betti(h)
    cmax = max_difference(h, d)
    count = 1
    for t in set(cmax):
        count *= cmax.count(t) + 1
    # brute-force count of admissible pairs over h with regularity <= d
    lo = min(base.b.entries) - 1
    found = brute_force_max_difference(base, d, lo, d, max(cmax.count(t) for t in set(cmax)) + 2)
    del found  # uniqueness asserted inside; now count all admissible differences
    from itertools import product

    values = sorted(set(range(lo, d + 1)))
    total = 0
    for mults in product(*(range(4) for _ in values)):
        c = []
        for v, k in zip(values, mults):
            c.extend([v] * k)
        cand = base.add_common(IntSeq(c))
        if cand.is_admissible() and cand.regularity() <= d:
            total += 1
    assert total == count == 8


def test_by_reg_small_bounds():
    # the only degree allowed at d = -1 is r itself, and the normalized
    # split function B=(4) at anchor 0 has regularity 0, so nothing survives
    assert bundle_sequences_by_reg(3, 4, -1) == []
    assert bundle_sequences_by_reg(3, 4, -2) == []
    assert [(h.s0, h.seq.values) for h in bundle_sequences_by_reg(3, 4, 0)] == [(0, (4,))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_by_reg_matches_memo_oracle(n):
    cases = [(r, d) for r in range(1, 7) for d in range(-2, 4)] + ([(6, 4)] if n == 4 else [])
    for r, d in cases:
        if n == 1 and r >= 5 and d == 3:
            # 1,015,808 and 16,515,072 candidates: past MAX_SEQUENCES
            with pytest.raises(BadInput, match=str(generate.MAX_SEQUENCES)):
                bundle_sequences_by_reg(n, r, d)
            continue
        assert bundle_sequences_by_reg(n, r, d) == memo_bundle_sequences_by_reg(n, r, d), (r, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_regularity_read_off_the_table(n):
    # the per-degree filter of reg_rows against the minimal pair of every
    # table entry at its normalizing anchor
    for r in range(1, 7):
        entries = []  # (e, s0, values, regularity), in table order
        for e, row in enumerate(generate._sequences(n, r, 2 * r)):
            assert list(row) == sorted(row)
            anchor = -((-(r + e)) // r)
            for values in row:
                assert sum(values) == r + e
                s0 = anchor - len(values)
                entries.append((e, s0, values, minimal_betti(HilbertFn(n, s0, values)).regularity()))
        for d in (-2, -1, 0, 1):  # reg_rows returns degrees r + e with e <= r * (d + 1) <= 2r
            want = [(s0, v) for e, s0, v, reg in entries if e <= r * (d + 1) and reg <= d]
            assert reg_rows(n, r, d) == want, (r, d)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_falling_fill_is_the_filtered_table(n):
    # the edge degree of reg_rows comes from the recursion on falling tails
    # alone; it must give the falling rows of the full table, in their order
    for r in range(1, 7):
        top = 3 * r
        full, falling = generate._sequences(n, r, top), generate._fill(n, r, top, falling=True)
        for e in range(1, top + 1):
            assert falling[e] == tuple(v for v in full[e] if len(v) > 1 and v[-2] > v[-1]), (r, e)


def _table_size(n, r, degree):
    """Sequences of rank r and of every degree from r to ``degree``, by brute force."""
    return sum(len(brute_force_bundle_sequences(n, r, e)) for e in range(r, degree + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sequence_bound_is_exact(n, monkeypatch):
    # the count-only twin refuses exactly when the table would pass the bound
    for r in range(1, 5):
        for degree in range(r, 12):
            size = _table_size(n, r, degree)
            monkeypatch.setattr(generate, "MAX_SEQUENCES", size)
            assert {s.values for s in bundle_sequences(n, r, degree)} == brute_force_bundle_sequences(n, r, degree)
            monkeypatch.setattr(generate, "MAX_SEQUENCES", size - 1)
            with pytest.raises(BadInput, match=f"more than {size - 1} sequences"):
                bundle_sequences(n, r, degree)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reg_rows_bound_is_the_full_table(n, monkeypatch):
    # reg_rows builds fewer rows than the table up to degree r + r * (d + 1),
    # but refuses exactly when that table would pass the bound
    for r in range(1, 5):
        for d in range(-1, 3):
            want = reg_rows(n, r, d)
            size = _table_size(n, r, r + r * (d + 1))
            monkeypatch.setattr(generate, "MAX_SEQUENCES", size)
            assert reg_rows(n, r, d) == want
            monkeypatch.setattr(generate, "MAX_SEQUENCES", size - 1)
            with pytest.raises(BadInput, match=f"^enumerate would build more than {size - 1} sequences$"):
                reg_rows(n, r, d)
            monkeypatch.undo()


def test_sequence_length_bound():
    # rank 2 below n = 3: the one sequence of degree D is (1, ..., 1, 2), of D - 1 entries
    longest = generate.MAX_LENGTH + 1
    assert [s.values for s in bundle_sequences(3, 2, longest)] == [(1,) * (longest - 2) + (2,)]
    for call in (lambda: bundle_sequences(3, 2, longest + 1), lambda: bundle_sequences_by_reg(3, 2, 31)):
        with pytest.raises(BadInput, match=f"more than {generate.MAX_LENGTH}"):
            call()
