"""Multiset sequence arithmetic."""

import random

import pytest

from pnbundles.betti import BettiPair
from pnbundles.bundles import explicit_matrix
from pnbundles.errors import BadInput, NotSubMultiset
from pnbundles.hilbert import BundleSeq, HilbertFn
from pnbundles.poly import parse_poly
from pnbundles.seqs import (
    MAX_VALUES,
    IntSeq,
    is_sub_multiset,
    json_int,
    parse_seq,
    parse_values,
    seq_diff,
    seq_max,
    seq_min,
    seq_sum,
)


@pytest.mark.parametrize("x,y,want", [
    ([0], [0, 1, 2], [0, 0, 1, 2]),
    ([], [5, 4], [4, 5]),
    ([1, 3], [2, 2], [1, 2, 2, 3]),
])
def test_seq_sum(x, y, want):
    assert seq_sum(IntSeq(x), IntSeq(y)) == IntSeq(want)


@pytest.mark.parametrize("x,y,want", [
    ([0, 0, 1, 2], [0], [0, 1, 2]),
    ([4, 5], [4, 5], []),
])
def test_seq_diff(x, y, want):
    assert seq_diff(IntSeq(x), IntSeq(y)) == IntSeq(want)


def test_seq_diff_not_sub_multiset():
    with pytest.raises(NotSubMultiset):
        seq_diff(IntSeq([1, 2]), IntSeq([3]))


@pytest.mark.parametrize("x,y,lo,hi", [
    ([0, 1], [1, 2], [1], [0, 1, 2]),
    ([0, 0], [0], [0], [0, 0]),
])
def test_seq_min_max(x, y, lo, hi):
    assert seq_min(IntSeq(x), IntSeq(y)) == IntSeq(lo)
    assert seq_max(IntSeq(x), IntSeq(y)) == IntSeq(hi)


def test_min_idempotent():
    x = IntSeq([1, 1, 3])
    assert seq_min(x, x) == x
    assert seq_max(x, x) == x


def _random_seq(rng, max_len=6, lo=-3, hi=3):
    return IntSeq(rng.choices(range(lo, hi + 1), k=rng.randrange(max_len + 1)))


def test_sum_associative_commutative():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (_random_seq(rng) for _ in range(3))
        assert seq_sum(x, y) == seq_sum(y, x)
        assert seq_sum(seq_sum(x, y), z) == seq_sum(x, seq_sum(y, z))


def test_lattice_absorption():
    rng = random.Random(2)
    for _ in range(200):
        x, y = _random_seq(rng), _random_seq(rng)
        assert seq_max(x, seq_min(x, y)) == x
        assert seq_min(x, seq_max(x, y)) == x


def test_diff_inverts_sum():
    rng = random.Random(3)
    for _ in range(200):
        x, y = _random_seq(rng), _random_seq(rng)
        assert seq_diff(seq_sum(x, y), y) == x
        assert is_sub_multiset(y, seq_sum(x, y))


def test_constructor_sorts_and_validates():
    assert IntSeq([3, 1, 2]).entries == (1, 2, 3)
    assert not IntSeq()
    with pytest.raises(TypeError):
        IntSeq([1.5])


def test_immutability_and_hash():
    x = IntSeq([1, 2])
    with pytest.raises(AttributeError):
        x.entries = ()
    assert hash(x) == hash(IntSeq([2, 1]))
    assert len({x, IntSeq([1, 2])}) == 1


VALUES = {
    "IntSeq": lambda: IntSeq([2, 1, 2]),
    "BettiPair": lambda: BettiPair(3, [2], [0, 0, 0, 1, 1]),
    "BundleSeq": lambda: BundleSeq(3, [5, 4]),
    "HilbertFn": lambda: HilbertFn(3, -1, [5, 4]),
    "PresMatrix": lambda: explicit_matrix(BettiPair(3, [2], [0, 0, 0, 1, 1]), 32003),
    "Poly": lambda: parse_poly("x0^2 - 3*x1*x2", 32003, 3),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_contract(name):
    x, y = VALUES[name](), VALUES[name]()
    assert type(x).__name__ == name
    for attr in (x.__slots__[0], "not_a_field"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(x, attr, None)
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != tuple(getattr(x, field) for field in x.__slots__)


def test_json_round_trip():
    x = IntSeq([-1, -1, 0, 2])
    assert IntSeq.from_json(x.to_json()) == x
    with pytest.raises(BadInput):
        IntSeq.from_json({"not": "a list"})


@pytest.mark.parametrize("value", [3.7, 3.0, "3", True, None, [3]])
def test_json_int_refuses_what_is_not_a_json_integer(value):
    assert json_int(-3, "n") == -3
    with pytest.raises(TypeError, match="^n must be an integer, got "):
        json_int(value, "n")


@pytest.mark.parametrize("text,want", [
    ("1^5,4", [1, 1, 1, 1, 1, 4]),
    ("-1^5,0", [-1, -1, -1, -1, -1, 0]),
    ("", []),
    ("5,4", [5, 4]),
])
def test_parse_values(text, want):
    assert parse_values(text) == want


def test_parse_values_bounds_the_expanded_length():
    assert parse_values(f"1^{MAX_VALUES - 1},4") == [1] * (MAX_VALUES - 1) + [4]
    for text in (f"1^{MAX_VALUES},4", f"0,1^{10**12}", ",".join(["7"] * (MAX_VALUES + 1))):
        with pytest.raises(BadInput, match=str(MAX_VALUES)):
            parse_values(text)


def test_parse_seq_sorts():
    assert parse_seq("5,4") == IntSeq([4, 5])
    with pytest.raises(BadInput):
        parse_seq("1^x")
    with pytest.raises(BadInput):
        parse_seq("a,b")


def test_parse_values_refuses_an_empty_component():
    with pytest.raises(BadInput) as info:
        parse_values("1,,2")
    assert info.type is BadInput and str(info.value) == "empty component in sequence '1,,2'"
