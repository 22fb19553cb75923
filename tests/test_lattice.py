"""The graded lattice of pairs over a fixed Hilbert function."""

import json
import random
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnbundles.betti import BettiPair
from pnbundles.errors import BadInput, RegularityTooSmall, UnknownFormat
from pnbundles.generate import bundle_sequences, bundle_sequences_by_reg, max_difference_counts
from pnbundles.hilbert import HilbertFn, minimal_betti
from pnbundles.lattice import MAX_NODES, BettiLattice
from pnbundles.seqs import IntSeq, is_sub_multiset

from _oracles import ScanLattice, scan_admissible, stratum_dimension


@pytest.fixture
def cube():
    return BettiLattice(HilbertFn(3, -1, [5, 4]), 2)


def test_golden_eight_node_lattice(cube):
    assert cube.base == BettiPair(3, [0], [-1] * 5)
    assert cube.cmax == IntSeq([0, 1, 2])
    assert len(cube) == 8
    assert cube.grade_sizes() == (1, 3, 3, 1)
    assert len(cube.hasse()) == 12


def test_node_count_formula(cube):
    count = 1
    for t in set(cube.cmax):
        count *= cube.cmax.count(t) + 1
    assert len(cube) == count


def test_meet_join_golden(cube):
    x, y = IntSeq([0, 1]), IntSeq([1, 2])
    assert cube.meet(x, y) == IntSeq([1])
    assert cube.join(x, y) == IntSeq([0, 1, 2])
    bottom = IntSeq()
    for c in cube.nodes:
        assert cube.meet(c, bottom) == bottom
        assert cube.join(c, c) == c


def test_meet_join_match_boolean_cube(cube):
    # independent oracle: nodes of the 8-node lattice are subsets of {0,1,2}
    for x in cube.nodes:
        for y in cube.nodes:
            sx, sy = set(x.entries), set(y.entries)
            assert set(cube.meet(x, y).entries) == sx & sy
            assert set(cube.join(x, y).entries) == sx | sy


def test_every_node_admissible_with_bound(cube):
    for c in cube.nodes:
        pair = cube.pair(c)
        assert pair.is_admissible()
        assert pair.regularity() <= cube.d
        assert pair.grading_q() == len(c) == cube.grade(c)


def test_singleton_lattice():
    h = HilbertFn(3, -1, [5, 4])
    base_reg = minimal_betti(h).regularity()
    lat = BettiLattice(h, base_reg)
    assert len(lat) == 1
    assert lat.hasse() == []
    with pytest.raises(RegularityTooSmall):
        BettiLattice(h, base_reg - 1)


def test_chain_lattice_from_repeated_value():
    # split rank 4 on the plane: the value 1 can be added twice, nothing else
    h = HilbertFn(2, 0, [4])
    lat = BettiLattice(h, 1)
    assert lat.cmax == IntSeq([1, 1])
    assert len(lat) == 3
    assert len(lat.hasse()) == 2
    assert lat.grade_sizes() == (1, 1, 1)


def test_hasse_edges_are_covers(cube):
    for x, y in cube.hasse():
        assert len(y) == len(x) + 1
        assert is_sub_multiset(x, y)


def test_export_dot(cube):
    dot = cube.export("dot")
    assert dot.count("[label=") == 8
    assert dot.count("->") == 12
    assert dot == cube.export("dot")  # deterministic
    with pytest.raises(UnknownFormat):
        cube.export("csv")


def test_export_json_round_trip(cube):
    doc = json.loads(cube.export("json"))
    assert len(doc["nodes"]) == 8
    assert doc["cmax"] == [0, 1, 2]
    got_nodes = {tuple(node["c"]) for node in doc["nodes"]}
    assert got_nodes == {c.entries for c in cube.nodes}
    assert len(doc["edges"]) == 12
    # closure annotation is the up-set
    by_c = {tuple(node["c"]): node for node in doc["nodes"]}
    top = by_c[(0, 1, 2)]
    assert top["closure_contains"] == [[0, 1, 2]]
    bottom = by_c[()]
    assert len(bottom["closure_contains"]) == 8


def test_up_set_duality(cube):
    # specialization order: up-set of the join is the intersection of up-sets
    for x in cube.nodes:
        for y in cube.nodes:
            ux = set(cube.up_set(x))
            uy = set(cube.up_set(y))
            assert set(cube.up_set(cube.join(x, y))) == ux & uy


def _random_lattices(rng, count):
    lats = []
    pool = []
    for n in (2, 3):
        for r in range(n, 6):
            for degree in range(r, 11):
                pool.extend((n, seq) for seq in bundle_sequences(n, r, degree))
    while len(lats) < count:
        n, seq = pool[rng.randrange(len(pool))]
        anchor = rng.randint(-2, 2)
        h = HilbertFn(n, anchor, seq)
        d = minimal_betti(h).regularity() + rng.randint(0, 3)
        lat = BettiLattice(h, d)
        if len(lat) > 1:
            lats.append(lat)
    return lats


def test_lattice_axioms_random():
    rng = random.Random(31)
    for lat in _random_lattices(rng, 10):
        nodes = lat.nodes
        for _ in range(30):
            x, y, z = (nodes[rng.randrange(len(nodes))] for _ in range(3))
            assert lat.meet(x, y) == lat.meet(y, x)
            assert lat.join(x, y) == lat.join(y, x)
            assert lat.meet(x, lat.meet(y, z)) == lat.meet(lat.meet(x, y), z)
            assert lat.join(x, lat.join(y, z)) == lat.join(lat.join(x, y), z)
            assert lat.join(x, lat.meet(x, y)) == x
            assert lat.meet(x, lat.join(x, y)) == x
            # graded-rank additivity with equality
            assert lat.grade(lat.join(x, y)) + lat.grade(lat.meet(x, y)) == lat.grade(x) + lat.grade(y)
            # join regularity is the max of the two regularities
            rx = lat.pair(x).regularity()
            ry = lat.pair(y).regularity()
            assert lat.pair(lat.join(x, y)).regularity() == max(rx, ry)


@pytest.mark.parametrize("anchor,B,d", [
    (-1, [5, 4], 0),
    (-1, [5, 4], 1),
    (-1, [5, 4], 2),
    (0, [4], 1),
    (0, [1, 4], 2),
])
def test_lattice_agrees_with_bounded_enumeration(anchor, B, d):
    # the nodes are exactly the admissible pairs with this Hilbert function
    # and regularity <= d, as found independently by the scan of every b in
    # the enumeration box (enumerate_admissible is built from the lattices)
    from pnbundles.hilbert import hilbert_of_betti

    h = HilbertFn(3, anchor, B)
    lat = BettiLattice(h, d)
    node_pairs = {lat.pair(c) for c in lat.nodes}
    base = minimal_betti(h)
    box = {BettiPair(3, a, b) for a, b in scan_admissible(3, base.r, base.c1(), d)}
    filtered = {p for p in box if hilbert_of_betti(p) == h}
    assert node_pairs == filtered


def _assert_matches_scan(lat, oracle):
    assert lat.nodes == oracle.nodes
    assert lat.hasse() == oracle.hasse()
    assert lat.export("dot") == oracle.export_dot()
    assert lat.export("json") == oracle.export_json()
    for c in lat.nodes:
        assert lat.up_set(c) == oracle.up_set(c)


GRID_SMALL = 16  # the scan oracle is quadratic in the node count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_matches_scan_oracle(n):
    # every normalized h of rank <= 6 and regularity <= 1, twisted by -2, 0
    # and 3, with d from reg to reg+4: lattices of at most GRID_SMALL nodes
    # are compared in full, and past MAX_NODES the lattice must refuse
    compared = 0
    for r in range(1, 7):
        for h0 in bundle_sequences_by_reg(n, r, 1):
            for twist in (-2, 0, 3):
                h = HilbertFn(n, h0.s0 + twist, h0.seq)
                reg = minimal_betti(h).regularity()
                for d in range(reg, reg + 5):
                    size = prod(k + 1 for _, k in max_difference_counts(h, d))
                    if size > MAX_NODES:
                        with pytest.raises(BadInput, match=str(MAX_NODES)):
                            BettiLattice(h, d)
                    elif size <= GRID_SMALL:
                        _assert_matches_scan(BettiLattice(h, d), ScanLattice(h, d))
                        compared += 1
    assert compared > 1000


@pytest.mark.parametrize("twist", [0, 3])
def test_lattice_matches_scan_oracle_at_512_nodes(twist):
    # the benchmark's lattice: nine values of multiplicity one
    h, d = HilbertFn(3, -1 + twist, [5, 4]), 8 + twist
    lat = BettiLattice(h, d)
    assert len(lat) == 512
    _assert_matches_scan(lat, ScanLattice(h, d))


_POOL = [
    (n, h.seq) for n in range(1, 5) for r in range(1, 7) for h in bundle_sequences_by_reg(n, r, 1)
]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(_POOL), st.integers(-3, 3), st.integers(0, 5), st.data())
def test_lattice_is_a_product_of_chains(item, anchor, slack, data):
    n, seq = item
    h = HilbertFn(n, anchor, seq)
    d = minimal_betti(h).regularity() + slack
    assume(prod(k + 1 for _, k in max_difference_counts(h, d)) <= MAX_NODES)
    lat = BettiLattice(h, d)
    x, y = (data.draw(st.sampled_from(lat.nodes)) for _ in range(2))
    values = set(lat.cmax)
    meet, join = lat.meet(x, y), lat.join(x, y)
    for t in values:
        assert meet.count(t) == min(x.count(t), y.count(t))
        assert join.count(t) == max(x.count(t), y.count(t))
    assert set(meet) | set(join) <= values
    assert set(lat.up_set(join)) == set(lat.up_set(x)) & set(lat.up_set(y))
    for lo, hi in lat.hasse():
        assert lat.grade(hi) == lat.grade(lo) + 1
        assert is_sub_multiset(lo, hi)


def test_stratum_dimension_drops_along_every_cover():
    # a cover c -> c + (t) specializes the pair at c, so the bigger pair's
    # stratum lies in the closure of the smaller's and has lower dimension;
    # the drop is not the grade, so only its sign is checked
    lattices = covers = 0
    for n in range(1, 5):
        for r in range(n, 6):
            for d in range(3):
                for h in bundle_sequences_by_reg(n, r, d):
                    try:
                        lattice = BettiLattice(h, d)
                    except (BadInput, RegularityTooSmall):
                        continue
                    lattices += 1
                    for small, big in lattice.hasse():
                        covers += 1
                        drop = stratum_dimension(lattice.pair(small)) - stratum_dimension(lattice.pair(big))
                        assert drop > 0, (h, small, big)
    assert (lattices, covers) == (4978, 12680)


def test_lattice_refuses_a_non_node(cube):
    with pytest.raises(ValueError) as info:
        cube.grade(IntSeq([99]))
    assert info.type is ValueError and str(info.value) == "(99) is not a node of this lattice"
