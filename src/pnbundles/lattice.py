"""The finite graded lattice of Betti pairs over one Hilbert function.

Every pair sharing the Hilbert data is the minimal pair plus a difference
multiset, so nodes are the sub-multisets of the maximal difference multiset
c_max for the given regularity bound.  A sub-multiset is its vector of
multiplicities m in the product of chains [0, k_1] x ... x [0, k_s], k_j the
multiplicity in c_max of its j-th smallest value, so the lattice works
coordinate-wise: meet and join are min and max, the grade is the sum, a
cover adds 1 in one coordinate, and the up-set of m is the box of the
[m_j, k_j].
"""

from __future__ import annotations

from itertools import product

from .betti import BettiPair
from .errors import BadInput, UnknownFormat
from .generate import max_difference_counts
from .hilbert import HilbertFn, minimal_betti
from .jsonout import dumps
from .seqs import IntSeq

# Bounds the output, not the work, which is linear in it: the JSON up-set
# lists hold prod_j (k_j+1)(k_j+2)/2 sequences in total.
MAX_NODES = 1024


class BettiLattice:
    """All Betti pairs over ``h`` with regularity at most ``d``.

    Nodes are difference multisets c, ordered by multiset inclusion and
    listed in lexicographic order of their entries; the pair at node c is
    base + c.  Raises RegularityTooSmall when even the minimal pair exceeds
    the bound, and BadInput when the lattice would have more than MAX_NODES
    nodes.
    """

    __slots__ = (
        "h", "d", "base", "cmax", "nodes", "_index", "_caps", "_strides", "_mults", "_codes", "_rank",
    )

    def __init__(self, h: HilbertFn, d: int):
        base = minimal_betti(h)
        counts, size = [], 1
        for t, k in max_difference_counts(h, d):  # checks the regularity bound
            size *= k + 1
            if size > MAX_NODES:
                raise BadInput(f"the lattice has more than {MAX_NODES} nodes")
            counts.append((t, k))
        # a node's code is its position in the product order, the last
        # coordinate running fastest; its index is its position in self.nodes
        vectors = list(product(*(range(k + 1) for _, k in counts)))
        entries = [tuple(t for (t, _), m in zip(counts, v) for _ in range(m)) for v in vectors]
        codes = sorted(range(size), key=entries.__getitem__)
        rank = [0] * size
        for i, code in enumerate(codes):
            rank[code] = i
        strides, stride = [], 1
        for _, k in reversed(counts):
            strides.append(stride)
            stride *= k + 1
        self.h = h
        self.d = d
        self.base = base
        self.cmax = IntSeq(t for t, k in counts for _ in range(k))
        self.nodes = tuple(IntSeq(entries[code]) for code in codes)
        self._index = {c: i for i, c in enumerate(self.nodes)}
        self._caps = tuple(k for _, k in counts)
        self._strides = tuple(reversed(strides))
        self._mults = tuple(vectors[code] for code in codes)
        self._codes = tuple(codes)
        self._rank = tuple(rank)

    def __len__(self) -> int:
        return len(self.nodes)

    def _at(self, c: IntSeq) -> int:
        i = self._index.get(c)
        if i is None:
            raise ValueError(f"{c} is not a node of this lattice")
        return i

    def _node(self, mults) -> IntSeq:
        return self.nodes[self._rank[sum(m * s for m, s in zip(mults, self._strides))]]

    def pair(self, c: IntSeq) -> BettiPair:
        """The Betti pair at node c."""
        self._at(c)
        return self.base.add_common(c)

    def grade(self, c: IntSeq) -> int:
        return sum(self._mults[self._at(c)])

    def meet(self, x: IntSeq, y: IntSeq) -> IntSeq:
        return self._node(map(min, self._mults[self._at(x)], self._mults[self._at(y)]))

    def join(self, x: IntSeq, y: IntSeq) -> IntSeq:
        return self._node(map(max, self._mults[self._at(x)], self._mults[self._at(y)]))

    def _up_set(self, i: int) -> list[int]:
        """Indices of the nodes above node i, ascending."""
        codes = [0]
        for m, k, s in zip(self._mults[i], self._caps, self._strides):
            codes = [code + v * s for code in codes for v in range(m, k + 1)]
        return sorted(self._rank[code] for code in codes)

    def up_set(self, c: IntSeq) -> tuple[IntSeq, ...]:
        """All nodes containing c: the specializations of the pair at c."""
        return tuple(self.nodes[j] for j in self._up_set(self._at(c)))

    def grade_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (len(self.cmax) + 1)
        for c in self.nodes:
            sizes[len(c)] += 1
        return tuple(sizes)

    def _edges(self) -> list[tuple[int, int]]:
        """Cover relations as index pairs, by node and then by added value."""
        edges = []
        for i, (ms, code) in enumerate(zip(self._mults, self._codes)):
            for m, k, s in zip(ms, self._caps, self._strides):
                if m < k:
                    edges.append((i, self._rank[code + s]))
        return edges

    def hasse(self) -> list[tuple[IntSeq, IntSeq]]:
        """Cover relations: add one copy of an available value."""
        return [(self.nodes[i], self.nodes[j]) for i, j in self._edges()]

    def _pairs(self):
        """Per node: c, a and b of the pair base + c, as tuples."""
        a0, b0 = self.base.a.entries, self.base.b.entries
        for c in self.nodes:
            yield c.entries, tuple(sorted(a0 + c.entries)), tuple(sorted(b0 + c.entries))

    def export(self, fmt: str) -> str:
        """Serialize as a DOT digraph or a JSON document.

        Edges point from a pair to its specializations; the closure order of
        the matching strata runs the other way, which the export records via
        the per-node ``closure_contains`` list (its up-set).
        """
        if fmt == "dot":
            return self._export_dot()
        if fmt == "json":
            return self._export_json()
        raise UnknownFormat(f"unknown lattice format {fmt!r}")

    def _export_dot(self) -> str:
        lines = [
            "digraph betti_lattice {",
            "  rankdir=BT;",
            '  label="edges point from a pair to its specializations; stratum closures are ordered the other way";',
        ]
        q0 = self.base.grading_q()
        for i, (c, a, b) in enumerate(self._pairs()):
            label = f"c={_fmt(c)} | a={_fmt(a)} b={_fmt(b)} | q={q0 + len(c)}"
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in self._edges():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _export_json(self) -> str:
        # adding c to both sides raises the regularity to at least max(c)
        reg0 = self.base.regularity()
        nodes = []
        for i, (c, a, b) in enumerate(self._pairs()):
            nodes.append(
                {
                    "c": c,
                    "a": a,
                    "b": b,
                    "grade": len(c),
                    "regularity": max(reg0, c[-1]) if c else reg0,
                    "closure_contains": [self.nodes[j].entries for j in self._up_set(i)],
                }
            )
        payload = {
            "n": self.h.n,
            "s0": self.h.s0,
            "B": self.h.seq.values,
            "d": self.d,
            "base": {"a": self.base.a.entries, "b": self.base.b.entries},
            "cmax": self.cmax.entries,
            "nodes": nodes,
            "edges": [(self.nodes[i].entries, self.nodes[j].entries) for i, j in self._edges()],
        }
        return dumps(payload)


def _fmt(entries: tuple[int, ...]) -> str:
    """``entries`` as ``IntSeq.__str__`` writes them."""
    return "(" + ",".join(map(str, entries)) + ")"
