"""The finite graded lattice of Betti pairs over one Hilbert function.

Every pair sharing the Hilbert data is the minimal pair plus a difference
multiset, so nodes are stored as the sub-multisets of the maximal difference
multiset for the given regularity bound.  Meet and join are pointwise
min/max of multiplicities, the grading is the multiset size, and the Hasse
diagram adds one value at a time.
"""

from __future__ import annotations

import json
from itertools import product

from .betti import BettiPair
from .errors import BadInput, UnknownFormat
from .generate import max_difference_counts
from .hilbert import HilbertFn, minimal_betti
from .seqs import IntSeq, is_sub_multiset, seq_max, seq_min

# the JSON export takes time quadratic in the node count
MAX_NODES = 1024


class BettiLattice:
    """All Betti pairs over ``h`` with regularity at most ``d``.

    Nodes are difference multisets c, ordered by multiset inclusion; the
    pair at node c is base + c.  Raises RegularityTooSmall when even the
    minimal pair exceeds the bound, and BadInput when the lattice would have
    more than MAX_NODES nodes.
    """

    __slots__ = ("h", "d", "base", "cmax", "nodes", "_index")

    def __init__(self, h: HilbertFn, d: int):
        base = minimal_betti(h)
        counts, size = [], 1
        for t, k in max_difference_counts(h, d):  # checks the regularity bound
            size *= k + 1
            if size > MAX_NODES:
                raise BadInput(f"the lattice has more than {MAX_NODES} nodes")
            counts.append((t, k))
        cmax = IntSeq(t for t, k in counts for _ in range(k))
        nodes = []
        for mults in product(*(range(k + 1) for _, k in counts)):
            entries = []
            for (value, _), k in zip(counts, mults):
                entries.extend([value] * k)
            nodes.append(IntSeq(entries))
        nodes.sort(key=lambda c: c.entries)
        self.h = h
        self.d = d
        self.base = base
        self.cmax = cmax
        self.nodes = tuple(nodes)
        self._index = {c: i for i, c in enumerate(nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    def _check(self, c: IntSeq) -> IntSeq:
        if c not in self._index:
            raise ValueError(f"{c} is not a node of this lattice")
        return c

    def pair(self, c: IntSeq) -> BettiPair:
        """The Betti pair at node c."""
        return self.base.add_common(self._check(c))

    def grade(self, c: IntSeq) -> int:
        return len(self._check(c))

    def meet(self, x: IntSeq, y: IntSeq) -> IntSeq:
        return seq_min(self._check(x), self._check(y))

    def join(self, x: IntSeq, y: IntSeq) -> IntSeq:
        return seq_max(self._check(x), self._check(y))

    def up_set(self, c: IntSeq) -> tuple[IntSeq, ...]:
        """All nodes containing c: the specializations of the pair at c."""
        self._check(c)
        return tuple(x for x in self.nodes if is_sub_multiset(c, x))

    def grade_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (len(self.cmax) + 1)
        for c in self.nodes:
            sizes[len(c)] += 1
        return tuple(sizes)

    def hasse(self) -> list[tuple[IntSeq, IntSeq]]:
        """Cover relations: add one copy of an available value."""
        edges = []
        distinct = sorted(set(self.cmax.entries))
        for c in self.nodes:
            for t in distinct:
                if c.count(t) < self.cmax.count(t):
                    edges.append((c, IntSeq(c.entries + (t,))))
        return edges

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
        for i, c in enumerate(self.nodes):
            p = self.pair(c)
            label = f"c={c} | a={p.a} b={p.b} | q={p.grading_q()}"
            lines.append(f'  n{i} [label="{label}"];')
        for x, y in self.hasse():
            lines.append(f"  n{self._index[x]} -> n{self._index[y]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _export_json(self) -> str:
        nodes = []
        for c in self.nodes:
            p = self.pair(c)
            nodes.append(
                {
                    "c": c.to_json(),
                    "a": p.a.to_json(),
                    "b": p.b.to_json(),
                    "grade": len(c),
                    "regularity": p.regularity(),
                    "closure_contains": [x.to_json() for x in self.up_set(c)],
                }
            )
        payload = {
            "n": self.h.n,
            "s0": self.h.s0,
            "B": list(self.h.seq.values),
            "d": self.d,
            "base": {"a": self.base.a.to_json(), "b": self.base.b.to_json()},
            "cmax": self.cmax.to_json(),
            "nodes": nodes,
            "edges": [[x.to_json(), y.to_json()] for x, y in self.hasse()],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
