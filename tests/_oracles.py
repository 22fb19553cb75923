"""Independent brute-force oracles used by the test suite.

Everything here recomputes expected values from first principles, without
touching the code paths under test: Leibniz determinants, Macaulay-matrix
leading terms, mod-p Gaussian elimination, dumb enumerations, the
Groebner engine's earlier kernel on exponent tuples, and the unit split on
``Poly`` arithmetic.
"""

import heapq
from itertools import combinations, combinations_with_replacement, permutations
from math import comb


def fp_rank(rows, p):
    """Rank of a matrix over F_p given as a list of row lists."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def sign(perm):
    s = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def leibniz_det(entries, p, nvars):
    """Determinant of a square matrix of Poly by the permutation sum."""
    from pnbundles.poly import Poly

    k = len(entries)
    acc = Poly.zero(p, nvars)
    for perm in permutations(range(k)):
        term = Poly.const(sign(perm), p, nvars)
        for i in range(k):
            term = term * entries[i][perm[i]]
        acc = acc + term
    return acc


def leibniz_maximal_minors(matrix, size, p, nvars):
    results = []
    for rows_sel in combinations(range(len(matrix)), size):
        sub = [matrix[i] for i in rows_sel]
        results.append(leibniz_det(sub, p, nvars))
    return results


def all_monomials(nvars, degree):
    """Exponent tuples of total degree ``degree``, recomputed independently."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e0 in range(degree + 1):
        for rest in all_monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return out


def macaulay_lead_monomials(gens, p, nvars, degree, keyfunc):
    """Leading monomials of the degree-``degree`` slice of a homogeneous ideal.

    Builds the Macaulay matrix of all monomial shifts of the generators in
    that degree, row-reduces over F_p choosing pivots at the largest
    remaining monomial, and reports the pivot monomials.
    """
    basis = sorted(all_monomials(nvars, degree), key=keyfunc, reverse=True)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        d = sum(next(iter(g.terms)))
        if d > degree:
            continue
        for shift in all_monomials(nvars, degree - d):
            row = [0] * len(basis)
            for e, c in g.terms.items():
                m = tuple(a + b for a, b in zip(e, shift))
                row[index[m]] = c % p
            rows.append(row)
    pivots = set()
    rank = 0
    for col in range(len(basis)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.add(basis[col])
        rank += 1
        if rank == len(rows):
            break
    return pivots


def brute_force_admissible(n, r, c1, d):
    """Exhaustive search of the finiteness box for admissible pairs.

    Restates admissibility, c1 and regularity inline so the oracle shares no
    code with the implementation it checks.
    """
    found = set()
    # split pairs: ascending b of length r, sum -c1, entries <= d
    lo0 = -c1 - (r - 1) * d
    if lo0 <= d:
        for b in combinations_with_replacement(range(lo0, d + 1), r):
            if sum(b) == -c1:
                found.add(((), b))
    if r >= n:
        for l in range(1, c1 + r * d + 1):
            lo = -c1 - (r - 1) * d + l
            if lo > d:
                continue
            for b in combinations_with_replacement(range(lo, d + 1), l + r):
                want = c1 + sum(b)
                for a in combinations_with_replacement(range(lo + 1, d + 2), l):
                    if sum(a) != want:
                        continue
                    if any(a[i] <= b[n + i] for i in range(l)):
                        continue
                    if max(b[-1], a[-1] - 1) > d:
                        continue
                    found.add((a, b))
    return found


def _ascending_with_sum(prefix_min, lows, hi, total):
    """Ascending tuples with per-index lower bounds ``lows``, entries at most
    ``hi`` and sum ``total``."""
    k = len(lows)
    if k == 0:
        if total == 0:
            yield ()
        return
    for v in range(max(prefix_min, lows[0]), hi + 1):
        rest = total - v
        if rest < sum(max(v, w) for w in lows[1:]):
            break
        if rest > hi * (k - 1):
            continue
        for tail in _ascending_with_sum(v, lows[1:], hi, rest):
            yield (v,) + tail


def scan_admissible(n, r, c1, d):
    """The admissible-pair search before its b was split into blocks: every
    ascending b in the finiteness box, then the a over each b that passes
    the sum test.  Far cheaper than ``brute_force_admissible``, which tries
    every a as well."""
    found = set()
    lo_split = -c1 - (r - 1) * d
    if lo_split <= d:
        for b in _ascending_with_sum(lo_split, (lo_split,) * r, d, -c1):
            found.add(((), b))
    if r >= n:
        for l in range(1, c1 + r * d + 1):
            b_lo = -c1 - (r - 1) * d + l
            if b_lo > d:
                continue
            for b in combinations_with_replacement(range(b_lo, d + 1), l + r):
                target = c1 + sum(b)
                lows = tuple(b[n + i] + 1 for i in range(l))
                if target < sum(lows) or target > l * (d + 1):
                    continue
                for a in _ascending_with_sum(lows[0], lows, d + 1, target):
                    if all(ai > b[n + i] for i, ai in enumerate(a)) and max(b[-1], a[-1] - 1) <= d:
                        found.add((a, b))
    return found


def summed_hilbert_value(h, t):
    """H(t) as ``HilbertFn.value`` once computed it: the window of the n-th
    difference from s0 to t, summed n times, anew for every t."""
    if t < h.s0:
        return 0
    window = [h.delta_n(u) for u in range(h.s0, t + 1)]
    for _ in range(h.n):
        acc = 0
        for i, v in enumerate(window):
            acc += v
            window[i] = acc
    return window[-1]


def stratum_dimension(pair):
    """The dimension of the stratum of minimal maps of the pair, restated
    from the twists: the forms of all entries of positive degree, less the
    automorphisms of F0 = sum O(b_i) and of F1 = sum O(a_j), each a block of
    forms of degree b_k - b_i >= 0 or a_j - a_m >= 0."""
    n, a, b = pair.n, pair.a.entries, pair.b.entries

    def forms(degrees):
        return sum(comb(e + n, n) for e in degrees)

    return (
        forms(aj - bi for aj in a for bi in b if aj > bi)
        - forms(bk - bi for bk in b for bi in b if bk >= bi)
        - forms(aj - am for aj in a for am in a if aj >= am)
    )


def brute_force_bundle_sequences(n, r, degree):
    """All positive compositions of ``degree`` filtered by the raw clauses."""

    def compositions(total):
        if total == 0:
            yield ()
            return
        for head in range(1, total + 1):
            for rest in compositions(total - head):
                yield (head,) + rest

    out = set()
    for comp in compositions(degree):
        if comp[-1] != r:
            continue
        if len(comp) >= 2 and comp[-2] == r:
            continue
        if any(comp[i + 1] < comp[i] and comp[i + 1] < n for i in range(len(comp) - 1)):
            continue
        out.add(comp)
    return out


def brute_force_max_difference(pair, d, lo, hi, cap):
    """Maximal admissible difference multiset by exhaustive enumeration.

    Tries every multiset with entries in [lo, hi] and multiplicities at most
    ``cap``; asserts the admissible ones have a single maximum and returns it.
    Admissibility and regularity are restated inline.
    """
    values = list(range(lo, hi + 1))

    def admissible_sorted(a, b, n):
        if not a:
            return True
        if len(b) - len(a) < n:
            return False
        return all(a[i] > b[n + i] for i in range(len(a)))

    good = []
    counts = [range(cap + 1)] * len(values)

    def rec(idx, chosen):
        if idx == len(values):
            a = tuple(sorted(pair.a.entries + tuple(chosen)))
            b = tuple(sorted(pair.b.entries + tuple(chosen)))
            reg = b[-1] if not a else max(b[-1], a[-1] - 1)
            if admissible_sorted(a, b, pair.n) and reg <= d:
                good.append(tuple(sorted(chosen)))
            return
        for k in counts[idx]:
            rec(idx + 1, chosen + [values[idx]] * k)

    rec(0, [])
    from collections import Counter

    maximal = []
    for c in good:
        cc = Counter(c)
        if not any(
            c != o and all(Counter(o)[t] >= k for t, k in cc.items()) for o in good
        ):
            maximal.append(c)
    assert len(maximal) == 1, f"expected a unique maximum, got {maximal}"
    return maximal[0]


def walk_max_difference(pair, d):
    """The maximal difference multiset over the minimal pair ``pair`` by the
    walk over every value t in (b_n, d], one copy of t at a time, with
    admissibility and regularity restated inline.  No closed form is used
    for the values above the largest entry of the pair."""
    n, a0, b0 = pair.n, pair.a.entries, pair.b.entries
    if len(b0) - len(a0) < n:
        return ()
    out = []
    for t in range(b0[n - 1] + 1, d + 1):
        k = 0
        while True:
            a = sorted(a0 + (t,) * (k + 1))
            b = sorted(b0 + (t,) * (k + 1))
            if max(b[-1], a[-1] - 1) <= d and all(a[i] > b[n + i] for i in range(len(a))):
                k += 1
            else:
                break
        out.extend([t] * k)
    return tuple(out)


class ScanLattice:
    """The Betti lattice over h up to regularity d, kept as IntSeq nodes.

    Up-sets come from a sub-multiset scan over every node, covers from value
    counts, and every node's pair from ``BettiPair.add_common``: no
    multiplicity vectors, strides or closed forms.
    """

    def __init__(self, h, d):
        from itertools import product

        from pnbundles.generate import max_difference_counts
        from pnbundles.hilbert import minimal_betti
        from pnbundles.seqs import IntSeq

        counts = list(max_difference_counts(h, d))
        self.h, self.d = h, d
        self.base = minimal_betti(h)
        self.cmax = IntSeq(t for t, k in counts for _ in range(k))
        nodes = []
        for mults in product(*(range(k + 1) for _, k in counts)):
            nodes.append(IntSeq(t for (t, _), m in zip(counts, mults) for _ in range(m)))
        nodes.sort(key=lambda c: c.entries)
        self.nodes = tuple(nodes)
        self._index = {c: i for i, c in enumerate(nodes)}
        self._counters = [c.counter() for c in nodes]

    def pair(self, c):
        return self.base.add_common(c)

    def up_set(self, c):
        want = c.counter().items()
        return tuple(
            x for x, cx in zip(self.nodes, self._counters) if all(cx[t] >= k for t, k in want)
        )

    def hasse(self):
        from pnbundles.seqs import IntSeq

        edges = []
        distinct = sorted(set(self.cmax.entries))
        for c in self.nodes:
            for t in distinct:
                if c.count(t) < self.cmax.count(t):
                    edges.append((c, IntSeq(c.entries + (t,))))
        return edges

    def export_dot(self):
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

    def export_json(self):
        import json

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


def memo_bundle_sequences_by_reg(n, r, d):
    """Normalized Hilbert functions of regularity <= d, one degree at a
    time: a fresh recursive suffix memo per degree, a ``HilbertFn`` for every
    candidate and its regularity from ``minimal_betti``."""
    from pnbundles.hilbert import BundleSeq, HilbertFn, minimal_betti

    def sequences(degree):
        memo = {}

        def suffixes(e):
            if e in memo:
                return memo[e]
            out = [(r,)] if e == r else []
            for head in range(1, e - r + 1):
                for tail in suffixes(e - head):
                    if tail[0] < head and tail[0] < n:
                        continue
                    if len(tail) == 1 and head == r:
                        continue
                    out.append((head,) + tail)
            memo[e] = out
            return out

        return suffixes(degree) if degree >= r else []

    out = []
    for degree in range(r, r * (d + 2) + 1):
        anchor = -((-degree) // r)
        for values in sequences(degree):
            h = HilbertFn(n, anchor - len(values), BundleSeq(n, values))
            if minimal_betti(h).regularity() <= d:
                out.append(h)
    return sorted(out, key=lambda h: (h.degree, h.seq.values, h.s0))


# The Groebner engine's earlier kernel, on exponent tuples, kept as the
# reference that the packed kernel in pnbundles.poly must match: the same
# pair selection and criteria, the same division rule (the first record whose
# lead divides), and a lead found by rescanning the whole work dict.


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _tuple_divides(e, f):
    return all(a <= b for a, b in zip(e, f))


def _tuple_record(terms, p):
    lead = max(terms, key=_grevlex_key)
    inv = pow(terms[lead], -1, p)
    return lead, [(e, c * inv % p) for e, c in terms.items()]


def _tuple_sub_multiple(work, factor, shift, terms, p):
    for me, mc in terms:
        e = tuple(a + b for a, b in zip(me, shift))
        v = (work.get(e, 0) - factor * mc) % p
        if v:
            work[e] = v
        elif e in work:
            del work[e]


def _tuple_reduce(terms, records, p):
    work = dict(terms)
    rem = {}
    while work:
        lt = max(work, key=_grevlex_key)
        lc = work[lt]
        for ge, gterms in records:
            if _tuple_divides(ge, lt):
                _tuple_sub_multiple(work, lc, tuple(a - b for a, b in zip(lt, ge)), gterms, p)
                break
        else:
            rem[lt] = lc
            del work[lt]
    return rem


def tuple_normal_form(f, basis):
    """Remainder of f under division by the listed polynomials, in order."""
    from pnbundles.poly import Poly

    records = [_tuple_record(g.terms, f.p) for g in basis if g]
    return Poly(f.p, f.nvars, _tuple_reduce(f.terms, records, f.p))


def tuple_product(f, g):
    """f * g, one shifted copy of g for each term of f."""
    from pnbundles.poly import Poly

    work = {}
    for e, c in f.terms.items():
        _tuple_sub_multiple(work, -c, e, g.terms.items(), f.p)
    return Poly(f.p, f.nvars, work)


def tuple_groebner_basis(gens):
    """The reduced grevlex basis, sorted by descending lead, by Buchberger's
    algorithm with normal selection and the product and chain criteria."""
    from pnbundles.poly import Poly

    gens = [g for g in gens if g]
    if not gens:
        return []
    p, nvars = gens[0].p, gens[0].nvars
    G = [_tuple_record(g.terms, p) for g in gens]
    heap, pending = [], set()

    def add_pairs(j):
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(G[i][0], G[j][0]))
            heapq.heappush(heap, (_grevlex_key(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(1, len(G)):
        add_pairs(j)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        if all(min(a, b) == 0 for a, b in zip(G[i][0], G[j][0])):
            continue
        if any(
            k not in (i, j) and _tuple_divides(G[k][0], lcm)
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue
        work = {}
        for rec, sign in ((G[i], -1), (G[j], 1)):
            _tuple_sub_multiple(work, sign, tuple(a - b for a, b in zip(lcm, rec[0])), rec[1], p)
        r = _tuple_reduce(work, G, p)
        if r:
            G.append(_tuple_record(r, p))
            add_pairs(len(G) - 1)
    G = sorted(G, key=lambda rec: _grevlex_key(rec[0]))
    minimal = []
    for rec in G:
        if not any(_tuple_divides(h[0], rec[0]) for h in minimal):
            minimal.append(rec)
    out = [Poly(p, nvars, _tuple_reduce(t, minimal[:i] + minimal[i + 1 :], p)) for i, (_, t) in enumerate(minimal)]
    return out[::-1]


def full_basis_m_primary(gens, nvars):
    """The earlier m-primary test: the whole reduced basis first, then a scan
    of its leads for a constant or a pure power of every variable."""
    from pnbundles.poly import groebner_basis

    missing = set(range(nvars))
    for g in groebner_basis(gens):
        support = [i for i, e in enumerate(max(g.terms, key=_grevlex_key)) if e]
        if not support:
            return True
        if len(support) == 1:
            missing.discard(support[0])
    return not missing


# A submodule of F = R^l on plain tuples: an element is a dict {(j, exps): c}
# for the term c * m * e_j.  Terms compare by grevlex on m, then by j (the
# order that sympy's agca calls TOP, with the index compared lex); any order
# gives the leads of a Groebner basis the Hilbert function of F / M.  Pairs of
# leads at one position are treated smallest lcm first, with no criterion.


def _module_key(term):
    j, exps = term
    return _grevlex_key(exps), j


def _module_record(terms, p):
    lead = max(terms, key=_module_key)
    inv = pow(terms[lead], -1, p)
    return lead, {t: c * inv % p for t, c in terms.items()}


def _module_reduce(terms, records, p):
    work, rem = dict(terms), {}
    while work:
        (j, lt) = t = max(work, key=_module_key)
        for (gj, ge), g in records:
            if gj == j and _tuple_divides(ge, lt):
                shift, factor = tuple(a - b for a, b in zip(lt, ge)), work[t]
                for (k, e), c in g.items():
                    u = (k, tuple(a + b for a, b in zip(e, shift)))
                    v = (work.get(u, 0) - factor * c) % p
                    if v:
                        work[u] = v
                    else:
                        work.pop(u, None)
                break
        else:
            rem[t] = work.pop(t)
    return rem


def tuple_module_groebner_basis(rows, p):
    """The reduced Groebner basis, each element monic and the list sorted by
    lead, of the submodule that the rows (lists of Poly, one per position)
    span."""
    G = [{(j, e): c for j, f in enumerate(row) for e, c in f.terms.items()} for row in rows]
    G = [_module_record(g, p) for g in G if g]
    heap = []

    def add_pairs(j):
        for i in range(j):
            (pi, ei), (pj, ej) = G[i][0], G[j][0]
            if pi == pj:
                lcm = tuple(map(max, ei, ej))
                heapq.heappush(heap, (_grevlex_key(lcm), i, j, lcm))

    for j in range(1, len(G)):
        add_pairs(j)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        work = {}
        for (_, e), g in (G[i], G[j]):
            shift, sign = tuple(a - b for a, b in zip(lcm, e)), 1 if g is G[i][1] else -1
            for (k, m), c in g.items():
                u = (k, tuple(a + b for a, b in zip(m, shift)))
                work[u] = (work.get(u, 0) + sign * c) % p
        r = _module_reduce({u: c for u, c in work.items() if c}, G, p)
        if r:
            G.append(_module_record(r, p))
            add_pairs(len(G) - 1)
    minimal = []
    for lead, g in sorted(G, key=lambda rec: _module_key(rec[0])):
        if not any(h[0] == lead[0] and _tuple_divides(h[1], lead[1]) for h, _ in minimal):
            minimal.append((lead, g))
    others = [minimal[:k] + minimal[k + 1 :] for k in range(len(minimal))]
    return [_module_record(_module_reduce(g, rest, p), p)[1] for (_, g), rest in zip(minimal, others)]


def module_leads(rows, p):
    """The leads (j, exps) of the oracle's reduced basis of the rows."""
    return {max(g, key=_module_key) for g in tuple_module_groebner_basis(rows, p)}


def module_hilbert(rows, twists, nvars, p, degrees):
    """dim (F / M)_t for each t in ``degrees``, F the free module with basis
    e_j of degree -twists[j], counted from the leads of the oracle's basis."""
    leads = module_leads(rows, p)
    return [
        sum(
            not any(k == j and _tuple_divides(e, m) for k, e in leads)
            for j, a in enumerate(twists) for m in all_monomials(nvars, t + a) if t + a >= 0
        )
        for t in degrees
    ]


def poly_split_units(m):
    """The unit split on ``Poly`` arithmetic, the way ``bundles._split_units``
    did it before it worked on packed terms: while a unit is left, the first
    one by (row, column) clears its column by row operations, each a product
    and a difference of polynomials, and is deleted with its row and column.
    Returns the minimal pair and rows."""
    from pnbundles.betti import BettiPair

    pair, rows = m.pair, m.rows
    a, b = list(pair.a.entries), list(pair.b.entries)

    def units():
        return ((i, j) for i, bi in enumerate(b) for j, aj in enumerate(a) if aj == bi and rows[i][j])

    while (pivot := next(units(), None)) is not None:
        i0, j0 = pivot
        piv_row = rows[i0]
        cinv = pow(*piv_row[j0].terms.values(), -1, m.p)  # a unit has one term
        cleared = []
        for i, row in enumerate(rows):
            if i != i0:
                if row[j0]:
                    factor = row[j0].scale(cinv)
                    row = [e - factor * pe for e, pe in zip(row, piv_row)]
                cleared.append(row[:j0] + row[j0 + 1 :])
        rows = cleared
        del a[j0], b[i0]
    return (pair if len(a) == pair.l else BettiPair(pair.n, a, b)), rows
