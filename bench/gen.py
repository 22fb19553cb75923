"""Seeded input generators that carry their own ground truth.

Every generator takes a ``random.Random`` and returns an input together
with the answer it must produce.  The polynomial arithmetic here is a
small dict-of-exponents implementation of its own, so that the truth of
an input never rests on ``pnbundles.poly``, the layer under test.

A polynomial is a dict ``{exponent tuple: coefficient in 1..p-1}``.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

P = 32003


def monomials(nvars, degree):
    out = []
    for picks in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in picks:
            e[i] += 1
        out.append(tuple(e))
    return out


def padd(f, g, p=P):
    out = dict(f)
    for e, c in g.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(f, g, p=P):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def evaluate(f, point, p=P):
    total = 0
    for e, c in f.items():
        term = c
        for x, k in zip(point, e):
            term = term * pow(x, k, p) % p
        total += term
    return total % p


def random_form(nvars, degree, rng, p=P):
    """Every monomial coefficient uniform in F_p, zero included."""
    f = {}
    for e in monomials(nvars, degree):
        c = rng.randrange(p)
        if c:
            f[e] = c
    return f


def format_text(f):
    """The matrix-document spelling of a polynomial: a plain sum of terms."""
    if not f:
        return "0"
    parts = []
    for e in sorted(f, reverse=True):
        factors = [f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        parts.append("*".join([str(f[e])] + factors))
    return " + ".join(parts)


def det_mod(rows, p=P):
    """Determinant of a square integer matrix over F_p by elimination."""
    rows = [list(r) for r in rows]
    k = len(rows)
    det = 1
    for col in range(k):
        piv = next((i for i in range(col, k) if rows[i][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for i in range(col + 1, k):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[col])]
    return det % p


def random_invertible(k, rng, p=P):
    while True:
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if det_mod(m, p):
            return m


def substitute(f, A, p=P):
    """f(A x): replace x_i by the linear form sum_j A[i][j] x_j."""
    nvars = len(A)
    linear = [{tuple(int(j == t) for t in range(nvars)): c % p for j, c in enumerate(row) if c % p}
              for row in A]
    one = {(0,) * nvars: 1}
    powers = {}

    def power(i, k):
        if (i, k) not in powers:
            powers[i, k] = one if k == 0 else pmul(power(i, k - 1), linear[i], p)
        return powers[i, k]

    out = {}
    for e, c in f.items():
        term = {(0,) * nvars: c}
        for i, k in enumerate(e):
            if k:
                term = pmul(term, power(i, k), p)
        out = padd(out, term, p)
    return out


def admissible(n, a, b):
    """The admissibility clauses, restated: a empty, or r >= n and a_i > b_{n+i}."""
    if not a:
        return True
    return len(b) - len(a) >= n and all(a[i] > b[n + i] for i in range(len(a)))


def staircase(n, a, b, p=P):
    """The banded explicit presentation: x_j^(a_i - b_{i+j}) at row i+j, column i."""
    nvars = n + 1
    rows = [[{} for _ in a] for _ in b]
    for i, ai in enumerate(a):
        for j in range(nvars):
            e = tuple(ai - b[i + j] if t == j else 0 for t in range(nvars))
            rows[i + j][i] = {e: 1}
    return rows


def matmul(X, Y, p=P):
    out = []
    for row in X:
        new = []
        for j in range(len(Y[0])):
            acc = {}
            for k, x in enumerate(row):
                if x and Y[k][j]:
                    acc = padd(acc, pmul(x, Y[k][j], p), p)
            new.append(acc)
        out.append(new)
    return out


def graded_unitriangular(twists, nvars, rng, p=P, lower=False):
    """A random invertible graded change of basis of a free module.

    Entry (i, k) is a form of degree twists[k] - twists[i], so the product
    with a homogeneous matrix stays homogeneous of the same shape.  Off the
    diagonal only one triangular half is filled (above it, or below it where
    only equal twists give degree 0), and the diagonal carries nonzero
    constants, so the matrix is invertible.
    """
    size = len(twists)
    m = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        m[i][i] = {(0,) * nvars: 1 + rng.randrange(p - 1)}
        for k in range(size):
            if (k < i) if lower else (k > i):
                d = twists[k] - twists[i]
                if d >= 0:
                    m[i][k] = random_form(nvars, d, rng, p)
    return m


def document(n, a, b, rows, p=P):
    return {
        "n": n,
        "p": p,
        "a": list(a),
        "b": list(b),
        "entries": [[format_text(e) for e in row] for row in rows],
    }


def disguised_bundle(n, a, b, rng, p=P):
    """A bundle by construction: the staircase of an admissible pair, after
    a random linear change of coordinates and random invertible graded row
    and column operations.  Both preserve the cokernel up to isomorphism."""
    if not admissible(n, a, b) or not a:
        raise ValueError(f"({a}, {b}) is not an admissible pair with nonempty a")
    nvars = n + 1
    A = random_invertible(nvars, rng, p)
    rows = [[substitute(e, A, p) if e else {} for e in row] for row in staircase(n, a, b, p)]
    # row operations act on the target twists b (degree b_k - b_i), both
    # triangular halves so that no entry keeps its staircase shape
    for lower in (False, True):
        rows = matmul(graded_unitriangular(b, nvars, rng, p, lower), rows, p)
    # column operations act on the source twists a (degree a_j - a_k)
    for lower in (False, True):
        rows = matmul(rows, graded_unitriangular(a, nvars, rng, p, lower), p)
    return document(n, a, b, rows, p), True


def hidden_point_matrix(n, a, b, rng, p=P):
    """Not a bundle by construction: every entry vanishes at a hidden point
    of P^n(F_p), so the matrix has rank 0 there."""
    nvars = n + 1
    point = [rng.randrange(p) for _ in range(nvars)]
    while not any(point):
        point = [rng.randrange(p) for _ in range(nvars)]
    k = next(i for i, x in enumerate(point) if x)
    rows = []
    for bi in b:
        row = []
        for aj in a:
            d = aj - bi
            if d <= 0:
                row.append({})
                continue
            f = random_form(nvars, d, rng, p)
            # subtract f(P) / P_k^d * x_k^d so that the entry vanishes at P
            fix = evaluate(f, point, p) * pow(point[k], -d, p) % p
            pure = tuple(d if t == k else 0 for t in range(nvars))
            row.append(padd(f, {pure: -fix % p}, p))
        rows.append(row)
    return document(n, a, b, rows, p), False


def zero_block_matrix(n, a, b, rng, p=P):
    """Not a bundle by construction: a random minimal map of a shape with
    r >= n and some a_i <= b_{n+i}.  Entries of degree <= 0 are zero, so the
    first i+1 columns live in the top n+i rows and their maximal minors
    generate an ideal of height <= n, which is never m-primary."""
    if len(b) - len(a) < n or admissible(n, a, b):
        raise ValueError(f"({a}, {b}) is not a zero-block shape")
    nvars = n + 1
    rows = [[random_form(nvars, aj - bi, rng, p) if aj > bi else {} for aj in a] for bi in b]
    return document(n, a, b, rows, p), False
