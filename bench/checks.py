"""Output checks that share no code with the layers they check.

Every invariant is restated here from the paper's definitions: the
admissibility clauses, multiset arithmetic on twist sequences, the bundle
sequence clauses, the minimal pair of a Hilbert function and its
regularity.  JSON outputs are also validated against the package's
shipped schemas with a small validator of the keywords those schemas use.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations_with_replacement
from math import prod

from gen import admissible


class CheckFailed(Exception):
    """An output disagrees with the truth of its input."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- JSON schema --------------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}
_IGNORED = {"$schema", "title", "$defs"}


def schema_errors(value, schema, root=None, where="$"):
    """The list of places where ``value`` breaks ``schema``.

    Supports exactly the keywords the package's schemas use and refuses any
    other, so a schema that grows a new keyword cannot pass unchecked.
    """
    root = schema if root is None else root
    errors = []
    for key, rule in schema.items():
        if key in _IGNORED or key in ("properties", "patternProperties"):
            continue
        if key == "$ref":
            target = root
            for part in rule.removeprefix("#/").split("/"):
                target = target[part]
            errors += schema_errors(value, target, root, where)
        elif key == "type":
            if not _TYPES[rule](value):
                errors.append(f"{where}: not of type {rule}")
                return errors
        elif key == "required":
            errors += [f"{where}: missing {k}" for k in rule if k not in value]
        elif key == "additionalProperties":
            patterns = schema.get("patternProperties", {})
            for k, v in value.items():
                if k in schema.get("properties", {}) or any(re.search(p, k) for p in patterns):
                    continue
                if rule is False:
                    errors.append(f"{where}: unexpected key {k}")
                else:
                    errors += schema_errors(v, rule, root, f"{where}.{k}")
        elif key == "items":
            for i, v in enumerate(value):
                errors += schema_errors(v, rule, root, f"{where}[{i}]")
        elif key == "minItems":
            if len(value) < rule:
                errors.append(f"{where}: fewer than {rule} items")
        elif key == "maxItems":
            if len(value) > rule:
                errors.append(f"{where}: more than {rule} items")
        elif key == "minimum":
            if value < rule:
                errors.append(f"{where}: below {rule}")
        elif key == "oneOf":
            passing = sum(not schema_errors(value, s, root, where) for s in rule)
            if passing != 1:
                errors.append(f"{where}: matches {passing} of the oneOf branches")
        else:
            raise ValueError(f"schema keyword {key!r} is not supported")
    if isinstance(value, dict):
        for k, sub in schema.get("properties", {}).items():
            if k in value:
                errors += schema_errors(value[k], sub, root, f"{where}.{k}")
        for pattern, sub in schema.get("patternProperties", {}).items():
            for k, v in value.items():
                if re.search(pattern, k):
                    errors += schema_errors(v, sub, root, f"{where}.{k}")
    return errors


def require_schema(value, schema, what):
    errors = schema_errors(value, schema)
    require(not errors, f"{what} breaks its schema: {errors[:3]}")


# -- multisets of twists ------------------------------------------------------


def difference(big, small):
    """The multiset big - small, or None when small is not contained in big."""
    rest = Counter(big)
    rest.subtract(Counter(small))
    if any(k < 0 for k in rest.values()):
        return None
    return sorted(rest.elements())


def jumps(a, b):
    """The (n+1)-st difference of the Hilbert function: mult(b, t) - mult(a, t)."""
    out = Counter(b)
    out.subtract(Counter(a))
    return {t: k for t, k in out.items() if k}


# -- workload outputs ---------------------------------------------------------


def check_verdict(verdict, doc, source, truth, schema):
    """One ``check`` verdict against the construction's truth."""
    require_schema(verdict, schema, "check output")
    require(verdict["source"] == source, f"source {verdict['source']!r} != {source!r}")
    for key in ("n", "p", "a", "b"):
        require(verdict[key] == doc[key], f"{source}: {key} {verdict[key]} != {doc[key]}")
    require(verdict["minimal"] is True, f"{source}: a minimal map reported as not minimal")
    require(verdict["bundle"] is truth, f"{source}: bundle={verdict['bundle']}, truth is {truth}")


def check_deform(out, family, schema):
    """A ``deform`` report: t=0 gives big, every t != 0 gives NotABundle or a
    pair P that is admissible, satisfies big = P + c for a common multiset c,
    and so has the Hilbert function of big.  Returns (fibers, small, not_bundle)."""
    n, small, big = family
    require_schema(out, schema, "deform output")
    require(out["n"] == n, "deform: wrong n")
    require((out["small"]["a"], out["small"]["b"]) == small, "deform: wrong small pair")
    require((out["big"]["a"], out["big"]["b"]) == big, "deform: wrong big pair")
    witness = difference(big[0], small[0])
    require(witness is not None and witness == difference(big[1], small[1]), "deform: ends not comparable")
    require(out["witness"] == witness, f"deform: witness {out['witness']} != {witness}")
    zero = out["at_zero"]
    require((zero["a"], zero["b"]) == big and zero["matches_big"] is True, "deform: t=0 is not the big pair")
    reached_small = not_bundle = 0
    for s in out["samples"]:
        require(1 <= s["t"] < out["p"], f"deform: parameter {s['t']} out of range")
        if "error" in s:
            require(s["error"] == "NotABundle" and s["matches_small"] is False, f"deform: bad fiber {s}")
            not_bundle += 1
            continue
        a, b = s["a"], s["b"]
        require(admissible(n, a, b), f"deform: fiber pair ({a}, {b}) not admissible")
        common = difference(big[0], a)
        require(common is not None and common == difference(big[1], b),
                f"deform: big is not ({a}, {b}) plus a common multiset")
        require(jumps(a, b) == jumps(*big), "deform: fiber changes the Hilbert function")
        require(s["matches_small"] == ((a, b) == small), "deform: matches_small is wrong")
        reached_small += (a, b) == small
    return len(out["samples"]), reached_small, not_bundle


def bundle_seq_ok(n, values):
    """The bundle sequence clauses: positive entries, the last differs from
    its predecessor, and every strict descent lands at a value >= n."""
    return (
        bool(values)
        and all(v > 0 for v in values)
        and (len(values) < 2 or values[-2] != values[-1])
        and all(cur >= prev or cur >= n for prev, cur in zip(values, values[1:]))
    )


def minimal_pair(s0, values):
    """The pair read off the jumps of the n-th difference (0 before s0, then
    the sequence, then its last value forever)."""
    a, b, prev = [], [], 0
    for t, cur in enumerate(values, start=s0):
        if cur > prev:
            b += [t] * (cur - prev)
        elif cur < prev:
            a += [t] * (prev - cur)
        prev = cur
    return a, b


def regularity(a, b):
    return max(b[-1], a[-1] - 1) if a else b[-1]


def check_enumerate_reg(rows, n, r, d):
    """Every sequence obeys the clauses, has rank r, is normalized (c1 in
    (-r, 0]) and has a minimal pair of regularity <= d; none repeats."""
    require(rows, "enumerate: no sequences")
    seen = set()
    for row in rows:
        B, s0 = row["B"], row["s0"]
        require(bundle_seq_ok(n, B) and B[-1] == r, f"enumerate: {B} is not a rank {r} bundle sequence")
        a, b = minimal_pair(s0, B)
        c1 = sum(a) - sum(b)
        require(-r < c1 <= 0, f"enumerate: {B} at {s0} is not normalized (c1={c1})")
        require(regularity(a, b) <= d, f"enumerate: {B} at {s0} has regularity above {d}")
        require((s0, tuple(B)) not in seen, f"enumerate: {B} at {s0} repeats")
        seen.add((s0, tuple(B)))
    return len(rows)


def check_lattice(doc, n, B, s0, d, schema):
    """The JSON lattice: node count, pairs, grades, closure lists, edges."""
    require_schema(doc, schema, "lattice output")
    require((doc["n"], doc["s0"], doc["B"], doc["d"]) == (n, s0, B, d), "lattice: wrong header")
    base_a, base_b = minimal_pair(s0, B)
    require(doc["base"] == {"a": base_a, "b": base_b}, "lattice: wrong base pair")
    cmax = Counter(doc["cmax"])
    values = sorted(cmax)
    require(len(doc["nodes"]) == prod(k + 1 for k in cmax.values()),
            "lattice: node count is not the product of (multiplicity + 1)")
    vectors = []
    for node in doc["nodes"]:
        c = node["c"]
        mult = Counter(c)
        require(all(mult[t] <= cmax[t] for t in mult), f"lattice: node {c} exceeds cmax")
        a, b = sorted(base_a + c), sorted(base_b + c)
        require((node["a"], node["b"]) == (a, b), f"lattice: node {c} has the wrong pair")
        require(admissible(n, a, b) and regularity(a, b) == node["regularity"] <= d,
                f"lattice: node {c} is not admissible of regularity <= {d}")
        require(node["grade"] == len(c), f"lattice: node {c} has the wrong grade")
        vectors.append(tuple(mult[t] for t in values))
    require(len(set(vectors)) == len(vectors), "lattice: repeated node")
    for node, v in zip(doc["nodes"], vectors):
        above = [x["c"] for x, w in zip(doc["nodes"], vectors) if all(p >= q for p, q in zip(w, v))]
        require(sorted(node["closure_contains"]) == sorted(above),
                f"lattice: closure_contains of {node['c']} is not its up-set")
    covers = sum(m < cmax[t] for v in vectors for t, m in zip(values, v))
    require(len(doc["edges"]) == covers, "lattice: edge count is not the number of covers")
    for x, y in doc["edges"]:
        require(difference(y, x) is not None and len(y) == len(x) + 1, f"lattice: {x} -> {y} is no cover")
    return len(doc["nodes"]), len(doc["edges"])


def check_lattice_dot(text, nodes, edges):
    """The DOT export lists the same numbers of nodes and edges as the JSON."""
    lines = text.splitlines()
    require(lines[0].startswith("digraph") and lines[-1] == "}", "lattice dot: not a digraph")
    require(sum("[label=" in ln for ln in lines) == nodes, "lattice dot: wrong node count")
    require(sum("->" in ln and "label" not in ln for ln in lines) == edges, "lattice dot: wrong edge count")


def brute_force_admissible(n, r, c1, d):
    """Every admissible pair of rank r, first Chern class c1 and regularity
    <= d, by exhaustive search of the finiteness box."""
    found = set()
    lo0 = -c1 - (r - 1) * d
    for b in combinations_with_replacement(range(lo0, d + 1), r):
        if sum(b) == -c1:
            found.add(((), b))
    if r >= n:
        for l in range(1, c1 + r * d + 1):
            lo = -c1 - (r - 1) * d + l
            for b in combinations_with_replacement(range(lo, d + 1), l + r):
                want = c1 + sum(b)
                for a in combinations_with_replacement(range(b[n] + 1, d + 2), l):
                    if sum(a) == want and admissible(n, a, b) and regularity(a, b) <= d:
                        found.add((a, b))
    return found


def check_admissible_set(pairs, n, r, c1, d, brute_d):
    """Every pair is admissible with the right rank, c1 and regularity, and
    the pairs of regularity <= brute_d are exactly what the brute-force
    search finds for that bound."""
    got = set()
    for a, b in pairs:
        require(admissible(n, a, b) and len(b) - len(a) == r, f"admissible: ({a}, {b}) has the wrong shape")
        require(sum(a) - sum(b) == c1 and regularity(a, b) <= d, f"admissible: ({a}, {b}) breaks c1 or regularity")
        got.add((tuple(a), tuple(b)))
    require(len(got) == len(pairs), "admissible: repeated pair")
    low = {(a, b) for a, b in got if regularity(a, b) <= brute_d}
    require(low == brute_force_admissible(n, r, c1, brute_d),
            f"admissible: the pairs of regularity <= {brute_d} differ from the brute-force search")
    return len(got)
