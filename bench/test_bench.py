"""Tests of the benchmark's own generators and checks.

Run from the repository root:  python -m pytest bench/test_bench.py

The generators' truth is cross-checked on small cases with sympy's Groebner
bases over F_p, an engine apart from ``pnbundles.poly``.  The schema
validator is compared with ``jsonschema``, and the brute-force search with
the test suite's oracle.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

sympy = pytest.importorskip("sympy")
jsonschema = pytest.importorskip("jsonschema")

P = gen.P


def sympy_is_bundle(doc):
    """m-primary (or unit) ideal of maximal minors, decided by sympy."""
    n, l = doc["n"], len(doc["a"])
    xs = sympy.symbols(f"x0:{n + 1}")
    env = {f"x{i}": x for i, x in enumerate(xs)}
    rows = [[sympy.sympify(e.replace("^", "**"), locals=env) for e in row] for row in doc["entries"]]
    from itertools import combinations

    minors = []
    for sel in combinations(range(len(rows)), l):
        d = sympy.expand(sympy.Matrix([rows[i] for i in sel]).det(method="berkowitz"))
        if sympy.Poly(d, *xs, modulus=P).is_zero:
            continue
        minors.append(d)
    if not minors:
        return False
    G = sympy.groebner(minors, *xs, modulus=P, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in G.exprs]
    if any(sum(m) == 0 for m in leads):
        return True
    return all(any(m[i] > 0 and sum(m) == m[i] for m in leads) for i in range(n + 1))


SMALL = [
    (gen.disguised_bundle, 2, (1, 1), (0, 0, 0, 0)),
    (gen.disguised_bundle, 2, (1, 2), (0, 0, 0, 0, 1)),
    (gen.disguised_bundle, 3, (1, 1), (0, 0, 0, 0, 0)),
    (gen.hidden_point_matrix, 2, (1, 1), (0, 0, 0, 0)),
    (gen.hidden_point_matrix, 2, (1, 2), (0, 0, 0, 0, 1)),
    (gen.zero_block_matrix, 2, (1, 1), (0, 0, 0, 1)),
    (gen.zero_block_matrix, 2, (1, 2), (0, 0, 0, 2)),
]


@pytest.mark.parametrize("make,n,a,b", SMALL)
@pytest.mark.parametrize("seed", [1, 2])
def test_generator_truth_matches_sympy(make, n, a, b, seed):
    doc, truth = make(n, a, b, random.Random(seed))
    assert sympy_is_bundle(doc) is truth


@pytest.mark.parametrize("make,n,a,b", workloads.BUNDLE_SHAPES[:2] + workloads.DEGENERATE_SHAPES)
def test_workload_documents_parse_as_minimal_matrices(make, n, a, b):
    from pnbundles.bundles import PresMatrix

    doc, _ = make(n, a, b, random.Random(7))
    m = PresMatrix.from_json(json.loads(json.dumps(doc)))
    assert m.is_minimal and m.pair.n == n


def test_staircase_is_the_explicit_matrix():
    from pnbundles.betti import BettiPair
    from pnbundles.bundles import PresMatrix, explicit_matrix

    for n, a, b in [(3, (2, 3), (0, 0, 0, 0, 1, 1)), (2, (1, 2), (0, 0, 0, 0, 1))]:
        doc = gen.document(n, a, b, gen.staircase(n, a, b))
        assert PresMatrix.from_json(doc) == explicit_matrix(BettiPair(n, a, b), P)


def test_substitute_evaluates_like_composition():
    rng = random.Random(3)
    A = gen.random_invertible(3, rng)
    f = gen.random_form(3, 3, rng)
    point = [rng.randrange(P) for _ in range(3)]
    image = [sum(A[i][j] * point[j] for j in range(3)) % P for i in range(3)]
    assert gen.evaluate(gen.substitute(f, A), point) == gen.evaluate(f, image)


def test_hidden_point_entries_vanish_somewhere_common():
    doc, truth = gen.hidden_point_matrix(3, (1, 3), (0, 0, 0, 0, 1), random.Random(5))
    assert truth is False
    assert any(e != "0" for row in doc["entries"] for e in row)


def test_generators_repeat_for_a_seed():
    for make, n, a, b in SMALL:
        assert make(n, a, b, random.Random(11)) == make(n, a, b, random.Random(11))


def _schemas():
    return run.load_schemas()


def test_schema_validator_agrees_with_jsonschema():
    from pnbundles import cli
    import io
    import contextlib

    schemas = _schemas()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["lattice", "--n", "3", "--seq", "5,4", "--anchor=-1", "--max-reg", "1", "--format", "json"])
    good = json.loads(buf.getvalue())
    broken = [
        dict(good, d="1"),
        dict(good, extra=1),
        {k: v for k, v in good.items() if k != "cmax"},
        dict(good, edges=[[[0]]]),
        dict(good, nodes=[dict(good["nodes"][0], grade=-1)]),
    ]
    for doc in [good] + broken:
        want = jsonschema.Draft202012Validator(schemas["lattice"]).is_valid(doc)
        assert (not checks.schema_errors(doc, schemas["lattice"])) is want
    verdict = {"source": "s", "n": 3, "p": P, "a": [1], "b": [0, 0, 0, 0], "minimal": True, "bundle": False}
    for doc in [verdict, [verdict, verdict], dict(verdict, bundle="no"), []]:
        want = jsonschema.Draft202012Validator(schemas["check"]).is_valid(doc)
        assert (not checks.schema_errors(doc, schemas["check"])) is want


def test_brute_force_matches_the_test_oracle():
    from _oracles import brute_force_admissible

    for args in [(2, 2, -1, 2), (3, 3, -2, 2), (3, 4, -2, 2)]:
        assert checks.brute_force_admissible(*args) == brute_force_admissible(*args)


def test_families_are_criterion_7_draws():
    from pnbundles.betti import BettiPair, generalization_witness
    from pnbundles.generate import max_difference
    from pnbundles.hilbert import hilbert_of_betti

    assert any(n == 3 and len(ba) >= 2 for n, _, _, ba, _ in workloads.FAMILIES)
    for n, sa, sb, ba, bb in workloads.FAMILIES:
        small, big = BettiPair(n, sa, sb), BettiPair(n, ba, bb)
        assert n in (2, 3) and small.r in (n, n + 1) and small.l <= 1
        c = generalization_witness(small, big)
        assert c is not None and len(c) in (1, 2) and big.is_admissible()
        cmax = max_difference(hilbert_of_betti(small), small.regularity() + 2)
        assert checks.difference(cmax.entries, c.entries) is not None


def test_checks_reject_wrong_outputs():
    schemas = _schemas()
    doc = {"n": 3, "p": P, "a": [1, 2], "b": [0] * 5}
    verdict = {"source": "f", "n": 3, "p": P, "a": [1, 2], "b": [0] * 5, "minimal": True, "bundle": True}
    checks.check_verdict(verdict, doc, "f", True, schemas["check"])
    with pytest.raises(CheckFailed):
        checks.check_verdict(dict(verdict, bundle=False), doc, "f", True, schemas["check"])
    family = (3, ([], [-1] * 4), ([0, 1], [-1] * 4 + [0, 1]))
    report = {"n": 3, "p": P, "seed": 1, "small": {"a": [], "b": [-1] * 4},
              "big": {"a": [0, 1], "b": [-1] * 4 + [0, 1]}, "witness": [0, 1],
              "at_zero": {"a": [0, 1], "b": [-1] * 4 + [0, 1], "matches_big": True},
              "samples": [{"t": 5, "a": [], "b": [-1] * 4, "matches_small": True},
                          {"t": 6, "error": "NotABundle", "matches_small": False},
                          {"t": 7, "a": [1], "b": [-1] * 4 + [1], "matches_small": False}]}
    assert checks.check_deform(report, family, schemas["deform"]) == (3, 1, 1)
    for bad in [{"t": 8, "a": [0], "b": [-1] * 4 + [1], "matches_small": False},  # changes H
                {"t": 9, "a": [], "b": [-1] * 4, "matches_small": False}]:  # wrong flag
        with pytest.raises(CheckFailed):
            checks.check_deform(dict(report, samples=[bad]), family, schemas["deform"])
    with pytest.raises(CheckFailed):
        checks.check_enumerate_reg([{"B": [2, 2], "s0": 0}], 3, 2, 4)


def test_lattice_check_catches_a_wrong_closure():
    from pnbundles import cli
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["lattice", "--n", "3", "--seq", "5,4", "--anchor=-1", "--max-reg", "2", "--format", "json"])
    doc = json.loads(buf.getvalue())
    schema = _schemas()["lattice"]
    assert checks.check_lattice(doc, 3, [5, 4], -1, 2, schema) == (len(doc["nodes"]), len(doc["edges"]))
    doc["nodes"][0]["closure_contains"].pop()
    with pytest.raises(CheckFailed):
        checks.check_lattice(doc, 3, [5, 4], -1, 2, schema)


def test_tracer_self_time():
    tr = run.Tracer()
    with tr.span("op"):
        with tr.span("layer"):
            pass
    total, own = tr.times()
    assert own["layer"] == pytest.approx(total["layer"])
    assert own["op"] == pytest.approx(total["op"] - total["layer"])
