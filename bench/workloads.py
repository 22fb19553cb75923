"""The four workloads: their inputs, their operations and their checks.

Each workload builds a list of operations from a seeded ``random.Random``
(``setup``), runs one operation the way a user would, through
``pnbundles.cli.main`` or a public library call (``run``), checks the
output against its construction truth (``check``), and replays the
operation as separate public calls into each layer under spans
(``traced``).  The layer calls in ``traced`` are the benchmark's own; the
package is not patched.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import gen
from checks import (
    check_admissible_set,
    check_deform,
    check_enumerate_reg,
    check_lattice,
    check_lattice_dot,
    check_verdict,
    require,
)

P = gen.P


class OpFailed(Exception):
    """The program under test refused or crashed on a valid input."""


def call_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise OpFailed(f"{' '.join(argv[:1])} exited {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def emit(tr, payload):
    with tr.span("cli.emit"):
        return json.dumps(payload, indent=2, sort_keys=True)


def poly_layer(tr, lib, m):
    """The Groebner path of ``verify_bundle`` as separate public calls: the
    maximal minors, the reduced basis of the distinct nonzero ones, and the
    m-primary test on a fresh ideal.  Returns the test's verdict."""
    with tr.span("poly.maximal_minors"):
        minors = lib.poly.maximal_minors(m.rows, m.pair.l)
    distinct = list(dict.fromkeys(f for f in minors if f))
    require(distinct and all(f.degree() > 0 for f in distinct), "minimal map with a unit minor")
    with tr.span("poly.groebner_basis"):
        basis = lib.poly.groebner_basis(distinct)
    with tr.span("poly.m_primary_test"):
        verdict = lib.poly.Ideal(distinct, p=m.p, nvars=m.pair.n + 1).is_m_primary_or_unit()
    tr.add("poly.gb_inputs", 1)
    tr.add("poly.minors_distinct", len(distinct))
    tr.add("poly.gb_size_sum", len(basis))
    tr.add("poly.gb_terms", sum(len(g.terms) for g in basis))
    tr.peak("poly.gb_size_max", len(basis))
    return verdict


def _seq(values):
    return ",".join(str(v) for v in values)


# -- check-bundles and check-degenerate ----------------------------------------


class Check:
    """``pnbundles check`` on one matrix document of known truth."""

    def __init__(self, name, shapes):
        self.name = name
        self.shapes = shapes  # (generator, n, a, b), one document each

    def setup(self, rng, outdir, schemas):
        self.schema = schemas["check"]
        ops = []
        for k, (make, n, a, b) in enumerate(self.shapes):
            doc, truth = make(n, a, b, rng)
            path = os.path.join(outdir, f"{self.name}-{k:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            ops.append((path, doc, truth))
        return ops

    def run(self, lib, op):
        return call_cli(lib, ["check", op[0]])

    def check(self, op, out):
        path, doc, truth = op
        check_verdict(json.loads(out), doc, path, truth, self.schema)

    def traced(self, lib, op, out, tr):
        path, doc, truth = op
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        with tr.span("cli.parse"):
            m = lib.bundles.PresMatrix.from_json(raw)
        with tr.span("bundles.verify_bundle"):
            ok = lib.bundles.verify_bundle(m)
        test = poly_layer(tr, lib, m)
        verdict = {"source": path, "n": m.pair.n, "p": m.p, "a": m.pair.a.to_json(),
                   "b": m.pair.b.to_json(), "minimal": m.is_minimal, "bundle": ok}
        text = emit(tr, verdict)

        def verify():
            check_verdict(json.loads(text), doc, path, truth, self.schema)
            require(test is truth, f"{path}: the m-primary test says {test}, the truth is {truth}")

        return verify


BUNDLE_SHAPES = [
    (gen.disguised_bundle, 3, (1, 2), (0, 0, 0, 0, 0)),
    (gen.disguised_bundle, 3, (2, 2), (0, 0, 0, 1, 1)),
    (gen.disguised_bundle, 3, (1, 1, 1), (0, 0, 0, 0, 0, 0)),
    (gen.disguised_bundle, 3, (1, 3), (0, 0, 0, 0, 1)),
    (gen.disguised_bundle, 3, (2, 2), (0, 0, 0, 0, 0)),
    (gen.disguised_bundle, 3, (1, 2), (0, 0, 0, 0, 0)),
    (gen.disguised_bundle, 3, (2, 2), (0, 0, 0, 1, 1)),
]

DEGENERATE_SHAPES = [
    (gen.hidden_point_matrix, 3, (2, 3), (0, 0, 0, 0, 1, 1)),
    (gen.hidden_point_matrix, 3, (1, 3), (0, 0, 0, 0, 1)),
    (gen.hidden_point_matrix, 3, (1, 1, 1), (0, 0, 0, 0, 0, 0)),
    (gen.zero_block_matrix, 3, (2, 2, 3), (0, 0, 0, 0, 2, 3)),
    (gen.zero_block_matrix, 3, (2, 3), (0, 0, 0, 0, 3)),
    (gen.zero_block_matrix, 3, (2, 3), (0, 0, 0, 1, 3)),
]


# -- deform-sweep --------------------------------------------------------------

# (n, small a, small b, big a, big b): ends drawn the way acceptance
# criterion 7 draws them (small split or with one a-entry, r in {n, n+1},
# big = small + c with |c| in {1, 2}).  The first three bigs have n = 3 and
# l = 2; the last four are criterion 7's own families 0, 4, 8 and 9.
FAMILIES = [
    (3, (3,), (0, 0, 0, 0), (1, 3), (0, 0, 0, 0, 1)),
    (3, (2,), (0, 0, 0, 0, 1), (2, 2), (0, 0, 0, 0, 1, 2)),
    (3, (), (-1, -1, -1, -1), (0, 1), (-1, -1, -1, -1, 0, 1)),
    (2, (), (-1, -1, 0), (1, 2), (-1, -1, 0, 1, 2)),
    (2, (3,), (1, 1, 2, 3), (3, 4, 5), (1, 1, 2, 3, 4, 5)),
    (2, (), (-1, 0, 1), (2, 3), (-1, 0, 1, 2, 3)),
    (3, (), (-1, -1, -1, 0), (1,), (-1, -1, -1, 0, 1)),
]
SAMPLES = 3


class DeformSweep:
    name = "deform-sweep"

    def setup(self, rng, outdir, schemas):
        self.schema = schemas["deform"]
        return [((n, (list(sa), list(sb)), (list(ba), list(bb))), rng.randrange(2**31))
                for n, sa, sb, ba, bb in FAMILIES]

    def run(self, lib, op):
        (n, small, big), seed = op
        return call_cli(lib, [
            "deform", "--n", str(n), f"--small-a={_seq(small[0])}", f"--small-b={_seq(small[1])}",
            f"--big-a={_seq(big[0])}", f"--big-b={_seq(big[1])}", "--samples", str(SAMPLES),
            "--seed", str(seed), "--prime", str(P),
        ])

    def check(self, op, out):
        check_deform(json.loads(out), op[0], self.schema)

    def traced(self, lib, op, out, tr):
        """The CLI's steps as public calls, at the parameters it reported."""
        (n, small, big), seed = op
        b = lib.bundles
        ends = [lib.betti.BettiPair(n, a, bb) for a, bb in (small, big)]
        with tr.span("bundles.deform_family"):
            fam = b.deform_family(*ends, P, seed)
        with tr.span("bundles.fiber_at"):
            m0 = fam.at(0)
        with tr.span("bundles.minimize_at0"):
            pair0, _ = b.minimize_presentation(m0)
        with tr.span("bundles.verify_bundle"):
            psi_ok = b.verify_bundle(fam.psi)
        psi_test = poly_layer(tr, lib, fam.psi)
        samples = []
        for t in (s["t"] for s in json.loads(out)["samples"]):
            with tr.span("bundles.fiber_at"):
                mt = fam.at(t)
            try:
                with tr.span("bundles.minimize_generic"):
                    pt, _ = b.minimize_presentation(mt)
            except lib.errors.NotABundle:
                samples.append({"t": t, "error": "NotABundle", "matches_small": False})
                continue
            samples.append({"t": t, "a": pt.a.to_json(), "b": pt.b.to_json(),
                            "matches_small": pt == fam.small})
        payload = {
            "n": n, "p": P, "seed": seed,
            "small": {"a": small[0], "b": small[1]}, "big": {"a": big[0], "b": big[1]},
            "witness": fam.witness.to_json(),
            "at_zero": {"a": pair0.a.to_json(), "b": pair0.b.to_json(), "matches_big": pair0 == fam.big},
            "samples": samples,
        }
        text = emit(tr, payload)

        def verify():
            require(psi_ok is True and psi_test is True, "deform: the drawn psi is not a bundle")
            fibers, reached, not_bundle = check_deform(json.loads(text), op[0], self.schema)
            tr.add("bundles.fibers", fibers)
            tr.add("bundles.fibers_small", reached)
            tr.add("bundles.fibers_not_bundle", not_bundle)

        return verify


# -- classify -----------------------------------------------------------------

ENUMERATE = (4, 6, 4)  # n, rank, max-reg
LATTICE = (3, (5, 4), -1, 8)  # n, bundle sequence, anchor, max-reg: 512 nodes
ADMISSIBLE = (3, 4, -2, 4)  # n, r, c1, d: 2170 pairs


class Classify:
    """Combinatorics only: no operation reaches ``pnbundles.poly``.

    The seed twists the lattice and the admissible-pair search by k in
    [0, 3] (anchor, bound and c1 move together), which leaves their sizes
    unchanged; ``enumerate --max-reg`` lists normalized functions and has no
    twist.  Negative twists are left out: there ``enumerate_admissible``
    drops pairs on some seeds (see CHANGES.md).
    """

    name = "classify"

    def setup(self, rng, outdir, schemas):
        self.schema = schemas["lattice"]
        k = rng.randint(0, 3)
        n, seq, s0, d = LATTICE
        lat = (n, list(seq), s0 + k, d + k)
        an, ar, ac1, ad = ADMISSIBLE
        self.counts = {}
        return [("enumerate", ENUMERATE), ("lattice-json", lat), ("lattice-dot", lat),
                ("admissible", (an, ar, ac1 - ar * k, ad + k))]

    def run(self, lib, op):
        kind, args = op
        if kind == "enumerate":
            n, r, d = args
            return call_cli(lib, ["enumerate", "--n", str(n), "--rank", str(r), "--max-reg", str(d)])
        if kind == "admissible":
            pairs = lib.betti.enumerate_admissible(*args)
            return json.dumps(sorted([p.a.to_json(), p.b.to_json()] for p in pairs))
        n, seq, s0, d = args
        return call_cli(lib, ["lattice", "--n", str(n), "--seq", _seq(seq), f"--anchor={s0}",
                              "--max-reg", str(d), "--format", kind.split("-")[1]])

    def check(self, op, out):
        kind, args = op
        if kind == "enumerate":
            check_enumerate_reg(json.loads(out), *args)
        elif kind == "lattice-json":
            self.counts["lattice"] = check_lattice(json.loads(out), *args, self.schema)
        elif kind == "lattice-dot":
            # the JSON operation precedes this one in every round
            require("lattice" in self.counts, "lattice dot: the JSON export did not pass its check")
            check_lattice_dot(out, *self.counts["lattice"])
        else:
            # brute force is affordable one regularity step below the bound
            check_admissible_set(json.loads(out), *args, args[3] - 1)

    def traced(self, lib, op, out, tr):
        kind, args = op
        if kind == "enumerate":
            n, r, d = args
            with tr.span("generate.by_reg"):
                hs = lib.generate.bundle_sequences_by_reg(n, r, d)
            with tr.span("hilbert.minimal_betti"):
                regs = [lib.hilbert.minimal_betti(h).regularity() for h in hs]
            text = emit(tr, [{"B": list(h.seq.values), "s0": h.s0} for h in hs])
            tr.add("generate.sequences", len(hs))

            def verify():
                require(json.loads(text) == json.loads(out), "enumerate: library and CLI differ")
                require(max(regs) <= d, "enumerate: regularity above the bound")

            return verify
        if kind == "admissible":
            with tr.span("betti.enumerate_admissible"):
                pairs = lib.betti.enumerate_admissible(*args)
            tr.add("betti.pairs", len(pairs))
            got = sorted([p.a.to_json(), p.b.to_json()] for p in pairs)
            return lambda: require(got == json.loads(out), "admissible: traced and untraced runs differ")
        n, seq, s0, d = args
        fmt = kind.split("-")[1]
        with tr.span("lattice.build"):
            lat = lib.lattice.BettiLattice(lib.hilbert.HilbertFn(n, s0, seq), d)
        with tr.span(f"lattice.export_{fmt}"):
            text = lat.export(fmt)
        if fmt == "json":
            tr.add("lattice.nodes", len(lat))
            tr.add("lattice.edges", len(json.loads(text)["edges"]))
            return lambda: require(json.loads(text) == json.loads(out), "lattice: library and CLI differ")
        return lambda: require(text.strip() == out.strip(), "lattice dot: library and CLI differ")


WORKLOADS = {
    "deform-sweep": DeformSweep(),
    "check-bundles": Check("check-bundles", BUNDLE_SHAPES),
    "check-degenerate": Check("check-degenerate", DEGENERATE_SHAPES),
    "classify": Classify(),
}
