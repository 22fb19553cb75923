"""Command-line front end.

Verbs: enumerate, hilbert, lattice, present, check, deform, admissible.
Every invocation is deterministic given its flags: randomness is seeded,
collections are emitted in sorted order, and JSON is serialized with sorted
keys.  Domain errors exit with code 1 and a structured error object on
standard error; usage errors exit with code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain

from .betti import BettiPair
from .bundles import (
    PresMatrix,
    check_dimension,
    deform_family,
    explicit_matrix,
    minimize_presentation,
    random_matrix,
    verify_bundle,
)
from .errors import BadInput, DomainError, NotABundle
from .generate import bundle_sequences, reg_rows
from .hilbert import HilbertFn, minimal_betti, normalize
from .jsonout import dumps
from .lattice import BettiLattice
from .poly import check_prime, format_poly
from .seqs import parse_seq, parse_values

DEFAULT_PRIME = 32003
_PRIME_ENV = "PNBUNDLES_PRIME"
MAX_SAMPLES = 1000  # each sample minimizes and verifies one fiber
# H(t) grows like t^n / n!: at this bound the widest window a sequence
# allows (1004 values) prints values of over 100 digits
MAX_HILBERT_N = 64


def _default_prime() -> int:
    raw = os.environ.get(_PRIME_ENV)
    if raw is None:
        return DEFAULT_PRIME
    try:
        return int(raw)
    except ValueError:
        raise BadInput(f"{_PRIME_ENV} must be an integer, got {raw!r}") from None


def _render(args, payload, lines) -> str:
    """The payload as JSON, or else the csv/text lines; ``lines`` is only
    consumed for those formats, so it may be a lazy iterable."""
    if args.format == "json":
        return dumps(payload)
    return "\n".join(lines)


def _pair(n: int, a_text: str, b_text: str) -> BettiPair:
    return BettiPair(n, parse_seq(a_text), parse_seq(b_text))


def _hilbert_from_args(args) -> HilbertFn:
    return HilbertFn(args.n, args.anchor, parse_values(args.seq))


def _cmd_enumerate(args) -> str:
    if (args.degree is None) == (args.max_reg is None):
        raise BadInput("enumerate needs exactly one of --degree or --max-reg")
    if args.degree is not None:
        rows = [list(s.values) for s in bundle_sequences(args.n, args.rank, args.degree)]
        return _render(args, rows, (",".join(str(v) for v in row) for row in rows))
    rows = reg_rows(args.n, args.rank, args.max_reg)
    return _render(
        args,
        [{"B": values, "s0": s0} for s0, values in rows],
        (",".join(map(str, (s0,) + values)) for s0, values in rows),
    )


def _cmd_hilbert(args) -> str:
    if args.n > MAX_HILBERT_N:
        raise BadInput(f"hilbert --n must be at most {MAX_HILBERT_N}, got {args.n}")
    h = _hilbert_from_args(args)
    base = minimal_betti(h)
    normalized, twist = normalize(h)
    lo, hi = h.s0 - 2, h.s1 + 3
    payload = {
        "n": h.n,
        "s0": h.s0,
        "B": list(h.seq.values),
        "rank": h.r,
        "degree": h.degree,
        "c1": h.c1(),
        "minimal": {"a": base.a.to_json(), "b": base.b.to_json()},
        "regularity": base.regularity(),
        "normalize_twist": twist,
        "normalized_s0": normalized.s0,
        "values": dict(zip(map(str, range(lo, hi + 1)), h.values(lo, hi))),
    }
    lines = chain(
        (f"{k}={payload[k]}" for k in ("n", "s0", "B", "rank", "degree", "c1", "regularity")),
        (f"minimal_a={base.a.to_json()}", f"minimal_b={base.b.to_json()}", f"normalize_twist={twist}"),
        (f"H({t})={v}" for t, v in payload["values"].items()),
    )
    return _render(args, payload, lines)


def _cmd_lattice(args) -> str:
    h = _hilbert_from_args(args)
    lat = BettiLattice(h, args.max_reg)
    return lat.export(args.format).rstrip("\n")


def _cmd_present(args) -> str:
    pair = _pair(check_dimension(args.n), args.a, args.b)
    prime = check_prime(args.prime)
    if args.mode == "explicit":
        m = explicit_matrix(pair, prime)
    else:
        m = random_matrix(pair, prime, args.seed)
    return _render(args, m.to_json(), (" | ".join(format_poly(e) for e in row) for row in m.rows))


def _read_matrix(source: str) -> PresMatrix:
    if source == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise BadInput(f"cannot read {source}: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BadInput(f"invalid JSON in {source}: {exc}") from None
    return PresMatrix.from_json(doc)


def _check_one(source: str) -> dict:
    m = _read_matrix(source)
    ok = verify_bundle(m)
    return {
        "source": source,
        "n": m.pair.n,
        "p": m.p,
        "a": m.pair.a.to_json(),
        "b": m.pair.b.to_json(),
        "minimal": m.is_minimal,
        "bundle": ok,
    }


def _cmd_check(args) -> str:
    results = [_check_one(s) for s in args.matrix]
    payload = results[0] if len(results) == 1 else results
    return _render(args, payload, (f"{r['source']},{str(r['bundle']).lower()}" for r in results))


def _cmd_deform(args) -> str:
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise BadInput(f"--samples must be between 0 and {MAX_SAMPLES}, got {args.samples}")
    small = _pair(args.n, args.small_a, args.small_b)
    big = _pair(args.n, args.big_a, args.big_b)
    prime = check_prime(args.prime)
    fam = deform_family(small, big, prime, args.seed)
    rng = random.Random(args.seed ^ 0x5EED)
    samples = []
    for _ in range(args.samples):
        t = 1 + rng.randrange(prime - 1)
        try:
            pair_t, _ = minimize_presentation(fam.at(t))
        except NotABundle:
            # the fiber left the dense open set of bundles at this parameter
            samples.append({"t": t, "error": "NotABundle", "matches_small": False})
            continue
        samples.append(
            {
                "t": t,
                "a": pair_t.a.to_json(),
                "b": pair_t.b.to_json(),
                "matches_small": pair_t == small,
            }
        )
    payload = {
        "n": args.n,
        "p": prime,
        "seed": args.seed,
        "small": {"a": small.a.to_json(), "b": small.b.to_json()},
        "big": {"a": big.a.to_json(), "b": big.b.to_json()},
        "witness": fam.witness.to_json(),
        # the fiber at 0 is psi, a verified minimal presentation of the big pair
        "at_zero": {"a": big.a.to_json(), "b": big.b.to_json(), "matches_big": True},
        "samples": samples,
    }
    lines = chain(["0,true"], (f"{s['t']},{str(s['matches_small']).lower()}" for s in samples))
    return _render(args, payload, lines)


def _cmd_admissible(args) -> str:
    verdict = _pair(args.n, args.a, args.b).is_admissible()
    return _render(args, verdict, [str(verdict).lower()])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it
    unchanged, and each build leaves hundreds of objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="pnbundles",
        description="Betti data, Hilbert functions, lattices and presentation "
        "matrices of bundles on projective n-space.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, formats, default_format):
        p.add_argument("--format", choices=formats, default=default_format)

    p_enum = sub.add_parser("enumerate", help="bundle sequences by degree or by regularity")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--rank", type=int, required=True)
    p_enum.add_argument("--degree", type=int)
    p_enum.add_argument("--max-reg", type=int, dest="max_reg")
    add_common(p_enum, ["json", "csv", "text"], "json")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_hil = sub.add_parser("hilbert", help="inspect one Hilbert function")
    p_hil.add_argument("--n", type=int, required=True)
    p_hil.add_argument("--seq", required=True, help="bundle sequence, e.g. 5,4 or 1^5,4")
    p_hil.add_argument("--anchor", type=int, default=0)
    add_common(p_hil, ["json", "csv", "text"], "json")
    p_hil.set_defaults(func=_cmd_hilbert)

    p_lat = sub.add_parser("lattice", help="the graded lattice up to a regularity bound")
    p_lat.add_argument("--n", type=int, required=True)
    p_lat.add_argument("--seq", required=True)
    p_lat.add_argument("--anchor", type=int, default=0)
    p_lat.add_argument("--max-reg", type=int, dest="max_reg", required=True)
    add_common(p_lat, ["dot", "json"], "dot")
    p_lat.set_defaults(func=_cmd_lattice)

    p_pres = sub.add_parser("present", help="an explicit or random presentation matrix")
    p_pres.add_argument("--n", type=int, required=True)
    p_pres.add_argument("--a", required=True)
    p_pres.add_argument("--b", required=True)
    p_pres.add_argument("--mode", choices=["explicit", "random"], default="explicit")
    p_pres.add_argument("--prime", type=int, default=None)
    p_pres.add_argument("--seed", type=int, default=0)
    add_common(p_pres, ["json", "text"], "json")
    p_pres.set_defaults(func=_cmd_present)

    p_check = sub.add_parser("check", help="verify that matrices present bundles")
    p_check.add_argument("matrix", nargs="+", help='matrix JSON files, or "-" for stdin')
    add_common(p_check, ["json", "csv", "text"], "json")
    p_check.set_defaults(func=_cmd_check)

    p_def = sub.add_parser("deform", help="a degeneration family between two pairs")
    p_def.add_argument("--n", type=int, required=True)
    p_def.add_argument("--small-a", dest="small_a", required=True)
    p_def.add_argument("--small-b", dest="small_b", required=True)
    p_def.add_argument("--big-a", dest="big_a", required=True)
    p_def.add_argument("--big-b", dest="big_b", required=True)
    p_def.add_argument("--samples", type=int, default=10)
    p_def.add_argument("--prime", type=int, default=None)
    p_def.add_argument("--seed", type=int, default=0)
    add_common(p_def, ["json", "csv", "text"], "json")
    p_def.set_defaults(func=_cmd_deform)

    p_adm = sub.add_parser("admissible", help="test a pair for admissibility")
    p_adm.add_argument("--n", type=int, required=True)
    p_adm.add_argument("--a", required=True)
    p_adm.add_argument("--b", required=True)
    add_common(p_adm, ["json", "csv", "text"], "json")
    p_adm.set_defaults(func=_cmd_admissible)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "prime") and args.prime is None:
            args.prime = _default_prime()
        out = args.func(args)
    except (DomainError, ValueError) as exc:
        # a ValueError is a library precondition broken by a user-supplied value
        code = exc.code if isinstance(exc, DomainError) else BadInput.code
        sys.stderr.write(dumps({"error": code, "detail": str(exc)}) + "\n")
        return 1
    sys.stdout.write(out)  # two writes: no second copy of a large output
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
