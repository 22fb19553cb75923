"""Benchmark of pnbundles: seeded workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout.  One process and one thread issue one operation at a time
(a closed loop with a single client).  After set-up, which is repeated and
timed, the run repeats whole rounds of the workload's operations for about
``--seconds``; every round runs the same operations, so any failure rate is
a fixed share.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it has the
per-layer metrics, from rounds in which each operation is replayed as
separate, timed calls into the layers.  Raw timings and spans are written
under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LAYERS = ("cli", "bundles", "poly", "generate", "betti", "hilbert", "lattice", "errors")
SETUP_REPEATS = 9


class Tracer:
    """Spans (name, parent, start, end) kept in memory, plus exact counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def add(self, name, k):
        self.counts[name] += k

    def peak(self, name, v):
        self.counts[name] = max(self.counts[name], v)

    def times(self):
        """Per span name: total time, and self time (total minus children)."""
        total, own = defaultdict(float), defaultdict(float)
        for s in self.spans:
            d = s["end"] - s["start"]
            total[s["name"]] += d
            own[s["name"]] += d
            if s["parent"] is not None:
                own[self.spans[s["parent"]]["name"]] -= d
        return dict(total), dict(own)


def import_package():
    """Import pnbundles afresh from this checkout's src/, so that every
    set-up repetition pays the import."""
    for name in [m for m in sys.modules if m == "pnbundles" or m.startswith("pnbundles.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"pnbundles.{m}") for m in LAYERS})
    if not os.path.abspath(lib.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pnbundles was imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def load_schemas():
    folder = os.path.join(SRC, "pnbundles", "schemas")
    out = {}
    for name in ("check", "deform", "lattice"):
        with open(os.path.join(folder, f"{name}.schema.json"), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "pnbundles")):
        print(f"no package source at {SRC}: run from the root of a pnbundles checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, OpFailed
    from checks import CheckFailed

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(stem, exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_package()
        schemas = load_schemas()
        ops = workload.setup(random.Random(args.seed), stem, schemas)
        setup_times.append(time.perf_counter() - t0)

    attempted = failed = 0
    failures, problems = [], []  # operations that raised; outputs that are wrong
    reference = [None] * len(ops)  # the checked output of each operation

    def run_round(tracer=None):
        nonlocal attempted, failed
        durations, verifiers = [None] * len(ops), []  # None: the operation failed
        start = time.perf_counter()
        for i, op in enumerate(ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(lib, op)
                elif reference[i] is None:
                    raise OpFailed("no untraced output to replay")
                else:
                    with tracer.span("op"):
                        verifiers.append(workload.traced(lib, op, reference[i], tracer))
            except CheckFailed as exc:
                problems.append(f"op {i}: {exc}")
                continue
            except Exception as exc:  # the program under test crashed: count it and go on
                failed += 1
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            durations[i] = time.perf_counter() - t0
            if tracer is None:
                if reference[i] is None:
                    reference[i] = out
                    verifiers.append(lambda op=op, out=out: workload.check(op, out))
                elif out != reference[i]:
                    problems.append(f"op {i}: output differs from the first round's")
        wall = time.perf_counter() - start
        for verify in verifiers:
            try:
                verify()
            except Exception as exc:  # a malformed output is a wrong output
                problems.append(f"{type(exc).__name__}: {exc}")
        return wall, durations

    # A round starts only if, at the pace of the last one, at least half of
    # it falls within --seconds, so a run lasts --seconds give or take half a
    # round.  The first untraced round and (with --trace 1) the first traced
    # round always run.
    begin = time.perf_counter()
    plain, traced, tracers = [run_round()], [], []
    while True:
        rounds = traced if args.trace else plain
        if rounds and time.perf_counter() - begin + rounds[-1][0] / 2 > args.seconds:
            break
        if args.trace:
            tracers.append(Tracer())
        rounds.append(run_round(tracers[-1] if args.trace else None))

    raw = {"workload": args.workload, "seed": args.seed, "setup_s": setup_times,
           "rounds": [{"wall_s": w, "op_s": d} for w, d in plain],
           "traced_rounds": [{"wall_s": w, "op_s": d} for w, d in traced],
           "failures": failures, "problems": problems}
    if args.trace:
        metrics = layer_metrics(spec, tracers, plain, traced, problems)
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump([dict(zip(("total_s", "self_s"), t.times()), spans=t.spans) for t in tracers], fh)
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain),
            "op_p50_s": op_p50(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    raw["metrics"] = metrics
    with open(stem + "-run.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    for p in (failures + problems)[:20]:
        print(p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def op_p50(rounds):
    """The median over operations of each operation's median time across
    rounds, leaving out failed attempts."""
    per_op = [[d for d in ds if d is not None] for ds in zip(*(ds for _, ds in rounds))]
    return statistics.median(statistics.median(ds) for ds in per_op if ds)


def layer_metrics(spec, tracers, plain, traced, problems):
    """Per-layer totals per traced round (median over rounds for times; the
    counts must agree exactly between rounds), and the tracing overhead."""
    rounds = [t.times() for t in tracers]
    counts = [t.counts for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append(f"per-layer counts differ between traced rounds: {counts}")
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in plain)
        elif m["unit"] == "s":
            value = statistics.median(total.get(name.removesuffix("_s"), 0.0) for total, _ in rounds)
        else:
            value = counts[0][name]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
