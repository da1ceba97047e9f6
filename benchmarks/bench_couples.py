"""Timing harness for the derivation chain against the frozen reference.

ExactCouple.derive in twkit.couples shares one memo along a derivation
chain: each distinct map is interned once, eliminated once and
multiplied once with each other map, and f' is read off f's rref.  The
reference it replaced (reference_derive and reference_check_exactness
in tests/test_couples.py) eliminates every map and subquotient afresh
at every slot.  Both run on the corpus size ladder: nine seeded
decompositions of 20 to 60 generators, k = 1, 2, 3 in turn, each
reassembled, conjugated and decomposed again, as `twkit couple` does
with a complex document.  The model couple and its tw + 1 derivations
are checked equal, map for map, on every document before any time is
printed; each timed run validates the model couple and derives it
tw + 1 times, from the same maps and a fresh memo.  Times are best of
--repeats.  The table goes to stdout and the times, in seconds, to
--json, as the run named --label; runs under other labels already in
that file at the same seed are kept, so running the harness on two
twkit trees (say a parent commit and a change, through PYTHONPATH)
records both.  Run from the repository root as

    PYTHONPATH=src python benchmarks/bench_couples.py [--seed N] [--repeats N] [--json PATH] [--label NAME]
"""

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import time

from twkit.corpus import conjugate, random_decomposition
from twkit.couples import ExactCouple, couple_from_decomposition
from twkit.decompose import decompose, reassemble, torsion_width

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_couples import couple_state, reference_check_exactness, reference_derive  # noqa: E402

SEED = 20261018
DOCS = 9
MIN_GENERATORS = 20
MAX_GENERATORS = 60
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_couples.json")


def ladder(seed, count=DOCS):
    """[decomposition of a conjugated complex], sizes climbing evenly:
    the first count of the DOCS documents."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        k = 1 + n % 3
        generators = MIN_GENERATORS + (MAX_GENERATORS - MIN_GENERATORS) * n // (DOCS - 1)
        while True:
            d = random_decomposition(rng, max_generators=generators)
            if d.k == k and len(d.free_pieces) + 2 * len(d.torsion_pieces) == generators:
                break
        out.append(decompose(conjugate(rng, reassemble(d))))
    return out


def chain(model, derivations):
    """The model couple, validated afresh, and its derivations."""
    c = ExactCouple(model.k, model.window, model._a, model._e, model._f, model._g, model._h)
    out = [c]
    for _ in range(derivations):
        out.append(out[-1].derive())
    return out


def reference_chain(model, derivations):
    c = ExactCouple(model.k, model.window, model._a, model._e, model._f, model._g, model._h, validate=False)
    c._check_shapes()
    reference_check_exactness(c)
    out = [c]
    for _ in range(derivations):
        out.append(reference_derive(out[-1]))
    return out


def check(n, model, derivations):
    """The chain and the reference chain agree, couple for couple."""
    got = [couple_state(c) for c in chain(model, derivations)]
    want = [couple_state(c) for c in reference_chain(model, derivations)]
    assert got == want, "the derivation chain disagrees with the reference on document %d" % n


def best_of(route, model, derivations, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        route(model, derivations)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", default=str(JSON_PATH), help="where the times go (default %(default)s)")
    ap.add_argument("--label", default="change", help="name of this run in the --json record (default %(default)s)")
    args = ap.parse_args()

    docs = [(d, couple_from_decomposition(d), torsion_width(d) + 1) for d in ladder(args.seed)]
    for n, (d, model, derivations) in enumerate(docs):
        check(n, model, derivations)

    header = "%-4s %2s %4s %6s  %10s  %10s  %7s" % ("doc", "k", "gens", "derive", "reference", "memo", "speedup")
    print(header)
    print("-" * len(header))
    rungs = []
    for n, (d, model, derivations) in enumerate(docs):
        t_ref = best_of(reference_chain, model, derivations, args.repeats)
        t_new = best_of(chain, model, derivations, args.repeats)
        generators = len(d.free_pieces) + 2 * len(d.torsion_pieces)
        rungs.append({"doc": n, "k": d.k, "generators": generators, "derivations": derivations,
                      "reference_s": t_ref, "chain_s": t_new})
        print("%-4d %2d %4d %6d  %7.1f ms  %7.1f ms  %6.1fx" % (
            n, d.k, generators, derivations, t_ref * 1e3, t_new * 1e3, t_ref / t_new))
    total = {key: sum(r[key] for r in rungs) for key in ("reference_s", "chain_s")}
    print("whole ladder: reference %.1f ms, memo %.1f ms" % (total["reference_s"] * 1e3, total["chain_s"] * 1e3))

    record = {
        "harness": "benchmarks/bench_couples.py",
        "seed": args.seed,
        "repeats": args.repeats,
        "timing": "best of repeats, seconds, per document; reference = the frozen dense derivation, "
                  "chain = ExactCouple.derive on a fresh memo; runs keyed by --label",
        "runs": {},
    }
    try:
        with open(args.json, encoding="utf-8") as fh:
            old = json.load(fh)
        if (old.get("seed"), old.get("repeats")) == (args.seed, args.repeats):
            record["runs"] = old.get("runs", {})
    except FileNotFoundError:
        pass
    record["runs"][args.label] = {
        "python": platform.python_version(),
        "machine": "%s, %d cores" % (platform.machine(), os.cpu_count()),
        "ladder": total,
        "rungs": rungs,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
