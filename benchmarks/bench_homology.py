"""Timing harness for mod-a homology and the first differential: cycle
coordinates against the stacked version they replaced and against the
dense reference.

homology_field and first_differential in twkit.complexes eliminate each
differential once, then build one exactla.Subquotient per degree: it
eliminates the boundaries once in cycle coordinates, on the free
columns of the degree, where every cycle is a unit vector, to pin the
representatives, and then reads each lift's coordinates on them off
that elimination, with no further one.  The stacked version they replaced
(reference_homology_field and reference_first_differential in
tests/frozen_homology.py) eliminates [image | cycles] and [image |
representatives | lifts] over every coordinate.  The dense reference
before that (reference_reduce_mod_a, reference_homology and
reference_first_differential in tests/test_homology.py) builds one
Fraction per cell and eliminates each differential twice.

The ladder: the benchmark's link ladder with the potential
lambda_1 = -3/2; T(2,7), T(3,4), T(2,8) and T(3,5) with the standard
potential; the 2-braid at N = 10, 20 and 30 with i = N/2.  Every answer
(dims, bigraded table, representatives, boundaries and every block of
d_1, value and type) is checked equal to the stacked version on every
rung, and to the dense reference on every rung of rank at most
DENSE_MAX_RANK, before any time is printed; the dense reference takes
minutes past that and is not timed there.  Two stages are timed, best
of --repeats: the mod-a homology (reduce_mod_a then homology_field),
and first_differential, which runs that homology itself and then lifts
and projects.  Each repeat runs every version once in turn.  The table
goes to stdout and the times, in seconds, to --json.  Run from the
repository root as

    PYTHONPATH=src python benchmarks/bench_homology.py [--repeats N] [--json PATH]
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import sys
import time
from fractions import Fraction

from twkit.complexes import first_differential, homology_field, reduce_mod_a
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, build_sl2_cube, build_twobraid

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from frozen_homology import reference_first_differential as stacked_first_differential  # noqa: E402
from frozen_homology import reference_homology_field as stacked_homology_field  # noqa: E402
from test_frozen_homology import assert_equal_to_frozen  # noqa: E402
from test_homology import (  # noqa: E402
    assert_graded_matches,
    reference_first_differential,
    reference_homology,
    reference_reduce_mod_a,
)

LAMBDA = Sl2Potential(2, ((1, Fraction(-3, 2)),))
LINKS = (
    ("1 1 1", 2, LAMBDA),
    ("1 -2 1 -2", 3, LAMBDA),
    ("1 1 1 1 1", 2, LAMBDA),
    ("1 1 1 2 -1 2", 3, LAMBDA),
    ("1 1 1 1 1 1 1", 2, Sl2Potential.standard()),
    ("1 2 1 2 1 2 1 2", 3, Sl2Potential.standard()),
    ("1 1 1 1 1 1 1 1", 2, Sl2Potential.standard()),
    ("1 2 1 2 1 2 1 2 1 2", 3, Sl2Potential.standard()),
)
TWOBRAID_N = (10, 20, 30)
DENSE_MAX_RANK = 2500
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_homology.json")


def builders():
    """[(label, zero-argument builder of the graded complex)] in ladder order."""
    out = []
    for word, strands, potential in LINKS:
        label = "link %s%s" % (word, "" if potential is LAMBDA else " (standard)")
        diagram = LinkDiagram.from_braid_text(word, strands)
        out.append((label, lambda d=diagram, p=potential: build_sl2_cube(d, p)))
    for N in TWOBRAID_N:
        spec = TwoBraidSpec.power_basis(N, N // 2)
        out.append(("2-braid N=%d i=%d" % (N, N // 2), lambda s=spec: build_twobraid(s)))
    return out


def has_dense(c):
    return c.total_rank() <= DENSE_MAX_RANK


def check(c):
    """Every answer against the stacked version, and against the dense
    reference where it runs."""
    assert_equal_to_frozen(c)
    if has_dense(c):
        assert_graded_matches(c)


def reference_d1(c):
    """The dense first differential computed anew, homology included,
    as first_differential computes it."""
    degrees, mats = reference_reduce_mod_a(c)
    return reference_first_differential(c, degrees, reference_homology(degrees, mats))


def best_of(fns, repeats):
    """{name: best time of fns[name]}; each repeat runs every function
    once in turn, so a drift in machine speed reaches them alike."""
    best = {}
    for _ in range(repeats):
        for name, fn in fns.items():
            gc.collect()
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            best[name] = min(best.get(name, dt), dt)
    return best


def ms(t):
    return "-" if t is None else "%.1f ms" % (t * 1e3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--json", default=str(JSON_PATH), help="where the times go (default %(default)s)")
    args = ap.parse_args()

    cases = [(label, build()) for label, build in builders()]
    for label, c in cases:
        check(c)

    header = "%-34s %5s  %11s  %11s  %11s  %6s  %11s  %11s  %11s  %6s" % (
        "input", "rank", "dense H", "stacked H", "cycle H", "gain",
        "dense d_1", "stacked d_1", "cycle d_1", "gain",
    )
    print(header)
    print("-" * len(header))
    rows = []
    for label, c in cases:
        fns = {
            "dense_homology_s": lambda: reference_homology(*reference_reduce_mod_a(c)),
            "stacked_homology_s": lambda: stacked_homology_field(reduce_mod_a(c)),
            "cycle_homology_s": lambda: homology_field(reduce_mod_a(c)),
            "dense_d1_s": lambda: reference_d1(c),
            "stacked_d1_s": lambda: stacked_first_differential(c),
            "cycle_d1_s": lambda: first_differential(c),
        }
        if not has_dense(c):
            del fns["dense_homology_s"], fns["dense_d1_s"]
        t = {"dense_homology_s": None, "dense_d1_s": None, **best_of(fns, args.repeats)}
        rows.append({"input": label, "rank": c.total_rank(), **t})
        print("%-34s %5d  %11s  %11s  %11s  %5.2fx  %11s  %11s  %11s  %5.2fx" % (
            label, c.total_rank(), ms(t["dense_homology_s"]), ms(t["stacked_homology_s"]),
            ms(t["cycle_homology_s"]), t["stacked_homology_s"] / t["cycle_homology_s"],
            ms(t["dense_d1_s"]), ms(t["stacked_d1_s"]), ms(t["cycle_d1_s"]),
            t["stacked_d1_s"] / t["cycle_d1_s"]))

    record = {
        "harness": "benchmarks/bench_homology.py",
        "repeats": args.repeats,
        "timing": "best of repeats, seconds; before = stacked, after = cycle",
        "python": platform.python_version(),
        "machine": "%s, %d cores" % (platform.machine(), os.cpu_count()),
        "rungs": rows,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
