"""Timing harness for mod-a homology and the first differential against
the frozen reference.

reduce_mod_a, homology_field and first_differential in twkit.complexes
run on sparse rows and eliminate each differential once; the dense
reference they replaced (reference_reduce_mod_a, reference_homology
and reference_first_differential in tests/test_homology.py) builds one
Fraction per cell, eliminates each differential twice and transposes
dense stacks.  Both run on the benchmark's link ladder (with the
potential lambda_1 = -3/2), T(2,7) and T(3,4) with the standard
potential, and the 2-braid at N = 10, 20 and 30 with i = N/2.  Every
answer (dims, bigraded table, representatives, boundaries and every
block of d_1) is checked equal on every input before any time is
printed.  Two stages are timed, best of --repeats: the mod-a homology
(reduce_mod_a then homology_field), and first_differential, which
runs that homology itself and then lifts and projects.  Run from the
repository root as

    PYTHONPATH=src python benchmarks/bench_homology.py [--repeats N]
"""

import argparse
import pathlib
import sys
import time
from fractions import Fraction

from twkit.complexes import first_differential, homology_field, reduce_mod_a
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, build_sl2_cube, build_twobraid

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
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
)
TWOBRAID_N = (10, 20, 30)


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


def best_of(fn, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    cases = [(label, build()) for label, build in builders()]
    for label, c in cases:
        assert_graded_matches(c)

    header = "%-30s %5s  %10s  %10s  %7s  %10s  %10s  %7s" % (
        "input", "rank", "ref H", "sparse H", "speedup", "ref d_1", "sparse d_1", "speedup"
    )
    print(header)
    print("-" * len(header))
    for label, c in cases:
        h_ref = best_of(lambda: reference_homology(*reference_reduce_mod_a(c)), args.repeats)
        h_new = best_of(lambda: homology_field(reduce_mod_a(c)), args.repeats)
        d_ref = best_of(lambda: reference_first_differential(c), args.repeats)
        d_new = best_of(lambda: first_differential(c), args.repeats)
        print("%-30s %5d  %7.1f ms  %7.1f ms  %6.1fx  %7.1f ms  %7.1f ms  %6.1fx" % (
            label, c.total_rank(), h_ref * 1e3, h_new * 1e3, h_ref / h_new,
            d_ref * 1e3, d_new * 1e3, d_ref / d_new))


if __name__ == "__main__":
    main()
