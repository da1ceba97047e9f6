"""Timing harness for graded complexes on sparse rows against the
frozen dense reference.

HomMatrix stores sparse rows of canonical values (ints where integral);
GradedComplex validation (homogeneity and d^2 = 0) and decompose's
splitting follow the nonzeros.  The dense reference they replaced
(reference_validate and reference_split_pieces in
tests/test_graded_sparse.py) scans every cell of dense Fraction rows.
Both run on the benchmark's link ladder (with the potential
lambda_1 = -3/2), T(2,7) and T(3,4) with the standard potential, and
the 2-braid at N = 10, 20 and 30 with i = N/2.  Every input is first
checked: both validations accept it and both splittings return the
same pieces in the same order.  Then, best of --repeats, it times the
sparse build (which validates), validation alone both ways, and the
splitting both ways; the reference runs on dense Fraction rows made
beforehand, as the dense HomMatrix stored them.  Run from the
repository root as

    PYTHONPATH=src python benchmarks/bench_complexes.py [--repeats N]
"""

import argparse
import pathlib
import sys
import time
from fractions import Fraction

from twkit.complexes import GradedComplex
from twkit.decompose import _split_pieces
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, build_sl2_cube, build_twobraid

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_graded_sparse import dense_mats, reference_split_pieces, reference_validate  # noqa: E402

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

    cases = []
    for label, build in builders():
        c = build()
        mats = dense_mats(c)
        reference_validate(c, mats)
        if _split_pieces(c) != reference_split_pieces(c, mats):
            raise SystemExit("%s: pieces differ from the reference" % label)
        cases.append((label, build, c, mats))

    header = "%-30s %5s  %8s  %10s  %10s  %7s  %10s  %10s  %7s" % (
        "input", "rank", "build", "ref valid", "validate", "speedup", "ref split", "split", "speedup"
    )
    print(header)
    print("-" * len(header))
    for label, build, c, mats in cases:
        b_new = best_of(build, args.repeats)
        v_ref = best_of(lambda: reference_validate(c, mats), args.repeats)
        v_new = best_of(lambda: GradedComplex(c.ring, c.modules, c.differentials), args.repeats)
        s_ref = best_of(lambda: reference_split_pieces(c, mats), args.repeats)
        s_new = best_of(lambda: _split_pieces(c), args.repeats)
        print("%-30s %5d  %5.1f ms  %7.1f ms  %7.1f ms  %6.1fx  %7.1f ms  %7.1f ms  %6.1fx" % (
            label, c.total_rank(), b_new * 1e3, v_ref * 1e3, v_new * 1e3, v_ref / v_new,
            s_ref * 1e3, s_new * 1e3, s_ref / s_new))


if __name__ == "__main__":
    main()
