"""Timing harness for graded complexes on sparse rows against the
frozen dense reference.

HomMatrix stores sparse rows of canonical values (ints where integral);
GradedComplex validation (homogeneity and d^2 = 0) and decompose's
splitting follow the nonzeros.  The dense reference they replaced
(reference_validate and reference_split_pieces in
tests/test_graded_sparse.py) scans every cell of dense Fraction rows.
Both run on the benchmark's link ladder (with the potential
lambda_1 = -3/2), T(2,7) and T(3,4) with the standard potential, and
the 2-braid at N = 10, 20 and 30 with i = N/2.  Each link comes twice:
with the potential as given, whose cube carries the Fraction beta,
and with its integral form (Sl2Potential.integral_form), whose cube
keeps every entry an int, as `twkit link` builds it.  Every input is first
checked: both validations accept it, both splittings return the same
pieces in the same order, and for a link the frozen cube builder
(reference_sl2_cube in tests/frozen_cube.py, with a bit-list loop each
for merges and splits) returns the same rows as build_sl2_cube, equal
values of equal type.  Then, best of --repeats, it times the build
both ways for a link (each validates its cube), the sparse build alone
for a 2-braid, validation alone both ways, and the splitting both
ways; the reference runs on dense Fraction rows made beforehand, as
the dense HomMatrix stored them.  Run from the repository root as

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
from frozen_cube import reference_sl2_cube  # noqa: E402
from test_cube_builder import layout  # noqa: E402
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
    """[(label, zero-argument builder of the graded complex, the frozen
    builder of the same cube or None)] in ladder order."""
    out = []
    for word, strands, potential in LINKS:
        label = "link %s%s" % (word, "" if potential is LAMBDA else " (standard)")
        diagram = LinkDiagram.from_braid_text(word, strands)
        for form, p in (("", potential), (" int", potential.integral_form())):
            out.append((
                label + form,
                lambda d=diagram, p=p: build_sl2_cube(d, p),
                lambda d=diagram, p=p: reference_sl2_cube(d, p),
            ))
    for N in TWOBRAID_N:
        spec = TwoBraidSpec.power_basis(N, N // 2)
        out.append(("2-braid N=%d i=%d" % (N, N // 2), lambda s=spec: build_twobraid(s), None))
    return out


def check(label, c, mats, reference=None):
    """Both validations accept c, both splittings give the same pieces,
    and the frozen builder, when given, builds the same rows."""
    if reference is not None and layout(reference()) != layout(c):
        raise SystemExit("%s: rows differ from the frozen builder" % label)
    reference_validate(c, mats)
    if _split_pieces(c) != reference_split_pieces(c, mats):
        raise SystemExit("%s: pieces differ from the reference" % label)


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
    for label, build, reference in builders():
        c = build()
        mats = dense_mats(c)
        check(label, c, mats, reference)
        cases.append((label, build, reference, c, mats))

    header = "%-36s %5s  %10s  %8s  %7s  %10s  %10s  %7s  %10s  %10s  %7s" % (
        "input", "rank", "ref build", "build", "speedup",
        "ref valid", "validate", "speedup", "ref split", "split", "speedup"
    )
    print(header)
    print("-" * len(header))
    for label, build, reference, c, mats in cases:
        b_new = best_of(build, args.repeats)
        if reference is None:
            b_ref = "%10s" % "-"
            b_speedup = "%7s" % "-"
        else:
            b_ref = best_of(reference, args.repeats)
            b_speedup = "%6.1fx" % (b_ref / b_new)
            b_ref = "%7.1f ms" % (b_ref * 1e3)
        v_ref = best_of(lambda: reference_validate(c, mats), args.repeats)
        v_new = best_of(lambda: GradedComplex(c.ring, c.modules, c.differentials), args.repeats)
        s_ref = best_of(lambda: reference_split_pieces(c, mats), args.repeats)
        s_new = best_of(lambda: _split_pieces(c), args.repeats)
        print("%-36s %5d  %s  %5.1f ms  %s  %7.1f ms  %7.1f ms  %6.1fx  %7.1f ms  %7.1f ms  %6.1fx" % (
            label, c.total_rank(), b_ref, b_new * 1e3, b_speedup, v_ref * 1e3, v_new * 1e3, v_ref / v_new,
            s_ref * 1e3, s_new * 1e3, s_ref / s_new))


if __name__ == "__main__":
    main()
