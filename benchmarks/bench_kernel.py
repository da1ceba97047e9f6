"""Timing harness for the row_reduce kernel against the dense reference.

The sparse kernel in twkit.exactla and the dense-storage Gauss-Jordan
elimination the tests compare it with (dense_row_reduce in
tests/dense_la.py: one cell per entry, every row scanned at each pivot)
run on identical seeded inputs: five random shapes and the 600 x 624
identity stack of the 2-braid at N = 25, the kernel on the sparse rows
of each (made beforehand, as its callers hold them).  Every output is
checked for equality before any time is printed.  Run from the
repository root as

    PYTHONPATH=src python benchmarks/bench_kernel.py [--seed N] [--repeats N]
"""

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

from twkit.exactla import row_reduce

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from dense_la import dense_row_reduce  # noqa: E402
from test_exactla import dense, identity_stack, sparse  # noqa: E402

SEED = 20260814


def random_matrix(rng, nrows, ncols, density, span=9):
    """Random Fraction matrix with roughly density*nrows*ncols nonzeros."""
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < density:
                num = rng.choice([n for n in range(-span, span + 1) if n])
                row.append(Fraction(num, rng.randint(1, 4)))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return rows


CASES = [
    # name, nrows, ncols, density
    ("small dense", 20, 20, 0.9),
    ("medium dense", 60, 60, 0.9),
    ("medium sparse", 80, 80, 0.15),
    ("wide", 40, 160, 0.3),
    ("tall", 160, 40, 0.3),
]


def inputs(seed):
    """[(name, dense rows)], smallest first."""
    rng = random.Random(seed)
    out = [(name, random_matrix(rng, nr, nc, density)) for name, nr, nc, density in CASES]
    out.append(("2-braid stack", identity_stack()))
    return out


def check(name, mat):
    """The kernel on the sparse rows of mat agrees with the dense reference."""
    rref, pivots = row_reduce(sparse(mat))
    assert (dense(rref, len(mat[0])), pivots) == dense_row_reduce(mat), (
        "kernel disagrees with the dense reference on %s" % name
    )


def best_of(fn, arg, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    cases = inputs(args.seed)
    for name, mat in cases:
        check(name, mat)

    header = "%-14s %7s %8s  %10s  %10s  %7s" % ("case", "shape", "nonzero", "dense", "sparse", "speedup")
    print(header)
    print("-" * len(header))
    for name, mat in cases:
        nonzero = sum(1 for row in mat for x in row if x) / (len(mat) * len(mat[0]))
        rows = sparse(mat)
        t_dense = best_of(dense_row_reduce, mat, args.repeats)
        t_sparse = best_of(row_reduce, rows, args.repeats)
        print("%-14s %3dx%-3d %7.1f%%  %7.2f ms  %7.2f ms  %6.1fx" % (
            name, len(mat), len(mat[0]), nonzero * 100, t_dense * 1e3, t_sparse * 1e3, t_dense / t_sparse))


if __name__ == "__main__":
    main()
