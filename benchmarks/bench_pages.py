"""Timing harness for generic_pages against the frozen reference.

generic_pages in twkit.pages reads every page off one rank profile per
filtered complex; the reference it replaced (reference_generic_pages in
tests/test_pages.py) builds three kernel bases per degree and level for
every page.  Both run on the corpus size ladder: nine seeded
decompositions of 20 to 60 generators, k = 1, 2, 3 in turn, each
reassembled, conjugated and specialized at a = 1.  Pages r = 0 through
2k tw + 3 are checked equal on every document before any time is
printed; each timed run covers that whole range on a fresh
specialization, so the profile is built inside the timing.  Run from
the repository root as

    PYTHONPATH=src python benchmarks/bench_pages.py [--seed N] [--repeats N]
"""

import argparse
import pathlib
import random
import sys
import time

from twkit.complexes import specialize_a_to_1
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import reassemble, torsion_width
from twkit.pages import generic_pages

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from test_pages import reference_generic_pages  # noqa: E402

SEED = 20261018
DOCS = 9
MIN_GENERATORS = 20
MAX_GENERATORS = 60


def ladder(seed, count=DOCS):
    """[(decomposition, graded complex)], sizes climbing evenly: the
    first count of the DOCS documents."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        k = 1 + n % 3
        generators = MIN_GENERATORS + (MAX_GENERATORS - MIN_GENERATORS) * n // (DOCS - 1)
        while True:
            d = random_decomposition(rng, max_generators=generators)
            if d.k == k and len(d.free_pieces) + 2 * len(d.torsion_pieces) == generators:
                break
        out.append((d, conjugate(rng, reassemble(d))))
    return out


def all_pages(route, c, rs):
    fc = specialize_a_to_1(c)
    return [route(fc, r) for r in rs]


def page_range(d):
    return range(0, 2 * d.k * torsion_width(d) + 4)


def check(n, c, rs):
    assert all_pages(generic_pages, c, rs) == all_pages(reference_generic_pages, c, rs), (
        "generic_pages disagrees with the reference on document %d" % n
    )


def best_of(route, c, rs, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        all_pages(route, c, rs)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    docs = [(d, c, page_range(d)) for d, c in ladder(args.seed)]
    for n, (d, c, rs) in enumerate(docs):
        check(n, c, rs)

    header = "%-4s %2s %4s %5s  %10s  %10s  %7s" % ("doc", "k", "gens", "pages", "reference", "profile", "speedup")
    print(header)
    print("-" * len(header))
    for n, (d, c, rs) in enumerate(docs):
        t_ref = best_of(reference_generic_pages, c, rs, args.repeats)
        t_new = best_of(generic_pages, c, rs, args.repeats)
        print("%-4d %2d %4d %5d  %7.1f ms  %7.1f ms  %6.1fx" % (
            n, d.k, c.total_rank(), len(rs), t_ref * 1e3, t_new * 1e3, t_ref / t_new))


if __name__ == "__main__":
    main()
