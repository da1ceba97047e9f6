"""Seeded random decompositions, basis changes, and the cross-check
suite run over them.

One integer seed fully determines every artifact, so CI failures
reproduce with the seed alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from .algebra import add_to_row
from .complexes import GradedComplex, specialize_a_to_1
from .couples import correspondence_check, couple_tables
from .decompose import (
    Decomposition,
    decompose,
    hn_table,
    reassemble,
    thickness,
    torsion_width,
)
from .exactla import matmul
from .pages import (
    PageTable,
    assembled_page_list,
    collapse_page,
    generic_pages,
    piece_pages,
    stabilization_page,
)
from .recover import padded_sequence, recover, roundtrip


def random_decomposition(
    rng: random.Random,
    max_generators: int = 10,
    max_k: int = 3,
    degree_span=(-20, 20),
    max_m: int = 3,
    uniform_parity: bool = False,
) -> Decomposition:
    """A small random decomposition; possibly empty.

    Generator degrees (including the torsion top at s + 2km) stay
    inside degree_span.  With uniform_parity all classes sit on
    diagonals 2i + s of one parity, which keeps thickness defined.
    """
    k = rng.randint(1, max_k)
    lo, hi = degree_span
    budget = rng.randint(0, max_generators)
    parity = rng.randint(0, 1)

    def snap(s, top):
        if not uniform_parity:
            return s
        if (s - parity) % 2:
            s += 1
        return s - 2 if s > top else s

    free = []
    torsion = []
    while budget > 0:
        i = rng.randint(-3, 3)
        if budget >= 2 and rng.random() < 0.5:
            m = rng.randint(1, max_m)
            if hi - 2 * k * m < lo:
                m = 1
            top = hi - 2 * k * m
            s = snap(rng.randint(lo, top), top)
            torsion.append((i, m, s))
            budget -= 2
        else:
            s = snap(rng.randint(lo, hi), hi)
            free.append((i, s))
            budget -= 1
    # the parity snap can land two torsion generators on one spot;
    # harmless, decompose resolves ties deterministically
    return Decomposition(k, tuple(free), tuple(torsion))


_SCALARS = [
    Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)
]


def _random_automorphism(rng, ring, degrees, ops):
    """Invertible degree-0 endomorphism as sparse rows (g, g^{-1}), built
    from elementary operations so the inverse is exact by construction.

    Valid nonzero positions (r, c) need deg[c] - deg[r] a non-negative
    multiple of 2k; diagonal scalings use any nonzero rational.
    """
    n = len(degrees)
    g = [{i: 1} for i in range(n)]
    ginv = [{i: 1} for i in range(n)]
    addable = [
        (r, c)
        for r in range(n)
        for c in range(n)
        if r != c
        and degrees[c] >= degrees[r]
        and (degrees[c] - degrees[r]) % ring.a_degree == 0
    ]
    for _ in range(ops):
        if addable and rng.random() < 0.7:
            r, c = rng.choice(addable)
            x = rng.choice(_SCALARS)
            # g := (I + x e_{rc}) g ; ginv := ginv (I - x e_{rc})
            for j, y in g[c].items():
                add_to_row(g[r], j, x * y)
            for row in ginv:
                if r in row:
                    add_to_row(row, c, -x * row[r])
        else:
            r = rng.randrange(n)
            u = rng.choice(_SCALARS)
            for j in g[r]:
                g[r][j] *= u
            for row in ginv:
                if r in row:
                    row[r] /= u
    return g, ginv


def conjugate(rng: random.Random, c: GradedComplex, ops: int = 8) -> GradedComplex:
    """Random homogeneous change of basis: d mapsto g d g^{-1} degree
    by degree.  decompose of the result equals decompose of c."""
    autos = {i: _random_automorphism(rng, c.ring, degs, ops) for i, degs in c.degrees.items()}
    diffs = {
        i: matmul(matmul(autos[i + 1][0], d.rows), autos[i][1]) for i, d in c.differentials.items()
    }
    return GradedComplex(c.ring, c.degrees, diffs)


def summed_piece_pages(d: Decomposition, hat: bool, r: int) -> PageTable:
    """Page r as one PageTable of every piece's closed-form entries,
    which its constructor adds up position by position; cross_checks
    compares it with the assembled page."""
    pieces = d.free_pieces + d.torsion_pieces
    return PageTable(r, chain.from_iterable(piece_pages(p, hat, r, d.k).items() for p in pieces), hat)


def cross_checks(d: Decomposition, rng: random.Random = None):
    """Run every structural cross-check on one decomposition.

    Returns a list of failure strings; empty means all checks passed.
    """
    failures = []
    k = d.k
    tw = torsion_width(d)
    c = reassemble(d)
    fc = specialize_a_to_1(c)

    if decompose(c) != d:
        failures.append("decompose(reassemble(d)) != d")

    r_hi = 2 * k * tw + 3
    generic = []
    for r, a in enumerate(assembled_page_list(d, True, range(1, r_hi + 1)), 1):
        g = generic_pages(fc, r)
        s = summed_piece_pages(d, True, r)
        generic.append(g)
        if not a.same_entries(g):
            failures.append("generic page %d differs from assembled" % r)
        if not a.same_entries(s):
            failures.append("summed piece page %d differs from assembled" % r)

    if stabilization_page(generic) != collapse_page(d):
        failures.append(
            "generic stabilization at %d, expected %d"
            % (stabilization_page(generic), collapse_page(d))
        )

    # one derivation chain serves both couple checks: pages 1..tw+2
    # for the correspondence, 1..tw+1 for the round trip
    tables = couple_tables(d, tw + 2)
    res = correspondence_check(d, tw + 2, tables)
    if not res.ok:
        failures.append("couple/page correspondence fails at r=%r" % (res.first_mismatch,))

    if not roundtrip(d):
        failures.append("recover round-trip (assembled pages) fails")
    if recover(padded_sequence(k, tables[: tw + 1])) != d:
        failures.append("recover round-trip (couple pages) fails")

    table = hn_table(d)
    if table.total_dim() != len(d.free_pieces) + 2 * len(d.torsion_pieces):
        failures.append("mod-a dimension count does not match piece count")
    if table:
        try:
            ht, lht = thickness(table)
        except ValueError:
            ht = lht = None
        if ht is not None and k * tw > ht:
            failures.append("k tw exceeds ht")
        if ht is not None and tw >= 1 and (lht is None or k * tw > lht):
            failures.append("k tw exceeds lht")

    if rng is not None:
        if decompose(conjugate(rng, c)) != d:
            failures.append("decomposition changed under a basis change")
    return failures


def verify_item(seed: int):
    """One corpus item: generate, cross-check, report failures."""
    rng = random.Random(seed)
    d = random_decomposition(rng)
    try:
        return cross_checks(d, rng)
    except Exception as e:
        return ["unexpected error: %r" % (e,)]


def item_seeds(seed: int, count: int):
    rng = random.Random(seed)
    return [rng.randrange(2**63) for _ in range(count)]
