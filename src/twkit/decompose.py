"""Splitting a graded complex into its elementary pieces.

A bounded complex of graded-free k[a]-modules with homogeneous
differentials splits as a direct sum of rank-one complexes with zero
differential and two-term complexes

    0 -> k[a]{s + 2km} --a^m--> k[a]{s} -> 0 .

A two-term piece with m >= 1 has homology k[a]/(a^m){s} concentrated in
its target degree; with m = 0 it is contractible and contributes
nothing.  `decompose` reads the splitting off the persistence pairing
generic pages read (see twkit.pages): each of its row operations adds
a source to a source of the same or a higher level, by homogeneity a
multiple of 2k apart, so it is a homogeneous change of basis over k[a],
and a pair of gap 2km is a two-term piece.  It returns the multiset of
surviving pieces in a canonical order; that multiset is an isomorphism
invariant of the complex, and the homology in degree i is read straight
off the pieces indexed i.  The contractible pairs are dropped, and the
rank accounting total rank = |free| + 2 |torsion| + 2 (dropped pairs)
is checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import complexes
from .algebra import (
    BigradedTable,
    GradedRing,
)
from .complexes import GradedComplex, InternalError


@dataclass(frozen=True)
class Decomposition:
    """Multiset of elementary pieces of a graded complex.

    free_pieces: tuples (i, s), a rank-one summand k[a]{s} in
    homological degree i with zero differential.

    torsion_pieces: tuples (i, m, s) with m >= 1, the two-term summand
    whose generator at degree i - 1, polynomial degree s + 2km, maps by
    a^m onto the generator at degree i, polynomial degree s.  The piece
    is indexed by its target degree i: that is where its homology
    k[a]/(a^m){s} lives.

    Both tuples are stored sorted, so equality is multiset equality.
    """

    k: int
    free_pieces: tuple = ()
    torsion_pieces: tuple = ()

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        free = tuple(sorted((int(i), int(s)) for i, s in self.free_pieces))
        tors = tuple(
            sorted((int(i), int(m), int(s)) for i, m, s in self.torsion_pieces)
        )
        for _, m, _ in tors:
            if m < 1:
                raise ValueError("torsion exponent must be >= 1")
        object.__setattr__(self, "free_pieces", free)
        object.__setattr__(self, "torsion_pieces", tors)


def decompose(c: GradedComplex) -> Decomposition:
    """Split `c` into elementary pieces, read off the persistence
    pairing of its differentials with each generator's degree as its
    level (complexes.persistence_pairs, looked up when called): each
    pair of gap 2km splits off a torsion piece (n + 1, m, level of its
    target) when m >= 1 and a contractible pair when m = 0, and each
    unpaired generator a free piece.  A gap that is negative or not a
    multiple of 2k, or a generator in two pairs, is an internal error.
    """
    two_k = c.ring.a_degree
    torsion, dropped, paired = [], 0, set()
    for n, j, t in complexes.persistence_pairs(c.degrees, c.mats):
        s = c.degrees[n + 1][t]
        gap = c.degrees[n][j] - s
        if gap < 0 or gap % two_k:
            raise InternalError("decompose", "pivot violates homogeneity")
        if gap:
            torsion.append((n + 1, gap // two_k, s))
        else:
            dropped += 1
        paired.update(((n, j), (n + 1, t)))
    free = [(n, s) for n, levels in c.degrees.items() for j, s in enumerate(levels) if (n, j) not in paired]
    if len(free) + 2 * len(torsion) + 2 * dropped != c.total_rank():
        raise InternalError("decompose", "piece count does not account for every generator")
    return Decomposition(c.ring.k, tuple(free), tuple(torsion))


def hn_table(d: Decomposition) -> BigradedTable:
    """Bigraded dimensions of the mod-a homology.

    Each free piece lands at (i, s); each torsion piece (i, m, s) lands
    at (i, s) and at (i - 1, s + 2km).
    """
    two_k = 2 * d.k
    return BigradedTable(
        chain(
            ((piece, 1) for piece in d.free_pieces),
            (((i, s), 1) for i, _, s in d.torsion_pieces),
            (((i - 1, s + two_k * m), 1) for i, m, s in d.torsion_pieces),
        )
    )


def torsion_width(d: Decomposition) -> int:
    """Largest torsion exponent; 0 when the homology is free."""
    return max((m for _, m, _ in d.torsion_pieces), default=0)


def diagonal_spread(t: BigradedTable) -> int:
    """The width of 2i + s over the support of a nonempty (i, s) table."""
    deltas = [2 * i + s for i, s in t.support()]
    return max(deltas) - min(deltas)


def thickness(t: BigradedTable):
    """(ht, lht) of a nonzero (hom, poly) dimension table.

    ht  = 1 + max over nonzero pairs of ((2 i1 + j1) - (2 i2 + j2)) / 2.
    lht = max of (j1 - j2) / 2 over nonzero entries in adjacent
          homological degrees i and i + 1; None when no adjacent pair
          exists.

    Both are integers on any table whose entries sit on diagonals of a
    single parity; a mixed-parity table would make them half-integral,
    which is rejected rather than rounded.
    """
    if not isinstance(t, BigradedTable):
        raise ValueError("thickness expects a table in (hom, poly) convention")
    if t.is_empty():
        raise ValueError("thickness of an empty table")
    spread = diagonal_spread(t)
    if spread % 2:
        raise ValueError("half-integral thickness on a mixed-parity table")
    ht = 1 + spread // 2

    by_i = {}
    for i, j in t.support():
        by_i.setdefault(i, []).append(j)
    gaps = [max(by_i[i]) - min(by_i[i + 1]) for i in by_i if i + 1 in by_i]
    if not gaps:
        return ht, None
    widest = max(gaps)
    if widest % 2:
        raise ValueError("half-integral local thickness on a mixed-parity table")
    return ht, widest // 2


def reassemble(d: Decomposition) -> GradedComplex:
    """The direct sum of the elementary complexes of `d`.

    Pieces are laid out in canonical order, free before torsion, with
    unit scalars on the torsion differentials.  Splitting the result
    returns `d` itself.
    """
    degrees = {}

    def slot(i, s):
        degrees.setdefault(i, []).append(s)
        return len(degrees[i]) - 1

    units = {}
    for i, s in d.free_pieces:
        slot(i, s)
    for i, m, s in d.torsion_pieces:
        col = slot(i - 1, s + 2 * d.k * m)
        row = slot(i, s)
        units.setdefault(i - 1, []).append((row, col))

    diffs = {}
    for i, positions in units.items():
        rows = diffs[i] = [{} for _ in degrees[i + 1]]
        for r, c in positions:
            rows[r][c] = 1
    return GradedComplex(GradedRing(d.k), degrees, diffs)
