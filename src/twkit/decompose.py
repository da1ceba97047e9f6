"""Splitting a graded complex into its elementary pieces.

A bounded complex of graded-free k[a]-modules with homogeneous
differentials splits as a direct sum of rank-one complexes with zero
differential and two-term complexes

    0 -> k[a]{s + 2km} --a^m--> k[a]{s} -> 0 .

A two-term piece with m >= 1 has homology k[a]/(a^m){s} concentrated in
its target degree; with m = 0 it is contractible and contributes
nothing.  `decompose` performs the splitting constructively and returns
the multiset of surviving pieces in a canonical order; that multiset is
an isomorphism invariant of the complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .algebra import (
    HOM_POLY,
    BigradedTable,
    GradedFreeModule,
    GradedModuleDescriptor,
    GradedRing,
    HomMatrix,
)
from .complexes import GradedComplex, InternalError
from .exactla import clear_column, column_index


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
    """Split `c` into elementary pieces.

    Works degree by degree from the bottom.  At the lowest remaining
    degree n the source generators are ordered by ascending polynomial
    degree and the targets by descending degree, so in the first column
    of d^n the a-exponent grows downward and the first nonzero entry is
    a pivot of minimal exponent m.  If the column is zero the first
    source splits off as a free piece.  Otherwise a change of basis
    clears the pivot's column and row: subtracting multiples of the
    pivot row kills the column below it, which rewrites the next
    differential's pivot-target column into one that d^2 = 0 forces to
    vanish; clearing the pivot row afterwards touches nothing else.
    The source and target then split off as a two-term piece, a torsion
    piece when m >= 1 and a contractible pair when m = 0.
    """
    free, torsion, dropped = _split_pieces(c)
    if len(free) + 2 * len(torsion) + 2 * dropped != c.total_rank():
        raise InternalError("decompose", "piece count does not account for every generator")
    return Decomposition(c.ring.k, tuple(free), tuple(torsion))


def contractible_pairs(c: GradedComplex) -> int:
    """Number of m = 0 pairs dropped when splitting `c`.

    Zero exactly when rank accounting against decompose(c) closes:
    |free| + 2 |torsion| = total rank.
    """
    _, _, dropped = _split_pieces(c)
    return dropped


def _split_pieces(c: GradedComplex):
    two_k = c.ring.a_degree
    free = []
    torsion = []
    dropped = 0
    # the current differential's rows and the generators of its source
    # already split off as targets, as the step below left them
    rows = None
    split = set()
    for n in c.degrees_present():
        src = c.modules[n].degrees
        tgt = c.modules[n + 1].degrees if n + 1 in c.modules else ()
        if rows is None:
            d = c.differentials.get(n)
            rows = [dict(row) for row in d.rows] if d is not None else []
        d = c.differentials.get(n + 1)
        nxt = [dict(row) for row in d.rows] if d is not None else []
        holders = column_index(rows)
        nxt_holders = column_index(nxt)
        split_next = set()

        # sources by ascending degree, ties in generator order
        for j in sorted(set(range(len(src))) - split, key=lambda j: (src[j], j)):
            cand = holders.get(j)
            if not cand:
                free.append((n, src[j]))
                continue
            # the holder of highest target degree (first in generator
            # order among equals) has the minimal exponent
            l = min(cand, key=lambda r: (-tgt[r], r))
            gap = src[j] - tgt[l]
            if gap < 0 or gap % two_k:
                raise InternalError("decompose", "pivot violates homogeneity")
            m = gap // two_k
            _clear_pivot_column(rows, holders, nxt, nxt_holders, j, l)
            if m == 0:
                dropped += 1
            else:
                torsion.append((n + 1, m, tgt[l]))
            for cc in rows[l]:
                holders[cc].discard(l)
            split_next.add(l)

        rows, split = (nxt, split_next) if n + 1 in c.modules else (None, set())

    return free, torsion, dropped


def _clear_pivot_column(d, holders, nxt, nxt_holders, j, l):
    """Clear column j of d below pivot row l (exactla.clear_column),
    then check and drop the pivot target's column l of the next
    differential nxt, which the same row operations make vanish when
    d^2 = 0.

    d and nxt are sparse rows with canonical values, with column
    indices holders and nxt_holders ({col: rows with a nonzero there},
    see column_index).
    """
    ratios = clear_column(d, holders, l, j)
    # column l of nxt after the same row operations, on its nonzeros
    acc = {r: nxt[r][l] for r in nxt_holders.get(l, ())}
    for i, ratio in ratios:
        for r in nxt_holders.get(i, ()):
            acc[r] = acc.get(r, 0) + ratio * nxt[r][i]
    if any(acc.values()):
        raise InternalError("decompose", "outgoing column of a split target did not vanish")
    for r in nxt_holders.pop(l, ()):
        del nxt[r][l]


def homology_structure(d: Decomposition):
    """Homology of any complex with decomposition `d`, as a map from
    homological degree to a graded module descriptor.

    A free piece (i, s) contributes k[a]{s} at degree i.  A torsion
    piece (i, m, s) contributes k[a]/(a^m){s} at degree i and nothing
    at degree i - 1.
    """
    by_degree = {}
    for i, s in d.free_pieces:
        by_degree.setdefault(i, ([], []))[0].append(s)
    for i, m, s in d.torsion_pieces:
        by_degree.setdefault(i, ([], []))[1].append((m, s))
    return {
        i: GradedModuleDescriptor(tuple(fr), tuple(to))
        for i, (fr, to) in sorted(by_degree.items())
    }


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
        ),
        HOM_POLY,
    )


def torsion_width(d: Decomposition) -> int:
    """Largest torsion exponent; 0 when the homology is free."""
    return max((m for _, m, _ in d.torsion_pieces), default=0)


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
    if t.convention != HOM_POLY:
        raise ValueError("thickness expects a table in (hom, poly) convention")
    if t.is_empty():
        raise ValueError("thickness of an empty table")
    support = t.support()
    deltas = [2 * i + j for i, j in support]
    spread = max(deltas) - min(deltas)
    if spread % 2:
        raise ValueError("half-integral thickness on a mixed-parity table")
    ht = 1 + spread // 2

    by_i = {}
    for i, j in support:
        by_i.setdefault(i, []).append(j)
    gaps = [max(by_i[i]) - min(by_i[i + 1]) for i in by_i if i + 1 in by_i]
    if not gaps:
        return ht, None
    widest = max(gaps)
    if widest % 2:
        raise ValueError("half-integral local thickness on a mixed-parity table")
    return ht, widest // 2


def reassemble(d: Decomposition, ring: GradedRing = None) -> GradedComplex:
    """The direct sum of the elementary complexes of `d`.

    Pieces are laid out in canonical order, free before torsion, with
    unit scalars on the torsion differentials.  Splitting the result
    returns `d` itself.
    """
    if ring is None:
        ring = GradedRing(d.k)
    elif ring.k != d.k:
        raise ValueError("ring does not match the decomposition's k")

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

    modules = {i: GradedFreeModule(tuple(v)) for i, v in degrees.items()}
    diffs = {}
    for i, positions in units.items():
        rows = [{} for _ in degrees[i + 1]]
        for r, c in positions:
            rows[r][c] = 1
        diffs[i] = HomMatrix(ring, tuple(degrees[i]), tuple(degrees[i + 1]), tuple(rows))
    return GradedComplex(ring, modules, diffs)
