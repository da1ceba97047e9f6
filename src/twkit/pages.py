"""Pages of the filtration spectral sequence, three ways.

Closed forms per elementary piece, as the (position, entry) pairs
piece_entries gives; the assembled page of a decomposition, which is
one PageTable of the entries of all its pieces, summed by its
constructor; and a generic computation from a filtered complex of
vector spaces.  All three must agree exactly.  On a complex from a
decomposition, the generic route and decompose read one persistence
pairing, so neither referees the other: twkit verify compares both
with the decomposition the complex was generated from.

The generic route reads every page off the gaps of
complexes.persistence_pairs, one pairing per degree, which
FilteredFieldComplex.gaps builds once per complex (Zomorodian and
Carlsson, "Computing persistent homology", 2005; Chen and Kerber,
"Persistent homology computation with a twist", 2011, for clearing).
Each source of d^n is paired with the target it kills or left
unpaired.  Gap rule: a pair of gap g, its source's level less its
target's, shows both ends on pages r <= g and neither from r = g + 1
on, and an unpaired generator shows on every page; a torsion piece
(i, m, s) is a pair of gap 2km.  The generic sequence takes its length,
tau + 1, from its own first page, not from a decomposition.

Position rule: a page entry sits at (p, q) where p is the filtration
degree and q is the homological degree minus p, so a generator of
polynomial degree s in homological degree i lands at (s, i - s).
PageTable.from_hom_poly and to_hom_poly are the one conversion pair.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

from .algebra import BigradedTable, GradedModuleDescriptor
from .complexes import FilteredFieldComplex
from .decompose import Decomposition, torsion_width


class PageTable:
    """One page of the spectral sequence.

    hat pages carry field dimensions; module pages carry graded module
    descriptors whose internal shifts repeat the filtration degree p of
    their position.  Entries given twice at one position add up, and
    zero entries are dropped, on construction.
    """

    __slots__ = ("r", "hat", "_entries")

    def __init__(self, r, entries=(), hat=True):
        r = int(r)
        if r < 0:
            raise ValueError("page index must be >= 0")
        data = {}
        parts = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for key, value in items:
            key = (int(key[0]), int(key[1]))
            if hat:
                if isinstance(value, GradedModuleDescriptor):
                    raise ValueError("hat pages carry dimensions, not modules")
                if value < 0:
                    raise ValueError("negative dimension at %r" % (key,))
                if value:
                    data[key] = data.get(key, 0) + value
            else:
                if not isinstance(value, GradedModuleDescriptor):
                    raise ValueError("module pages carry descriptors")
                if value:
                    free, torsions = parts.setdefault(key, ([], []))
                    free.extend(value.free_shifts)
                    torsions.extend(value.torsions)
        # one descriptor per position, which sorts its own summands
        for key, (free, torsions) in parts.items():
            data[key] = GradedModuleDescriptor(tuple(free), tuple(torsions))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "hat", bool(hat))
        object.__setattr__(self, "_entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("PageTable is immutable")

    def items(self):
        return sorted(self._entries.items())

    def support(self):
        return sorted(self._entries)

    def get(self, p, q):
        default = 0 if self.hat else GradedModuleDescriptor()
        return self._entries.get((p, q), default)

    def is_empty(self) -> bool:
        return not self._entries

    def same_entries(self, other: "PageTable") -> bool:
        """Entry-wise equality, ignoring the page index."""
        return self.hat == other.hat and self._entries == other._entries

    def __eq__(self, other):
        return (
            isinstance(other, PageTable)
            and self.r == other.r
            and self.same_entries(other)
        )

    def __hash__(self):
        return hash((self.r, self.hat, frozenset(self._entries.items())))

    def __repr__(self):
        return "PageTable(r=%d, %r, hat=%r)" % (self.r, self.items(), self.hat)

    def relabeled(self, r) -> "PageTable":
        """These entries as page r; being immutable, they are shared."""
        page = PageTable(r, (), self.hat)
        object.__setattr__(page, "_entries", self._entries)
        return page

    def table(self) -> "PageTable":
        """This page, refused unless it is a hat page."""
        if not self.hat:
            raise ValueError("module page has no single dimension table")
        return self

    def to_hom_poly(self) -> BigradedTable:
        """The hat page's dimensions moved from (p, q) to (i, s) = (p + q, p)."""
        return BigradedTable({(p + q, p): d for (p, q), d in self.table()._entries.items()})

    @classmethod
    def from_hom_poly(cls, r, table: BigradedTable) -> "PageTable":
        """Hat page r of an (i, s) table's dimensions, at (p, q) = (s, i - s)."""
        return cls(r, {(s, i - s): d for (i, s), d in table.items()}, True)


def hat_index(k: int, r: int) -> int:
    """The filtered page 2k(r - 1) + 1 that derived-couple page r equals,
    entry for entry at the same positions."""
    return 2 * k * (r - 1) + 1


def _torsion_cut(k: int, m: int) -> int:
    """The first page without a torsion piece of width m: 2km + 1, the
    derived page m + 1."""
    return hat_index(k, m + 1)


def piece_entries(piece, hat: bool, r: int, k: int) -> list:
    """Closed-form page r of one elementary piece, as its sorted
    ((p, q), entry) pairs.

    piece: (i, s) for a free piece, (i, m, s) for a torsion piece.

    A free piece shows one class at (s, i - s) on every page.  A torsion
    piece shows its two generator classes, at (s, i - s) and at
    (s + 2km, i - 1 - s - 2km), on pages r <= 2km; from r = 2km + 1 on,
    the hat page is empty while the module page keeps k[a]/(a^m){s}
    at (s, i - s).
    """
    if r < 0:
        raise ValueError("page index must be >= 0")
    if len(piece) == 2:
        i, s = piece
        return [((s, i - s), 1 if hat else GradedModuleDescriptor((s,), ()))]
    i, m, s = piece
    if m < 1:
        raise ValueError("torsion piece needs m >= 1")
    bottom = (s, i - s)
    if r >= _torsion_cut(k, m):
        return [] if hat else [(bottom, GradedModuleDescriptor((), ((m, s),)))]
    top_s = s + 2 * k * m
    top = (top_s, i - 1 - top_s)
    if hat:
        return [(bottom, 1), (top, 1)]
    return [(bottom, GradedModuleDescriptor((s,), ())), (top, GradedModuleDescriptor((top_s,), ()))]


def assembled_pages(d: Decomposition, hat: bool, r: int) -> PageTable:
    """Page r of a complex known only through its decomposition: the
    sum of the closed forms of its pieces.
    Restricted to r >= 1: the zeroth page depends on the presentation,
    not just the decomposition.
    """
    (page,) = assembled_page_list(d, hat, (r,))
    return page


def assembled_page_list(d: Decomposition, hat: bool, rs) -> list:
    """[assembled_pages(d, hat, r) for r in rs].  A free piece (i, s) is
    one class at (s, i - s) on every page, so the free part is summed
    once; a torsion piece's page changes only where r passes its 2km + 1."""
    rs = list(rs)
    if any(r < 1 for r in rs):
        raise ValueError("assembled pages start at r = 1")
    free = PageTable(1, (((s, i - s), 1) for i, s in d.free_pieces)).items()
    if not hat:
        # n free classes at (p, q) are the module k[a]{p}^n
        free = [(pq, GradedModuleDescriptor((pq[0],) * n)) for pq, n in free]

    def page(r):
        torsion = (item for piece in d.torsion_pieces for item in piece_entries(piece, hat, r, d.k))
        return PageTable(r, chain(free, torsion), hat)

    return _by_block(rs, {_torsion_cut(d.k, m) for _, m, _ in d.torsion_pieces}, page)


def _by_block(rs, cuts, page):
    """[page(r) for r in rs], for a page that changes only where r passes
    one of the cuts: page is built once per block of r between them and
    relabeled."""
    blocks = {}
    out = []
    for r in rs:
        block = sum(cut <= r for cut in cuts)
        if block not in blocks:
            blocks[block] = page(r)
        out.append(blocks[block].relabeled(r))
    return out


def per_run(pages, f) -> list:
    """[f(page) for page in pages], f called once per run of consecutive pages of the same entries."""
    out = []
    for n, page in enumerate(pages):
        out.append(out[-1] if n and page.same_entries(pages[n - 1]) else f(page))
    return out


def generic_pages(c: FilteredFieldComplex, r: int) -> PageTable:
    """Page r straight from the filtered complex, by the gap rule: dim
    E_r at (p, n - p) counts the degree-n generators at level p that are
    unpaired or end a pair of gap >= r in the persistence pairing
    (Zomorodian-Carlsson 2005, with Chen-Kerber 2011 clearing).
    """
    if r < 0:
        raise ValueError("page index must be >= 0")
    return PageTable(r, (((p, n - p), len(g) - bisect_left(g, r)) for (n, p), g in c.gaps().items()), True)


def generic_page_list(c: FilteredFieldComplex, rs) -> list:
    """[generic_pages(c, r) for r in rs]; page r changes only where r
    passes one more than a gap, so generic_pages runs once per block."""
    rs = list(rs)
    if any(r < 0 for r in rs):
        raise ValueError("page index must be >= 0")
    return _by_block(rs, {g + 1 for g in chain.from_iterable(c.gaps().values())}, lambda r: generic_pages(c, r))


def collapse_page(d: Decomposition) -> int:
    """The page index where the sequence stops changing: 2k tw + 1,
    the derived page tw + 1, and 1 when there is no torsion."""
    return hat_index(d.k, torsion_width(d) + 1)


def stabilization_page(tables) -> int:
    """Index r of the first table equal to every later one.

    The caller supplies consecutive pages reaching far enough past the
    last change; the scan finds that last change.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("no pages given")
    for idx in range(len(tables) - 1, 0, -1):
        if not tables[idx].same_entries(tables[idx - 1]):
            return tables[idx].r
    return tables[0].r
