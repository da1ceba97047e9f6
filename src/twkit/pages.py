"""Pages of the filtration spectral sequence, three ways.

Closed forms per elementary piece; the assembled page of a
decomposition, which is the sum of the closed forms of its pieces; and
a generic computation from a filtered complex of vector spaces that
knows nothing about pieces.  All three must agree exactly; the generic
route, generic_pages, is the referee.

The generic route reads each dim E_r as a signed sum of four ranks of
lower-left blocks of the differential, which determine a filtered
complex (Zomorodian-Carlsson, "Computing persistent homology", 2005);
FilteredFieldComplex.lowered_rank eliminates once per complex.

Position rule: a page entry sits at (p, q) where p is the filtration
degree and q is the homological degree minus p, so a generator of
polynomial degree s in homological degree i lands at (s, i - s).
PageTable.from_hom_poly and to_hom_poly are the one conversion pair.
"""

from __future__ import annotations

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


def piece_pages(piece, hat: bool, r: int, k: int) -> PageTable:
    """Closed-form page of one elementary piece.

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
        entry = 1 if hat else GradedModuleDescriptor((s,), ())
        return PageTable(r, {(s, i - s): entry}, hat)

    i, m, s = piece
    if m < 1:
        raise ValueError("torsion piece needs m >= 1")
    bottom = (s, i - s)
    if r >= 2 * k * m + 1:
        if hat:
            return PageTable(r, {}, True)
        return PageTable(r, {bottom: GradedModuleDescriptor((), ((m, s),))}, False)
    top_s = s + 2 * k * m
    top = (top_s, i - 1 - top_s)
    if hat:
        return PageTable(r, {bottom: 1, top: 1}, True)
    return PageTable(
        r,
        {
            bottom: GradedModuleDescriptor((s,), ()),
            top: GradedModuleDescriptor((top_s,), ()),
        },
        False,
    )


def assembled_pages(d: Decomposition, hat: bool, r: int) -> PageTable:
    """Page r of a complex known only through its decomposition: the
    sum of the closed forms of its pieces, which generic_pages referees.
    Restricted to r >= 1: the zeroth page depends on the presentation,
    not just the decomposition.
    """
    (page,) = assembled_page_list(d, hat, (r,))
    return page


def assembled_page_list(d: Decomposition, hat: bool, rs) -> list:
    """[assembled_pages(d, hat, r) for r in rs].  A free piece (i, s) is
    one class at (s, i - s) on every page, so the free part is summed
    once; a torsion piece's page changes only where r passes its 2km + 1,
    so one page is built per block of r between those cuts."""
    rs = list(rs)
    if any(r < 1 for r in rs):
        raise ValueError("assembled pages start at r = 1")
    free = PageTable(1, (((s, i - s), 1) for i, s in d.free_pieces)).items()
    if not hat:
        # n free classes at (p, q) are the module k[a]{p}^n
        free = [(pq, GradedModuleDescriptor((pq[0],) * n)) for pq, n in free]
    cuts = {2 * d.k * m + 1 for _, m, _ in d.torsion_pieces}
    blocks = {}

    def page(r):
        block = sum(cut <= r for cut in cuts)
        if block not in blocks:
            torsion = (item for piece in d.torsion_pieces for item in piece_pages(piece, hat, r, d.k).items())
            blocks[block] = PageTable(r, chain(free, torsion), hat)
        return blocks[block].relabeled(r)

    return [page(r) for r in rs]


def generic_pages(c: FilteredFieldComplex, r: int) -> PageTable:
    """Page r straight from the filtered complex, as rank differences.

    E_r at (p, q) is Z_r / (Z_{r-1} one filtration step down + B_{r-1}),
    where Z_r collects chains in filtration <= p whose differential
    drops to filtration <= p - r, and B_{r-1} collects boundaries lying
    in filtration <= p of chains from filtration <= p + r - 1.  Write
    rk_m(b, q) for the rank of d_m from generators at level <= q to
    targets at level > b (``c.lowered_rank``).  Kernels give
    dim Z_r - dim Z_{r-1} = #{level p} - rk_n(p-r, p) + rk_n(p-r, p-1);
    the intersection of Z_{r-1} with B_{r-1} is the boundaries of chains
    from filtration <= p + r - 1 that land in filtration <= p - 1, so
    dim B - dim(Z_{r-1} & B) = rk_{n-1}(p-1, p+r-1) - rk_{n-1}(p, p+r-1).
    """
    if r < 0:
        raise ValueError("page index must be >= 0")
    entries = {}
    rk = c.lowered_rank
    for n in sorted(c.degrees):
        for p in sorted(set(c.degrees[n])):
            dim = c.degrees[n].count(p) - rk(n, p - r, p) + rk(n, p - r, p - 1)
            dim += rk(n - 1, p, p + r - 1) - rk(n - 1, p - 1, p + r - 1)
            if dim:
                entries[(p, n - p)] = dim
    return PageTable(r, entries, True)


def collapse_page(d: Decomposition) -> int:
    """The page index where the sequence stops changing: 2k tw + 1,
    read as 1 when there is no torsion (pages r >= 1 all agree)."""
    tw = torsion_width(d)
    return 1 if tw == 0 else 2 * d.k * tw + 1


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
