"""The box product route to the assembled pages and the mod-a table,
frozen before both were read straight off the pieces, as the reference
the rewrite is checked against (tests/test_frozen_pages.py,
tests/test_pages.py, tests/test_algebra.py); and the page-by-page list
that followed it, frozen before one page was built per block of r
(tests/test_frozen_twobraid.py, benchmarks/bench_twobraid.py).

boxtimes multiplied a (hom, poly) dimension table against a page, and
hn_table summed one descriptor_dim_table per homological degree.  The
descriptor merge, shift and scale operations and the _rebuild hook of
PageTable served only them; they are kept here as local functions.
Only the graded types come from twkit, and the homology of a
decomposition from tests/builders.py.
"""

from itertools import chain

from builders import homology_structure
from twkit.algebra import BigradedTable, GradedModuleDescriptor
from twkit.pages import PageTable, piece_pages


def merge(left, right):
    """GradedModuleDescriptor.merge: the direct sum."""
    return GradedModuleDescriptor(
        left.free_shifts + right.free_shifts, left.torsions + right.torsions
    )


def shifted(d, ds):
    """GradedModuleDescriptor.shifted: every summand's shift raised by ds."""
    return GradedModuleDescriptor(
        tuple(s + ds for s in d.free_shifts),
        tuple((m, s + ds) for m, s in d.torsions),
    )


def scaled(d, c):
    """GradedModuleDescriptor.scaled: c copies of d."""
    if c < 0:
        raise ValueError("multiplicity must be >= 0")
    return GradedModuleDescriptor(d.free_shifts * c, d.torsions * c)


def _value_scale_shift(value, c, j):
    if isinstance(value, GradedModuleDescriptor):
        return shifted(scaled(value, c), j)
    return value * c


def _value_add(left, right):
    if isinstance(left, GradedModuleDescriptor) or isinstance(
        right, GradedModuleDescriptor
    ):
        if not isinstance(left, GradedModuleDescriptor) or not isinstance(
            right, GradedModuleDescriptor
        ):
            raise TypeError("cannot mix dimension and descriptor entries")
        return merge(left, right)
    return left + right


def _value_is_zero(value):
    if isinstance(value, GradedModuleDescriptor):
        return value.is_zero()
    return value == 0


def _rebuild(e, entries):
    """The _rebuild hook: a page of e's kind and index; any other
    page-like object supplies its own."""
    if isinstance(e, PageTable):
        return PageTable(e.r, entries, e.hat)
    return e._rebuild(entries)


def boxtimes(h, e):
    """(H boxtimes E)^{a,b} = sum over j+p=a, q+i-j=b of H^{i,j} x E^{p,q}.

    h is a BigradedTable (keys (i, j) = (hom, poly)); e is anything
    keyed by page position exposing items() of ((p, q), value) (a page
    table, or an object with a _rebuild(entries) constructor).
    Dimensions multiply; module-valued entries are repeated by the
    dimension and their shifts raised by j.
    """
    if not isinstance(h, BigradedTable):
        raise ValueError("left factor must be in (hom, poly) convention")
    if isinstance(e, BigradedTable):
        raise ValueError("right factor must be in page convention")
    out = {}
    for (i, j), c in h.items():
        for (p, q), value in e.items():
            key = (j + p, q + i - j)
            term = _value_scale_shift(value, c, j)
            if key in out:
                out[key] = _value_add(out[key], term)
            else:
                out[key] = term
    out = {key: v for key, v in out.items() if not _value_is_zero(v)}
    return _rebuild(e, out)


def merge_pages(left, right):
    """PageTable.merge, entry by entry."""
    if left.hat != right.hat or left.r != right.r:
        raise ValueError("cannot merge pages of different kind or index")
    merged = dict(left.items())
    for key, value in right.items():
        merged[key] = _value_add(merged[key], value) if key in merged else value
    return PageTable(left.r, merged, left.hat)


def descriptor_dim_table(d, at_hom_degree, k):
    """Field dimensions the module contributes to the a=0 homology.

    A free summand {s} at degree i lands at (i, s); a torsion summand
    (m, s) at degree i lands at (i, s) and also at (i-1, s+2km).
    """
    entries = {}

    def bump(key):
        entries[key] = entries.get(key, 0) + 1

    i = at_hom_degree
    for s in d.free_shifts:
        bump((i, s))
    for m, s in d.torsions:
        bump((i, s))
        bump((i - 1, s + 2 * k * m))
    return BigradedTable(entries)


def reference_hn_table(d):
    """hn_table: one descriptor_dim_table per homological degree, their
    entries summed by BigradedTable's constructor."""
    return BigradedTable(
        chain.from_iterable(
            descriptor_dim_table(desc, i, d.k).items() for i, desc in homology_structure(d).items()
        )
    )


def reference_assembled_page_list(d, hat, rs):
    """assembled_page_list: the box product of the free pieces' (i, s)
    counts with the page of the basic free piece at the origin, then
    each torsion piece's closed form."""
    rs = list(rs)
    if any(r < 1 for r in rs):
        raise ValueError("assembled pages start at r = 1")
    counts = BigradedTable([(piece, 1) for piece in d.free_pieces])
    free = boxtimes(counts, piece_pages((0, 0), hat, 1, d.k)).items()

    def page(r):
        torsion = (item for piece in d.torsion_pieces for item in piece_pages(piece, hat, r, d.k).items())
        return PageTable(r, chain(free, torsion), hat)

    return [page(r) for r in rs]


def reference_assembled_pages(d, hat, r):
    """assembled_pages as it merged one piece page at a time."""
    counts = {}
    for i, s in d.free_pieces:
        counts[(i, s)] = counts.get((i, s), 0) + 1
    page = boxtimes(BigradedTable(counts), piece_pages((0, 0), hat, r, d.k))
    for piece in d.torsion_pieces:
        page = merge_pages(page, piece_pages(piece, hat, r, d.k))
    return page


def reference_page_by_page_list(d, hat, rs):
    """assembled_page_list as it built every page: the free pieces'
    classes summed once, then each torsion piece's closed form on each
    page."""
    rs = list(rs)
    if any(r < 1 for r in rs):
        raise ValueError("assembled pages start at r = 1")
    free = PageTable(1, (((s, i - s), 1) for i, s in d.free_pieces)).items()
    if not hat:
        # n free classes at (p, q) are the module k[a]{p}^n
        free = [(pq, GradedModuleDescriptor((pq[0],) * n)) for pq, n in free]

    def page(r):
        torsion = (item for piece in d.torsion_pieces for item in piece_pages(piece, hat, r, d.k).items())
        return PageTable(r, chain(free, torsion), hat)

    return [page(r) for r in rs]
