"""The box product route to the assembled pages and the mod-a table,
frozen before both were read straight off the pieces, as the reference
the rewrite is checked against (tests/test_frozen_pages.py,
tests/test_pages.py, tests/test_algebra.py); and the page-by-page list
that followed it, frozen before one page was built per block of r
(tests/test_frozen_twobraid.py); and the generic pages as rank
differences, frozen before they were read off a persistence pairing
(tests/test_pages.py); and the closed form of one piece as a PageTable,
piece_pages, frozen before the assembled pages took each piece's
entries straight from pages.piece_entries (tests/test_pages.py); and
the per-page route of page sequences, frozen before equal consecutive
pages shared one table: pages documents read one table per page, every
page validated and walked by recover, and the length of the pages
--generic sequence read off a decomposition (tests/test_recover.py).

boxtimes multiplied a (hom, poly) dimension table against a page, and
hn_table summed one descriptor_dim_table per homological degree.  The
descriptor merge, shift and scale operations and the _rebuild hook of
PageTable served only them; they are kept here as local functions.
The rank-difference route eliminated once per distinct target level
of each differential, through exactla.row_reduce.  Only the graded
types and row_reduce come from twkit, and the homology of a
decomposition from tests/builders.py; the per-page route also takes
jsonio's header and field checks, assembled_page_list and decompose.
"""

from bisect import bisect_right
from itertools import chain

from builders import homology_structure
from twkit import exactla
from twkit.algebra import BigradedTable, GradedModuleDescriptor
from twkit.decompose import Decomposition, decompose, torsion_width
from twkit.jsonio import SchemaError, _array, _check_header, _int
from twkit.pages import PageTable, assembled_page_list
from twkit.recover import InconsistentPages


def piece_pages(piece, hat, r, k):
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


def lowered_rank_profiles(c):
    """FilteredFieldComplex.lowered_rank as a function of (n, above,
    upto): the rank of the differential out of degree n from the
    generators at level <= upto to the targets at level > above.  For
    each degree and each distinct set of target rows, one elimination
    with the columns sorted by level, whose pivot columns' levels answer
    every upto by bisection; built on first use and kept."""
    profiles = {}

    def lowered_rank(n, above, upto):
        if n not in profiles:
            src, tgt = c.degrees.get(n, ()), c.degrees.get(n + 1, ())
            order = sorted(range(len(src)), key=src.__getitem__)
            at = {j: p for p, j in enumerate(order)}
            rows = [{at[j]: x for j, x in row.items()} for row in c.mats.get(n, ())]
            cuts = sorted(set(tgt))
            pivot_levels = []
            for b in [float("-inf")] + cuts:
                kept = [row for row, lv in zip(rows, tgt) if lv > b]
                pivots = exactla.row_reduce(kept)[1] if kept else []
                pivot_levels.append([src[order[j]] for j in pivots])
            profiles[n] = cuts, pivot_levels
        cuts, pivot_levels = profiles[n]
        return bisect_right(pivot_levels[bisect_right(cuts, above)], upto)

    return lowered_rank


def rank_difference_pages(c, rs):
    """[generic_pages(c, r) for r in rs], each dim E_r a signed sum of
    four lowered ranks.

    E_r at (p, q) is Z_r / (Z_{r-1} one filtration step down + B_{r-1}),
    where Z_r collects chains in filtration <= p whose differential
    drops to filtration <= p - r, and B_{r-1} collects boundaries lying
    in filtration <= p of chains from filtration <= p + r - 1.  Write
    rk_m(b, q) for the rank of d_m from generators at level <= q to
    targets at level > b.  Kernels give
    dim Z_r - dim Z_{r-1} = #{level p} - rk_n(p-r, p) + rk_n(p-r, p-1);
    the intersection of Z_{r-1} with B_{r-1} is the boundaries of chains
    from filtration <= p + r - 1 that land in filtration <= p - 1, so
    dim B - dim(Z_{r-1} & B) = rk_{n-1}(p-1, p+r-1) - rk_{n-1}(p, p+r-1).
    """
    rk = lowered_rank_profiles(c)
    pages = []
    for r in rs:
        if r < 0:
            raise ValueError("page index must be >= 0")
        entries = {}
        for n in sorted(c.degrees):
            for p in sorted(set(c.degrees[n])):
                dim = c.degrees[n].count(p) - rk(n, p - r, p) + rk(n, p - r, p - 1)
                dim += rk(n - 1, p, p + r - 1) - rk(n - 1, p - 1, p + r - 1)
                if dim:
                    entries[(p, n - p)] = dim
        pages.append(PageTable(r, entries, True))
    return pages


# -- the per-page route of page sequences --------------------------------


def per_page_from_json(data):
    """(k, tables) of a pages document as jsonio.pages_from_json read it,
    one BigradedTable per page, then validated as PageSequence did."""
    _check_header(data, "pages", "pages", "k")
    try:
        tables = []
        for page in _array(data["pages"], '"pages" to be an array of pages'):
            entries = []
            for entry in _array(page, "a page to be an array of entries [i, s, dim]"):
                i, s, dim = _array(entry, "a page entry to be an array [i, s, dim]", 3)
                entries.append(((_int(i), _int(s)), _int(dim)))
            tables.append(BigradedTable(entries))
        k = _int(data["k"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed pages document: %s" % e)
    per_page_validate(k, tables)
    return k, tables


def per_page_tau(tables, k):
    """PageSequence.tau: floor(ht / k) of page 1, 0 when it is empty."""
    if tables[0].is_empty():
        return 0
    deltas = [2 * i + s for (i, s) in tables[0].support()]
    return (2 + max(deltas) - min(deltas)) // (2 * k)


def per_page_validate(k, tables):
    """PageSequence's construction checks, every page compared with its
    predecessor and every page past tau + 1 with the stable one."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not tables:
        raise InconsistentPages("inconsistent pages: no pages given")
    for n in range(1, len(tables)):
        for pos, dim in tables[n].items():
            if dim > tables[n - 1].get(*pos):
                raise InconsistentPages("inconsistent pages: page %d grows at (%d, %d)" % (n + 1, pos[0], pos[1]))
    tau = per_page_tau(tables, k)
    if len(tables) < tau + 1:
        raise InconsistentPages(
            "inconsistent pages: need %d pages to reach the stable one, got %d" % (tau + 1, len(tables)))
    for n in range(tau + 1, len(tables)):
        if tables[n] != tables[tau]:
            raise InconsistentPages(
                "inconsistent pages: page %d differs from the stable page %d" % (n + 1, tau + 1))


def per_page_recover(k, tables):
    """recover, every r from tau down to 1 walked, shared or not."""
    if tables[0].is_empty():
        return Decomposition(k=k, free_pieces=(), torsion_pieces=())
    tau = per_page_tau(tables, k)
    free = dict(tables[tau].items())
    torsion = {}
    for r in range(tau, 0, -1):
        after = tables[r]
        residual = {pos: dim - after.get(*pos) for pos, dim in tables[r - 1].items() if dim > after.get(*pos)}
        while residual:
            top = max(i for (i, _) in residual)
            for (i, s) in sorted(p for p in residual if p[0] == top):
                mult = residual.pop((i, s))
                torsion[(i, r, s)] = torsion.get((i, r, s), 0) + mult
                pos = (i - 1, s + 2 * k * r)
                left = residual.pop(pos, 0) - mult
                if left < 0:
                    raise InconsistentPages(
                        "inconsistent pages: page %d lacks %d classes at (%d, %d)" % (r, mult, pos[0], pos[1]))
                if left:
                    residual[pos] = left
    return Decomposition(
        k=k,
        free_pieces=tuple(pos for pos, mult in sorted(free.items()) for _ in range(mult)),
        torsion_pieces=tuple(piece for piece, mult in sorted(torsion.items()) for _ in range(mult)),
    )


def per_page_sequence(d):
    """pages_from_decomposition's tables: each assembled page converted
    on its own, the last repeated up to page tau + 1."""
    pages = assembled_page_list(d, True, (2 * d.k * r + 1 for r in range(torsion_width(d) + 1)))
    tables = [page.to_hom_poly() for page in pages]
    while len(tables) < per_page_tau(tables, d.k) + 1:
        tables.append(tables[-1])
    per_page_validate(d.k, tables)
    return tables


def per_page_generic_count(c):
    """The length of the pages --generic sequence as it was read: the
    length of the closed-form sequence of decompose(c)."""
    return len(per_page_sequence(decompose(c)))
