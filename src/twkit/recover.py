"""Reconstructing a decomposition from its page sequence.

The pages of a complex determine its module structure: the stable page
lists the free generators, and walking backwards from page tau down to
page 1 peels off the width-r torsion pairs one page at a time.  Here
tau = floor(ht / k) computed from page 1; torsion width never exceeds
it, so pages 1..tau+1 suffice.

Pages are (homological, polynomial) BigradedTables, equal consecutive
ones possibly one shared table; recover skips an r where page r is page
r + 1.  Inputs that could not have come from any decomposition raise
InconsistentPages.
"""

from __future__ import annotations

from .algebra import BigradedTable
from .decompose import Decomposition, diagonal_spread
from .pages import assembled_page_list, hat_index, per_run


class InconsistentPages(ValueError):
    """The page tables cannot arise from any decomposition."""


class PageSequence:
    """Pages [E^(1), ..., E^(R)] with their common k.

    Validated on construction: entries pointwise non-increasing in r,
    constant from page tau+1 on, and R >= tau+1 (R >= 1 when page 1 is
    empty, in which case every page must be empty).  A page that is its
    predecessor, one shared table, skips the growth and stable checks.
    """

    __slots__ = ("k", "pages")

    def __init__(self, k, pages):
        if k < 1:
            raise ValueError("k must be a positive integer")
        pages = tuple(pages)
        if not pages:
            raise InconsistentPages("inconsistent pages: no pages given")
        for n, page in enumerate(pages):
            if not isinstance(page, BigradedTable):
                raise ValueError(
                    "page %d is not a (homological, polynomial) table" % (n + 1)
                )
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "pages", pages)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("PageSequence is immutable")

    def __len__(self):
        return len(self.pages)

    def page(self, r: int) -> BigradedTable:
        """E^(r), 1-indexed."""
        if not 1 <= r <= len(self.pages):
            raise IndexError("page %d not stored" % r)
        return self.pages[r - 1]

    @property
    def tau(self) -> int:
        return page_count(self.pages[0], self.k) - 1

    def _validate(self):
        prev = None
        for n, page in enumerate(self.pages):
            if prev is not None and page is not prev:
                for pos, dim in page.items():
                    if dim > prev.get(*pos):
                        raise InconsistentPages(
                            "inconsistent pages: page %d grows at (%d, %d)"
                            % (n + 1, pos[0], pos[1])
                        )
            prev = page
        tau = self.tau
        if len(self.pages) < tau + 1:
            raise InconsistentPages(
                "inconsistent pages: need %d pages to reach the stable one, got %d"
                % (tau + 1, len(self.pages))
            )
        stable = self.pages[tau]
        for n in range(tau + 1, len(self.pages)):
            if self.pages[n] is not self.pages[n - 1] and self.pages[n] != stable:
                raise InconsistentPages(
                    "inconsistent pages: page %d differs from the stable page %d"
                    % (n + 1, tau + 1)
                )


def recover(ps: PageSequence) -> Decomposition:
    """Free part from the stable page, then torsion of width r peeled
    off page r for r = tau..1.

    On page r the free generators and every torsion piece of width
    >= r contribute, and on page r + 1 all of them but the pieces of
    width exactly r.  Those are found by pairing the classes of
    E_r - E_{r+1}, scanning homological degrees downward (a pair's
    second class sits one degree below its first, so at the top degree
    every remaining class starts a pair of width r).
    """
    k = ps.k
    if ps.pages[0].is_empty():
        return Decomposition(k=k, free_pieces=(), torsion_pieces=())
    tau = ps.tau
    free = dict(ps.page(tau + 1).items())
    torsion = {}

    for r in range(tau, 0, -1):
        # PageSequence refuses a page that grows, so page r holds all of page r + 1
        after = ps.page(r + 1)
        if after is ps.page(r):
            continue
        residual = {pos: dim - after.get(*pos) for pos, dim in ps.page(r).items() if dim > after.get(*pos)}

        while residual:
            top = max(i for (i, _) in residual)
            for (i, s) in sorted(p for p in residual if p[0] == top):
                mult = residual.pop((i, s))
                torsion[(i, r, s)] = torsion.get((i, r, s), 0) + mult
                # the partner class, one degree down
                pos = (i - 1, s + 2 * k * r)
                left = residual.pop(pos, 0) - mult
                if left < 0:
                    raise InconsistentPages(
                        "inconsistent pages: page %d lacks %d classes at (%d, %d)"
                        % (r, mult, pos[0], pos[1])
                    )
                if left:
                    residual[pos] = left

    free_pieces = tuple(
        pos for pos, mult in sorted(free.items()) for _ in range(mult)
    )
    torsion_pieces = tuple(
        piece for piece, mult in sorted(torsion.items()) for _ in range(mult)
    )
    return Decomposition(k=k, free_pieces=free_pieces, torsion_pieces=torsion_pieces)


def pages_from_decomposition(d: Decomposition) -> PageSequence:
    """[E^(1), ..., E^(tau+1)] of a decomposition, by the closed forms."""
    return PageSequence(d.k, page_tables(lambda rs: assembled_page_list(d, True, rs), d.k, None))


def page_tables(page_list, k: int, count) -> list:
    """(i, s) tables of derived pages 1..count (None: page_count of page 1),
    page r read from page_list at the filtered index hat_index(k, r); equal
    consecutive pages are converted once and share one table."""
    pages = page_list([1])
    first = pages[0].to_hom_poly()
    pages += page_list([hat_index(k, r) for r in range(2, (count or page_count(first, k)) + 1)])
    return per_run(pages, lambda page: first if page is pages[0] else page.to_hom_poly())


def page_count(first: BigradedTable, k: int) -> int:
    """tau + 1, the pages recover needs, read off page 1; 1 when page 1
    is empty.  tau = floor(ht / k) with ht = 1 + spread / 2, in integers,
    so a mixed-parity page (half-integral ht) floors."""
    return 1 if first.is_empty() else (2 + diagonal_spread(first)) // (2 * k) + 1


def padded_sequence(k: int, seq) -> PageSequence:
    """Pages [E^(1), ..., E^(n)], the last repeated up to page tau+1."""
    seq = list(seq)
    seq += seq[-1:] * (page_count(seq[0], k) - len(seq))
    return PageSequence(k, seq)


def roundtrip(d: Decomposition) -> bool:
    """recover(pages of d) == d."""
    return recover(pages_from_decomposition(d)) == d
