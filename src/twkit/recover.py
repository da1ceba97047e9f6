"""Reconstructing a decomposition from its page sequence.

The pages of a complex determine its module structure: the stable page
lists the free generators, and walking backwards from page tau down to
page 1 peels off the width-r torsion pairs one page at a time.  Here
tau = floor(ht / k) computed from page 1; torsion width never exceeds
it, so pages 1..tau+1 suffice.

Pages are (homological, polynomial) BigradedTables.  Inputs that
could not have come from any decomposition raise InconsistentPages.
"""

from __future__ import annotations

from .algebra import BigradedTable
from .decompose import Decomposition, torsion_width
from .pages import assembled_page_list


class InconsistentPages(ValueError):
    """The page tables cannot arise from any decomposition."""


def _tau_of(page: BigradedTable, k: int) -> int:
    """floor(ht / k) where ht = 1 + spread/2 and spread is the width
    of 2i + s over the support.  Integer arithmetic so mixed-parity
    supports (half-integral ht) floor correctly."""
    deltas = [2 * i + s for (i, s) in page.support()]
    spread = max(deltas) - min(deltas)
    return (2 + spread) // (2 * k)


class PageSequence:
    """Pages [E^(1), ..., E^(R)] with their common k.

    Validated on construction: entries pointwise non-increasing in r,
    constant from page tau+1 on, and R >= tau+1 (R >= 1 when page 1 is
    empty, in which case every page must be empty).
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
        if self.pages[0].is_empty():
            return 0
        return _tau_of(self.pages[0], self.k)

    def _validate(self):
        prev = None
        for n, page in enumerate(self.pages):
            if prev is not None:
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
            if self.pages[n] != stable:
                raise InconsistentPages(
                    "inconsistent pages: page %d differs from the stable page %d"
                    % (n + 1, tau + 1)
                )


def recover(ps: PageSequence) -> Decomposition:
    """Free part from the stable page, then torsion of width r peeled
    off page r for r = tau..1.

    On page r the free generators and every torsion piece of width
    >= r contribute; pieces of width exactly r are found by pairing
    what remains, scanning homological degrees downward (a pair's
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
        residual = dict(ps.page(r).items())

        def take(pos, mult):
            have = residual.get(pos, 0)
            if have < mult:
                raise InconsistentPages(
                    "inconsistent pages: page %d lacks %d classes at (%d, %d)"
                    % (r, mult, pos[0], pos[1])
                )
            if have == mult:
                del residual[pos]
            else:
                residual[pos] = have - mult

        for pos, mult in free.items():
            take(pos, mult)
        for (i, m, s), mult in torsion.items():
            take((i, s), mult)
            take((i - 1, s + 2 * k * m), mult)
        while residual:
            top = max(i for (i, _) in residual)
            for (i, s) in sorted(p for p in residual if p[0] == top):
                mult = residual.pop((i, s))
                torsion[(i, r, s)] = torsion.get((i, r, s), 0) + mult
                take((i - 1, s + 2 * k * r), mult)

    free_pieces = tuple(
        pos for pos, mult in sorted(free.items()) for _ in range(mult)
    )
    torsion_pieces = tuple(
        piece for piece, mult in sorted(torsion.items()) for _ in range(mult)
    )
    return Decomposition(k=k, free_pieces=free_pieces, torsion_pieces=torsion_pieces)


def pages_from_decomposition(d: Decomposition) -> PageSequence:
    """Generate [E^(1), ..., E^(tau+1)] from a decomposition by the
    closed forms; the last page repeats once the sequence has
    stabilized at tw+1."""
    pages = assembled_page_list(d, True, (2 * d.k * r + 1 for r in range(torsion_width(d) + 1)))
    return padded_sequence(d.k, [page.to_hom_poly() for page in pages])


def padded_sequence(k: int, seq) -> PageSequence:
    """Pages [E^(1), ..., E^(n)], the last repeated up to page tau+1."""
    seq = list(seq)
    if not seq[0].is_empty():
        tau = _tau_of(seq[0], k)
        while len(seq) < tau + 1:
            seq.append(seq[-1])
    return PageSequence(k, seq)


def roundtrip(d: Decomposition) -> bool:
    """recover(pages of d) == d."""
    return recover(pages_from_decomposition(d)) == d
