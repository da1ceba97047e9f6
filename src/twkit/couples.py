"""Exact couples of bigraded spaces and the derived-couple iteration.

A couple here is the long-exact-sequence triangle of a complex over
k[a]: A is the k[a]-module homology seen degreewise as vector spaces,
E is the mod-a homology, f is multiplication by a (bidegree (0, 2k)),
g is the quotient map (bidegree (0, 0) initially) and h is the
connecting map (bidegree (1, -2k)).  Deriving replaces A by the image
of f and E by the homology of d = g o h; the composite g then drifts
down by 2k per derivation while f and h keep their bidegrees.

A holds free towers occupying infinitely many polynomial degrees, so it
is stored only inside a declared degree window; E has finite support
and is stored exactly.  Every operation that would need A-data outside
the window raises InsufficientWindow instead of guessing.  Deriving
shrinks the window by 2k at each end: data in the outermost strip can
no longer be trusted once f has been restricted.

The model couple of a decomposition is the direct sum of one model
couple per piece, and derived couples commute with finite direct sums
(Massey, "Exact couples in algebraic topology", 1952; McCleary, "A
User's Guide to Spectral Sequences", 2nd ed., 2.2).  So couple_tables
derives one chain per piece shape, a free tower or a truncated tower of
length m, built at (0, 0), and adds its E tables into the pages shifted
by each piece's (i, s).  Its window refusals are those of the
decomposition's own couple, replayed on that couple's window.

The chains of one couple_tables call share one memo (see
_Eliminations).  Towers repeat the same 1x1 maps slot after slot, so
each distinct map is eliminated once and multiplied once with each
other map, and derive and the constructor's checks look up what a
repeated slot needs instead of computing it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from . import exactla
from .algebra import BigradedTable
from .complexes import InternalError
from .decompose import Decomposition, torsion_width
from .exactla import canonical, columns, from_columns, matmul, solution_from_reduction
from .pages import assembled_page_list, hat_index


class InsufficientWindow(RuntimeError):
    """A computation reached outside the stored polynomial window."""


class _Eliminations:
    """The memo of the chains of one couple_tables call.  intern gives
    the one tuple of rows it holds for each distinct matrix, keyed by the
    rows' (col, value) pairs in column order, and widths gives the width
    of each by its id: one more than its largest column (0 when it has
    no entries, inf when a column is negative).  All else it computes
    once per distinct input and holds, looked up by dimensions and the
    ids of held objects: eliminations (the rref cut to its nonzero rows,
    and the pivots), products, restrictions and derive's per-slot
    read-offs (subquotients, g' coordinates and h' solves).  It keeps
    what it holds alive, so no other object takes such an id; no key
    names an object it does not hold.  Results are shared; nothing
    mutates them."""

    __slots__ = ("_rows", "widths", "_reduced", "_products", "_restrictions", "_quotients", "_read", "_solved")

    def __init__(self):
        self._rows, self.widths = {}, {}
        self._reduced, self._products, self._restrictions = {}, {}, {}
        self._quotients, self._read, self._solved = {}, {}, {}

    def intern(self, rows):
        """The held tuple of rows with the nonzeros of rows, canonical."""
        if id(rows) not in self.widths:
            rows = tuple({c: canonical(x) for c, x in row.items() if x} for row in rows)
            rows = self._rows.setdefault(tuple(tuple(sorted(row.items())) for row in rows), rows)
            cols = [c for row in rows for c in row]
            self.widths[id(rows)] = inf if cols and min(cols) < 0 else max(cols, default=-1) + 1
        return rows

    def admit(self, maps):
        """The nonzero maps of {bidegree: rows}, held and keyed by int
        bidegree, and {bidegree: pivot columns} of each."""
        held, pivots = {}, {}
        for key, rows in maps.items():
            reduced = self._reduced.get(id(rows))
            if reduced is None:
                rows = self.intern(rows)
                if not any(rows):
                    continue
                reduced = self.reduce(rows)
            elif not reduced[1]:
                continue
            i, s = key
            if type(i) is not int or type(s) is not int:
                key = (int(i), int(s))
            held[key], pivots[key] = rows, reduced[1]
        return held, pivots

    def reduce(self, rows):
        if id(rows) not in self._reduced:
            rows = self.intern(rows)
            if id(rows) not in self._reduced:
                rref, pivots = exactla.row_reduce(rows)
                self._reduced[id(rows)] = (self.intern(rref[: len(pivots)]), pivots)
        return self._reduced[id(rows)]

    def product(self, a, b):
        """a @ b, held, for a and b held."""
        out = self._products.get((id(a), id(b)))
        if out is None:
            out = self._products[(id(a), id(b))] = self.intern(matmul(a, b))
        return out

    def vanishes(self, a, b):
        """Whether a @ b is zero, for a and b held."""
        return not any(self.product(a, b))

    def restricted(self, rows, cols):
        """The given columns of held rows, renumbered from 0, held; cols
        a pivot list of one of the memo's eliminations."""
        out = self._restrictions.get((id(rows), id(cols)))
        if out is None:
            out = [{j: row[c] for j, c in enumerate(cols) if c in row} for row in rows]
            out = self._restrictions[(id(rows), id(cols))] = self.intern(out)
        return out

    def subquotient(self, d_out, n, d_in):
        """exactla.subquotient ker d_out / im d_in on n coordinates, held,
        for d_out and d_in held."""
        key = (id(d_out), n, id(d_in))
        out = self._quotients.get(key)
        if out is None:
            into = (d_in, self.reduce(d_in)[1])
            out = self._quotients[key] = exactla.subquotient(self.reduce(d_out), n, into, self.reduce)
        return out

    def read_off(self, q, rows, n):
        """The coordinates of the first n columns of held rows, cycles, on
        the representatives of the held subquotient q, held."""
        key = (id(q), id(rows), n)
        out = self._read.get(key)
        if out is None:
            out = self._read[key] = self.intern(q.coordinates(columns(rows, range(n))))
        return out

    def solve(self, basis, nbasis, rhs, nb):
        """The held X with basis @ X = rhs, for basis and rhs held, with
        nbasis and nb columns; None when rhs leaves the image of basis."""
        key = (id(basis), nbasis, id(rhs), nb)
        if key not in self._solved:
            aug = [{**a, **{nbasis + j: x for j, x in b.items()}} for a, b in zip(basis, rhs)]
            sols = solution_from_reduction(self.reduce(aug), nbasis, nb)
            self._solved[key] = None if sols is None else self.intern(from_columns(sols, nbasis))
        return self._solved[key]


class ExactCouple:
    """Windowed exact couple with per-bidegree rational matrices.

    a_dims / e_dims: {(i, s): dim}; f, g, h: matrices keyed by the
    source bidegree, shaped target-dim x source-dim.  Each map is held
    as a tuple of rows, one per target generator, each a {col: value}
    map of the nonzeros with canonical values (an int when integral, a
    Fraction otherwise); zero maps are not stored.  g_shift records the
    accumulated polynomial bidegree of g.  Exactness of the triangle is
    validated on construction at every bidegree whose referenced slots
    all lie inside the window.  memo is the derivation chain's memo,
    which derive passes on; a couple built without one starts a new
    memo.  Each map is interned in the memo, and the
    couple's pivot table, built on construction, holds the pivot
    columns of each of its maps.  Maps that the memo holds and keys
    that are int pairs, as derive and the model builder pass them, are
    taken as they are.  The checks run in a fixed order, so the first
    fault found names the same slot every time: the shapes of f, then
    g, then h, each in stored order; then exactness at A and then at E,
    each in sorted slot order.
    """

    __slots__ = ("k", "window", "g_shift", "_a", "_e", "_f", "_g", "_h", "_memo", "_pivots")

    def __init__(self, k, window, a_dims, e_dims, f, g, h, g_shift=0, validate=True, memo=None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("empty window")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "g_shift", int(g_shift))
        a = {}
        for (i, s), dim in a_dims.items():
            if dim < 0:
                raise ValueError("negative dimension in A")
            if dim:
                if not lo <= s <= hi:
                    raise ValueError("A slot (%d, %d) outside the window" % (i, s))
                a[(i, s) if type(i) is int and type(s) is int else (int(i), int(s))] = int(dim)
        e = {}
        for (i, s), dim in e_dims.items():
            if dim < 0:
                raise ValueError("negative dimension in E")
            if dim:
                e[(i, s) if type(i) is int and type(s) is int else (int(i), int(s))] = int(dim)
        memo = _Eliminations() if memo is None else memo
        (f, fp), (g, gp), (h, hp) = memo.admit(f), memo.admit(g), memo.admit(h)
        for name, value in (("_a", a), ("_e", e), ("_memo", memo), ("_f", f), ("_g", g), ("_h", h)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_pivots", (fp, gp, hp))
        if validate:
            self._check_shapes()
            self._check_exactness()

    def __setattr__(self, name, value):
        raise AttributeError("ExactCouple is immutable")

    # -- dimensions and materialized maps ------------------------------

    def inside(self, s) -> bool:
        return self.window[0] <= s <= self.window[1]

    def a_dim(self, i, s) -> int:
        if not self.inside(s):
            raise InsufficientWindow(
                "insufficient window: A at (%d, %d) is outside [%d, %d]"
                % (i, s, self.window[0], self.window[1])
            )
        return self._a.get((i, s), 0)

    def e_dim(self, i, s) -> int:
        return self._e.get((i, s), 0)

    def e_support(self):
        return sorted(self._e)

    def e_table(self) -> BigradedTable:
        """E dimensions keyed (homological, polynomial)."""
        return BigradedTable(self._e)

    def differential(self, i, s):
        """d = g o h out of E at (i, s) as a tuple of rows, bidegree
        (1, g_shift - 2k); () when g or h is absent there (d = 0).
        Either way the target's A slot must lie inside the window."""
        k2 = 2 * self.k
        h = self._h.get((i, s))
        g = self._g.get((i + 1, s - k2))
        if h is None or g is None:
            self.a_dim(i + 1, s - k2)
            return self._memo.intern(())
        return self._memo.product(g, h)

    def is_trivial(self) -> bool:
        return not self._a and not self._e

    # -- validation ----------------------------------------------------

    def _check_shapes(self):
        k2 = 2 * self.k
        lo, hi = self.window
        a, e, width = self._a, self._e, self._memo.widths
        for (i, s), rows in self._f.items():
            if not lo <= s <= hi - k2:
                raise ValueError("f at (%d, %d) reaches outside the window" % (i, s))
            if len(rows) != a.get((i, s + k2), 0) or width[id(rows)] > a.get((i, s), 0):
                raise ValueError("f shape mismatch at (%d, %d)" % (i, s))
        for (i, s), rows in self._g.items():
            if not lo <= s <= hi:
                raise ValueError("g at (%d, %d) reaches outside the window" % (i, s))
            if len(rows) != e.get((i, s + self.g_shift), 0) or width[id(rows)] > a.get((i, s), 0):
                raise ValueError("g shape mismatch at (%d, %d)" % (i, s))
        for (i, s), rows in self._h.items():
            if not lo <= s - k2 <= hi:
                raise InsufficientWindow(
                    "insufficient window: h at (%d, %d) targets outside it" % (i, s)
                )
            if len(rows) != a.get((i + 1, s - k2), 0) or width[id(rows)] > e.get((i, s), 0):
                raise ValueError("h shape mismatch at (%d, %d)" % (i, s))

    def _check_exactness(self):
        """Ranks are the lengths of the pivot lists; a composite with an
        absent map vanishes, and the memo multiplies each pair of held
        maps once."""
        k2 = 2 * self.k
        lo, hi = self.window
        f, g, h = self._f, self._g, self._h
        fp, gp, hp = self._pivots
        vanishes = self._memo.vanishes
        for pos, dim in sorted(self._a.items()):
            i, s = pos
            if not lo + k2 <= s <= hi - k2:
                continue
            below, above = (i, s - k2), (i - 1, s + k2)
            if len(fp.get(below, ())) + len(gp.get(pos, ())) != dim:
                raise ValueError("exactness fails at A (%d, %d): im f vs ker g" % pos)
            if pos in g and below in f and not vanishes(g[pos], f[below]):
                raise ValueError("g o f is nonzero at (%d, %d)" % below)
            if len(hp.get(above, ())) + len(fp.get(pos, ())) != dim:
                raise ValueError("exactness fails at A (%d, %d): im h vs ker f" % pos)
            if above in h and pos in f and not vanishes(f[pos], h[above]):
                raise ValueError("f o h is nonzero at (%d, %d)" % above)
        for pos, dim in sorted(self._e.items()):
            i, s = pos
            source = (i, s - self.g_shift)
            if not (lo + k2 <= source[1] <= hi - k2 and lo <= s - k2 <= hi):
                continue
            if len(gp.get(source, ())) + len(hp.get(pos, ())) != dim:
                raise ValueError("exactness fails at E (%d, %d): im g vs ker h" % pos)
            if source in g and pos in h and not vanishes(h[pos], g[source]):
                raise ValueError("h o g is nonzero at (%d, %d)" % source)

    # -- derivation ----------------------------------------------------

    def derive(self) -> "ExactCouple":
        """The derived couple: A' = im f, E' = ker(goh)/im(goh),
        f' the restriction, g'(f(b)) = g(b), h'([e]) = h(e).

        The window shrinks by 2k at each end.  Raises
        InsufficientWindow when a nonzero map cannot be represented in
        the shrunk window.

        The derived couple shares this couple's memo.  A' at (i, s)
        has as basis the columns of f at f's own pivot columns p.
        Column j of f is the sum over t of rref[t][j] times pivot
        column t, so f' is f's rref times the basis of A' below.  The
        pullback of basis column p through f is the unit vector at p,
        and g' there is g's column p, whose E' coordinates that
        bidegree's exactla.Subquotient reads off without a solve.  So
        A', f' and g' at (i, s) need only f and g out of (i, s - 2k)
        and f out of (i, s), and one pass over f in slot order builds
        all three.
        """
        memo = self._memo
        if self.is_trivial():
            return ExactCouple(self.k, self.window, {}, {}, {}, {}, {}, self.g_shift, validate=False, memo=memo)
        k2 = 2 * self.k
        lo, hi = self.window
        new_lo, new_hi = lo + k2, hi - k2
        if new_lo > new_hi:
            raise InsufficientWindow(
                "insufficient window: cannot derive inside [%d, %d]" % (lo, hi)
            )
        new_shift = self.g_shift - k2
        f_pivots = self._pivots[0]

        # E': one subquotient per bidegree, ker(d out) / im(d in), read
        # once per distinct (d out, dim, d in) along the chain
        d_out = {pos: self.differential(*pos) for pos in self.e_support()}
        zero = memo.intern(())
        quotients = {
            (i, s): memo.subquotient(d, self.e_dim(i, s), d_out.get((i - 1, s + k2 - self.g_shift), zero))
            for (i, s), d in d_out.items()
        }
        e_new = {pos: len(q.representatives) for pos, q in quotients.items() if q.representatives}

        # A', f' and g' in one pass over f in slot order.  A' at (i, t),
        # t = s + 2k, has as basis the columns of f out of (i, s) at its
        # pivot columns p, the rows of f restricted to p; f' out of (i, t)
        # is f's rref there times that basis.
        bases, a_new, f_new, g_new, h_new = {}, {}, {}, {}, {}
        for (i, s), rows in sorted(self._f.items()):
            t = s + k2
            if not new_lo <= t <= new_hi:
                continue
            pivots = f_pivots[(i, s)]
            basis = bases[(i, t)] = memo.restricted(rows, pivots)
            a_new[(i, t)] = len(pivots)
            # where f is absent its image above is empty too: f' = 0
            f_out = self._f.get((i, t))
            if t + k2 <= new_hi and f_out is not None:
                f_new[(i, t)] = memo.product(memo.reduce(f_out)[0], basis)
            # g'(f(b)) = g(b), with b the unit vector at p, so g' is g's
            # columns at p.  Exactness is only checked inside the window,
            # so each class is checked to be a d-cycle before its E'
            # coordinates are read off.
            g_in = self._g.get((i, s))
            if g_in is not None:
                pos = (i, s + self.g_shift)
                g_rhs = memo.restricted(g_in, pivots)
                if not memo.vanishes(d_out[pos], g_rhs):
                    raise InternalError("couples", "class fell outside the kernel basis")
                g_new[(i, t)] = memo.read_off(quotients[pos], g_rhs, len(pivots))

        for (i, s), q in sorted(quotients.items()):
            # an absent h sends every class to 0; its target slot was
            # already checked against the window with d out of (i, s)
            chosen = q.representatives
            h_out = self._h.get((i, s))
            if not chosen or h_out is None:
                continue
            h_rhs = memo.product(h_out, memo.intern(from_columns(chosen, self.e_dim(i, s))))
            if not any(h_rhs):
                continue
            t_pos = (i + 1, s - k2)
            if not new_lo <= t_pos[1] <= new_hi:
                raise InsufficientWindow(
                    "insufficient window: h' at (%d, %d) targets outside [%d, %d]"
                    % (i, s, new_lo, new_hi)
                )
            target = bases.get(t_pos)
            solved = memo.solve(target, a_new[t_pos], h_rhs, len(chosen)) if target else None
            if solved is None:
                raise InternalError("couples", "h of a surviving class left the image of f")
            h_new[(i, s)] = solved

        return ExactCouple(self.k, (new_lo, new_hi), a_new, e_new, f_new, g_new, h_new, new_shift, memo=memo)


def couple_from_decomposition(d: Decomposition, derivations: int = None, memo=None) -> ExactCouple:
    """The model couple of a decomposition of at most one piece, as
    concrete matrices, each map the 1x1 unit matrix.

    A free piece (i, s) is a free tower (A at s, s+2k, ... up to the
    window top; f shifts slots, g hits E at the bottom slot, h = 0), a
    torsion piece (i, m, s) a truncated tower of length m (f shifts and
    kills the top slot, g hits E at the bottom, h sends the paired E
    class at (i-1, s+2km) onto the top slot).  The window pads the
    piece's generator degrees by 2k per derivation it must support,
    tw + 2 by default.  memo, when given, is shared with other chains.
    """
    if len(d.free_pieces) + len(d.torsion_pieces) > 1:
        raise ValueError("a model couple holds one piece")
    if not d.free_pieces and not d.torsion_pieces:
        return ExactCouple(d.k, (0, 0), {}, {}, {}, {}, {}, 0, validate=False, memo=memo)
    k2 = 2 * d.k
    pad = k2 * (torsion_width(d) + 2 if derivations is None else derivations)
    memo = _Eliminations() if memo is None else memo
    one = memo.intern(({0: 1},))
    if d.free_pieces:
        ((i, s),) = d.free_pieces
        lo, hi = s - pad, s + pad
        tower, e, h = range(s, hi + 1, k2), {(i, s): 1}, {}
    else:
        ((i, m, s),) = d.torsion_pieces
        top = s + k2 * m
        lo, hi = s - pad, top + pad
        tower, e, h = range(s, top, k2), {(i, s): 1, (i - 1, top): 1}, {(i - 1, top): one}
    f = {(i, t): one for t in tower[:-1]}
    return ExactCouple(d.k, (lo, hi), {(i, t): 1 for t in tower}, e, f, {(i, s): one}, h, 0, memo=memo)


def couple_pages(c: ExactCouple, r: int) -> BigradedTable:
    """E dimensions of the (r-1)-fold derived couple, keyed
    (homological degree, polynomial degree)."""
    if r < 1:
        raise ValueError("couple pages start at r = 1")
    for _ in range(r - 1):
        c = c.derive()
    return c.e_table()


def couple_tables(d: Decomposition, count: int):
    """Pages 1..count of the model couple of d (the first page when
    count < 1): one chain per piece shape, free or torsion of exponent
    m, derived count - 1 times from the shape's couple at (0, 0) on one
    memo, and each page the sum of its E tables shifted by each piece's
    (i, s).

    The refusals are those of d's own couple, whose window pads d's
    generator degrees by 2k(tw + 2): before each derivation of a
    nontrivial couple (a trivial one derives to itself, window and
    all), derive's window checks are replayed on that window, in order
    and with derive's texts.  Its third, an h' target outside the shrunk
    window, cannot fire there: such an h' targets a torsion tower's top,
    inside d's generator degrees, only in the first tw - 1 derived
    couples, whose windows still pad those degrees by 6k or more.
    """
    k2 = 2 * d.k
    placed = [(0, i, s) for i, s in d.free_pieces] + [(m, i, s) for i, m, s in d.torsion_pieces]
    degrees = [t for m, _, s in placed for t in (s, s + k2 * m)]
    pad = k2 * (torsion_width(d) + 2)
    lo, hi = min(degrees, default=0) - pad, max(degrees, default=0) + pad
    # d's window allows (hi - lo) // 4k derivations before a refusal
    derivations = max(0, min(count - 1, (hi - lo) // (2 * k2)))
    memo = _Eliminations()
    chains = {
        m: couple_from_decomposition(
            Decomposition(d.k, (), ((0, m, 0),)) if m else Decomposition(d.k, ((0, 0),)), derivations, memo
        )
        for m in {m for m, _, _ in placed}
    }

    def page():
        return BigradedTable(((i + a, s + b), n) for m, i, s in placed for (a, b), n in chains[m]._e.items())

    tables = [page()]
    while len(tables) < count:
        if not all(c.is_trivial() for c in chains.values()):
            if lo + k2 > hi - k2:
                raise InsufficientWindow("insufficient window: cannot derive inside [%d, %d]" % (lo, hi))
            for i, s in tables[-1].support():
                if not lo <= s - k2 <= hi:
                    raise InsufficientWindow(
                        "insufficient window: A at (%d, %d) is outside [%d, %d]" % (i + 1, s - k2, lo, hi)
                    )
            lo, hi = lo + k2, hi - k2
        chains = {m: c.derive() for m, c in chains.items()}
        tables.append(page())
    return tables


@dataclass(frozen=True)
class CorrespondenceResult:
    ok: bool
    checked: int
    first_mismatch: int = None

    def __bool__(self):
        return self.ok


def correspondence_check(d: Decomposition, r_max: int, tables=None) -> CorrespondenceResult:
    """Couple pages against assembled hat pages.

    For r = 1..r_max the couple page at (i, s) must equal the hat page
    2k(r-1)+1 at position (s, i - s).  Returns the first failing r, if
    any.  The couple pages come from couple_tables, which derives one
    chain per piece shape and sums its pages over the pieces, and the
    hat pages from the closed forms; the two share no code.  tables,
    when given, are couple_tables(d, n) for some n >= r_max, so a
    caller that needs the pages elsewhere derives the chains once.
    """
    if tables is None:
        tables = couple_tables(d, r_max)
    pages = assembled_page_list(d, True, (hat_index(d.k, r) for r in range(1, r_max + 1)))
    for r, page in enumerate(pages, 1):
        if tables[r - 1] != page.to_hom_poly():
            return CorrespondenceResult(False, r_max, r)
    return CorrespondenceResult(True, r_max)
