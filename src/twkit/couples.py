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

A model couple and the couples derived from it form one derivation
chain, which shares one memo.  Free towers repeat the same small maps
slot after slot, so the memo interns each map: equal maps anywhere in
the chain are one rows object, eliminated once and multiplied once
with each other map.  A derived couple reads A' as the columns of f at
f's own pivot columns, so f' is f's rref applied to the image basis
below, and the pullback of a basis column through f is a unit vector,
so g' needs no solve against f.  E' is the homology of d = g o h, read
off by exactla.subquotient in cycle coordinates as the mod-a homology
is, so no solve projects a class onto E' either; h' alone is solved
for.  derive builds A', f' and g' in one pass over f in slot order.
The memo holds those per-slot read-offs too (see _Eliminations), so a
slot that repeats another along the chain only looks them up, and so
are the constructor's checks: a map the memo holds costs one look-up
for its pivots, the shape check reads its width off the memo, and the
exactness check reads ranks off the pivots and learns once per pair of
held maps whether their composite vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from . import exactla
from .algebra import BigradedTable
from .complexes import InternalError
from .decompose import Decomposition, torsion_width
from .exactla import canonical, columns, from_columns, matmul, solution_from_reduction
from .pages import assembled_page_list


class InsufficientWindow(RuntimeError):
    """A computation reached outside the stored polynomial window."""


class _Eliminations:
    """One derivation chain's memo.  intern gives the one tuple of rows
    it holds for each distinct matrix, keyed by the rows' (col, value)
    pairs in column order, and widths gives the width of each by its
    id: one more than its largest column (0 when it has no entries,
    inf when a column is negative).  All else it computes once per
    distinct input and holds, looked up by dimensions and the ids of
    held objects: eliminations (the rref cut to its nonzero rows, and
    the pivots), products, whether a composite vanishes, restrictions
    and derive's per-slot read-offs (subquotients, g' coordinates,
    representative lifts and h' solves).  It keeps what it holds alive,
    so no other object takes such an id; no key names an object it does
    not hold.  Results are shared; nothing mutates them."""

    __slots__ = ("_rows", "widths", "_reduced", "_products", "_vanishing", "_restrictions", "_quotients", "_read",
                 "_lifts", "_solved")

    def __init__(self):
        self._rows, self.widths = {}, {}
        self._reduced, self._products, self._vanishing, self._restrictions = {}, {}, {}, {}
        self._quotients, self._read, self._lifts, self._solved = {}, {}, {}, {}

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
        out = self._vanishing.get((id(a), id(b)))
        if out is None:
            out = self._vanishing[(id(a), id(b))] = not any(self.product(a, b))
        return out

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

    def lift(self, q, n):
        """The held n-row matrix whose columns are the representatives of
        the held subquotient q."""
        out = self._lifts.get((id(q), n))
        if out is None:
            out = self._lifts[(id(q), n)] = self.intern(from_columns(q.representatives, n))
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
    Fraction otherwise); zero maps are not stored.  The constructor
    takes sparse rows only; complexes.complex_from_data alone reads
    dense cells.  g_shift
    records the accumulated polynomial bidegree of g.  Exactness of the
    triangle is validated on construction at every bidegree whose
    referenced slots all lie inside the window.  memo is the derivation
    chain's memo, which derive passes on; a couple built without one
    starts a new chain.  Each map is interned in the memo, and the
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
        absent map vanishes, and the memo learns once per pair of held
        maps whether theirs does."""
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
            return ExactCouple(
                self.k, self.window, {}, {}, {}, {}, {}, self.g_shift, validate=False, memo=memo
            )
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
            h_rhs = memo.product(h_out, memo.lift(q, self.e_dim(i, s)))
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

        return ExactCouple(
            self.k,
            (new_lo, new_hi),
            a_new,
            e_new,
            f_new,
            g_new,
            h_new,
            new_shift,
            memo=memo,
        )


def couple_from_decomposition(d: Decomposition) -> ExactCouple:
    """The model couple of a decomposition, as concrete matrices.

    One free tower per free piece (slots s, s+2k, ... up to the window
    top; f shifts slots, g hits E at the bottom slot, h = 0) and one
    truncated tower of length m per torsion piece (f shifts and kills
    the top slot, g hits E at the bottom, h sends the paired E class at
    (i-1, s+2km) onto the top slot).  The window pads the extreme
    generator degrees by 2k(tw + 2), enough for tw + 2 derivations.
    """
    k2 = 2 * d.k
    degrees = [s for _, s in d.free_pieces]
    for _, m, s in d.torsion_pieces:
        degrees.extend((s, s + k2 * m))
    if not degrees:
        return ExactCouple(d.k, (0, 0), {}, {}, {}, {}, {}, 0, validate=False)
    pad = k2 * (torsion_width(d) + 2)
    lo, hi = min(degrees) - pad, max(degrees) + pad

    # each slot lists the pieces whose towers or classes lie there, free
    # pieces first, each tagged by its index in that order.  A piece's
    # tower and bottom class lie in its homological degree i and its top
    # class in i - 1, so f, g and h each send a tag to the same tag in
    # their target slot, when it lies there.
    a_basis, e_basis = {}, {}
    for tag, (i, s) in enumerate(d.free_pieces):
        for t in range(s, hi + 1, k2):
            a_basis.setdefault((i, t), []).append(tag)
        e_basis.setdefault((i, s), []).append(tag)
    for tag, (i, m, s) in enumerate(d.torsion_pieces, len(d.free_pieces)):
        for t in range(s, s + k2 * m, k2):
            a_basis.setdefault((i, t), []).append(tag)
        e_basis.setdefault((i, s), []).append(tag)
        e_basis.setdefault((i - 1, s + k2 * m), []).append(tag)
    memo, made = _Eliminations(), {}

    def unit_map(sources, targets, di, ds):
        """{(i, s): rows} over the source slots whose target slot
        (i + di, s + ds) is nonempty: column c holds a 1 at the row of
        tag c, when that tag lies there.  Each distinct matrix is
        interned once."""
        out = {}
        for (i, s), tags in sources.items():
            target = targets.get((i + di, s + ds))
            if target:
                pos = {tag: r for r, tag in enumerate(target)}
                shape = (len(target), tuple(map(pos.get, tags)))
                if shape not in made:
                    rows = [{} for _ in target]
                    for c, r in enumerate(shape[1]):
                        if r is not None:
                            rows[r][c] = 1
                    made[shape] = memo.intern(rows)
                out[(i, s)] = made[shape]
        return out

    # f kills a truncated tower's top slot, g is nonzero only on a
    # tower's bottom slot and h only on a torsion piece's top class
    f = unit_map(a_basis, a_basis, 0, k2)
    g = unit_map(a_basis, e_basis, 0, 0)
    h = unit_map(e_basis, a_basis, 1, -k2)

    return ExactCouple(
        d.k,
        (lo, hi),
        {key: len(tags) for key, tags in a_basis.items()},
        {key: len(tags) for key, tags in e_basis.items()},
        f,
        g,
        h,
        0,
        memo=memo,
    )


def couple_pages(c: ExactCouple, r: int) -> BigradedTable:
    """E dimensions of the (r-1)-fold derived couple, keyed
    (homological degree, polynomial degree)."""
    if r < 1:
        raise ValueError("couple pages start at r = 1")
    for _ in range(r - 1):
        c = c.derive()
    return c.e_table()


def couple_tables(d: Decomposition, count: int):
    """Pages 1..count of the model couple of d, from one derivation
    chain (count - 1 derivations; the first page when count < 1)."""
    c = couple_from_decomposition(d)
    tables = [c.e_table()]
    while len(tables) < count:
        c = c.derive()
        tables.append(c.e_table())
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
    2k(r-1)+1 at position (s, i - s).  Returns the first
    failing r, if any.  tables, when given, are couple_tables(d, n)
    for some n >= r_max, so a caller that needs the pages elsewhere
    derives the couple once.
    """
    if tables is None:
        tables = couple_tables(d, r_max)
    pages = assembled_page_list(d, True, (2 * d.k * r + 1 for r in range(r_max)))
    for r, page in enumerate(pages, 1):
        if tables[r - 1] != page.to_hom_poly():
            return CorrespondenceResult(False, r_max, r)
    return CorrespondenceResult(True, r_max)
