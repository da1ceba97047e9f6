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
chain, which shares one memo of eliminations keyed by the matrix
entries (and by the right-hand sides of a solve).  Free towers repeat
the same small maps slot after slot, so along a chain each distinct
matrix is eliminated once.  A derived couple reads A' as the columns
of f at f's own pivot columns, so the pullback of a basis column
through f is a unit vector and g' needs no solve against f.  E' is the
homology of d = g o h, read off by exactla.homology in cycle
coordinates as the mod-a homology is, so no solve projects a class
onto E' either; the memo's solves serve f' and h' only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactla
from .algebra import HOM_POLY, BigradedTable
from .complexes import InternalError
from .decompose import Decomposition, torsion_width
from .exactla import canonical, columns, from_columns, matmul, solution_from_reduction


class InsufficientWindow(RuntimeError):
    """A computation reached outside the stored polynomial window."""


def _fits(rows, nrows, ncols):
    return len(rows) == nrows and all(0 <= c < ncols for row in rows for c in row)


def _restricted(rows, cols):
    """The given columns of the matrix, renumbered from 0, as rows."""
    return [{j: row[c] for j, c in enumerate(cols) if c in row} for row in rows]


class _Eliminations:
    """One derivation chain's memo: exactla.row_reduce results keyed
    by the matrix's rows, each as its (col, value) pairs in column
    order.  A solve is the elimination of the augmented matrix [A | B],
    so its key holds the right-hand sides too.  Results are shared;
    nothing mutates them."""

    __slots__ = ("_done",)

    def __init__(self):
        self._done = {}

    def reduce(self, rows):
        key = tuple(tuple(sorted(row.items())) for row in rows)
        out = self._done.get(key)
        if out is None:
            out = self._done[key] = exactla.row_reduce(rows)
        return out

    def solve(self, basis, nbasis, rhs, nb):
        """exactla.solve of basis @ X = rhs, both given by their rows,
        with nbasis and nb columns."""
        aug = [{**a, **{nbasis + j: x for j, x in b.items()}} for a, b in zip(basis, rhs)]
        return solution_from_reduction(self.reduce(aug), nbasis, nb)


class ExactCouple:
    """Windowed exact couple with per-bidegree rational matrices.

    a_dims / e_dims: {(i, s): dim}; f, g, h: matrices keyed by the
    source bidegree, shaped target-dim x source-dim.  Each map is held
    as a tuple of rows, one per target generator, each a {col: value}
    map of the nonzeros with canonical values (an int when integral, a
    Fraction otherwise); zero maps are not stored, and f_at, g_at and
    h_at give them as empty rows.  The constructor takes sparse rows
    only; complexes.complex_from_data alone reads dense cells.  g_shift
    records the accumulated polynomial bidegree of g.  Exactness of the
    triangle is validated on construction at every bidegree whose
    referenced slots all lie inside the window.  memo is the derivation
    chain's memo of eliminations, which derive passes on; a couple built
    without one starts a new chain.  The couple keeps the pivot columns
    of each of its own maps once looked up, so each map's memo key is
    built once.
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
                a[(int(i), int(s))] = int(dim)
        e = {}
        for (i, s), dim in e_dims.items():
            if dim < 0:
                raise ValueError("negative dimension in E")
            if dim:
                e[(int(i), int(s))] = int(dim)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_e", e)
        object.__setattr__(self, "_f", self._clean(f))
        object.__setattr__(self, "_g", self._clean(g))
        object.__setattr__(self, "_h", self._clean(h))
        object.__setattr__(self, "_memo", _Eliminations() if memo is None else memo)
        object.__setattr__(self, "_pivots", {})
        if validate:
            self._check_shapes()
            self._check_exactness()

    def __setattr__(self, name, value):
        raise AttributeError("ExactCouple is immutable")

    @staticmethod
    def _clean(maps):
        """The nonzero maps, keyed by int bidegree, as canonical rows."""
        out = {}
        for key, rows in maps.items():
            rows = tuple({c: canonical(x) for c, x in row.items() if x} for row in rows)
            if any(rows):
                out[(int(key[0]), int(key[1]))] = rows
        return out

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

    def a_support(self):
        return sorted(self._a)

    def e_support(self):
        return sorted(self._e)

    def e_table(self) -> BigradedTable:
        """E dimensions keyed (homological, polynomial)."""
        return BigradedTable(self._e, HOM_POLY)

    def f_at(self, i, s):
        mat = self._f.get((i, s))
        if mat is not None:
            return mat
        self.a_dim(i, s)
        return ({},) * self.a_dim(i, s + 2 * self.k)

    def g_at(self, i, s):
        mat = self._g.get((i, s))
        if mat is not None:
            return mat
        self.a_dim(i, s)
        return ({},) * self.e_dim(i, s + self.g_shift)

    def h_at(self, i, s):
        mat = self._h.get((i, s))
        if mat is not None:
            return mat
        return ({},) * self.a_dim(i + 1, s - 2 * self.k)

    def differential(self, i, s):
        """d = g o h out of E at (i, s) as a tuple of rows, bidegree
        (1, g_shift - 2k); () when g or h is absent there (d = 0).
        Either way the target's A slot must lie inside the window."""
        k2 = 2 * self.k
        h = self._h.get((i, s))
        g = self._g.get((i + 1, s - k2))
        if h is None or g is None:
            self.a_dim(i + 1, s - k2)
            return ()
        return tuple(matmul(g, h))

    def is_trivial(self) -> bool:
        return not self._a and not self._e

    def _map_pivots(self, name, key):
        """Pivot columns of the map name ("f", "g" or "h") out of the
        bidegree key, [] where it is absent (zero)."""
        found = self._pivots.get((name, key))
        if found is None:
            rows = {"f": self._f, "g": self._g, "h": self._h}[name].get(key)
            found = self._memo.reduce(rows)[1] if rows is not None else []
            self._pivots[(name, key)] = found
        return found

    # -- validation ----------------------------------------------------

    def _check_shapes(self):
        k2 = 2 * self.k
        for (i, s), rows in self._f.items():
            if not (self.inside(s) and self.inside(s + k2)):
                raise ValueError("f at (%d, %d) reaches outside the window" % (i, s))
            if not _fits(rows, self.a_dim(i, s + k2), self.a_dim(i, s)):
                raise ValueError("f shape mismatch at (%d, %d)" % (i, s))
        for (i, s), rows in self._g.items():
            if not self.inside(s):
                raise ValueError("g at (%d, %d) reaches outside the window" % (i, s))
            if not _fits(rows, self.e_dim(i, s + self.g_shift), self.a_dim(i, s)):
                raise ValueError("g shape mismatch at (%d, %d)" % (i, s))
        for (i, s), rows in self._h.items():
            if not self.inside(s - k2):
                raise InsufficientWindow(
                    "insufficient window: h at (%d, %d) targets outside it" % (i, s)
                )
            if not _fits(rows, self.a_dim(i + 1, s - k2), self.e_dim(i, s)):
                raise ValueError("h shape mismatch at (%d, %d)" % (i, s))

    def _check_exactness(self):
        k2 = 2 * self.k
        lo, hi = self.window
        maps = {"f": self._f, "g": self._g, "h": self._h}

        def rank_of(name, key):
            return len(self._map_pivots(name, key))

        def vanishes(left, key_left, right, key_right):
            # the composite left o right; zero when either map is absent
            a = maps[left].get(key_left)
            b = maps[right].get(key_right)
            return a is None or b is None or not any(matmul(a, b))

        def interior(s):
            return lo + k2 <= s <= hi - k2

        for (i, s) in sorted(self._a):
            if not interior(s):
                continue
            dim = self._a[(i, s)]
            if rank_of("f", (i, s - k2)) + rank_of("g", (i, s)) != dim:
                raise ValueError("exactness fails at A (%d, %d): im f vs ker g" % (i, s))
            if not vanishes("g", (i, s), "f", (i, s - k2)):
                raise ValueError("g o f is nonzero at (%d, %d)" % (i, s - k2))
            if rank_of("h", (i - 1, s + k2)) + rank_of("f", (i, s)) != dim:
                raise ValueError("exactness fails at A (%d, %d): im h vs ker f" % (i, s))
            if not vanishes("f", (i, s), "h", (i - 1, s + k2)):
                raise ValueError("f o h is nonzero at (%d, %d)" % (i - 1, s + k2))
        for (i, s) in sorted(self._e):
            if not (self.inside(s - self.g_shift) and interior(s - self.g_shift)):
                continue
            if not self.inside(s - k2):
                continue
            g_key = (i, s - self.g_shift)
            if rank_of("g", g_key) + rank_of("h", (i, s)) != self.e_dim(i, s):
                raise ValueError("exactness fails at E (%d, %d): im g vs ker h" % (i, s))
            if not vanishes("h", (i, s), "g", g_key):
                raise ValueError("h o g is nonzero at (%d, %d)" % g_key)

    # -- derivation ----------------------------------------------------

    def derive(self) -> "ExactCouple":
        """The derived couple: A' = im f, E' = ker(goh)/im(goh),
        f' the restriction, g'(f(b)) = g(b), h'([e]) = h(e).

        The window shrinks by 2k at each end.  Raises
        InsufficientWindow when a nonzero map cannot be represented in
        the shrunk window.

        The derived couple shares this couple's memo of eliminations,
        so along one chain each distinct matrix is eliminated once.
        A' at (i, s) has as basis the columns of f at f's own pivot
        columns p, so the pullback of basis column p through f is the
        unit vector at p, and g' there is g's column p, whose E'
        coordinates that bidegree's exactla.Subquotient reads off
        without a solve.
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

        # E': one subquotient per bidegree, ker(d out) / im(d in); each
        # d is eliminated once, for its kernel and its image
        d_out = {pos: self.differential(*pos) for pos in self.e_support()}
        quotients = exactla.homology(
            d_out,
            {pos: self.e_dim(*pos) for pos in d_out},
            lambda pos: (pos[0] - 1, pos[1] + k2 - self.g_shift),
            memo.reduce,
        )
        e_new = {pos: len(q.representatives) for pos, q in quotients.items() if q.representatives}

        # A': image basis of f per bidegree, kept inside the new window,
        # as the rows of f restricted to its pivot columns
        iota = {}
        a_new = {}
        for (i, s) in sorted((i, s + k2) for (i, s) in self._f):
            if not new_lo <= s <= new_hi:
                continue
            pivots = self._map_pivots("f", (i, s - k2))
            if pivots:
                iota[(i, s)] = _restricted(self._f[(i, s - k2)], pivots)
                a_new[(i, s)] = len(pivots)

        f_new = {}
        g_new = {}
        h_new = {}
        for (i, s), basis in sorted(iota.items()):
            # f' = f restricted to the image basis; where f is absent
            # its image above is empty too, and f' = 0
            f_out = self._f.get((i, s))
            if s + k2 <= new_hi and f_out is not None:
                f_rhs = matmul(f_out, basis)
                target = iota.get((i, s + k2))
                if target:
                    sols = memo.solve(target, a_new[(i, s + k2)], f_rhs, a_new[(i, s)])
                    if sols is None:
                        raise InternalError("couples", "f does not preserve its own image")
                    f_new[(i, s)] = from_columns(sols, a_new[(i, s + k2)])
                elif any(f_rhs):
                    raise InternalError("couples", "f does not preserve its own image")
            # g'(f(b)) = g(b), with b the unit vector at f's pivot
            # column.  Exactness is only checked inside the window, so
            # each class is checked to be a d-cycle before its E'
            # coordinates are read off.
            g_in = self._g.get((i, s - k2))
            if g_in is not None:
                pos = (i, s + new_shift)
                g_rhs = _restricted(g_in, self._map_pivots("f", (i, s - k2)))
                if any(matmul(d_out[pos], g_rhs)):
                    raise InternalError("couples", "class fell outside the kernel basis")
                g_new[(i, s)] = quotients[pos].coordinates(columns(g_rhs, range(a_new[(i, s)])))

        for (i, s), q in sorted(quotients.items()):
            # an absent h sends every class to 0; its target slot was
            # already checked against the window with d out of (i, s)
            chosen = q.representatives
            h_out = self._h.get((i, s))
            if not chosen or h_out is None:
                continue
            h_rhs = matmul(h_out, from_columns(chosen, self.e_dim(i, s)))
            if not any(h_rhs):
                continue
            t_pos = (i + 1, s - k2)
            if not new_lo <= t_pos[1] <= new_hi:
                raise InsufficientWindow(
                    "insufficient window: h' at (%d, %d) targets outside [%d, %d]"
                    % (i, s, new_lo, new_hi)
                )
            target = iota.get(t_pos)
            sols = memo.solve(target, a_new[t_pos], h_rhs, len(chosen)) if target else None
            if sols is None:
                raise InternalError("couples", "h of a surviving class left the image of f")
            h_new[(i, s)] = from_columns(sols, a_new[t_pos])

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

    a_basis = {}
    e_basis = {}

    def a_slot(i, s, tag):
        a_basis.setdefault((i, s), []).append(tag)

    def e_slot(i, s, tag):
        e_basis.setdefault((i, s), []).append(tag)

    for idx, (i, s) in enumerate(d.free_pieces):
        t = 0
        while s + k2 * t <= hi:
            a_slot(i, s + k2 * t, ("F", idx, t))
            t += 1
        e_slot(i, s, ("F", idx))
    for idx, (i, m, s) in enumerate(d.torsion_pieces):
        for t in range(m):
            a_slot(i, s + k2 * t, ("T", idx, t))
        e_slot(i, s, ("Tb", idx))
        e_slot(i - 1, s + k2 * m, ("Tt", idx))

    torsion_m = {idx: m for idx, (_, m, _) in enumerate(d.torsion_pieces)}

    def unit_map(sources, target_slot, image):
        """{(i, s): rows} over the source slots whose target slot is
        nonempty: column c holds a 1 at the row of image(tag c), when
        that tag lies in the target slot."""
        out = {}
        for (i, s), tags in sources.items():
            target = target_slot(i, s)
            if target:
                pos = {tag: r for r, tag in enumerate(target)}
                rows = [{} for _ in target]
                for c, tag in enumerate(tags):
                    if image(tag) in pos:
                        rows[pos[image(tag)]][c] = 1
                out[(i, s)] = rows
        return out

    def bottom(tag):
        kind, idx, t = tag
        return None if t else ("F" if kind == "F" else "Tb", idx)

    def top(etag):
        return ("T", etag[1], torsion_m[etag[1]] - 1) if etag[0] == "Tt" else None

    # a truncated tower's top slot has no successor tag, so f kills it
    f = unit_map(a_basis, lambda i, s: a_basis.get((i, s + k2)), lambda tag: tag[:2] + (tag[2] + 1,))
    g = unit_map(a_basis, lambda i, s: e_basis.get((i, s)), bottom)
    h = unit_map(e_basis, lambda i, s: a_basis.get((i + 1, s - k2)), top)

    return ExactCouple(
        d.k,
        (lo, hi),
        {key: len(tags) for key, tags in a_basis.items()},
        {key: len(tags) for key, tags in e_basis.items()},
        f,
        g,
        h,
        0,
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

    For r = 1..r_max the couple page at (p, q) = (hom, filt) must equal
    the hat page 2k(r-1)+1 at position (q, p - q).  Returns the first
    failing r, if any.  tables, when given, are couple_tables(d, n)
    for some n >= r_max, so a caller that needs the pages elsewhere
    derives the couple once.
    """
    from .pages import assembled_page_list

    if tables is None:
        tables = couple_tables(d, r_max)
    pages = assembled_page_list(d, True, (2 * d.k * r + 1 for r in range(r_max)))
    for r, page in enumerate(pages, 1):
        lhs = tables[r - 1].to_page()
        rhs = page.table()
        if lhs != rhs:
            return CorrespondenceResult(False, r_max, r)
    return CorrespondenceResult(True, r_max)
