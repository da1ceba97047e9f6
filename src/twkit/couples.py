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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import HOM_POLY, BigradedTable
from .decompose import Decomposition, torsion_width
from .exactla import image_basis, kernel_basis, matmul, matvec, pivot_columns, rank, solve


class InsufficientWindow(RuntimeError):
    """A computation reached outside the stored polynomial window."""


def _zeros(nrows, ncols):
    return tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows))


def _cols_to_rows(cols, nrows):
    return tuple(tuple(col[r] for col in cols) for r in range(nrows))


def _is_zero(rows):
    return all(not x for row in rows for x in row)


class ExactCouple:
    """Windowed exact couple with per-bidegree rational matrices.

    a_dims / e_dims: {(i, s): dim}; f, g, h: matrices keyed by the
    source bidegree, shaped target-dim x source-dim.  g_shift records
    the accumulated polynomial bidegree of g.  Exactness of the
    triangle is validated on construction at every bidegree whose
    referenced slots all lie inside the window.
    """

    __slots__ = ("k", "window", "g_shift", "_a", "_e", "_f", "_g", "_h")

    def __init__(self, k, window, a_dims, e_dims, f, g, h, g_shift=0, validate=True):
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
        if validate:
            self._check_shapes()
            self._check_exactness()

    def __setattr__(self, name, value):
        raise AttributeError("ExactCouple is immutable")

    @staticmethod
    def _clean(maps):
        out = {}
        for key, rows in maps.items():
            rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
            if rows and rows[0] and not _is_zero(rows):
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
        return _zeros(self.a_dim(i, s + 2 * self.k), self.a_dim(i, s))

    def g_at(self, i, s):
        mat = self._g.get((i, s))
        if mat is not None:
            return mat
        return _zeros(self.e_dim(i, s + self.g_shift), self.a_dim(i, s))

    def h_at(self, i, s):
        mat = self._h.get((i, s))
        if mat is not None:
            return mat
        return _zeros(self.a_dim(i + 1, s - 2 * self.k), self.e_dim(i, s))

    def differential(self, i, s):
        """d = g o h out of E at (i, s); bidegree (1, g_shift - 2k)."""
        h = self.h_at(i, s)
        g = self.g_at(i + 1, s - 2 * self.k)
        return matmul(g, h, self.e_dim(i, s))

    def is_trivial(self) -> bool:
        return not self._a and not self._e

    # -- validation ----------------------------------------------------

    def _check_shapes(self):
        k2 = 2 * self.k
        for (i, s), rows in self._f.items():
            if not (self.inside(s) and self.inside(s + k2)):
                raise ValueError("f at (%d, %d) reaches outside the window" % (i, s))
            if len(rows) != self.a_dim(i, s + k2) or len(rows[0]) != self.a_dim(i, s):
                raise ValueError("f shape mismatch at (%d, %d)" % (i, s))
        for (i, s), rows in self._g.items():
            if not self.inside(s):
                raise ValueError("g at (%d, %d) reaches outside the window" % (i, s))
            if len(rows) != self.e_dim(i, s + self.g_shift) or len(rows[0]) != self.a_dim(i, s):
                raise ValueError("g shape mismatch at (%d, %d)" % (i, s))
        for (i, s), rows in self._h.items():
            if not self.inside(s - k2):
                raise InsufficientWindow(
                    "insufficient window: h at (%d, %d) targets outside it" % (i, s)
                )
            if len(rows) != self.a_dim(i + 1, s - k2) or len(rows[0]) != self.e_dim(i, s):
                raise ValueError("h shape mismatch at (%d, %d)" % (i, s))

    def _check_exactness(self):
        k2 = 2 * self.k
        lo, hi = self.window

        def interior(s):
            return lo + k2 <= s <= hi - k2

        for (i, s) in sorted(self._a):
            if not interior(s):
                continue
            dim = self._a[(i, s)]
            f_in = self.f_at(i, s - k2)
            f_out = self.f_at(i, s)
            g_out = self.g_at(i, s)
            h_in = self.h_at(i - 1, s + k2)
            if rank(list(f_in)) + rank(list(g_out)) != dim:
                raise ValueError("exactness fails at A (%d, %d): im f vs ker g" % (i, s))
            if not _is_zero(matmul(g_out, f_in, self.a_dim(i, s - k2))):
                raise ValueError("g o f is nonzero at (%d, %d)" % (i, s - k2))
            if rank(list(h_in)) + rank(list(f_out)) != dim:
                raise ValueError("exactness fails at A (%d, %d): im h vs ker f" % (i, s))
            if not _is_zero(matmul(f_out, h_in, self.e_dim(i - 1, s + k2))):
                raise ValueError("f o h is nonzero at (%d, %d)" % (i - 1, s + k2))
        for (i, s) in sorted(self._e):
            if not (self.inside(s - self.g_shift) and interior(s - self.g_shift)):
                continue
            if not self.inside(s - k2):
                continue
            g_in = self.g_at(i, s - self.g_shift)
            h_out = self.h_at(i, s)
            if rank(list(g_in)) + rank(list(h_out)) != self.e_dim(i, s):
                raise ValueError("exactness fails at E (%d, %d): im g vs ker h" % (i, s))
            if not _is_zero(matmul(h_out, g_in, self.a_dim(i, s - self.g_shift))):
                raise ValueError("h o g is nonzero at (%d, %d)" % (i, s - self.g_shift))

    # -- derivation ----------------------------------------------------

    def derive(self) -> "ExactCouple":
        """The derived couple: A' = im f, E' = ker(goh)/im(goh),
        f' the restriction, g'(f(b)) = g(b), h'([e]) = h(e).

        The window shrinks by 2k at each end.  Raises
        InsufficientWindow when a nonzero map cannot be represented in
        the shrunk window.
        """
        if self.is_trivial():
            return ExactCouple(
                self.k, self.window, {}, {}, {}, {}, {}, self.g_shift, validate=False
            )
        k2 = 2 * self.k
        lo, hi = self.window
        new_lo, new_hi = lo + k2, hi - k2
        if new_lo > new_hi:
            raise InsufficientWindow(
                "insufficient window: cannot derive inside [%d, %d]" % (lo, hi)
            )
        new_shift = self.g_shift - k2

        # E': subquotient basis per bidegree.  im(d in) sits inside
        # ker(d out); representatives are kernel columns extending it.
        reps = {}
        proj = {}
        e_new = {}
        for (i, s) in self.e_support():
            dim = self.e_dim(i, s)
            d_out = self.differential(i, s)
            kern = kernel_basis(list(d_out), ncols=dim)
            src = (i - 1, s + k2 - self.g_shift)
            if self.e_dim(*src):
                img = image_basis(list(self.differential(*src)))
            else:
                img = []
            stacked = img + kern
            matrix = _cols_to_rows(stacked, dim)
            chosen = [stacked[p] for p in pivot_columns(list(matrix)) if p >= len(img)]
            if chosen:
                e_new[(i, s)] = len(chosen)
            reps[(i, s)] = chosen
            proj[(i, s)] = (img, chosen)

        def project(pos, vec):
            img, chosen = proj.get(pos, ([], []))
            if not img and not chosen:
                if any(vec):
                    raise AssertionError("class fell outside the kernel basis")
                return []
            basis = img + chosen
            sols = solve(list(_cols_to_rows(basis, len(vec))), [vec], ncols=len(basis))
            if sols is None:
                raise AssertionError("class fell outside the kernel basis")
            return sols[0][len(img):]

        # A': image basis of f per bidegree, kept inside the new window.
        iota = {}
        a_new = {}
        for (i, s) in sorted((i, s + k2) for (i, s) in self._f):
            if not new_lo <= s <= new_hi:
                continue
            cols = image_basis(list(self.f_at(i, s - k2)))
            if cols:
                iota[(i, s)] = cols
                a_new[(i, s)] = len(cols)

        f_new = {}
        g_new = {}
        h_new = {}
        for (i, s), cols in sorted(iota.items()):
            # f' = f restricted to the image basis
            if s + k2 <= new_hi:
                f_cols = [matvec(self.f_at(i, s), col) for col in cols]
                target = iota.get((i, s + k2), [])
                if target:
                    sols = solve(
                        list(_cols_to_rows(target, self.a_dim(i, s + k2))),
                        f_cols,
                        ncols=len(target),
                    )
                    if sols is None:
                        raise AssertionError("f does not preserve its own image")
                    f_new[(i, s)] = _cols_to_rows(sols, len(target))
                elif any(any(v) for v in f_cols):
                    raise AssertionError("f does not preserve its own image")
            # g'(f(b)) = g(b): pull each basis column back through f
            back = solve(
                list(self.f_at(i, s - k2)), cols, ncols=self.a_dim(i, s - k2)
            )
            if back is None:
                raise AssertionError("image basis column not in the image of f")
            g_pos = (i, s + new_shift)
            g_cols = [
                project(g_pos, matvec(self.g_at(i, s - k2), b)) for b in back
            ]
            g_new[(i, s)] = _cols_to_rows(g_cols, e_new.get(g_pos, 0))

        for (i, s), chosen in sorted(reps.items()):
            if not chosen:
                continue
            h_vecs = [matvec(self.h_at(i, s), c) for c in chosen]
            if not any(any(v) for v in h_vecs):
                continue
            t_pos = (i + 1, s - k2)
            if not new_lo <= t_pos[1] <= new_hi:
                raise InsufficientWindow(
                    "insufficient window: h' at (%d, %d) targets outside [%d, %d]"
                    % (i, s, new_lo, new_hi)
                )
            target = iota.get(t_pos, [])
            sols = (
                solve(
                    list(_cols_to_rows(target, self.a_dim(*t_pos))),
                    h_vecs,
                    ncols=len(target),
                )
                if target
                else None
            )
            if sols is None:
                raise AssertionError("h of a surviving class left the image of f")
            h_new[(i, s)] = _cols_to_rows(sols, len(target))

        return ExactCouple(
            self.k,
            (new_lo, new_hi),
            a_new,
            e_new,
            f_new,
            g_new,
            h_new,
            new_shift,
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

    f = {}
    for (i, s), tags in a_basis.items():
        target = a_basis.get((i, s + k2))
        if not target:
            continue
        pos = {tag: r for r, tag in enumerate(target)}
        rows = [[Fraction(0)] * len(tags) for _ in target]
        hit = False
        for c, tag in enumerate(tags):
            kind, idx, t = tag
            succ = (kind, idx, t + 1)
            if kind == "T" and t + 1 >= torsion_m[idx]:
                continue
            if succ in pos:
                rows[pos[succ]][c] = Fraction(1)
                hit = True
        if hit:
            f[(i, s)] = tuple(map(tuple, rows))

    g = {}
    for (i, s), tags in a_basis.items():
        etags = e_basis.get((i, s))
        if not etags:
            continue
        pos = {tag: r for r, tag in enumerate(etags)}
        rows = [[Fraction(0)] * len(tags) for _ in etags]
        hit = False
        for c, tag in enumerate(tags):
            kind, idx, t = tag
            if t != 0:
                continue
            etag = ("F", idx) if kind == "F" else ("Tb", idx)
            if etag in pos:
                rows[pos[etag]][c] = Fraction(1)
                hit = True
        if hit:
            g[(i, s)] = tuple(map(tuple, rows))

    h = {}
    for (i, s), etags in e_basis.items():
        target = a_basis.get((i + 1, s - k2))
        if not target:
            continue
        pos = {tag: r for r, tag in enumerate(target)}
        rows = [[Fraction(0)] * len(etags) for _ in target]
        hit = False
        for c, etag in enumerate(etags):
            if etag[0] != "Tt":
                continue
            idx = etag[1]
            top = ("T", idx, torsion_m[idx] - 1)
            if top in pos:
                rows[pos[top]][c] = Fraction(1)
                hit = True
        if hit:
            h[(i, s)] = tuple(map(tuple, rows))

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


@dataclass(frozen=True)
class CorrespondenceResult:
    ok: bool
    checked: int
    first_mismatch: int = None

    def __bool__(self):
        return self.ok


def correspondence_check(d: Decomposition, r_max: int) -> CorrespondenceResult:
    """Couple pages against assembled hat pages.

    For r = 1..r_max the couple page at (p, q) = (hom, filt) must equal
    the hat page 2k(r-1)+1 at position (q, p - q).  Returns the first
    failing r, if any.
    """
    from .pages import assembled_pages

    current = couple_from_decomposition(d)
    for r in range(1, r_max + 1):
        if r > 1:
            current = current.derive()
        lhs = current.e_table().to_page()
        rhs = assembled_pages(d, True, 2 * d.k * (r - 1) + 1).table()
        if lhs != rhs:
            return CorrespondenceResult(False, r_max, r)
    return CorrespondenceResult(True, r_max)
