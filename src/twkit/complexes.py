"""Bounded chain complexes of graded-free k[a]-modules, validated on
every construction, their a=0 and a=1 specializations, Gaussian
elimination, field homology, and the connecting-homomorphism
differential on the a=0 homology.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from . import exactla
from .algebra import (
    BigradedTable,
    GradedRing,
    HomMatrix,
    check_shape,
)

_SHAPE_REFUSAL = "differential at degree %d: %s"


class ComplexError(ValueError):
    """Structural defect in a complex: bad shapes, inhomogeneous
    entries, or d^2 != 0."""


class InternalError(RuntimeError):
    """An internal invariant failed: a defect in twkit, not in its
    input.  stage names the computation that found it."""

    def __init__(self, stage: str, message: str):
        super().__init__("internal error in %s: %s" % (stage, message))
        self.stage = stage


def check_differentials(degrees, mats, step):
    """Refuse a complex on {i: generator degrees} and {i: sparse rows
    out of i}, shapes checked already: first an entry whose degree drop,
    source degree minus target degree, is negative or not a multiple of
    step (no drop at all when step is 0), the first in degree then
    row-major order; then the first square with d^2 != 0."""
    for i, rows in sorted(mats.items()):
        src = degrees.get(i, ())
        for r, (tdeg, row) in enumerate(zip(degrees.get(i + 1, ()), rows)):
            if step:
                bad = [c for c in row if src[c] < tdeg or (src[c] - tdeg) % step]
            else:
                bad = [c for c in row if src[c] != tdeg]
            if bad:
                raise ComplexError(
                    "differential at degree %d is not homogeneous at entry %r" % (i, (r, min(bad)))
                )
    for i, rows in sorted(mats.items()):
        nxt = mats.get(i + 1)
        if nxt is not None and any(exactla.matmul(nxt, rows)):
            raise ComplexError(
                "d^2 != 0 on the square starting at degree %d (maps %d->%d->%d)"
                % (i, i, i + 1, i + 2)
            )


class GradedComplex:
    """Bounded complex of graded-free k[a]-modules.

    The constructor takes degrees, {homological degree i: generator
    degrees}, and differentials, {i: sparse rows of d^i: C^i -> C^{i+1},
    one per generator at degree i + 1}, the shape FieldComplex takes.
    It keeps degrees as {i: tuple} and differentials as {i: HomMatrix}
    on the degrees at i and i + 1.  Zero-rank degrees are dropped,
    missing differentials mean zero maps, and nonzero rows without
    generators on both sides are refused.  Every construction checks
    that each entry lowers the degree by a multiple of 2k, and d^2 = 0.
    """

    __slots__ = ("ring", "degrees", "differentials")

    def __init__(self, ring: GradedRing, degrees, differentials):
        degs = {int(i): tuple(v) for i, v in degrees.items() if len(v)}
        diffs = {}
        for i, rows in differentials.items():
            i = int(i)
            if i in degs and i + 1 in degs:
                try:
                    diffs[i] = HomMatrix(ring, degs[i], degs[i + 1], tuple(rows))
                except ValueError as e:
                    raise ValueError(_SHAPE_REFUSAL % (i, e)) from None
            elif any(rows):
                raise ComplexError(
                    "differential at degree %d has no matching modules" % i
                )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "differentials", diffs)
        check_differentials(degs, {i: d.rows for i, d in diffs.items()}, ring.a_degree)

    def __setattr__(self, name, value):
        raise AttributeError("GradedComplex is immutable")

    def rank(self, i: int) -> int:
        return len(self.degrees.get(i, ()))

    def total_rank(self) -> int:
        return sum(map(len, self.degrees.values()))

    def __eq__(self, other):
        return (
            isinstance(other, GradedComplex)
            and self.ring == other.ring
            and self.degrees == other.degrees
            and {i: d for i, d in self.differentials.items() if not d.is_zero()}
            == {i: d for i, d in other.differentials.items() if not d.is_zero()}
        )

    def __repr__(self):
        return "GradedComplex(k=%d, ranks=%r)" % (
            self.ring.k,
            {i: len(v) for i, v in sorted(self.degrees.items())},
        )


def complex_from_data(k: int, modules, differentials) -> GradedComplex:
    """Build and validate a complex from {i: [degrees]} and {i: dense
    rows}, the one place dense cells are read: their shape is checked
    here, row count first, and the rows made sparse."""
    degrees = {int(i): tuple(ds) for i, ds in modules.items()}
    diffs = {}
    for i, rows in differentials.items():
        i = int(i)
        src, tgt = degrees.get(i, ()), degrees.get(i + 1, ())
        if len(rows) != len(tgt):
            raise ValueError(_SHAPE_REFUSAL % (i, "row count does not match target rank"))
        if any(len(row) != len(src) for row in rows):
            raise ValueError(_SHAPE_REFUSAL % (i, "column count does not match source rank"))
        diffs[i] = [{c: x for c, x in enumerate(row) if x} for row in rows]
    return GradedComplex(GradedRing(k), degrees, diffs)


class FieldComplex:
    """Complex of graded C-spaces with a degree-preserving differential
    (the a -> 0 reduction).

    mats[i], the differential out of degree i, is a tuple of sparse
    rows, one per generator at degree i + 1: {col: value} maps of the
    nonzero entries, values canonical (an int when integral, a
    Fraction otherwise).  The constructor takes sparse rows only;
    complex_from_data alone reads dense cells.  Unless validate is
    false, it checks shapes, that no entry changes the degree (in a
    filtered complex, that none raises the level), and d^2 = 0.
    """

    __slots__ = ("degrees", "mats")
    _step = 0

    def __init__(self, degrees, mats, validate=True):
        degs = {int(i): tuple(v) for i, v in degrees.items() if len(v)}
        ms = {}
        for i, rows in mats.items():
            i = int(i)
            # no rows, or no columns and nothing in them: a zero map
            if not rows or not (degs.get(i) or any(rows)):
                continue
            if validate:
                try:
                    check_shape(rows, len(degs.get(i + 1, ())), len(degs.get(i, ())))
                except ValueError as e:
                    raise ValueError(_SHAPE_REFUSAL % (i, e)) from None
            ms[i] = tuple({c: exactla.canonical(x) for c, x in row.items() if x} for row in rows)
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "mats", ms)
        if validate:
            check_differentials(degs, ms, self._step)

    def __setattr__(self, name, value):
        raise AttributeError("FieldComplex is immutable")

    def rank(self, i: int) -> int:
        return len(self.degrees.get(i, ()))



class FilteredFieldComplex(FieldComplex):
    """Complex of C-spaces with one filtration level per basis vector,
    held in degrees; the differential may only keep or lower the level
    (the a -> 1 specialization, levels = old polynomial degrees)."""

    __slots__ = ("_profiles",)
    _step = 1

    def __init__(self, degrees, mats, validate=True):
        super().__init__(degrees, mats, validate)
        object.__setattr__(self, "_profiles", {})

    def lowered_rank(self, n: int, above: int, upto: int) -> int:
        """Rank of the differential out of degree n from the generators
        at level <= upto to the targets at level > above.

        Built on first use and kept per degree: for each distinct set of
        target rows, one elimination with the columns sorted by level,
        whose pivot columns' levels answer every upto by bisection.
        """
        if n not in self._profiles:
            src, tgt = self.degrees.get(n, ()), self.degrees.get(n + 1, ())
            order = sorted(range(len(src)), key=src.__getitem__)
            at = {j: p for p, j in enumerate(order)}
            rows = [{at[j]: x for j, x in row.items()} for row in self.mats.get(n, ())]
            cuts = sorted(set(tgt))
            pivot_levels = []
            for b in [float("-inf")] + cuts:
                kept = [row for row, lv in zip(rows, tgt) if lv > b]
                pivots = exactla.row_reduce(kept)[1] if kept else []
                pivot_levels.append([src[order[j]] for j in pivots])
            self._profiles[n] = cuts, pivot_levels
        cuts, pivot_levels = self._profiles[n]
        return bisect_right(pivot_levels[bisect_right(cuts, above)], upto)


def reduce_mod_a(c: GradedComplex) -> FieldComplex:
    """Set a = 0: keep exponent-0 scalars, kill everything else."""
    return FieldComplex(
        c.degrees,
        {i: d.reduced_mod_a() for i, d in c.differentials.items()},
        validate=False,
    )


def specialize_a_to_1(c: GradedComplex) -> FilteredFieldComplex:
    """Set a = 1: same generators, scalar entries survive verbatim, the
    old polynomial degree of each generator becomes its filtration
    level."""
    return FilteredFieldComplex(
        c.degrees,
        {i: d.rows for i, d in c.differentials.items()},
        validate=False,
    )


def gaussian_eliminate(c, hom_degree: int, row: int, col: int):
    """Cancel a contractible pair across the differential at hom_degree.

    The pivot entry must be invertible in the graded sense: a nonzero
    scalar joining generators of equal degree (equal filtration level in
    the filtered case).  Returns the homotopy-equivalent complex on the
    remaining generators with the corrected differential
    epsilon - gamma phi^{-1} delta.
    """
    if isinstance(c, GradedComplex):
        return GradedComplex(c.ring, *_cancel(
            c.degrees, {i: d.rows for i, d in c.differentials.items()},
            hom_degree, row, col, "pivot has positive a-exponent, not invertible",
        ))
    if isinstance(c, FieldComplex):
        return type(c)(*_cancel(
            c.degrees, c.mats, hom_degree, row, col, "pivot does not preserve the level, not invertible"
        ))
    raise TypeError("unsupported complex type")


def _without(row, j):
    """Sparse row with column j removed and later columns moved left."""
    return {c - (c > j): x for c, x in row.items() if c != j}


def _cancel(degrees, mats, h, row, col, not_invertible):
    """gaussian_eliminate on {i: generator degrees or levels} and {i:
    sparse rows out of i}.  Each row of d^h loses the multiple of row
    `row` that clears column `col` (exactla.clear_column, on a copy),
    then row `row` and column `col` go, row `col` of d^{h-1}, column `row`
    of d^{h+1}, emptied degrees and every map that touches them too."""
    rows = mats.get(h)
    if rows is None:
        raise ComplexError("no differential at degree %d" % h)
    src, tgt = degrees.get(h, ()), degrees.get(h + 1, ())
    if not (0 <= col < len(src) and 0 <= row < len(tgt)):
        raise ComplexError("pivot position out of range")
    if src[col] != tgt[row]:
        raise ComplexError(not_invertible)
    if col not in rows[row]:
        raise ComplexError("pivot entry is zero")
    degrees, mats = dict(degrees), dict(mats)
    degrees[h] = src[:col] + src[col + 1:]
    degrees[h + 1] = tgt[:row] + tgt[row + 1:]
    rows = [dict(r) for r in rows]
    for i, a, _ in exactla.clear_column(rows, exactla.column_index(rows), row, col):
        rows[i] = exactla.divided(rows[i], a)
    mats[h] = [_without(full, col) for r, full in enumerate(rows) if r != row]
    if h - 1 in mats:
        mats[h - 1] = [r for i, r in enumerate(mats[h - 1]) if i != col]
    if h + 1 in mats:
        mats[h + 1] = [_without(r, row) for r in mats[h + 1]]
    degrees = {i: v for i, v in degrees.items() if v}
    return degrees, {i: m for i, m in mats.items() if i in degrees and i + 1 in degrees}


@dataclass(frozen=True)
class FieldHomologyBasis:
    """Homology of a field complex with pinned cycle representatives.

    dims: {i: dim}; representatives: {i: tuple of cycles};
    boundaries: {i: tuple of vectors spanning the image of d^{i-1}};
    bigraded: dimension table by (i, generator degree) when the input
    was graded, else None; subquotients: {i: the exactla.Subquotient
    they come from, which reads a cycle's coordinates on them}.  Every
    vector is a {coordinate: value} map of its nonzeros, canonical.
    The representatives are reproducible: kernel basis cycles of the
    rref of d^i that greedy column pivoting of [boundaries | cycles]
    picks.
    """

    dims: dict
    representatives: dict
    boundaries: dict
    bigraded: BigradedTable | None
    subquotients: dict = field(default_factory=dict)


def homology_field(fc: FieldComplex) -> FieldHomologyBasis:
    """One exactla.Subquotient per degree: each differential d^i is
    eliminated once, its rref giving the kernel at degree i and its
    pivot columns the image at degree i+1, and the boundaries are
    eliminated once more, in cycle coordinates, to pin the
    representatives."""
    graded = not isinstance(fc, FilteredFieldComplex)
    quotients = exactla.homology(fc.mats, {i: fc.rank(i) for i in sorted(fc.degrees)}, lambda i: i - 1)
    bigraded = {}
    for i, q in quotients.items() if graded else ():
        for v in q.representatives:
            vdegs = {fc.degrees[i][c] for c in v}
            if len(vdegs) != 1:
                raise ComplexError("representative mixes degrees")
            key = (i, vdegs.pop())
            bigraded[key] = bigraded.get(key, 0) + 1
    return FieldHomologyBasis(
        dims={i: len(q.representatives) for i, q in quotients.items()},
        representatives={i: q.representatives for i, q in quotients.items()},
        boundaries={i: q.boundaries for i, q in quotients.items()},
        bigraded=BigradedTable(bigraded) if graded else None,
        subquotients=quotients,
    )


@dataclass(frozen=True)
class FirstDifferential:
    """The induced differential on the a=0 homology.

    blocks[i] maps homology at degree i to homology at degree i+1 in
    the bases pinned by homology_field; entries drop the polynomial
    degree by 2k.  Each block is a tuple of rows, one per class at
    degree i+1, each a {col: value} map of the nonzero entries with
    canonical values (an int when integral, a Fraction otherwise); only
    nonzero blocks are stored, as sparse rows only (complex_from_data
    alone reads dense cells).  rep_degrees records each class's degree.
    """

    k: int
    dims: dict
    rep_degrees: dict
    blocks: dict

    def ranks(self):
        """{i: rank of the block out of i} over the stored blocks."""
        return {i: exactla.rank(b) for i, b in sorted(self.blocks.items())}

    def rank(self) -> int:
        return sum(self.ranks().values())

    def nonzero_degrees(self):
        """Degrees i where the block out of i has a nonzero entry."""
        return sorted(i for i, b in self.blocks.items() if any(b))

    def is_zero(self) -> bool:
        return not self.nonzero_degrees()


def first_differential(c: GradedComplex) -> FirstDifferential:
    """Lift each a=0 homology class, apply d, divide by a, project back.

    The representative's coordinate vector is reused verbatim as an
    exponent-0 chain over k[a]; d of that chain is divisible by a
    because the class is a cycle mod a, and the a^1 coefficient reduced
    mod a is a cycle mod a one homological degree up.  That is checked
    with one product by d mod a.  The lift's coordinates on the pinned
    representatives are then read off by that degree's subquotient (see
    exactla.Subquotient), with no further elimination.  The result is
    homogeneous of bidegree (1, -2k).
    """
    fc = reduce_mod_a(c)
    return induced_differential(c, fc, homology_field(fc))


def induced_differential(c: GradedComplex, fc: FieldComplex, hb: FieldHomologyBasis) -> FirstDifferential:
    """first_differential's lift step, on c's mod-a reduction fc and its homology hb."""
    k = c.ring.k
    rep_degrees = {
        i: tuple(fc.degrees[i][min(v)] for v in reps) for i, reps in hb.representatives.items()
    }

    blocks = {}
    for i in sorted(hb.dims):
        reps = hb.representatives[i]
        reps_next = hb.representatives.get(i + 1, ())
        d = c.differentials.get(i)
        if not reps or not reps_next or d is None:
            continue
        # a representative of degree sigma meets only targets of degree
        # sigma (its a^0 image, zero on a mod-a cycle) and sigma - 2k
        # (its a^1 image, the lift)
        targets = {}
        for t, tdeg in enumerate(d.target_degrees):
            targets.setdefault(tdeg, []).append(t)

        def image(v, tdeg):
            sums = ((t, sum(v[j] * x for j, x in d.rows[t].items() if j in v)) for t in targets.get(tdeg, ()))
            return {t: y for t, y in sums if y}

        lifts = []
        for v, sigma in zip(reps, rep_degrees[i]):
            if image(v, sigma):
                raise ComplexError("lift of a mod-a cycle has nonzero a^0 image")
            lifts.append(image(v, sigma - 2 * k))
        # the coordinates read only the free columns, so check first
        # that the lifts are mod-a cycles
        if any(exactla.matmul(fc.mats.get(i + 1, ()), exactla.from_columns(lifts, fc.rank(i + 1)))):
            raise ComplexError("projection onto the homology basis failed")
        block = hb.subquotients[i + 1].coordinates(lifts)
        if any(block):
            blocks[i] = tuple(block)

    for i in sorted(blocks):
        if i + 1 in blocks and any(exactla.matmul(blocks[i + 1], blocks[i])):
            raise ComplexError("induced differential fails d^2 = 0")
    return FirstDifferential(k=k, dims=dict(hb.dims), rep_degrees=rep_degrees, blocks=blocks)
