"""Bounded chain complexes of graded-free k[a]-modules, validated on
every construction, their a=0 and a=1 specializations, Gaussian
elimination of one pair or of every exponent-0 pair (the minimal
complex), field homology, and the connecting-homomorphism
differential on the a=0 homology.
Every complex type holds one store, degrees and mats (see
FieldComplex), built by algebra.canonical_rows; the specializations
read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import exactla
from .algebra import (
    BigradedTable,
    GradedRing,
    HomMatrix,
    canonical_rows,
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


def _canonical_rows(rows, degrees, i):
    """canonical_rows of d^i on {i: generator degrees}, its refusal
    naming the degree."""
    try:
        return canonical_rows(rows, len(degrees.get(i + 1, ())), len(degrees.get(i, ())))
    except ValueError as e:
        raise ValueError(_SHAPE_REFUSAL % (i, e)) from None


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
    degrees}, and mats, {i: sparse rows of d^i: C^i -> C^{i+1}, one per
    generator at degree i + 1}, and keeps them as FieldComplex does:
    degrees as {i: tuple}, mats as {i: tuple of new canonical rows}.
    Zero-rank degrees are dropped, missing maps mean zero maps, and
    nonzero rows without generators on both sides are refused.  Every
    construction checks that each entry lowers the degree by a multiple
    of 2k, and d^2 = 0.  differentials is the output view.
    """

    __slots__ = ("ring", "degrees", "mats")

    def __init__(self, ring: GradedRing, degrees, mats):
        degs = {int(i): tuple(v) for i, v in degrees.items() if len(v)}
        ms = {}
        for i, rows in mats.items():
            i = int(i)
            if i in degs and i + 1 in degs:
                ms[i] = _canonical_rows(rows, degs, i)
            elif any(rows):
                raise ComplexError(
                    "differential at degree %d has no matching modules" % i
                )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "mats", ms)
        check_differentials(degs, ms, ring.a_degree)

    @property
    def differentials(self):
        """{i: a HomMatrix view of d^i}, built from mats on each read."""
        degs = self.degrees
        return {i: HomMatrix(self.ring, degs[i], degs[i + 1], rows) for i, rows in self.mats.items()}

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
            and {i: m for i, m in self.mats.items() if any(m)}
            == {i: m for i, m in other.mats.items() if any(m)}
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
    Fraction otherwise), as in GradedComplex.  The constructor takes
    sparse rows only.  Unless validate is false, it builds them anew
    and checks shapes, that no entry changes the degree (in a filtered
    complex, that none raises the level), and d^2 = 0; else it keeps
    the rows it is given, which must be canonical.
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
            ms[i] = _canonical_rows(rows, degs, i) if validate else rows
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

    __slots__ = ("_gaps",)
    _step = 1

    def gaps(self):
        """{(n, p): sorted gaps of the degree-n generators at level p},
        read off persistence_pairs (see twkit.pages), built on first use
        and kept; an unpaired generator's is infinite."""
        if getattr(self, "_gaps", None) is None:
            ends = {}
            for n, j, t in persistence_pairs(self.degrees, self.mats):
                src, tgt = self.degrees[n][j], self.degrees[n + 1][t]
                if src < tgt:
                    raise InternalError("pages", "d^%d pairs source %d at level %d with target %d at "
                                        "level %d above it" % (n, j, src, t, tgt))
                ends[n, j] = ends[n + 1, t] = src - tgt
            gaps = {}
            for n, levels in self.degrees.items():
                for j, p in enumerate(levels):
                    gaps.setdefault((n, p), []).append(ends.get((n, j), float("inf")))
            object.__setattr__(self, "_gaps", {key: sorted(g) for key, g in gaps.items()})
        return self._gaps


def persistence_pairs(degrees, mats):
    """The persistence pairing of the complex on {n: generator levels}
    and {n: sparse rows of d^n}, one elimination per degree: a list of
    (n, j, t), source j of d^n paired with the target t it kills.
    Targets go by descending level, then index; each is paired with the
    lowest-level source holding it, the first on a tie, whose row then
    clears the target's column from the others.  Sources paired as
    targets of d^(n-1) are skipped (clearing).  Levels are not checked:
    each reader checks what it relies on."""
    pairs, ends = [], set()
    for n in sorted(degrees):
        src, tgt = degrees[n], degrees.get(n + 1, ())
        # sources as rows keyed by target, less the cleared ones
        rows = [{} for _ in src]
        for t, row in enumerate(mats.get(n, ())):
            for j, x in row.items():
                if j not in ends:
                    rows[j][t] = x
        holders = exactla.column_index(rows)
        ends = set()
        for t in sorted(holders, key=lambda t: (tgt[t], t), reverse=True):
            if holders[t]:
                j = min(holders[t], key=lambda j: (src[j], j))
                for i, a in exactla.clear_column(rows, holders, j, t):
                    rows[i] = exactla.divided(rows[i], a)
                for u in rows[j]:
                    holders[u].discard(j)
                pairs.append((n, j, t))
                ends.add(t)
    return pairs


def reduce_mod_a(c: GradedComplex) -> FieldComplex:
    """Set a = 0: keep exponent-0 scalars, kill everything else, in one
    pass over the nonzeros."""
    degs, mats = c.degrees, {}
    for i, rows in c.mats.items():
        src = degs[i]
        mats[i] = tuple({col: x for col, x in row.items() if src[col] == tdeg} for tdeg, row in zip(degs[i + 1], rows))
    return FieldComplex(degs, mats, validate=False)


def specialize_a_to_1(c: GradedComplex) -> FilteredFieldComplex:
    """Set a = 1: same generators, c's own rows, the old polynomial
    degree of each generator becomes its filtration level."""
    return FilteredFieldComplex(c.degrees, c.mats, validate=False)


def gaussian_eliminate(c, hom_degree: int, row: int, col: int):
    """Cancel a contractible pair across the differential at hom_degree.

    The pivot entry must be invertible in the graded sense: a nonzero
    scalar joining generators of equal degree (equal filtration level in
    the filtered case).  Returns the homotopy-equivalent complex on the
    remaining generators with the corrected differential
    epsilon - gamma phi^{-1} delta.
    """
    if isinstance(c, GradedComplex):
        not_invertible = "pivot has positive a-exponent, not invertible"
    elif isinstance(c, FieldComplex):
        not_invertible = "pivot does not preserve the level, not invertible"
    else:
        raise TypeError("unsupported complex type")
    rows = c.mats.get(hom_degree)
    if rows is None:
        raise ComplexError("no differential at degree %d" % hom_degree)
    src, tgt = c.degrees.get(hom_degree, ()), c.degrees.get(hom_degree + 1, ())
    if not (0 <= col < len(src) and 0 <= row < len(tgt)):
        raise ComplexError("pivot position out of range")
    if src[col] != tgt[row]:
        raise ComplexError(not_invertible)
    if col not in rows[row]:
        raise ComplexError("pivot entry is zero")
    out = _cancel(c.degrees, c.mats, lambda h, r, _: col if (h, r) == (hom_degree, row) else None)
    return GradedComplex(c.ring, *out) if isinstance(c, GradedComplex) else type(c)(*out)


def minimal_complex(c: GradedComplex) -> GradedComplex:
    """c with every exponent-0 pair cancelled: the k[a]-homotopy-equivalent
    complex whose mod-a differential is zero.  One pass per degree,
    ascending, and in d^h one row at a time: the row's lowest column
    whose entry joins generators of equal degree is the pivot.  One pass
    is enough: a pivot row's entries lie at or above its target's degree,
    so the fill-in it leaves in a row passed over, whose entries all lie
    above that row's target, is again of positive exponent, and the
    passes of later degrees only drop rows of d^h.  The result is
    validated; a failure there is a defect in twkit."""
    degs = c.degrees

    def pivot(h, r, row):
        src, tdeg = degs[h], degs[h + 1][r]
        return min((j for j in row if src[j] == tdeg), default=None)

    try:
        return GradedComplex(c.ring, *_cancel(degs, c.mats, pivot))
    except ComplexError as e:
        raise InternalError("minimal_complex", str(e)) from None


def _cancel(degrees, mats, pivot):
    """Cancel pairs on {i: generator degrees or levels} and {i: sparse
    rows out of i}, the one cancellation body: degree by degree in
    ascending order, and in d^h row by row, pivot(h, r, row) names the
    column j whose entry pairs source j with target r, or None.  Each
    other row of d^h holding column j loses the multiple of row r that
    clears it (exactla.clear_column, on a copy, then exactla.divided),
    and row r and column j go, with row j of d^(h-1) and column r of
    d^(h+1); emptied degrees and every map that touches them go too."""
    dead = {i: set() for i in degrees}
    kept = {}
    for h in sorted(mats):
        gone = dead[h]
        rows = [{j: x for j, x in row.items() if j not in gone} for row in mats[h]]
        holders = exactla.column_index(rows)
        for r in range(len(rows)):
            j = pivot(h, r, rows[r])
            if j is None:
                continue
            for i, a in exactla.clear_column(rows, holders, r, j):
                rows[i] = exactla.divided(rows[i], a)
            for u in rows[r]:
                holders[u].discard(r)
            gone.add(j)
            dead[h + 1].add(r)
        kept[h] = rows
    live = {i: [j for j in range(len(v)) if j not in dead[i]] for i, v in degrees.items()}
    degrees = {i: tuple(degrees[i][j] for j in js) for i, js in live.items() if js}
    out = {}
    for h, rows in kept.items():
        if h in degrees and h + 1 in degrees:
            index = {j: n for n, j in enumerate(live[h])}
            out[h] = [{index[j]: x for j, x in rows[r].items()} for r in live[h + 1]]
    return degrees, out


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
    quotients = exactla.homology(fc.mats, {i: fc.rank(i) for i in sorted(fc.degrees)})
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
        rows = c.mats.get(i)
        if not reps or not reps_next or rows is None:
            continue
        # a representative of degree sigma meets only targets of degree
        # sigma (its a^0 image, zero on a mod-a cycle) and sigma - 2k
        # (its a^1 image, the lift)
        targets = {}
        for t, tdeg in enumerate(c.degrees[i + 1]):
            targets.setdefault(tdeg, []).append(t)

        def image(v, tdeg):
            sums = ((t, sum(v[j] * x for j, x in rows[t].items() if j in v)) for t in targets.get(tdeg, ()))
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
