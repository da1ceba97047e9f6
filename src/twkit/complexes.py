"""Bounded chain complexes of graded-free k[a]-modules, their a=0 and
a=1 specializations, Gaussian elimination, field homology, and the
connecting-homomorphism differential on the a=0 homology.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import exactla
from .algebra import (
    HOM_POLY,
    BigradedTable,
    GradedFreeModule,
    GradedRing,
    HomMatrix,
    hom_matrix_validate,
)


class ComplexError(ValueError):
    """Structural defect in a complex: bad shapes, inhomogeneous
    entries, or d^2 != 0."""


class InternalError(RuntimeError):
    """An internal invariant failed: a defect in twkit, not in its
    input.  stage names the computation that found it."""

    def __init__(self, stage: str, message: str):
        super().__init__("internal error in %s: %s" % (stage, message))
        self.stage = stage


class GradedComplex:
    """Bounded complex of graded-free k[a]-modules.

    modules: {homological degree i: GradedFreeModule}; differentials:
    {i: HomMatrix from C^i to C^{i+1}}.  Zero-rank modules are dropped,
    missing differentials mean zero maps.  Construction validates
    homogeneity of every differential and d^2 = 0.
    """

    __slots__ = ("ring", "modules", "differentials")

    def __init__(self, ring: GradedRing, modules, differentials, validate=True):
        mods = {int(i): m for i, m in modules.items() if m.rank > 0}
        diffs = {}
        for i, d in differentials.items():
            i = int(i)
            if d.nrows == 0 or d.ncols == 0:
                continue
            if i not in mods or (i + 1) not in mods:
                raise ComplexError(
                    "differential at degree %d has no matching modules" % i
                )
            diffs[i] = d
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "modules", mods)
        object.__setattr__(self, "differentials", diffs)
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("GradedComplex is immutable")

    def _validate(self):
        for i, d in sorted(self.differentials.items()):
            if d.ring != self.ring:
                raise ComplexError("ring mismatch in differential at degree %d" % i)
            if d.source_degrees != self.modules[i].degrees:
                raise ComplexError("source degrees mismatch at degree %d" % i)
            if d.target_degrees != self.modules[i + 1].degrees:
                raise ComplexError("target degrees mismatch at degree %d" % i)
            bad = hom_matrix_validate(d)
            if bad is not None:
                raise ComplexError(
                    "differential at degree %d is not homogeneous at entry %r"
                    % (i, bad)
                )
        for i, d in sorted(self.differentials.items()):
            nxt = self.differentials.get(i + 1)
            if nxt is not None and any(exactla.matmul(nxt.rows, d.rows)):
                raise ComplexError(
                    "d^2 != 0 on the square starting at degree %d (maps %d->%d->%d)"
                    % (i, i, i + 1, i + 2)
                )

    def degrees_present(self):
        return sorted(self.modules)

    def rank(self, i: int) -> int:
        m = self.modules.get(i)
        return m.rank if m else 0

    def total_rank(self) -> int:
        return sum(m.rank for m in self.modules.values())

    def differential(self, i: int) -> HomMatrix:
        """The differential out of degree i, materialized as a zero
        matrix when absent."""
        d = self.differentials.get(i)
        if d is not None:
            return d
        src = self.modules[i].degrees if i in self.modules else ()
        tgt = self.modules[i + 1].degrees if i + 1 in self.modules else ()
        return HomMatrix.zero(self.ring, src, tgt)

    def __eq__(self, other):
        return (
            isinstance(other, GradedComplex)
            and self.ring == other.ring
            and self.modules == other.modules
            and {i: d for i, d in self.differentials.items() if not d.is_zero()}
            == {i: d for i, d in other.differentials.items() if not d.is_zero()}
        )

    def __repr__(self):
        return "GradedComplex(k=%d, ranks=%r)" % (
            self.ring.k,
            {i: m.rank for i, m in sorted(self.modules.items())},
        )

    def shifted(self, di: int = 0, ds: int = 0) -> "GradedComplex":
        """||di|| {ds}: push homological degrees up by di and polynomial
        degrees up by ds.  No sign twist; none of the uses here depend
        on one."""
        return GradedComplex(
            self.ring,
            {i + di: m.shifted(ds) for i, m in self.modules.items()},
            {
                i + di: HomMatrix(
                    self.ring,
                    tuple(x + ds for x in d.source_degrees),
                    tuple(x + ds for x in d.target_degrees),
                    d.rows,
                )
                for i, d in self.differentials.items()
            },
            validate=False,
        )


def direct_sum(*complexes: GradedComplex) -> GradedComplex:
    """Block direct sum; generator order is summand order."""
    if not complexes:
        raise ValueError("empty direct sum needs a ring")
    ring = complexes[0].ring
    for c in complexes:
        if c.ring != ring:
            raise ValueError("ring mismatch in direct sum")
    degrees = {}
    for c in complexes:
        for i, m in c.modules.items():
            degrees.setdefault(i, []).extend(m.degrees)
    diffs = {}
    hom_degrees = set()
    for c in complexes:
        hom_degrees.update(c.differentials)
    for i in hom_degrees:
        rows = []
        coff = 0
        for c in complexes:
            d = c.differentials.get(i)
            if d is None:
                rows.extend({} for _ in range(c.rank(i + 1)))
            else:
                rows.extend({coff + cc: x for cc, x in row.items()} for row in d.rows)
            coff += c.rank(i)
        diffs[i] = HomMatrix(ring, tuple(degrees.get(i, ())), tuple(degrees.get(i + 1, ())), tuple(rows))
    return GradedComplex(
        ring,
        {i: GradedFreeModule(tuple(d)) for i, d in degrees.items()},
        diffs,
        validate=False,
    )


def complex_from_data(k: int, modules, differentials) -> GradedComplex:
    """Build and validate a complex from {i: [degrees]} and {i: rows}."""
    ring = GradedRing(k)
    mods = {int(i): GradedFreeModule(tuple(ds)) for i, ds in modules.items()}
    diffs = {}
    for i, rows in differentials.items():
        i = int(i)
        src = mods[i].degrees if i in mods else ()
        tgt = mods[i + 1].degrees if i + 1 in mods else ()
        diffs[i] = HomMatrix(ring, src, tgt, tuple(rows))
    return GradedComplex(ring, mods, diffs)


class FieldComplex:
    """Complex of graded C-spaces with a degree-preserving differential
    (the a -> 0 reduction).

    mats[i], the differential out of degree i, is a tuple of sparse
    rows, one per generator at degree i + 1: {col: value} maps of the
    nonzero entries, values canonical (an int when integral, a
    Fraction otherwise).  The constructor takes sparse rows or dense
    ones (sequences of rationals, one cell per generator at degree i);
    matrix(i) is the dense view.
    """

    __slots__ = ("degrees", "mats")

    def __init__(self, degrees, mats, validate=True):
        degs = {int(i): tuple(v) for i, v in degrees.items() if len(v)}
        ms = {}
        for i, rows in mats.items():
            i = int(i)
            ncols = len(degs.get(i, ()))
            # no rows, or no columns and nothing in them: a zero map
            if not rows or not (ncols or any(rows)):
                continue
            ms[i] = tuple(_sparse_row(row, ncols, i) for row in rows)
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "mats", ms)
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FieldComplex is immutable")

    def _label_ok(self, src_label, tgt_label):
        return src_label == tgt_label

    def _validate(self):
        for i, rows in sorted(self.mats.items()):
            src = self.degrees.get(i, ())
            tgt = self.degrees.get(i + 1, ())
            if len(rows) != len(tgt) or any(c < 0 or c >= len(src) for row in rows for c in row):
                raise ComplexError("shape mismatch at degree %d" % i)
            for r, row in enumerate(rows):
                for c in sorted(row):
                    if not self._label_ok(src[c], tgt[r]):
                        raise ComplexError(
                            "entry (%d, %d) at degree %d violates the grading"
                            % (r, c, i)
                        )
        for i, rows in sorted(self.mats.items()):
            nxt = self.mats.get(i + 1)
            if nxt is not None and any(exactla.matmul(nxt, rows)):
                raise ComplexError("d^2 != 0 on the square starting at degree %d" % i)

    def rank(self, i: int) -> int:
        return len(self.degrees.get(i, ()))

    def matrix(self, i: int):
        """Differential out of degree i as dense list rows (may be empty)."""
        rows = self.mats.get(i, ({},) * self.rank(i + 1))
        return [[row.get(c, 0) for c in range(self.rank(i))] for row in rows]


def _sparse_row(row, ncols, i):
    """{col: canonical value} of a sparse or dense row's nonzeros; a
    dense row must have ncols cells."""
    if isinstance(row, dict):
        items = row.items()
    elif len(row) != ncols:
        raise ComplexError("shape mismatch at degree %d" % i)
    else:
        items = enumerate(row)
    return {c: exactla.canonical(x) for c, x in items if x}


class FilteredFieldComplex(FieldComplex):
    """Complex of C-spaces with one filtration level per basis vector;
    the differential may only keep or lower the level (the a -> 1
    specialization, levels = old polynomial degrees)."""

    __slots__ = ("_profiles",)

    def __init__(self, degrees, mats, validate=True):
        super().__init__(degrees, mats, validate)
        object.__setattr__(self, "_profiles", {})

    @property
    def levels(self):
        return self.degrees

    def _label_ok(self, src_label, tgt_label):
        return tgt_label <= src_label

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
        {i: m.degrees for i, m in c.modules.items()},
        {i: d.reduced_mod_a() for i, d in c.differentials.items()},
        validate=False,
    )


def specialize_a_to_1(c: GradedComplex) -> FilteredFieldComplex:
    """Set a = 1: same generators, scalar entries survive verbatim, the
    old polynomial degree of each generator becomes its filtration
    level."""
    return FilteredFieldComplex(
        {i: m.degrees for i, m in c.modules.items()},
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
        return _eliminate_graded(c, hom_degree, row, col)
    if isinstance(c, FieldComplex):
        return _eliminate_field(c, hom_degree, row, col)
    raise TypeError("unsupported complex type")


def _without(row, j):
    """Sparse row with column j removed and later columns moved left."""
    return {c - (c > j): x for c, x in row.items() if c != j}


def _schur_complement(rows, row: int, col: int):
    """epsilon - gamma phi^{-1} delta on sparse rows: every row but
    `row`, less its multiple of that row that clears column `col`
    (exactla.clear_column, on a copy), with column `col` removed.  The
    caller checks that phi is nonzero."""
    rows = [dict(r) for r in rows]
    exactla.clear_column(rows, exactla.column_index(rows), row, col)
    return [_without(full, col) for r, full in enumerate(rows) if r != row]


def _eliminate_graded(c: GradedComplex, h: int, row: int, col: int) -> GradedComplex:
    d = c.differentials.get(h)
    if d is None:
        raise ComplexError("no differential at degree %d" % h)
    src = d.source_degrees
    tgt = d.target_degrees
    if not (0 <= col < len(src) and 0 <= row < len(tgt)):
        raise ComplexError("pivot position out of range")
    if src[col] != tgt[row]:
        raise ComplexError("pivot has positive a-exponent, not invertible")
    if col not in d.rows[row]:
        raise ComplexError("pivot entry is zero")

    new_src = tuple(x for i, x in enumerate(src) if i != col)
    new_tgt = tuple(x for i, x in enumerate(tgt) if i != row)
    mods = dict(c.modules)
    diffs = dict(c.differentials)

    if new_src:
        mods[h] = GradedFreeModule(new_src)
    else:
        mods.pop(h)
    if new_tgt:
        mods[h + 1] = GradedFreeModule(new_tgt)
    else:
        mods.pop(h + 1)

    diffs.pop(h, None)
    if new_src and new_tgt:
        diffs[h] = HomMatrix(c.ring, new_src, new_tgt, tuple(_schur_complement(d.rows, row, col)))

    prev = diffs.pop(h - 1, None)
    if prev is not None and new_src:
        diffs[h - 1] = HomMatrix(
            c.ring,
            prev.source_degrees,
            new_src,
            tuple(r for i, r in enumerate(prev.rows) if i != col),
        )
    nxt = diffs.pop(h + 1, None)
    if nxt is not None and new_tgt:
        diffs[h + 1] = HomMatrix(
            c.ring, new_tgt, nxt.target_degrees, tuple(_without(r, row) for r in nxt.rows)
        )
    return GradedComplex(c.ring, mods, diffs)


def _eliminate_field(c: FieldComplex, h: int, row: int, col: int) -> FieldComplex:
    rows = c.mats.get(h)
    if rows is None:
        raise ComplexError("no differential at degree %d" % h)
    src = c.degrees.get(h, ())
    tgt = c.degrees.get(h + 1, ())
    if not (0 <= col < len(src) and 0 <= row < len(tgt)):
        raise ComplexError("pivot position out of range")
    if src[col] != tgt[row]:
        raise ComplexError("pivot does not preserve the level, not invertible")
    if col not in rows[row]:
        raise ComplexError("pivot entry is zero")

    degs = dict(c.degrees)
    mats = dict(c.mats)
    degs[h] = tuple(x for i, x in enumerate(src) if i != col)
    degs[h + 1] = tuple(x for i, x in enumerate(tgt) if i != row)
    mats[h] = _schur_complement(rows, row, col)
    if h - 1 in mats:
        mats[h - 1] = [r for i, r in enumerate(mats[h - 1]) if i != col]
    if h + 1 in mats:
        mats[h + 1] = [_without(r, row) for r in mats[h + 1]]
    cls = type(c)
    return cls(degs, mats)


@dataclass(frozen=True)
class FieldHomologyBasis:
    """Homology of a field complex with pinned cycle representatives.

    dims: {i: dim}; representatives: {i: tuple of cycles};
    boundaries: {i: tuple of vectors spanning the image of d^{i-1}};
    bigraded: dimension table by (i, generator degree) when the input
    was graded, else None.  Every vector is sparse, a {coordinate:
    value} map of its nonzeros with canonical values.  Representatives
    come from reduced row echelon pivoting in generator order, so they
    are reproducible.
    """

    dims: dict
    representatives: dict
    boundaries: dict
    bigraded: BigradedTable | None

    def total_dim(self) -> int:
        return sum(self.dims.values())


def homology_field(fc: FieldComplex) -> FieldHomologyBasis:
    """Each differential d^i is eliminated once: its rref gives the
    kernel at degree i, and its pivot columns the image at degree i+1."""
    graded = not isinstance(fc, FilteredFieldComplex)
    kernels = {}
    images = {}
    for i, rows in fc.mats.items():
        reduction = exactla.row_reduce(rows)
        kernels[i] = exactla.kernel_from_reduction(reduction, fc.rank(i))
        images[i + 1] = exactla.columns(rows, reduction[1])

    dims = {}
    reps = {}
    bnds = {}
    bigraded = {}
    for i in sorted(fc.degrees):
        n = fc.rank(i)
        cycles = kernels[i] if i in kernels else [{j: 1} for j in range(n)]
        image = images.get(i, [])
        bnds[i] = tuple(image)
        # columns [image | cycles], one row per coordinate; the pivot
        # columns landing in the cycle block are the chosen representatives
        stacked = exactla.from_columns(image + cycles, n)
        pivots = exactla.row_reduce(stacked)[1] if image or cycles else []
        chosen = [cycles[p - len(image)] for p in pivots if p >= len(image)]
        dims[i] = len(chosen)
        reps[i] = tuple(chosen)
        if graded:
            degs = fc.degrees[i]
            for v in chosen:
                vdegs = {degs[c] for c in v}
                if len(vdegs) != 1:
                    raise ComplexError("representative mixes degrees")
                key = (i, vdegs.pop())
                bigraded[key] = bigraded.get(key, 0) + 1
    return FieldHomologyBasis(
        dims=dims,
        representatives=reps,
        boundaries=bnds,
        bigraded=BigradedTable(bigraded, HOM_POLY) if graded else None,
    )


@dataclass(frozen=True)
class FirstDifferential:
    """The induced differential on the a=0 homology.

    blocks[i] maps homology at degree i to homology at degree i+1 in
    the bases pinned by homology_field; entries drop the polynomial
    degree by 2k.  Each block is a tuple of rows, one per class at
    degree i+1, each a {col: value} map of the nonzero entries with
    canonical values (an int when integral, a Fraction otherwise); only
    nonzero blocks are stored.  block(i) is the dense view, for output.
    rep_degrees records the degree of each basis class.
    """

    k: int
    dims: dict
    rep_degrees: dict
    blocks: dict

    def block(self, i: int):
        """The block out of degree i as dense list rows (zeros if absent)."""
        rows = self.blocks.get(i, ({},) * self.dims.get(i + 1, 0))
        return [[row.get(c, 0) for c in range(self.dims.get(i, 0))] for row in rows]

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
    mod a is projected onto the pinned homology basis one homological
    degree up.  The result is homogeneous of bidegree (1, -2k).
    """
    fc = reduce_mod_a(c)
    hb = homology_field(fc)
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
        lifts = []
        for v, sigma in zip(reps, rep_degrees[i]):
            for t in targets.get(sigma, ()):
                row = d.rows[t]
                if sum(v[j] * x for j, x in row.items() if j in v):
                    raise ComplexError("lift of a mod-a cycle has nonzero a^0 image")
            w = {}
            for t in targets.get(sigma - 2 * k, ()):
                row = d.rows[t]
                acc = sum(v[j] * x for j, x in row.items() if j in v)
                if acc:
                    w[t] = acc
            lifts.append(w)
        # one elimination of [image | representatives | lifts], read as
        # solve reads it: free variables 0
        image = hb.boundaries.get(i + 1, ())
        nb = len(image) + len(reps_next)
        stacked = exactla.from_columns(image + reps_next + tuple(lifts), fc.rank(i + 1))
        sols = exactla.solution_from_reduction(exactla.row_reduce(stacked), nb, len(lifts))
        if sols is None:
            raise ComplexError("projection onto the homology basis failed")
        # the coordinates on the representatives, one column per lift
        block = [{} for _ in reps_next]
        for j, x in enumerate(sols):
            for p, y in x.items():
                if p >= len(image):
                    block[p - len(image)][j] = y
        if any(block):
            blocks[i] = tuple(block)

    for i in sorted(blocks):
        if i + 1 in blocks and any(exactla.matmul(blocks[i + 1], blocks[i])):
            raise ComplexError("induced differential fails d^2 = 0")
    return FirstDifferential(k=k, dims=dict(hb.dims), rep_degrees=rep_degrees, blocks=blocks)
