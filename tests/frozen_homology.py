"""homology_field and first_differential frozen before they moved to
cycle coordinates, as the reference the rewrite is checked against
(tests/test_frozen_homology.py).

The mod-a homology picks its representatives by eliminating the stacked
[image | cycles] columns over every coordinate, and the first
differential projects each lift by eliminating [image | representatives
| lifts] over every coordinate one degree up.  Only the types they
return come from twkit; the code is kept as it was.
"""

from twkit import exactla
from twkit.algebra import BigradedTable
from twkit.complexes import (
    ComplexError,
    FieldComplex,
    FieldHomologyBasis,
    FilteredFieldComplex,
    FirstDifferential,
    GradedComplex,
    reduce_mod_a,
)


def reference_homology_field(fc: FieldComplex) -> FieldHomologyBasis:
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
        bigraded=BigradedTable(bigraded) if graded else None,
    )


def reference_first_differential(c: GradedComplex) -> FirstDifferential:
    """Lift each a=0 homology class, apply d, divide by a, project back.

    The representative's coordinate vector is reused verbatim as an
    exponent-0 chain over k[a]; d of that chain is divisible by a
    because the class is a cycle mod a, and the a^1 coefficient reduced
    mod a is projected onto the pinned homology basis one homological
    degree up.  The result is homogeneous of bidegree (1, -2k).
    """
    fc = reduce_mod_a(c)
    hb = reference_homology_field(fc)
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
