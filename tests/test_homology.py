"""Mod-a homology and the first differential against frozen dense
references.

reduce_mod_a, homology_field and first_differential run on sparse rows:
one elimination per differential gives the kernel at its source and the
image at its target, and the representatives and the projection of the
lifts are read in cycle coordinates.  The dense code they replaced
before that is kept below, verbatim up to storage and on the dense
helpers of dense_la, as the reference; every answer must agree with it
value for value.
"""

import random
from fractions import Fraction

import pytest

from dense_la import (
    dense_image_basis,
    dense_kernel_basis,
    dense_matvec,
    dense_pivot_columns,
    dense_rows,
    dense_solve,
    sparse_rows,
)
from twkit import complexes, exactla
from twkit.algebra import GradedRing
from twkit.complexes import (
    ComplexError,
    FieldComplex,
    FieldHomologyBasis,
    FilteredFieldComplex,
    GradedComplex,
    complex_from_data,
    first_differential,
    homology_field,
    reduce_mod_a,
    specialize_a_to_1,
)
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import reassemble
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, build_sl2_cube, build_twobraid

# -- the frozen dense reference -----------------------------------------


def reference_reduce_mod_a(c):
    """(degrees, dense rows): a = 0, one Fraction per cell."""
    mats = {}
    for i, d in c.differentials.items():
        mats[i] = [
            [x if x and d.source_degrees[cc] == tdeg else Fraction(0) for cc, x in enumerate(row)]
            for tdeg, row in zip(d.target_degrees, d.entries)
        ]
    return c.degrees, mats


def reference_homology(degrees, mats, graded=True):
    """Kernel at i and image of d^{i-1} each by its own elimination,
    then pivot columns of the dense [image | cycles] stack."""
    dims, reps, bnds, bigraded = {}, {}, {}, {}
    for i in sorted(degrees):
        n = len(degrees[i])
        cycles = dense_kernel_basis([list(r) for r in mats.get(i, ())], ncols=n)
        image = dense_image_basis([list(r) for r in mats.get(i - 1, ())])
        bnds[i] = tuple(tuple(v) for v in image)
        stacked = [
            [image[j][r] for j in range(len(image))] + [cycles[j][r] for j in range(len(cycles))]
            for r in range(n)
        ]
        pivots = dense_pivot_columns(stacked)
        chosen = [cycles[p - len(image)] for p in pivots if p >= len(image)]
        dims[i] = len(chosen)
        reps[i] = tuple(tuple(v) for v in chosen)
        if graded:
            for v in chosen:
                vdegs = {degrees[i][c] for c, x in enumerate(v) if x}
                assert len(vdegs) == 1
                key = (i, vdegs.pop())
                bigraded[key] = bigraded.get(key, 0) + 1
    return dims, reps, bnds, bigraded if graded else None


def reference_first_differential(c, degrees, homology):
    """(dims, rep_degrees, blocks): lift by dense matvec, project by a
    dense solve on the dense transposed basis.  degrees and homology
    are c's reference_reduce_mod_a degrees and their reference_homology."""
    dims, reps_by_degree, bnds, _ = homology
    k = c.ring.k
    rep_degrees = {}
    for i, reps in reps_by_degree.items():
        rep_degrees[i] = tuple(degrees[i][[ci for ci, x in enumerate(v) if x][0]] for v in reps)
    blocks = {}
    for i in sorted(dims):
        reps = reps_by_degree[i]
        if not reps or dims.get(i + 1, 0) == 0:
            continue
        d = c.differentials.get(i)
        tgt_degs = degrees.get(i + 1, ())
        cols = []
        for vi, v in enumerate(reps):
            sigma = rep_degrees[i][vi]
            w = [Fraction(0)] * len(tgt_degs)
            if d is not None:
                for t, acc in enumerate(dense_matvec(d.entries, v)):
                    gap = sigma - tgt_degs[t]
                    if gap == 0:
                        if acc:
                            raise ComplexError("lift of a mod-a cycle has nonzero a^0 image")
                    elif gap == 2 * k:
                        w[t] = acc
            cols.append(w)
        basis_cols = [list(v) for v in bnds.get(i + 1, ())] + [list(v) for v in reps_by_degree.get(i + 1, ())]
        mat = [[basis_cols[j][r] for j in range(len(basis_cols))] for r in range(len(tgt_degs))]
        sols = dense_solve(mat, cols, ncols=len(basis_cols))
        assert sols is not None
        nb = len(bnds.get(i + 1, ()))
        block = [[sols[ci][nb + ri] for ci in range(len(reps))] for ri in range(dims[i + 1])]
        if any(x for row in block for x in row):
            blocks[i] = block
    return dims, rep_degrees, blocks


# -- comparison ----------------------------------------------------------


def is_canonical(x):
    """A nonzero int, or a Fraction that is not integral."""
    return (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)


def dense(v, n):
    """A sparse vector as a dense list; every stored value canonical."""
    assert all(is_canonical(x) for x in v.values()), v
    assert all(0 <= j < n for j in v), v
    return [v.get(j, 0) for j in range(n)]


def assert_canonical_rows(fc):
    assert all(is_canonical(x) for rows in fc.mats.values() for row in rows for x in row.values())


def assert_homology_matches(fc, degrees, mats, graded=True):
    """homology_field(fc) against the reference, which is returned."""
    hb = homology_field(fc)
    reference = reference_homology(degrees, mats, graded)
    dims, reps, bnds, bigraded = reference
    assert hb.dims == dims
    if graded:
        assert hb.bigraded.items() == sorted(bigraded.items())
    else:
        assert hb.bigraded is None
    for i in dims:
        n = len(degrees[i])
        assert [dense(v, n) for v in hb.representatives[i]] == [list(v) for v in reps[i]], i
        assert [dense(v, n) for v in hb.boundaries[i]] == [list(v) for v in bnds[i]], i
    return reference


def assert_graded_matches(c):
    """reduce_mod_a, homology_field and first_differential of c, and
    homology_field of its a = 1 specialization, against the reference."""
    fc = reduce_mod_a(c)
    degrees, mats = reference_reduce_mod_a(c)
    assert fc.degrees == {i: tuple(v) for i, v in degrees.items() if v}
    for i in mats:
        assert dense_rows(fc.mats.get(i, ({},) * fc.rank(i + 1)), fc.rank(i)) == mats[i], i
    assert_canonical_rows(fc)
    homology = assert_homology_matches(fc, degrees, mats)
    fd = first_differential(c)
    dims, rep_degrees, blocks = reference_first_differential(c, degrees, homology)
    assert (fd.dims, fd.rep_degrees) == (dims, rep_degrees)
    assert sorted(fd.blocks) == sorted(blocks)
    for i, block in blocks.items():
        assert type(fd.blocks[i]) is tuple and len(fd.blocks[i]) == dims[i + 1]
        assert all(is_canonical(x) for row in fd.blocks[i] for x in row.values())
        assert all(0 <= c < dims[i] for row in fd.blocks[i] for c in row)
        assert dense_rows(fd.blocks[i], dims[i]) == block, i
    filtered = specialize_a_to_1(c)
    dense_mats = {i: [list(row) for row in d.entries] for i, d in c.differentials.items()}
    assert_homology_matches(filtered, degrees, dense_mats, graded=False)
    return fd


# -- inputs -------------------------------------------------------------

# the benchmark's link ladder plus T(3,4), the knot 8_19
LINK_LADDER = (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3), ("1 2 1 2 1 2 1 2", 3))
POTENTIALS = (Sl2Potential.standard(), Sl2Potential(2, ((1, Fraction(-3, 2)),)))


@pytest.fixture(scope="module")
def link_complexes():
    return {
        (word, n): build_sl2_cube(LinkDiagram.from_braid_text(word, strands), potential)
        for word, strands in LINK_LADDER
        for n, potential in enumerate(POTENTIALS)
    }


@pytest.mark.parametrize("word", [w for w, _ in LINK_LADDER])
@pytest.mark.parametrize("potential", range(len(POTENTIALS)))
def test_link_ladder(link_complexes, word, potential):
    assert_graded_matches(link_complexes[(word, potential)])


@pytest.mark.parametrize("N", range(2, 13))
def test_twobraids(N):
    for i in range(1, N + 1):
        fd = assert_graded_matches(build_twobraid(TwoBraidSpec.power_basis(N, i)))
        # N - i width-one torsion pieces, each a rank-one block entry
        assert fd.rank() == N - i


@pytest.mark.parametrize("k", [1, 2, 3])
def test_seeded_corpus_complexes(k):
    rng = random.Random(6000 + k)
    done = nonzero = 0
    while done < 21:
        d = random_decomposition(rng, max_generators=24)
        if d.k != k:
            continue
        if assert_graded_matches(conjugate(rng, reassemble(d))).blocks:
            nonzero += 1
        done += 1
    assert nonzero >= 5


# field complexes with one feature each, as dense cells; the complex
# built from them at the boundary (complex_from_data, then the a = 0 and
# a = 1 specializations) must agree with the one built on sparse rows
HAND_BUILT = {
    # degree 1 empty, degree 3 has no outgoing map
    "empty degree": ({0: (0, 0), 2: (2,), 3: (2, 2)}, {2: [[1], [0]]}),
    "zero differential": ({0: (0, 2), 1: (0,)}, {0: [[0, 0]]}),
    "absent map": ({0: (1, 1), 1: (1, 1)}, {}),
    "through a middle degree": (
        {0: (0, 0), 1: (0, 0, 0), 2: (0,)},
        {0: [[1, 0], [0, 0], [0, 1]], 1: [[0, 1, 0]]},
    ),
    "mixed degrees": ({0: (0, 0, 4), 1: (0, 4), 2: (4,)}, {0: [[1, -1, 0], [0, 0, 0]], 1: [[0, 2]]}),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_hand_built_field_complexes(name, form):
    degrees, mats = HAND_BUILT[name]
    if form == "dense":
        graded = complex_from_data(1, degrees, mats)
        fc, filtered = reduce_mod_a(graded), specialize_a_to_1(graded)
    else:
        given = {i: sparse_rows(rows) for i, rows in mats.items()}
        fc, filtered = FieldComplex(degrees, given), FilteredFieldComplex(degrees, given)
    assert sorted(fc.mats) == sorted(mats)
    for i, rows in fc.mats.items():
        assert dense_rows(rows, fc.rank(i)) == mats[i]
    assert_canonical_rows(fc)
    assert_homology_matches(fc, degrees, mats)
    assert_homology_matches(filtered, degrees, mats, graded=False)


def _refusal(build):
    """The exception type and text that build() raises."""
    with pytest.raises(ValueError) as caught:
        build()
    return type(caught.value), str(caught.value)


def test_row_forms_reject_the_same_defects():
    """Each defect is refused in both row forms: dense cells at the
    boundary (complex_from_data) and sparse rows (GradedComplex and
    both field complexes), with one exception type and one text
    wherever the defect is the same."""
    ring = GradedRing(1)
    # an entry that raises the degree
    inhomogeneous = (ComplexError, "differential at degree 0 is not homogeneous at entry (0, 0)")
    assert _refusal(lambda: complex_from_data(1, {0: [0], 1: [2]}, {0: [[1]]})) == inhomogeneous
    assert _refusal(lambda: FieldComplex({0: (0,), 1: (2,)}, {0: [{0: 1}]})) == inhomogeneous
    assert _refusal(lambda: FilteredFieldComplex({0: (0,), 1: (2,)}, {0: [{0: 1}]})) == inhomogeneous
    # a dense row has a length, a sparse row a column out of range
    wide = (ValueError, "column count does not match source rank")
    assert _refusal(lambda: complex_from_data(1, {0: [0], 1: [0]}, {0: [[1, 0]]})) == wide
    out_of_range = (ValueError, "column index out of range")
    assert _refusal(lambda: GradedComplex(ring, {0: (0,), 1: (0,)}, {0: [{1: 1}]})) == out_of_range
    assert _refusal(lambda: FieldComplex({0: (0,), 1: (0,)}, {0: [{1: 1}]})) == out_of_range
    assert _refusal(lambda: FilteredFieldComplex({0: (0,), 1: (0,)}, {0: [{-1: 1}]})) == out_of_range
    # one row too many
    tall = (ValueError, "row count does not match target rank")
    assert _refusal(lambda: complex_from_data(1, {0: [0], 1: [0]}, {0: [[1], [1]]})) == tall
    assert _refusal(lambda: FieldComplex({0: (0,), 1: (0,)}, {0: [{0: 1}, {0: 1}]})) == tall
    assert _refusal(lambda: FilteredFieldComplex({0: (0,), 1: (0,)}, {0: [{0: 1}, {0: 1}]})) == tall
    # d^2 != 0
    square = (ComplexError, "d^2 != 0 on the square starting at degree 0 (maps 0->1->2)")
    assert _refusal(lambda: complex_from_data(1, {0: [0], 1: [0], 2: [0]}, {0: [[1]], 1: [[1]]})) == square
    assert _refusal(lambda: FieldComplex({0: (0,), 1: (0,), 2: (0,)}, {0: [{0: 1}], 1: [{0: 1}]})) == square
    assert _refusal(lambda: FilteredFieldComplex({0: (2,), 1: (0,), 2: (0,)}, {0: [{0: 1}], 1: [{0: 1}]})) == square


# -- one elimination per differential ------------------------------------


def normalized(rows):
    """Rows of either form as {col: value} maps of their nonzeros."""
    return [{j: x for j, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x} for r in rows]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_sl2_cube(LinkDiagram.from_braid_text("1 -2 1 -2", 3), Sl2Potential.standard()),
        lambda: build_twobraid(TwoBraidSpec.power_basis(6, 3)),
    ],
    ids=["cube", "2-braid"],
)
def test_each_differential_is_eliminated_at_most_once(monkeypatch, build):
    fc = reduce_mod_a(build())
    seen = []
    row_reduce = exactla.row_reduce

    def counting(rows):
        seen.append(normalized(rows))
        return row_reduce(rows)

    monkeypatch.setattr(exactla, "row_reduce", counting)
    homology_field(fc)
    assert len(seen) <= len(fc.mats) + len(fc.degrees)
    for i, rows in fc.mats.items():
        assert seen.count(normalized(rows)) <= 1, i


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_sl2_cube(LinkDiagram.from_braid_text("1 1 1 2 -1 2", 3), Sl2Potential.standard()),
        lambda: build_twobraid(TwoBraidSpec.power_basis(6, 3)),
    ],
    ids=["cube", "2-braid"],
)
def test_first_differential_eliminates_nothing_past_its_homology(monkeypatch, build):
    """The lifts are read off by the subquotients homology_field built,
    so first_differential makes exactly the eliminations it makes."""
    c = build()
    seen = []
    row_reduce = exactla.row_reduce

    def counting(rows):
        seen.append(normalized(rows))
        return row_reduce(rows)

    monkeypatch.setattr(exactla, "row_reduce", counting)
    homology_field(reduce_mod_a(c))
    alone = list(seen)
    seen.clear()
    fd = first_differential(c)
    assert seen == alone and alone
    assert fd.nonzero_degrees()


def test_a0_lift_check_fires(monkeypatch):
    """A representative that is no mod-a cycle must be refused, not lifted."""
    c = complex_from_data(1, {0: [0], 1: [0]}, {0: [[1]]})
    unit = ({0: Fraction(1)},)
    doctored = FieldHomologyBasis(
        dims={0: 1, 1: 1}, representatives={0: unit, 1: unit}, boundaries={0: (), 1: ()}, bigraded=None
    )
    monkeypatch.setattr(complexes, "homology_field", lambda fc: doctored)
    with pytest.raises(ComplexError, match="nonzero a\\^0 image"):
        first_differential(c)


def test_projection_check_fires(monkeypatch):
    """A lift that is no cycle one degree up must be refused, not
    projected: in cycle coordinates every vector has coordinates, so
    the check is an explicit product with d mod a.  The complex is
    e0, e1 (degrees 0, 2) -> f, g (degrees 2, -2) -> h (degree -2) with
    d(e1) = f + a^2 g, d(f) = a^2 h and d(g) = -h.  The doctored
    representative e0 + e1 mixes degrees, which the a^0 check does not
    see; its lift is g, and d(g) = -h mod a.  The cycle coordinates
    are the free columns of d mod a, where g has no coordinate, so the
    read-off alone would project g to zero."""
    c = complex_from_data(1, {0: [0, 2], 1: [2, -2], 2: [-2]}, {0: [[0, 1], [0, 1]], 1: [[1, -1]]})
    doctored = FieldHomologyBasis(
        dims={0: 1, 1: 1},
        representatives={0: ({0: 1, 1: 1},), 1: ({0: 1},)},
        boundaries={0: (), 1: ()},
        bigraded=None,
        subquotients={0: exactla.Subquotient([{0: 1, 1: 1}], []), 1: exactla.Subquotient([{0: 1}], [])},
    )
    assert doctored.subquotients[1].coordinates([{1: 1}]) == [{}]
    monkeypatch.setattr(complexes, "homology_field", lambda fc: doctored)
    with pytest.raises(ComplexError, match="projection onto the homology basis failed"):
        first_differential(c)
