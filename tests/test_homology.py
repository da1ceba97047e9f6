"""Mod-a homology and the first differential against the one reference,
tests/frozen_homology.py, on a ladder of link cubes, the 2-braids,
seeded corpus complexes and hand-built field complexes; then the
refusals of the row forms, the eliminations each route makes, and the
checks that refuse a doctored homology basis.

reduce_mod_a, homology_field and first_differential run on sparse rows:
one elimination per differential gives the kernel at its source and the
image at its target, and the representatives and the projection of the
lifts are read in cycle coordinates.  Every answer must agree with the
reference value for value, as tests/test_frozen_homology.py checks it.
"""

from fractions import Fraction

import pytest

from builders import conjugated_corpus, is_canonical
from dense_la import dense_rows, sparse_rows
from test_frozen_homology import assert_equal_to_frozen, assert_homology_equal
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
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, build_sl2_cube, build_twobraid


def assert_graded_matches(c):
    """reduce_mod_a, homology_field and first_differential of c, and
    homology_field of its a = 1 specialization, against the reference."""
    fd = assert_equal_to_frozen(c)
    assert_homology_equal(specialize_a_to_1(c))
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
    nonzero = sum(bool(assert_graded_matches(c).blocks) for c in conjugated_corpus(6000 + k, k, 21))
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
    assert fc.degrees == filtered.degrees == degrees
    assert sorted(fc.mats) == sorted(filtered.mats) == sorted(mats)
    for i, rows in fc.mats.items():
        assert dense_rows(rows, fc.rank(i)) == dense_rows(filtered.mats[i], fc.rank(i)) == mats[i]
        assert all(is_canonical(x) for row in rows for x in row.values())
    assert_homology_equal(fc)
    assert_homology_equal(filtered)


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
    wide = (ValueError, "differential at degree 0: column count does not match source rank")
    assert _refusal(lambda: complex_from_data(1, {0: [0], 1: [0]}, {0: [[1, 0]]})) == wide
    out_of_range = (ValueError, "differential at degree 0: column index out of range")
    assert _refusal(lambda: GradedComplex(ring, {0: (0,), 1: (0,)}, {0: [{1: 1}]})) == out_of_range
    assert _refusal(lambda: FieldComplex({0: (0,), 1: (0,)}, {0: [{1: 1}]})) == out_of_range
    assert _refusal(lambda: FilteredFieldComplex({0: (0,), 1: (0,)}, {0: [{-1: 1}]})) == out_of_range
    # one row too many
    tall = (ValueError, "differential at degree 0: row count does not match target rank")
    assert _refusal(lambda: complex_from_data(1, {0: [0], 1: [0]}, {0: [[1], [1]]})) == tall
    assert _refusal(lambda: GradedComplex(ring, {0: (0,), 1: (0,)}, {0: [{0: 1}, {0: 1}]})) == tall
    assert _refusal(lambda: FieldComplex({0: (0,), 1: (0,)}, {0: [{0: 1}, {0: 1}]})) == tall
    assert _refusal(lambda: FilteredFieldComplex({0: (0,), 1: (0,)}, {0: [{0: 1}, {0: 1}]})) == tall
    # the degree named is the differential's own
    assert _refusal(lambda: FieldComplex({2: (0,), 3: (0,)}, {2: [{1: 1}]})) == (
        ValueError,
        "differential at degree 2: column index out of range",
    )
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
