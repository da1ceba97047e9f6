"""Mod-a homology and the first differential in cycle coordinates,
against the stacked versions they replaced (tests/frozen_homology.py),
and the r = 1 page formula for the ranks of d_1.

homology_field picks its representatives and first_differential
projects its lifts on the free columns of each degree, where every
cycle is a unit vector.  The answers must not change: dims,
representatives, boundaries, the bigraded table and every block of d_1
agree with the frozen reference in value and in type (int or Fraction)
on a seeded ladder of link cubes, 2-braids and conjugated corpus
complexes, and on the a = 1 specializations of the corpus complexes.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from frozen_homology import reference_first_differential, reference_homology_field
from twkit.complexes import first_differential, homology_field, reduce_mod_a, specialize_a_to_1
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import decompose, reassemble
from twkit.links import LinkDiagram, Sl2Potential, TwoBraidSpec, build_sl2_cube, build_twobraid

# the benchmark's link ladder, then T(2,7), T(3,4), T(2,8) and T(3,5)
LINK_LADDER = (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3))
TORUS_KNOTS = {"T(2,7)": ("1 " * 7, 2), "T(3,4)": ("1 2 " * 4, 3), "T(2,8)": ("1 " * 8, 2), "T(3,5)": ("1 2 " * 5, 3)}
# the potentials of the byte-identity checks: standard, 1=-3/2, and
# --k 1 with 1=1,2=1/3 and with 1=2,2=-3
POTENTIALS = (
    Sl2Potential.standard(),
    Sl2Potential(2, ((1, Fraction(-3, 2)),)),
    Sl2Potential(1, ((1, Fraction(1)), (2, Fraction(1, 3)))),
    Sl2Potential(1, ((1, Fraction(2)), (2, Fraction(-3)))),
)
COEFFICIENTS = (1, Fraction(-3, 2), 2)


@lru_cache(maxsize=None)
def link_cube(word, strands, potential, integral):
    """The cube twkit link builds (integral) or the one over the given potential."""
    diagram = LinkDiagram.from_braid_text(word.strip(), strands)
    return build_sl2_cube(diagram, potential.integral_form() if integral else potential)


@lru_cache(maxsize=None)
def corpus_complexes(k):
    """Eleven seeded conjugated complexes with the given k."""
    rng = random.Random(7100 + k)
    out = []
    while len(out) < 11:
        d = random_decomposition(rng, max_generators=24)
        if d.k == k:
            out.append(conjugate(rng, reassemble(d)))
    return tuple(out)


# -- equal to the frozen reference, value and type --------------------------


def typed(v):
    """A sparse vector with the type of each value."""
    return [(j, type(x), x) for j, x in sorted(v.items())]


def assert_homology_equal(fc):
    new, old = homology_field(fc), reference_homology_field(fc)
    assert new.dims == old.dims
    if old.bigraded is None:
        assert new.bigraded is None
    else:
        assert new.bigraded.items() == old.bigraded.items()
    for field in ("representatives", "boundaries"):
        a, b = getattr(new, field), getattr(old, field)
        assert sorted(a) == sorted(b), field
        for i in b:
            assert [typed(v) for v in a[i]] == [typed(v) for v in b[i]], (field, i)


def assert_equal_to_frozen(c):
    assert_homology_equal(reduce_mod_a(c))
    new, old = first_differential(c), reference_first_differential(c)
    assert (new.k, new.dims, new.rep_degrees) == (old.k, old.dims, old.rep_degrees)
    assert sorted(new.blocks) == sorted(old.blocks)
    for i, block in old.blocks.items():
        assert type(new.blocks[i]) is tuple
        assert [typed(row) for row in new.blocks[i]] == [typed(row) for row in block], i
    return new


@pytest.mark.parametrize("integral", [True, False], ids=["integral", "faithful"])
@pytest.mark.parametrize("potential", range(len(POTENTIALS)))
@pytest.mark.parametrize("word,strands", LINK_LADDER)
def test_link_ladder(word, strands, potential, integral):
    assert_equal_to_frozen(link_cube(word, strands, POTENTIALS[potential], integral))


@pytest.mark.parametrize(
    "name, integral",
    [("T(2,7)", True), ("T(3,4)", True), ("T(2,7)", False), ("T(3,4)", False), ("T(2,8)", False)],
    ids=["T(2,7)", "T(3,4)", "T(2,7) faithful", "T(3,4) faithful", "T(2,8) faithful"],
)
def test_torus_knots(name, integral):
    assert_equal_to_frozen(link_cube(*TORUS_KNOTS[name], POTENTIALS[0], integral))


@pytest.mark.parametrize("N", [10, 20, 30])
def test_twobraids(N):
    assert not assert_equal_to_frozen(build_twobraid(TwoBraidSpec.power_basis(N, N // 2))).is_zero()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_corpus_complexes(k):
    nonzero = 0
    for c in corpus_complexes(k):
        nonzero += not assert_equal_to_frozen(c).is_zero()
        assert_homology_equal(specialize_a_to_1(c))
    assert nonzero >= 3


# -- the r = 1 page formula ---------------------------------------------------


def assert_page_formula(c):
    """d_1 out of degree i - 1 has rank the number of torsion pieces
    (i, 1, s): one rank for each width-one piece."""
    expected = {}
    for i, m, _ in decompose(c).torsion_pieces:
        if m == 1:
            expected[i - 1] = expected.get(i - 1, 0) + 1
    assert first_differential(c).ranks() == expected
    return expected


@pytest.mark.parametrize("potential", range(len(POTENTIALS)))
@pytest.mark.parametrize("word,strands", LINK_LADDER)
def test_page_formula_link_ladder(word, strands, potential):
    # the k = 1 potentials leave only pieces of width 2 here, so d_1 = 0
    expected = assert_page_formula(link_cube(word, strands, POTENTIALS[potential], True))
    assert bool(expected) == (POTENTIALS[potential].k == 2)


@pytest.mark.parametrize("name", sorted(TORUS_KNOTS))
def test_page_formula_torus_knots(name):
    assert assert_page_formula(link_cube(*TORUS_KNOTS[name], POTENTIALS[0], True))


@pytest.mark.parametrize("N", [10, 20])
@pytest.mark.parametrize("coefficient", COEFFICIENTS)
def test_page_formula_twobraids(N, coefficient):
    assert assert_page_formula(build_twobraid(TwoBraidSpec.power_basis(N, N // 2, coefficient)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_page_formula_corpus(k):
    assert sum(bool(assert_page_formula(c)) for c in corpus_complexes(k)) >= 3
