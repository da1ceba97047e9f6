"""The assembled pages and the mod-a table read straight off the pieces,
against the box product route they replaced (tests/frozen_pages.py),
and the mod-a table against the mod-a homology of the complex itself.

assembled_page_list sums the free pieces' classes in one page and adds
each torsion piece's closed form; hn_table places each piece's classes
in one table.  Both must equal the frozen reference, hat and module
pages alike, on seeded random decompositions (many of them with pieces
sharing positions) and on the decompositions of the benchmark's link
ladder.  hn_table must also equal the bigraded mod-a homology of
conjugated corpus complexes and of the link ladder cubes.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from frozen_pages import reference_assembled_page_list, reference_hn_table
from twkit.complexes import homology_field, reduce_mod_a
from twkit.corpus import conjugate, random_decomposition
from twkit.decompose import decompose, hn_table, reassemble
from twkit.links import LinkDiagram, Sl2Potential, build_sl2_cube
from twkit.pages import assembled_page_list

# the benchmark's link ladder, with the standard potential and every
# potential 1=c (k = 2) whose coefficient the benchmark draws from
LINK_LADDER = (("1 1 1", 2), ("1 -2 1 -2", 3), ("1 1 1 1 1", 2), ("1 1 1 2 -1 2", 3))
POTENTIALS = (Sl2Potential.standard(),) + tuple(
    Sl2Potential(2, ((1, c),)) for c in sorted({Fraction(n, q) for n in (-3, -2, -1, 1, 2, 3) for q in (1, 2)})
)
PAGES = (1, 2, 3, 5, 7, 13)


@lru_cache(maxsize=None)
def link_cubes(word, strands):
    """The cubes twkit link builds for the braid, one per potential."""
    diagram = LinkDiagram.from_braid_text(word, strands)
    return tuple(build_sl2_cube(diagram, p.integral_form()) for p in POTENTIALS)


@lru_cache(maxsize=None)
def corpus_complexes(k):
    """Eleven seeded conjugated complexes with the given k."""
    rng = random.Random(1600 + k)
    out = []
    while len(out) < 11:
        d = random_decomposition(rng, max_generators=24)
        if d.k == k:
            out.append(conjugate(rng, reassemble(d)))
    return tuple(out)


def assert_matches_frozen(d):
    assert hn_table(d) == reference_hn_table(d)
    for hat in (True, False):
        assert assembled_page_list(d, hat, PAGES) == reference_assembled_page_list(d, hat, PAGES)


def test_random_decompositions_match_frozen():
    rng = random.Random(1601)
    mixed = 0
    for _ in range(80):
        # a narrow degree span makes many pieces share a position
        span = rng.choice(((-6, 6), (-20, 20)))
        d = random_decomposition(rng, max_generators=rng.choice((4, 10, 40, 120)), degree_span=span)
        mixed += bool(d.free_pieces and d.torsion_pieces)
        assert_matches_frozen(d)
    assert mixed >= 40


@pytest.mark.parametrize("word,strands", LINK_LADDER)
def test_link_ladder_matches_frozen(word, strands):
    for c in link_cubes(word, strands):
        assert_matches_frozen(decompose(c))


def assert_hn_is_homology(c):
    """hn_table of c's decomposition is the bigraded homology of c mod a;
    returns whether c has torsion."""
    d = decompose(c)
    assert hn_table(d) == homology_field(reduce_mod_a(c)).bigraded
    return bool(d.torsion_pieces)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hn_table_is_mod_a_homology_on_corpus(k):
    assert sum(assert_hn_is_homology(c) for c in corpus_complexes(k)) >= 3


@pytest.mark.parametrize("word,strands", LINK_LADDER)
def test_hn_table_is_mod_a_homology_on_link_ladder(word, strands):
    # the standard potential and the 1=c potentials all have k = 2 and
    # leave torsion on every rung
    assert all([assert_hn_is_homology(c) for c in link_cubes(word, strands)])
